"""Streaming DWARF reader for structure-layout extraction.

Decodes compilation-unit headers, abbreviation tables and DIE trees from
.debug_info (and .debug_types), resolving just the attributes needed to
recover type layouts: names, byte sizes and member locations. DWARF
versions 2 through 5 are accepted; both .debug_str indirection (strp) and
the DWARF 5 indexed-string scheme (strx via .debug_str_offsets) are
supported, as are the GCC and Clang encodings of member positions.

A walker is told which attributes it wants of which tag. Each unit's
walker compiles an abbreviation declaration, on its first use, into a
decode plan for the unit's address size, offset size and version and for
the attributes wanted of the declaration's tag: a tuple of steps run for
every DIE that uses its code. Adjacent fixed-size attributes that are not
wanted are one bounds-checked skip. Wanted fixed-size integers and
.debug_str offsets are unpacked in place with a precompiled struct. Every
other attribute, wanted or not (LEB128, inline strings, blocks, strx,
DW_FORM_indirect), goes through the general decoder, which reads past one
not wanted with the bounds checks, messages and offsets of a decode. That
decoder sorts a form into fixed size, LEB128, inline string or block and
gives the bytes their meaning from _MEANINGS, the table the plan compiler
reads too. A strp name is read from .debug_str once per StringTables.

A childless member DIE whose attributes all have fixed sizes, and whose
wanted ones are an integer DW_AT_data_member_location and at most a strp
DW_AT_name, has a run form too: one struct over the whole DIE, with pad
bytes for the attributes not wanted. The DIE and those after it that
repeat its one-byte code, start in the unit and fit in the section are
decoded in one loop and yielded as one item. A DIE that does not fit
takes the steps and raises their error.

A ref1/2/4/8 or ref_udata reference decodes to its .debug_info offset, the
unit's start plus the value; ref_addr to the value as written; ref_sig8 is
not resolved. A DIE with children and a wanted DW_AT_sibling is jumped
over: the walker moves to the sibling, which must lie past the DIE's
attributes and no further than the unit's end, and yields no child.

Every skip is bounds-checked, so a read past the section end raises
MalformedDwarfError wherever it happens. An attribute that is not wanted
is never decoded, and a DIE jumped over is never read, so a bad string
reference on, say, a parameter goes unnoticed; the same reference on a
wanted attribute raises MalformedDwarfError.
"""

import struct
from typing import Collection, Dict, Iterator, List, Mapping, NamedTuple, Optional, Tuple, Union

from .errors import MalformedDwarfError

# Tags of interest.
TAG_CLASS_TYPE = 0x02
TAG_MEMBER = 0x0D
TAG_COMPILE_UNIT = 0x11
TAG_STRUCTURE_TYPE = 0x13
TAG_SUBPROGRAM = 0x2E
MEMBER_RUN = -1  # the tag of a walker item that stands for a run of member DIEs

# Attributes of interest.
AT_SIBLING = 0x01
AT_NAME = 0x03
AT_BYTE_SIZE = 0x0B
AT_DATA_MEMBER_LOCATION = 0x38
AT_DECLARATION = 0x3C
AT_DATA_BIT_OFFSET = 0x6B
AT_STR_OFFSETS_BASE = 0x72

# Forms (DWARF 5, table 7.6). GNU extensions included for robustness.
FORM_ADDR = 0x01
FORM_BLOCK2 = 0x03
FORM_BLOCK4 = 0x04
FORM_DATA2 = 0x05
FORM_DATA4 = 0x06
FORM_DATA8 = 0x07
FORM_STRING = 0x08
FORM_BLOCK = 0x09
FORM_BLOCK1 = 0x0A
FORM_DATA1 = 0x0B
FORM_FLAG = 0x0C
FORM_SDATA = 0x0D
FORM_STRP = 0x0E
FORM_UDATA = 0x0F
FORM_REF_ADDR = 0x10
FORM_REF1 = 0x11
FORM_REF2 = 0x12
FORM_REF4 = 0x13
FORM_REF8 = 0x14
FORM_REF_UDATA = 0x15
FORM_INDIRECT = 0x16
FORM_SEC_OFFSET = 0x17
FORM_EXPRLOC = 0x18
FORM_FLAG_PRESENT = 0x19
FORM_STRX = 0x1A
FORM_ADDRX = 0x1B
FORM_REF_SUP4 = 0x1C
FORM_STRP_SUP = 0x1D
FORM_DATA16 = 0x1E
FORM_LINE_STRP = 0x1F
FORM_REF_SIG8 = 0x20
FORM_IMPLICIT_CONST = 0x21
FORM_LOCLISTX = 0x22
FORM_RNGLISTX = 0x23
FORM_REF_SUP8 = 0x24
FORM_STRX1 = 0x25
FORM_STRX2 = 0x26
FORM_STRX3 = 0x27
FORM_STRX4 = 0x28
FORM_ADDRX1 = 0x29
FORM_ADDRX2 = 0x2A
FORM_ADDRX3 = 0x2B
FORM_ADDRX4 = 0x2C
FORM_GNU_ADDR_INDEX = 0x1F01
FORM_GNU_STR_INDEX = 0x1F02
FORM_GNU_REF_ALT = 0x1F20
FORM_GNU_STRP_ALT = 0x1F21

OP_PLUS_UCONST = 0x23

_UNIT_TYPES_WITH_SIGNATURE = {2, 6}  # DW_UT_type, DW_UT_split_type

# Byte sizes of the forms whose size is fixed by the form alone; the
# zero-sized forms keep their value in the abbreviation. _form_sizes adds
# the forms sized by the unit header.
_FIXED_FORM_SIZES = {
    FORM_DATA1: 1, FORM_REF1: 1, FORM_FLAG: 1, FORM_STRX1: 1, FORM_ADDRX1: 1,
    FORM_DATA2: 2, FORM_REF2: 2, FORM_STRX2: 2, FORM_ADDRX2: 2,
    FORM_STRX3: 3, FORM_ADDRX3: 3,
    FORM_DATA4: 4, FORM_REF4: 4, FORM_REF_SUP4: 4, FORM_STRX4: 4, FORM_ADDRX4: 4,
    FORM_DATA8: 8, FORM_REF8: 8, FORM_REF_SIG8: 8, FORM_REF_SUP8: 8,
    FORM_DATA16: 16,
    FORM_FLAG_PRESENT: 0, FORM_IMPLICIT_CONST: 0,
}
_OFFSET_SIZED_FORMS = (FORM_STRP, FORM_LINE_STRP, FORM_SEC_OFFSET, FORM_STRP_SUP,
                       FORM_GNU_REF_ALT, FORM_GNU_STRP_ALT)
_LEB_FORMS = frozenset([FORM_UDATA, FORM_SDATA, FORM_REF_UDATA, FORM_STRX, FORM_ADDRX,
                        FORM_LOCLISTX, FORM_RNGLISTX, FORM_GNU_ADDR_INDEX,
                        FORM_GNU_STR_INDEX])
# Byte size of each block form's length prefix; 0 means a ULEB128 length.
_BLOCK_PREFIX = {FORM_BLOCK1: 1, FORM_BLOCK2: 2, FORM_BLOCK4: 4, FORM_BLOCK: 0,
                 FORM_EXPRLOC: 0}
# What the number read for a fixed-size or unsigned LEB128 form means:
# itself ("int"), a flag, a .debug_str or .debug_line_str offset, an
# index into .debug_str_offsets, or a reference relative to the unit's
# start ("ref"), which decodes to its .debug_info offset. "present" is
# DW_FORM_flag_present, true with no bytes. A form missing here, ref_sig8
# among them, carries a value never interpreted and decodes to None.
_MEANINGS = {
    FORM_DATA1: "int", FORM_DATA2: "int", FORM_DATA4: "int", FORM_DATA8: "int",
    FORM_SEC_OFFSET: "int", FORM_UDATA: "int", FORM_REF_ADDR: "int",
    FORM_REF1: "ref", FORM_REF2: "ref", FORM_REF4: "ref", FORM_REF8: "ref",
    FORM_REF_UDATA: "ref",
    FORM_FLAG: "flag", FORM_FLAG_PRESENT: "present",
    FORM_STRP: "strp", FORM_LINE_STRP: "line_strp",
    FORM_STRX: "strx", FORM_GNU_STR_INDEX: "strx", FORM_STRX1: "strx",
    FORM_STRX2: "strx", FORM_STRX3: "strx", FORM_STRX4: "strx",
}
_LETTERS = {1: "B", 2: "H", 4: "I", 8: "Q"}  # struct format of each unsigned size
_UNSIGNED = {n: struct.Struct("<" + letter) for n, letter in _LETTERS.items()}

# Decode-plan step kinds. A step is (kind, size or form, attribute, argument);
# the attribute is None for a step that only skips. The kinds up to _STRP
# read `size` bytes at the current position and share one bounds check.
_SKIP = 0     # advance over `size` bytes of attributes that are not wanted
_UNPACK = 1   # unsigned integer of `size` bytes; argument: its unpack_from
_STRP = 2     # .debug_str offset of `size` bytes; argument: its unpack_from
_CONST = 3    # value held by the abbreviation; argument: the value
_GENERAL = 4  # any other form, wanted or not, through UnitWalker._value; argument: None
_UNPACKED = {"int": _UNPACK, "strp": _STRP}  # wanted fixed-size kinds


class Cursor:
    """Bounds-checked little-endian byte reader over one debug section."""

    __slots__ = ("data", "pos", "section")

    def __init__(self, data: bytes, section: str, pos: int = 0):
        self.data = data
        self.pos = pos
        self.section = section

    def fail(self, message: str) -> "MalformedDwarfError":
        return MalformedDwarfError(message, self.section, self.pos)

    def take(self, n: int) -> bytes:
        start = self.pos
        self.skip(n)
        return self.data[start : self.pos]

    def skip(self, n: int) -> None:
        end = self.pos + n
        if end > len(self.data):
            raise self.fail(f"unexpected end of data reading {n} bytes")
        self.pos = end

    def u8(self) -> int:
        return self.take(1)[0]

    def uint(self, n: int) -> int:
        """Unsigned little-endian integer of `n` bytes."""
        return int.from_bytes(self.take(n), "little")

    def uleb(self) -> int:
        result = 0
        shift = 0
        while True:
            byte = self.u8()
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 63:
                raise self.fail("ULEB128 value too large")

    def sleb(self) -> int:
        result = 0
        shift = 0
        while True:
            byte = self.u8()
            result |= (byte & 0x7F) << shift
            shift += 7
            if not byte & 0x80:
                if byte & 0x40:
                    result -= 1 << shift
                return result
            if shift > 63:
                raise self.fail("SLEB128 value too large")

    def cstr(self) -> bytes:
        end = self.data.find(b"\x00", self.pos)
        if end < 0:
            raise self.fail("unterminated string")
        s = self.data[self.pos : end]
        self.pos = end + 1
        return s


class UnitHeader(NamedTuple):
    start: int           # .debug_info offset of the unit's first byte
    version: int
    address_size: int
    abbrev_offset: int
    offset_size: int     # 4, or 8 in 64-bit DWARF
    die_start: int       # first DIE byte
    end: int             # one past the unit


def iter_unit_headers(data: bytes, section: str = ".debug_info") -> Iterator[UnitHeader]:
    """Yield unit headers in order; raises MalformedDwarfError on damage."""
    cur = Cursor(data, section)
    while cur.pos < len(data):
        start = cur.pos
        offset_size = 4
        length = cur.uint(4)
        if length == 0xFFFFFFFF:
            offset_size = 8
            length = cur.uint(8)
        elif length >= 0xFFFFFFF0:
            raise cur.fail(f"reserved initial length {length:#x}")
        end = cur.pos + length
        if end > len(data):
            raise cur.fail("unit length extends past end of section")
        version = cur.uint(2)
        if not 2 <= version <= 5:
            raise cur.fail(f"unsupported DWARF version {version}")
        if version >= 5:
            unit_type = cur.u8()
            address_size = cur.u8()
            abbrev_offset = cur.uint(offset_size)
            if unit_type in _UNIT_TYPES_WITH_SIGNATURE:
                cur.skip(8 + offset_size)  # type signature + type offset
            elif unit_type in (4, 5):  # skeleton / split_compile
                cur.skip(8)  # dwo_id
        else:
            abbrev_offset = cur.uint(offset_size)
            address_size = cur.u8()
            if section == ".debug_types":
                cur.skip(8 + offset_size)  # type signature + type offset
        if address_size not in (2, 4, 8):
            raise cur.fail(f"implausible address size {address_size}")
        yield UnitHeader(start, version, address_size, abbrev_offset, offset_size, cur.pos, end)
        cur.pos = end


class AbbrevDecl(NamedTuple):
    tag: int
    has_children: bool
    specs: List[Tuple[int, int, Optional[int]]]  # (attr, form, implicit const)


def parse_abbrev_table(data: bytes, offset: int) -> Dict[int, AbbrevDecl]:
    cur = Cursor(data, ".debug_abbrev", offset)
    table: Dict[int, AbbrevDecl] = {}
    while True:
        code = cur.uleb()
        if code == 0:
            return table
        tag = cur.uleb()
        has_children = cur.u8() != 0
        specs: List[Tuple[int, int, Optional[int]]] = []
        while True:
            attr = cur.uleb()
            form = cur.uleb()
            if attr == 0 and form == 0:
                break
            const = cur.sleb() if form == FORM_IMPLICIT_CONST else None
            specs.append((attr, form, const))
        table[code] = AbbrevDecl(tag, has_children, specs)


class StringTables:
    """The string sections of one binary. Not a record: each instance owns
    its own name cache, which a record default would share between binaries."""

    __slots__ = ("debug_str", "line_str", "str_offsets", "names")

    def __init__(self, debug_str: Optional[bytes] = None, line_str: Optional[bytes] = None,
                 str_offsets: Optional[bytes] = None):
        self.debug_str, self.line_str, self.str_offsets = debug_str, line_str, str_offsets
        # strp names decoded so far, by .debug_str offset, shared by every unit
        # walked with these tables.
        self.names: Dict[int, str] = {}


def _read_cstr_at(table: Optional[bytes], offset: int, cur: Cursor, what: str) -> str:
    if table is None:
        raise cur.fail(f"{what} reference but section is absent")
    end = table.find(b"\x00", offset)
    if offset > len(table) or end < 0:
        raise cur.fail(f"{what} offset {offset:#x} out of range")
    return table[offset:end].decode("utf-8", "replace")


def _form_sizes(header: UnitHeader) -> Dict[int, int]:
    """Byte size of every fixed-size form in a unit with this header."""
    sizes = dict(_FIXED_FORM_SIZES)
    sizes[FORM_ADDR] = header.address_size
    for form in _OFFSET_SIZED_FORMS:
        sizes[form] = header.offset_size
    # DWARF 2 sized DW_FORM_ref_addr like an address; later versions like an offset.
    sizes[FORM_REF_ADDR] = header.address_size if header.version == 2 else header.offset_size
    return sizes


def _compile_plan(decl: AbbrevDecl, sizes: Dict[int, int],
                  wanted: Collection[int]) -> tuple:
    """Turn one abbreviation into (tag, has_children, steps, run form or None); see
    the module doc."""
    steps = []
    run = 0
    for attr, form, const in decl.specs:
        size = sizes.get(form)
        keep = attr in wanted
        if not keep and size is not None:
            run += size
            continue
        if run:
            steps.append((_SKIP, run, None, None))
            run = 0
        # An attribute not wanted gets here only without a fixed size: _GENERAL.
        meaning = _MEANINGS.get(form) if size is not None else None
        if meaning in _UNPACKED:
            steps.append((_UNPACKED[meaning], size, attr, _UNSIGNED[size].unpack_from))
        elif meaning == "present":
            steps.append((_CONST, 0, attr, True))
        elif form == FORM_IMPLICIT_CONST:
            steps.append((_CONST, 0, attr, const))
        else:
            steps.append((_GENERAL, form, attr if keep else None, None))
    if run:
        steps.append((_SKIP, run, None, None))
    member = decl.tag == TAG_MEMBER and not decl.has_children
    return decl.tag, decl.has_children, tuple(steps), _member_run(steps) if member else None


def _member_run(steps: list) -> Optional[tuple]:
    """(unpack_from over the whole DIE, its size, location index, name index or
    None, end of the name) of a childless member's steps, or None; see the module doc."""
    fmt, fields, size = "<", {}, 0
    for kind, n, attr, _ in steps:
        if kind > _STRP or attr in fields:
            return None
        fmt += f"{n}x" if kind == _SKIP else _LETTERS[n]
        size += n
        if kind != _SKIP:
            fields[attr] = kind, len(fields), size
    location = fields.pop(AT_DATA_MEMBER_LOCATION, (None,))
    name = fields.pop(AT_NAME, (_STRP, None, None))
    if fields or location[0] != _UNPACK or name[0] != _STRP:
        return None
    return struct.Struct(fmt).unpack_from, size, location[1], name[1], name[2]


class UnitWalker:
    """Iterates one unit's DIEs, decoding only the attributes that `wanted`,
    a mapping from tag to attribute numbers, lists for each DIE's tag.

    Each item is (depth, tag, {attribute: value}), or for a run of sibling
    member DIEs (depth, MEMBER_RUN, [(name or None, location), ...])."""

    def __init__(
        self,
        data: bytes,
        header: UnitHeader,
        abbrevs: Dict[int, AbbrevDecl],
        strings: StringTables,
        wanted: Mapping[int, Collection[int]],
        section: str = ".debug_info",
    ):
        self.cur = Cursor(data, section, header.die_start)
        self.header = header
        self.abbrevs = abbrevs
        self.strings = strings
        self.wanted = wanted
        self.sizes = _form_sizes(header)
        self.plans: Dict[int, tuple] = {}  # abbreviation code -> decode plan
        # Default per DWARF 5: the offset table starts right after its header,
        # a 4- or 12-byte length, a 2-byte version and 2 bytes of padding.
        self.str_offsets_base = 2 * header.offset_size

    def __iter__(self) -> Iterator[Tuple[int, int, Union[dict, list]]]:
        cur = self.cur
        data = cur.data
        limit = len(data)
        end = self.header.end
        plans = self.plans
        debug_str = self.strings.debug_str
        names = self.strings.names
        pos = cur.pos
        depth = 0
        while pos < end:
            code = data[pos]
            if code < 0x80:
                pos += 1
            else:
                cur.pos = pos
                code = cur.uleb()
                pos = cur.pos
            if code == 0:
                if depth > 0:
                    depth -= 1
                continue
            plan = plans.get(code)
            if plan is None:
                cur.pos = pos
                plan = self._plan(code)
            tag, has_children, steps, run = plan
            if run is not None and pos + run[1] <= limit:
                unpack, size, at_location, at_name, name_end = run
                # A run goes on while a DIE starts before `last`; a multi-byte code ends it.
                last = min(end, limit - size) if code < 0x80 else pos
                members = []
                while True:
                    fields = unpack(data, pos)
                    name = None
                    if at_name is not None:
                        name = names.get(fields[at_name])
                        if name is None:
                            cur.pos = pos + name_end
                            name = names[fields[at_name]] = _read_cstr_at(
                                debug_str, fields[at_name], cur, "strp string")
                    members.append((name, fields[at_location]))
                    pos += size
                    if pos >= last or data[pos] != code:
                        break
                    pos += 1
                yield depth, MEMBER_RUN, members
                continue
            attrs: dict = {}
            for kind, n, attr, arg in steps:
                if kind <= _STRP:
                    if pos + n > limit:
                        cur.pos = pos
                        cur.skip(n)  # raises
                    if kind == _UNPACK:
                        attrs[attr] = arg(data, pos)[0]
                    elif kind == _STRP:
                        offset = arg(data, pos)[0]
                        name = names.get(offset)
                        if name is None:
                            cur.pos = pos + n
                            name = names[offset] = _read_cstr_at(debug_str, offset, cur,
                                                                 "strp string")
                        attrs[attr] = name
                    pos += n
                    continue
                if kind == _CONST:
                    attrs[attr] = arg
                    continue
                # _GENERAL: decoded if wanted, else only read past.
                cur.pos = pos
                form = n
                # A loop rather than recursion: every DW_FORM_indirect step
                # reads a byte, so a hostile chain ends at the section end.
                while form == FORM_INDIRECT:
                    form = cur.uleb()
                value = self._value(form, attr is not None)
                if attr is not None:
                    attrs[attr] = value
                pos = cur.pos
            if tag == TAG_COMPILE_UNIT and AT_STR_OFFSETS_BASE in attrs:
                self.str_offsets_base = attrs[AT_STR_OFFSETS_BASE]
            yield depth, tag, attrs
            if has_children:
                # Every jump goes forward, so a hostile sibling cannot loop.
                sibling = attrs.get(AT_SIBLING)
                if type(sibling) is not int:
                    depth += 1
                elif pos < sibling <= end:
                    pos = sibling
                else:
                    cur.pos = pos
                    raise cur.fail(f"DW_AT_sibling {sibling:#x} is not past its DIE "
                                   f"and inside its unit")
        cur.pos = pos

    def _plan(self, code: int) -> tuple:
        """Decode plan for `code`, compiled on its first use in this unit."""
        decl = self.abbrevs.get(code)
        if decl is None:
            raise self.cur.fail(f"reference to unknown abbreviation code {code}")
        plan = self.plans[code] = _compile_plan(decl, self.sizes,
                                                self.wanted.get(decl.tag, ()))
        return plan

    def _strx(self, index: int) -> str:
        cur = self.cur
        offs = self.strings.str_offsets
        if offs is None:
            raise cur.fail("strx form but .debug_str_offsets is absent")
        base = self.str_offsets_base
        if type(base) is not int or base < 0:
            raise cur.fail(f"DW_AT_str_offsets_base {base!r} is not a section offset")
        osize = self.header.offset_size
        pos = base + index * osize
        if pos + osize > len(offs):
            raise cur.fail(f"string index {index} out of range")
        offset = _UNSIGNED[osize].unpack_from(offs, pos)[0]
        return _read_cstr_at(self.strings.debug_str, offset, cur, "strx string")

    def _value(self, form: int, decode: bool = True):
        """Decoded value of one attribute; None for a form never interpreted.
        With `decode` false the attribute is only read past, and None returned."""
        cur = self.cur
        size = self.sizes.get(form)
        if size is not None:
            number = cur.uint(size)
        elif form == FORM_SDATA and decode:
            return cur.sleb()
        elif form in _LEB_FORMS:
            # A skipped sdata too: a ULEB128 read covers the same bytes, and
            # an over-long one is reported as the ULEB128 it was read as.
            number = cur.uleb()
        elif form == FORM_STRING:
            text = cur.cstr()
            return text.decode("utf-8", "replace") if decode else None
        elif form in _BLOCK_PREFIX:
            prefix = _BLOCK_PREFIX[form]
            block = cur.take(cur.uint(prefix) if prefix else cur.uleb())
            return block if decode else None
        else:
            raise cur.fail(f"unknown attribute form {form:#x}")
        meaning = _MEANINGS.get(form) if decode else None
        if meaning is None:
            return None
        if meaning == "int":
            return number
        if meaning == "ref":
            return self.header.start + number
        if meaning == "flag":
            return number != 0
        if meaning == "present":
            return True
        if meaning == "strx":
            return self._strx(number)
        table = self.strings.debug_str if meaning == "strp" else self.strings.line_str
        return _read_cstr_at(table, number, cur, f"{meaning} string")


def unsigned_value(value) -> Optional[int]:
    """`value` if it is a usable DWARF integer: an int, not a flag, not negative."""
    return value if type(value) is int and value >= 0 else None


def member_byte_offset(attrs: dict) -> Optional[int]:
    """Resolve a member DIE's byte position within its parent.

    Returns None when the DIE carries no resolvable location (static or
    constant members, or exotic location expressions). Bit-level positions
    (GCC's DWARF 5 encoding for bitfields) are floored to the containing
    byte.
    """
    loc = attrs.get(AT_DATA_MEMBER_LOCATION)
    if loc is None:
        bit = unsigned_value(attrs.get(AT_DATA_BIT_OFFSET))
        return None if bit is None else bit // 8
    if not isinstance(loc, (bytes, bytearray)):
        return unsigned_value(loc)
    # Accept the common "push object address + constant" expression.
    expr = Cursor(bytes(loc), "<exprloc>")
    try:
        if expr.u8() == OP_PLUS_UCONST:
            value = expr.uleb()
            if expr.pos == len(expr.data):
                return value
    except MalformedDwarfError:
        pass
    return None
