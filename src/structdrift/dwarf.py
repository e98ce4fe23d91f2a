"""Streaming DWARF reader for structure-layout extraction.

Decodes compilation-unit headers, abbreviation tables and DIE trees from
.debug_info (and .debug_types), resolving just the attributes needed to
recover type layouts: names, byte sizes and member locations. DWARF
versions 2 through 5 are accepted; both .debug_str indirection (strp) and
the DWARF 5 indexed-string scheme (strx via .debug_str_offsets) are
supported, as are the GCC and Clang encodings of member positions.
"""

import struct
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import MalformedDwarfError

# Tags of interest.
TAG_CLASS_TYPE = 0x02
TAG_MEMBER = 0x0D
TAG_COMPILE_UNIT = 0x11
TAG_STRUCTURE_TYPE = 0x13

# Attributes of interest.
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
        end = self.pos + n
        if end > len(self.data):
            raise self.fail(f"unexpected end of data reading {n} bytes")
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u24(self) -> int:
        b = self.take(3)
        return b[0] | (b[1] << 8) | (b[2] << 16)

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

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


@dataclass
class UnitHeader:
    offset: int          # start of the unit within the section
    version: int
    unit_type: int       # 1 (compile) for pre-v5 units
    address_size: int
    abbrev_offset: int
    dwarf64: bool
    die_start: int       # first DIE byte
    end: int             # one past the unit

    @property
    def offset_size(self) -> int:
        return 8 if self.dwarf64 else 4


def iter_unit_headers(
    data: bytes, section: str = ".debug_info", types_section: bool = False
) -> Iterator[UnitHeader]:
    """Yield unit headers in order; raises MalformedDwarfError on damage."""
    cur = Cursor(data, section)
    while cur.pos < len(data):
        start = cur.pos
        length = cur.u32()
        dwarf64 = False
        if length == 0xFFFFFFFF:
            dwarf64 = True
            length = cur.u64()
        elif length >= 0xFFFFFFF0:
            raise cur.fail(f"reserved initial length {length:#x}")
        body_start = cur.pos
        end = body_start + length
        if end > len(data):
            raise cur.fail("unit length extends past end of section")
        version = cur.u16()
        if not 2 <= version <= 5:
            raise cur.fail(f"unsupported DWARF version {version}")
        offset_size = 8 if dwarf64 else 4
        unit_type = 1
        if version >= 5:
            unit_type = cur.u8()
            address_size = cur.u8()
            abbrev_offset = cur.u64() if dwarf64 else cur.u32()
            if unit_type in _UNIT_TYPES_WITH_SIGNATURE:
                cur.take(8 + offset_size)  # type signature + type offset
            elif unit_type in (4, 5):  # skeleton / split_compile
                cur.take(8)  # dwo_id
        else:
            abbrev_offset = cur.u64() if dwarf64 else cur.u32()
            address_size = cur.u8()
            if types_section:
                cur.take(8 + offset_size)
        if address_size not in (2, 4, 8):
            raise cur.fail(f"implausible address size {address_size}")
        yield UnitHeader(
            offset=start,
            version=version,
            unit_type=unit_type,
            address_size=address_size,
            abbrev_offset=abbrev_offset,
            dwarf64=dwarf64,
            die_start=cur.pos,
            end=end,
        )
        cur.pos = end


@dataclass
class AbbrevDecl:
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


@dataclass
class StringTables:
    debug_str: Optional[bytes] = None
    line_str: Optional[bytes] = None
    str_offsets: Optional[bytes] = None


def _read_cstr_at(table: Optional[bytes], offset: int, cur: Cursor, what: str) -> str:
    if table is None:
        raise cur.fail(f"{what} reference but section is absent")
    end = table.find(b"\x00", offset)
    if offset > len(table) or end < 0:
        raise cur.fail(f"{what} offset {offset:#x} out of range")
    return table[offset:end].decode("utf-8", "replace")


class UnitWalker:
    """Iterates one unit's DIEs, decoding only the attributes in `wanted`."""

    def __init__(
        self,
        data: bytes,
        header: UnitHeader,
        abbrevs: Dict[int, AbbrevDecl],
        strings: StringTables,
        wanted: frozenset,
        section: str = ".debug_info",
    ):
        self.cur = Cursor(data, section, header.die_start)
        self.header = header
        self.abbrevs = abbrevs
        self.strings = strings
        self.wanted = wanted
        # Default per DWARF 5: the offset table starts right after its header.
        self.str_offsets_base = 16 if header.dwarf64 else 8

    def __iter__(self) -> Iterator[Tuple[int, int, dict]]:
        cur = self.cur
        header = self.header
        depth = 0
        while cur.pos < header.end:
            code = cur.uleb()
            if code == 0:
                if depth > 0:
                    depth -= 1
                continue
            decl = self.abbrevs.get(code)
            if decl is None:
                raise cur.fail(f"reference to unknown abbreviation code {code}")
            attrs: dict = {}
            for attr, form, const in decl.specs:
                if form == FORM_INDIRECT:
                    form = self._indirect_form()
                if attr in self.wanted:
                    attrs[attr] = self._value(form, const)
                else:
                    self._skip(form)
            if decl.tag == TAG_COMPILE_UNIT and AT_STR_OFFSETS_BASE in attrs:
                self.str_offsets_base = attrs[AT_STR_OFFSETS_BASE]
            yield depth, decl.tag, attrs
            if decl.has_children:
                depth += 1

    def _indirect_form(self) -> int:
        """Read the form named by DW_FORM_indirect, following nested ones.

        A loop rather than recursion: every step consumes at least one byte,
        so a hostile chain ends at the section end in MalformedDwarfError.
        """
        cur = self.cur
        form = cur.uleb()
        while form == FORM_INDIRECT:
            form = cur.uleb()
        return form

    def _strx(self, index: int) -> str:
        cur = self.cur
        offs = self.strings.str_offsets
        if offs is None:
            raise cur.fail("strx form but .debug_str_offsets is absent")
        osize = self.header.offset_size
        pos = self.str_offsets_base + index * osize
        if pos + osize > len(offs):
            raise cur.fail(f"string index {index} out of range")
        fmt = "<Q" if osize == 8 else "<I"
        offset = struct.unpack_from(fmt, offs, pos)[0]
        return _read_cstr_at(self.strings.debug_str, offset, cur, "strx string")

    def _value(self, form: int, const: Optional[int]):
        cur = self.cur
        osize = self.header.offset_size
        if form == FORM_DATA1:
            return cur.u8()
        if form == FORM_DATA2:
            return cur.u16()
        if form == FORM_DATA4:
            return cur.u32()
        if form == FORM_DATA8:
            return cur.u64()
        if form == FORM_UDATA:
            return cur.uleb()
        if form == FORM_SDATA:
            return cur.sleb()
        if form == FORM_IMPLICIT_CONST:
            return const
        if form in (FORM_FLAG,):
            return cur.u8() != 0
        if form == FORM_FLAG_PRESENT:
            return True
        if form == FORM_STRING:
            return cur.cstr().decode("utf-8", "replace")
        if form == FORM_STRP:
            offset = cur.u64() if osize == 8 else cur.u32()
            return _read_cstr_at(self.strings.debug_str, offset, cur, "strp string")
        if form == FORM_LINE_STRP:
            offset = cur.u64() if osize == 8 else cur.u32()
            return _read_cstr_at(self.strings.line_str, offset, cur, "line_strp string")
        if form == FORM_STRX:
            return self._strx(cur.uleb())
        if form == FORM_STRX1:
            return self._strx(cur.u8())
        if form == FORM_STRX2:
            return self._strx(cur.u16())
        if form == FORM_STRX3:
            return self._strx(cur.u24())
        if form == FORM_STRX4:
            return self._strx(cur.u32())
        if form == FORM_GNU_STR_INDEX:
            return self._strx(cur.uleb())
        if form in (FORM_BLOCK1, FORM_BLOCK2, FORM_BLOCK4, FORM_BLOCK, FORM_EXPRLOC):
            if form == FORM_BLOCK1:
                n = cur.u8()
            elif form == FORM_BLOCK2:
                n = cur.u16()
            elif form == FORM_BLOCK4:
                n = cur.u32()
            else:
                n = cur.uleb()
            return cur.take(n)
        if form == FORM_SEC_OFFSET:
            return cur.u64() if osize == 8 else cur.u32()
        # Remaining forms carry values we never interpret; keep the raw int.
        self._skip(form)
        return None

    def _skip(self, form: int) -> None:
        cur = self.cur
        osize = self.header.offset_size
        if form in (FORM_DATA1, FORM_REF1, FORM_FLAG, FORM_STRX1, FORM_ADDRX1):
            cur.take(1)
        elif form in (FORM_DATA2, FORM_REF2, FORM_STRX2, FORM_ADDRX2):
            cur.take(2)
        elif form in (FORM_STRX3, FORM_ADDRX3):
            cur.take(3)
        elif form in (FORM_DATA4, FORM_REF4, FORM_REF_SUP4, FORM_STRX4, FORM_ADDRX4):
            cur.take(4)
        elif form in (FORM_DATA8, FORM_REF8, FORM_REF_SIG8, FORM_REF_SUP8):
            cur.take(8)
        elif form == FORM_DATA16:
            cur.take(16)
        elif form == FORM_ADDR:
            cur.take(self.header.address_size)
        elif form in (
            FORM_UDATA,
            FORM_SDATA,
            FORM_REF_UDATA,
            FORM_STRX,
            FORM_ADDRX,
            FORM_LOCLISTX,
            FORM_RNGLISTX,
            FORM_GNU_ADDR_INDEX,
            FORM_GNU_STR_INDEX,
        ):
            cur.uleb()
        elif form in (FORM_STRP, FORM_LINE_STRP, FORM_SEC_OFFSET, FORM_STRP_SUP,
                      FORM_GNU_REF_ALT, FORM_GNU_STRP_ALT):
            cur.take(osize)
        elif form == FORM_REF_ADDR:
            # DWARF 2 sized this like an address; later versions like an offset.
            cur.take(self.header.address_size if self.header.version == 2 else osize)
        elif form == FORM_STRING:
            cur.cstr()
        elif form in (FORM_BLOCK1, FORM_BLOCK2, FORM_BLOCK4, FORM_BLOCK, FORM_EXPRLOC):
            if form == FORM_BLOCK1:
                n = cur.u8()
            elif form == FORM_BLOCK2:
                n = cur.u16()
            elif form == FORM_BLOCK4:
                n = cur.u32()
            else:
                n = cur.uleb()
            cur.take(n)
        elif form in (FORM_FLAG_PRESENT, FORM_IMPLICIT_CONST):
            pass
        elif form == FORM_INDIRECT:
            self._skip(self._indirect_form())
        else:
            raise cur.fail(f"unknown attribute form {form:#x}")


def member_byte_offset(attrs: dict) -> Optional[int]:
    """Resolve a member DIE's byte position within its parent.

    Returns None when the DIE carries no resolvable location (static or
    constant members, or exotic location expressions). Bit-level positions
    (GCC's DWARF 5 encoding for bitfields) are floored to the containing
    byte.
    """
    loc = attrs.get(AT_DATA_MEMBER_LOCATION)
    if loc is not None:
        if isinstance(loc, bool):
            return None
        if isinstance(loc, int):
            return loc if loc >= 0 else None
        if isinstance(loc, (bytes, bytearray)):
            # Accept the common "push object address + constant" expression.
            expr = Cursor(bytes(loc), "<exprloc>")
            try:
                op = expr.u8()
                if op == OP_PLUS_UCONST:
                    value = expr.uleb()
                    if expr.pos == len(expr.data):
                        return value
            except MalformedDwarfError:
                return None
            return None
        return None
    bit = attrs.get(AT_DATA_BIT_OFFSET)
    if isinstance(bit, int) and not isinstance(bit, bool) and bit >= 0:
        return bit // 8
    return None
