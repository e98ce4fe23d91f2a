import dataclasses
import json
import random
import struct
import types
import zlib
from typing import List, NamedTuple, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structdrift.extract as extract_module
from structdrift import (
    MalformedDwarfError,
    NoDwarfError,
    NotElfError,
    extract_profile,
    extract_profile_with_meta,
)
from structdrift import MemberRecord, StructureRecord, dwarf
from structdrift.dwarf import (
    AT_BYTE_SIZE,
    AT_NAME,
    AT_STR_OFFSETS_BASE,
    StringTables,
    UnitWalker,
    iter_unit_headers,
    parse_abbrev_table,
)
from structdrift.elf import ElfFile, load_elf
from structdrift.profile import dumps_profile

from conftest import ORACLE_FIXTURES, fixture_path, load_oracle


def layout_map(profile):
    return {
        name: (rec.byte_size, sorted((m.offset, m.name) for m in rec.members))
        for name, rec in profile.structures.items()
    }


@pytest.mark.parametrize("stem", ORACLE_FIXTURES)
def test_layouts_match_compiler_dump(stem):
    oracle = load_oracle(stem)
    profile = extract_profile(fixture_path(oracle["binary"]), platform_version="9")
    expected = {
        name: (body["size"], sorted((m["offset"], m["name"]) for m in body["members"]))
        for name, body in oracle["structures"].items()
    }
    assert layout_map(profile) == expected


@pytest.mark.parametrize("stem", ORACLE_FIXTURES)
def test_detected_versions_match_header_dump(stem):
    oracle = load_oracle(stem)
    profile = extract_profile(fixture_path(oracle["binary"]))
    assert list(profile.meta.dwarf_versions_seen) == oracle["dwarf_versions"]


def test_extraction_is_deterministic():
    path = fixture_path("layouts-dwarf5-64.so")
    first = extract_profile(path, platform_version="9")
    second = extract_profile(path, platform_version="9")
    assert first == second
    assert dumps_profile(first) == dumps_profile(second)


def test_gcc_and_clang_builds_agree():
    gcc = extract_profile(fixture_path("layouts-gcc-dwarf5-64.so"),
                          platform_version="9")
    clang = extract_profile(fixture_path("layouts-dwarf5-64.so"),
                            platform_version="9")
    assert layout_map(gcc) == layout_map(clang)


@pytest.mark.parametrize("stem, sections", [
    ("layouts-gcc-dwarf64-v5", ["info"]),
    ("layouts-gcc-dwarf64-v4-types", ["info", "types"]),
])
def test_gcc_dwarf64_builds_agree_with_clang(stem, sections):
    path = fixture_path(f"{stem}.so")
    elf = load_elf(path)
    assert [s for s in ("info", "types") if elf.debug_section(s) is not None] == sections
    for section in sections:
        headers = list(iter_unit_headers(elf.debug_section(section), f".debug_{section}"))
        assert headers and {h.offset_size for h in headers} == {8}, section
    clang = extract_profile(fixture_path("layouts-dwarf5-64.so"), platform_version="9")
    assert layout_map(extract_profile(path, platform_version="9")) == layout_map(clang)


def test_compressed_debug_sections_extract_identically():
    plain = extract_profile(fixture_path("layouts-dwarf4-64.so"), platform_version="9")
    # SHF_COMPRESSED sections, then legacy .zdebug_* sections with a "ZLIB" header.
    for fixture, section in (("layouts-zlib-64.so", ".debug_info"),
                             ("layouts-zlibgnu-64.so", ".zdebug_info")):
        assert section in load_elf(fixture_path(fixture)).sections
        compressed = extract_profile(fixture_path(fixture), platform_version="9")
        assert layout_map(plain) == layout_map(compressed), fixture


def test_compressed_size_must_match_its_header(tmp_path, capsys):
    from structdrift.cli import EXIT_INPUT, run

    # ch_size of the 64-bit compression header: 717 bytes, patched to 1.
    def shrink(data, offset, _size):
        assert int.from_bytes(data[offset + 8 : offset + 16], "little") == 717
        data[offset + 8 : offset + 16] = (1).to_bytes(8, "little")

    patched = _patch_section(tmp_path, "layouts-zlib-64.so", ".debug_info", shrink)
    assert run(["extract", str(patched)]) == EXIT_INPUT
    assert "stated size of 1 bytes" in capsys.readouterr().err


def test_legacy_zdebug_size_must_match():
    payload = zlib.compress(b"abcdefgh")
    for size, ok in ((8, True), (7, False), (9, False)):
        raw = b"ZLIB" + size.to_bytes(8, "big") + payload
        if ok:
            assert ElfFile._decompress_legacy(".zdebug_info", raw) == b"abcdefgh"
        else:
            with pytest.raises(NotElfError):
                ElfFile._decompress_legacy(".zdebug_info", raw)


def test_inflation_stops_past_the_stated_size(monkeypatch):
    import structdrift.elf as elf_module

    outputs = []

    class Inflater:
        def __init__(self):
            self.real = zlib.decompressobj()

        def decompress(self, data, max_length=0):
            out = self.real.decompress(data, max_length)
            outputs.append(len(out))
            return out

        @property
        def eof(self):
            return self.real.eof

    monkeypatch.setattr(elf_module, "zlib",
                        types.SimpleNamespace(decompressobj=Inflater, error=zlib.error))
    bomb = b"ZLIB" + (100).to_bytes(8, "big") + zlib.compress(bytes(1 << 24))
    with pytest.raises(NotElfError):
        ElfFile._decompress_legacy(".zdebug_info", bomb)
    assert outputs == [101]


def test_stripped_binary_reports_missing_dwarf():
    with pytest.raises(NoDwarfError):
        extract_profile(fixture_path("layouts-stripped.so"))


def test_non_elf_input_rejected(tmp_path):
    bogus = tmp_path / "not_elf.so"
    bogus.write_text("just some text, definitely not a shared library\n")
    with pytest.raises(NotElfError):
        extract_profile(bogus)


def test_big_endian_rejected_cleanly(tmp_path):
    data = bytearray(fixture_path("layouts-dwarf4-64.so").read_bytes())
    data[5] = 2  # EI_DATA = big-endian
    swapped = tmp_path / "be.so"
    swapped.write_bytes(bytes(data))
    with pytest.raises(NotElfError, match="little-endian"):
        extract_profile(swapped)


def test_truncated_file_rejected(tmp_path):
    data = fixture_path("layouts-dwarf4-64.so").read_bytes()
    clipped = tmp_path / "clipped.so"
    clipped.write_bytes(data[:200])
    with pytest.raises(NotElfError):
        extract_profile(clipped)


def _header_at(data: bytes, name: str) -> int:
    """File offset of the 64-bit section header of section `name`."""
    sec = ElfFile(data).sections[name]
    (shoff,) = struct.unpack_from("<Q", data, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", data, 0x3A)
    return next(base for base in range(shoff, shoff + shnum * shentsize, shentsize)
                if struct.unpack_from("<QQ", data, base + 24) == (sec.offset, sec.size))


def _info_past_end(data):
    struct.pack_into("<Q", data, _header_at(data, ".debug_info") + 0x20, 10 ** 9)


def _info_compressed_in_4_bytes(data):
    at = _header_at(data, ".debug_info")
    (flags,) = struct.unpack_from("<Q", data, at + 8)
    struct.pack_into("<Q", data, at + 8, flags | 0x800)  # SHF_COMPRESSED
    struct.pack_into("<Q", data, at + 0x20, 4)


def _abbrev_renamed(data):
    at = data.index(b".debug_abbrev\x00", ElfFile(data).sections[".shstrtab"].offset)
    data[at : at + 13] = b".debug_abbrez"


def _reserved_unit_length(data):
    struct.pack_into("<I", data, ElfFile(data).sections[".debug_info"].offset, 0xFFFFFFF0)


def _xindex_past_the_table(data):
    # e_shstrndx SHN_XINDEX: the index is section 0's sh_link, here one past the last.
    (shoff,) = struct.unpack_from("<Q", data, 0x28)
    struct.pack_into("<I", data, shoff + 0x28, struct.unpack_from("<H", data, 0x3C)[0])
    struct.pack_into("<H", data, 0x3E, 0xFFFF)


# Hostile ELF files made from layouts-dwarf5-64.so, and the error each exits 3
# with; "{path}" is the file's path. None stands for a directory at that path.
HOSTILE_FILES = {
    "info-past-end": (_info_past_end, "section .debug_info extends past end of file"),
    "info-compressed-in-4-bytes": (
        _info_compressed_in_4_bytes,
        "section .debug_info is too short for its compression header"),
    "no-debug-abbrev": (_abbrev_renamed, "{path} has no .debug_abbrev section"),
    "reserved-unit-length": (_reserved_unit_length,
                             "reserved initial length 0xfffffff0 (.debug_info offset 0x4)"),
    "shstrndx-xindex-past-the-table": (_xindex_past_the_table,
                                       "section name string table index out of range"),
    "directory": (None, "{path} is a directory"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_FILES))
def test_hostile_file_exits_with_input_error(tmp_path, capsys, case):
    from structdrift.cli import EXIT_INPUT, run

    damage, message = HOSTILE_FILES[case]
    path = tmp_path / "hostile.so"
    if damage is None:
        path.mkdir()
    else:
        data = bytearray(fixture_path("layouts-dwarf5-64.so").read_bytes())
        damage(data)
        path.write_bytes(bytes(data))
    assert run(["extract", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"structdrift: {message.format(path=path)}\n"


def test_section_name_table_index_in_section_zero_is_followed(tmp_path):
    # e_shstrndx SHN_XINDEX with the real index in section 0's sh_link.
    fixture = fixture_path("layouts-dwarf5-64.so")
    data = bytearray(fixture.read_bytes())
    (shoff,) = struct.unpack_from("<Q", data, 0x28)
    struct.pack_into("<I", data, shoff + 0x28, struct.unpack_from("<H", data, 0x3E)[0])
    struct.pack_into("<H", data, 0x3E, 0xFFFF)
    path = tmp_path / "xindex.so"
    path.write_bytes(bytes(data))
    assert dumps_profile(extract_profile(path)) == dumps_profile(extract_profile(fixture))


def _patch_section(tmp_path, source_name, section, patcher):
    data = bytearray(fixture_path(source_name).read_bytes())
    elf = ElfFile(bytes(data))
    sec = elf.sections[section]
    patcher(data, sec.offset, sec.size)
    patched = tmp_path / "patched.so"
    patched.write_bytes(bytes(data))
    return patched


def test_malformed_version_reports_offset(tmp_path):
    # Unit version lives 4 bytes into the first DWARF32 unit header.
    def clobber_version(data, offset, _size):
        data[offset + 4 : offset + 6] = (99).to_bytes(2, "little")

    patched = _patch_section(tmp_path, "layouts-dwarf4-64.so", ".debug_info",
                             clobber_version)
    with pytest.raises(MalformedDwarfError) as exc_info:
        extract_profile(patched)
    assert exc_info.value.section == ".debug_info"
    assert exc_info.value.offset >= 0


# A DWARF 4 unit whose one DIE, a structure type, has DW_AT_name (decoded)
# and DW_AT_decl_line (skipped), both declared DW_FORM_indirect: the DIE's
# bytes then name the real form, here through a chain of nested indirects.
INDIRECT_ABBREV = bytes([1, 0x13, 0, 0x03, 0x16, 0x3B, 0x16, 0, 0, 0])
CHAIN = 5000  # well past the interpreter's recursion limit


def _indirect_unit(die: bytes, version: int = 4) -> bytes:
    """One unit of 8-byte addresses, DWARF 2, 3 or 4, holding `die`."""
    body = version.to_bytes(2, "little") + (0).to_bytes(4, "little") + bytes([8]) + die
    return len(body).to_bytes(4, "little") + body


def _walk(info: bytes):
    header = next(iter_unit_headers(info))
    walker = UnitWalker(info, header, parse_abbrev_table(INDIRECT_ABBREV, 0),
                        StringTables(), {dwarf.TAG_STRUCTURE_TYPE: frozenset({AT_NAME})})
    return list(walker)


def test_nested_indirect_forms_resolve():
    chain = b"\x16" * CHAIN
    die = b"\x01" + chain + b"\x08Deep\x00" + chain + b"\x0b\x07" + b"\x00"
    assert _walk(_indirect_unit(die)) == [(0, 0x13, {AT_NAME: "Deep"})]


def test_endless_indirect_chain_is_malformed_dwarf():
    with pytest.raises(MalformedDwarfError) as exc_info:
        _walk(_indirect_unit(b"\x01" + b"\x16" * CHAIN))
    assert exc_info.value.section == ".debug_info"


# A structure DIE with DW_AT_type (0x49) in `form`, in a unit that follows
# one of 11 header bytes and 5 null entries, so the unit starts at 0x10.
@pytest.mark.parametrize("form, encoded, value", [
    (dwarf.FORM_REF1, b"\x05", 0x15),
    (dwarf.FORM_REF2, b"\x05\x01", 0x115),
    (dwarf.FORM_REF4, b"\x05\x00\x01\x00", 0x10015),
    (dwarf.FORM_REF8, b"\x05" + bytes(6) + b"\x01", 0x100000000000015),
    (dwarf.FORM_REF_UDATA, b"\x85\x02", 0x115),
    (dwarf.FORM_REF_ADDR, b"\x05\x01\x00\x00", 0x105),  # a section offset as written
    (dwarf.FORM_REF_SIG8, bytes(8), None),  # a type signature, not resolved
], ids=["ref1", "ref2", "ref4", "ref8", "ref_udata", "ref_addr", "ref_sig8"])
@pytest.mark.parametrize("indirect", [False, True], ids=["plan", "general"])
def test_reference_forms_decode_to_section_offsets(form, encoded, value, indirect):
    # Through DW_FORM_indirect every form goes through the general decoder.
    abbrev = bytes([1, 0x13, 0, 0x49, 0x16 if indirect else form, 0, 0, 0])
    die = b"\x01" + (bytes([form]) if indirect else b"") + encoded
    info = _indirect_unit(bytes(5)) + _indirect_unit(die)
    *_, header = iter_unit_headers(info)
    assert header.start == 0x10
    walker = UnitWalker(info, header, parse_abbrev_table(abbrev, 0), StringTables(),
                        {dwarf.TAG_STRUCTURE_TYPE: frozenset({0x49})})
    assert list(walker) == [(0, 0x13, {0x49: value})]


def _with_debug_sections(tmp_path, info: bytes, abbrev: bytes, types: bytes = b"",
                         debug_str: bytes = b""):
    """Copy a 64-bit fixture, pointing its info/abbrev headers at new bytes.

    Given `types`, its .debug_aranges section is renamed .debug_types and
    holds them; given `debug_str`, its .debug_str holds those bytes.
    """
    data = bytearray(fixture_path("layouts-dwarf4-64.so").read_bytes())
    elf = ElfFile(bytes(data))
    (shoff,) = struct.unpack_from("<Q", data, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", data, 0x3A)
    patches = [(".debug_info", info), (".debug_abbrev", abbrev)]
    if debug_str:
        patches.append((".debug_str", debug_str))
    if types:
        at = data.index(b".debug_aranges\x00", elf.sections[".shstrtab"].offset)
        data[at : at + 15] = b".debug_types\x00\x00\x00"
        patches.append((".debug_aranges", types))
    for name, blob in patches:
        sec = elf.sections[name]
        for i in range(shnum):
            base = shoff + i * shentsize
            if struct.unpack_from("<QQ", data, base + 24) == (sec.offset, sec.size):
                struct.pack_into("<QQ", data, base + 24, len(data), len(blob))
                data += blob
                break
    patched = tmp_path / "indirect.so"
    patched.write_bytes(bytes(data))
    return patched


@pytest.mark.parametrize("dwarf64", [False, True])
@pytest.mark.parametrize("cut", [0, 1])
def test_debug_types_unit_is_read_past_its_signature(tmp_path, capsys, dwarf64, cut):
    # A DWARF 4 .debug_types unit header: version, abbrev offset, address
    # size, 8-byte type signature, then the offset of the type's DIE; the
    # cut unit ends one byte into that offset.
    from structdrift.cli import run

    offset_size = 8 if dwarf64 else 4
    initial = b"\xff\xff\xff\xff" if dwarf64 else b""
    head = ((4).to_bytes(2, "little") + (0).to_bytes(offset_size, "little") + bytes([8])
            + (0x1122334455667788).to_bytes(8, "little"))
    die_start = len(initial) + offset_size + len(head) + offset_size
    body = head + die_start.to_bytes(offset_size, "little") + b"\x01Deep\x00\x18\x00"
    if cut:
        body = head + b"\x00"
    types = initial + len(body).to_bytes(offset_size, "little") + body
    abbrev = bytes([1, 0x13, 0, 0x03, 0x08, 0x0B, 0x0B, 0, 0, 0])
    patched = _with_debug_sections(tmp_path, _indirect_unit(b"\x00"), abbrev, types)
    code = run(["extract", str(patched)])
    out, err = capsys.readouterr()
    if cut:
        where = len(initial) + 2 * offset_size + 3  # just past the address size
        assert code == 3 and err.endswith(f"reading {8 + offset_size} bytes "
                                          f"(.debug_types offset {where:#x})\n"), err
    else:
        assert code == 0
        assert json.loads(out)["structures"] == {"Deep": {"size": 24, "members": []}}


@pytest.mark.parametrize("unit_type, fields", [(1, b""), (2, b"\xee" * 12), (4, b"\xee" * 8)],
                         ids=["compile", "type", "skeleton"])
def test_dwarf5_unit_is_read_past_its_unit_type_fields(tmp_path, capsys, unit_type, fields):
    # A DWARF 5 unit header: version, unit type, address size and abbrev
    # offset, then a type unit's 8-byte signature and 4-byte type offset or a
    # skeleton unit's 8-byte dwo_id; the structure DIE comes after them.
    from structdrift.cli import run

    body = ((5).to_bytes(2, "little") + bytes([unit_type, 8]) + (0).to_bytes(4, "little")
            + fields + b"\x01Deep\x00\x18\x00")
    info = len(body).to_bytes(4, "little") + body
    assert next(iter_unit_headers(info)).die_start == 12 + len(fields)
    abbrev = bytes([1, 0x13, 0, 0x03, 0x08, 0x0B, 0x0B, 0, 0, 0])
    assert run(["extract", str(_with_debug_sections(tmp_path, info, abbrev))]) == 0
    assert json.loads(capsys.readouterr().out)["structures"] == {
        "Deep": {"size": 24, "members": []}}


def test_endless_indirect_chain_exits_with_input_error(tmp_path, capsys):
    from structdrift.cli import EXIT_INPUT, run

    info = _indirect_unit(b"\x01" + b"\x16" * CHAIN)
    patched = _with_debug_sections(tmp_path, info, INDIRECT_ABBREV)
    assert run(["extract", str(patched)]) == EXIT_INPUT
    assert ".debug_info offset" in capsys.readouterr().err


# Crafted hostile units: (abbreviation table, DIE bytes). Each must end in
# MalformedDwarfError on .debug_info, and in exit code 3 from the CLI.
STRUCT_ABBREV = [1, 0x13, 0]
HOSTILE_UNITS = {
    # DW_AT_name as strx1, but the binary has no .debug_str_offsets.
    "strx-without-offsets": (bytes(STRUCT_ABBREV + [0x03, 0x25, 0, 0, 0]),
                             b"\x01\x00"),
    # An abbreviation code that continues past 63 bits.
    "oversized-uleb-code": (bytes(STRUCT_ABBREV + [0, 0, 0]),
                            b"\x80" * 10 + b"\x01"),
    # DW_AT_byte_size (decoded) and DW_AT_decl_line (skipped) as udata values
    # that continue past 63 bits.
    "oversized-uleb-wanted": (bytes(STRUCT_ABBREV + [0x0B, 0x0F, 0, 0, 0]),
                              b"\x01" + b"\xff" * 10 + b"\x01"),
    "oversized-uleb-skipped": (bytes(STRUCT_ABBREV + [0x3B, 0x0F, 0, 0, 0]),
                               b"\x01" + b"\xff" * 10 + b"\x01"),
    # The same as sdata: a skipped one is read as a ULEB128, a wanted one as
    # an SLEB128.
    "oversized-sdata-skipped": (bytes(STRUCT_ABBREV + [0x3B, 0x0D, 0, 0, 0]),
                                b"\x01" + b"\xff" * 10 + b"\x01"),
    "oversized-sdata-wanted": (bytes(STRUCT_ABBREV + [0x0B, 0x0D, 0, 0, 0]),
                               b"\x01" + b"\xff" * 10 + b"\x01"),
    # decl_line data4, decl_column data4 and sibling ref4, all skipped as one
    # 12-byte run, with 6 bytes left in the section.
    "skip-run-past-end": (bytes(STRUCT_ABBREV + [0x3B, 0x06, 0x39, 0x06, 0x01, 0x13,
                                                 0, 0, 0]),
                          b"\x01" + bytes(6)),
    # An attribute form no DWARF version defines.
    "unknown-form": (bytes(STRUCT_ABBREV + [0x3B, 0x7F, 0, 0, 0]), b"\x01\x00"),
    # Skipped variable-size attributes cut off by the section end: decl_line
    # as udata with no byte left, a location exprloc of 5 bytes with 2 left,
    # and a producer string with no terminator.
    "skipped-uleb-past-end": (bytes(STRUCT_ABBREV + [0x3B, 0x0F, 0, 0, 0]), b"\x01"),
    "skipped-exprloc-past-end": (bytes(STRUCT_ABBREV + [0x02, 0x18, 0, 0, 0]),
                                 b"\x01\x05\x00\x00"),
    "skipped-string-unterminated": (bytes(STRUCT_ABBREV + [0x25, 0x08, 0, 0, 0]),
                                    b"\x01abc"),
}


def _sibling_die(sibling: int) -> bytes:
    """A subprogram at 0xb whose attributes end at 0x10, then its child, a
    parameter named "\\x7f", and the null entry ending its children at 0x13."""
    return b"\x01" + sibling.to_bytes(4, "little") + b"\x02\x7f\x00" + b"\x00"


# 1 subprogram (sibling ref4) with children, 2 parameter (name string).
SIBLING_ABBREV = bytes([1, 0x2E, 1, 0x01, 0x13, 0, 0, 2, 0x05, 0, 0x03, 0x08, 0, 0, 0])
HOSTILE_UNITS.update({
    "sibling-backward": (SIBLING_ABBREV, _sibling_die(0x5)),
    "sibling-at-itself": (SIBLING_ABBREV, _sibling_die(0xB)),
    "sibling-at-first-child": (SIBLING_ABBREV, _sibling_die(0x10)),
    "sibling-past-unit-end": (SIBLING_ABBREV, _sibling_die(0x15)),
    # Into the parameter's name: its first byte reads as abbreviation code 0x7f.
    "sibling-mid-die": (SIBLING_ABBREV, _sibling_die(0x11)),
})


# Structures named by a string form that the string sections cannot resolve:
# (abbreviation table, StringTables arguments, DIE bytes).
STRP_NAME_ABBREV = bytes(STRUCT_ABBREV + [0x03, 0x0E, 0, 0, 0])
BAD_STRING_NAMES = {
    "strp-past-debug-str": (STRP_NAME_ABBREV, {"debug_str": b"x\x00"},
                            b"\x01" + (0xFFFFFF).to_bytes(4, "little")),
    "strp-unterminated": (STRP_NAME_ABBREV, {"debug_str": b"abc"}, b"\x01" + bytes(4)),
    "strp-without-debug-str": (STRP_NAME_ABBREV, {}, b"\x01" + bytes(4)),
    # A strx1 index of 1, where .debug_str_offsets holds its 8-byte header
    # and one entry.
    "strx-index-past-offsets": (bytes(STRUCT_ABBREV + [0x03, 0x25, 0, 0, 0]),
                                {"debug_str": b"x\x00", "str_offsets": bytes(12)},
                                b"\x01\x01"),
}
# The error each hostile unit ends in: its message and .debug_info offset.
# The unit header is 11 bytes and the DIE's abbreviation code 1 byte.
HOSTILE_ERRORS = {
    "oversized-uleb-code": ("ULEB128 value too large", 0x15),
    "oversized-uleb-wanted": ("ULEB128 value too large", 0x16),
    "oversized-uleb-skipped": ("ULEB128 value too large", 0x16),
    "oversized-sdata-skipped": ("ULEB128 value too large", 0x16),
    "oversized-sdata-wanted": ("SLEB128 value too large", 0x16),
    "skip-run-past-end": ("unexpected end of data reading 12 bytes", 0xC),
    "skipped-exprloc-past-end": ("unexpected end of data reading 5 bytes", 0xD),
    "skipped-string-unterminated": ("unterminated string", 0xC),
    "skipped-uleb-past-end": ("unexpected end of data reading 1 bytes", 0xC),
    "strx-without-offsets": ("strx form but .debug_str_offsets is absent", 0xD),
    "unknown-form": ("unknown attribute form 0x7f", 0xC),
    "strp-past-debug-str": ("strp string offset 0xffffff out of range", 0x10),
    "strp-unterminated": ("strp string offset 0x0 out of range", 0x10),
    "strp-without-debug-str": ("strp string reference but section is absent", 0x10),
    "strx-index-past-offsets": ("string index 1 out of range", 0xD),
    "sibling-backward": ("DW_AT_sibling 0x5 is not past its DIE and inside its unit", 0x10),
    "sibling-at-itself": ("DW_AT_sibling 0xb is not past its DIE and inside its unit", 0x10),
    "sibling-at-first-child": ("DW_AT_sibling 0x10 is not past its DIE and inside its unit",
                               0x10),
    "sibling-past-unit-end": ("DW_AT_sibling 0x15 is not past its DIE and inside its unit",
                              0x10),
    "sibling-mid-die": ("reference to unknown abbreviation code 127", 0x12),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_UNITS) + sorted(BAD_STRING_NAMES))
def test_hostile_unit_is_malformed_dwarf(case):
    if case in HOSTILE_UNITS:
        (abbrev, die), strings = HOSTILE_UNITS[case], {}
    else:
        abbrev, strings, die = BAD_STRING_NAMES[case]
    info = _indirect_unit(die)
    header = next(iter_unit_headers(info))
    walker = UnitWalker(info, header, parse_abbrev_table(abbrev, 0), StringTables(**strings),
                        {dwarf.TAG_STRUCTURE_TYPE: frozenset({AT_NAME, AT_BYTE_SIZE}),
                         dwarf.TAG_SUBPROGRAM: frozenset({dwarf.AT_SIBLING})})
    with pytest.raises(MalformedDwarfError) as exc_info:
        list(walker)
    error = exc_info.value
    message, offset = HOSTILE_ERRORS[case]
    assert (str(error), error.section, error.offset) == (
        f"{message} (.debug_info offset {offset:#x})", ".debug_info", offset)


@pytest.mark.parametrize("case", sorted(HOSTILE_UNITS))
def test_hostile_unit_exits_with_input_error(tmp_path, capsys, case):
    from structdrift.cli import EXIT_INPUT, run

    assert load_elf(fixture_path("layouts-dwarf4-64.so")).debug_section("str_offsets") is None
    abbrev, die = HOSTILE_UNITS[case]
    patched = _with_debug_sections(tmp_path, _indirect_unit(die), abbrev)
    assert run(["extract", str(patched)]) == EXIT_INPUT
    assert ".debug_info offset" in capsys.readouterr().err


@pytest.mark.parametrize("case, message, offset", [
    ("skipped-uleb-past-end", "unexpected end of data reading 1 bytes", 12),
    ("skipped-exprloc-past-end", "unexpected end of data reading 5 bytes", 13),
    ("skipped-string-unterminated", "unterminated string", 12),
])
def test_cut_off_skip_fails_where_the_attribute_is_cut(case, message, offset):
    # The unit header is 11 bytes and the DIE's abbreviation code 1 byte.
    abbrev, die = HOSTILE_UNITS[case]
    info = _indirect_unit(die)
    header = next(iter_unit_headers(info))
    walker = UnitWalker(info, header, parse_abbrev_table(abbrev, 0), StringTables(),
                        {dwarf.TAG_STRUCTURE_TYPE: frozenset({AT_NAME})})
    with pytest.raises(MalformedDwarfError, match=message) as exc_info:
        list(walker)
    assert exc_info.value.offset == offset


def test_strp_names_are_decoded_once_per_offset():
    # Three structures named by strp offsets 0, 1 and 0 of "xfoo\0" (a
    # linker shares the tail of one string with another), in two units
    # that share one StringTables.
    abbrev = bytes([1, 0x13, 0, 0x03, 0x0E, 0, 0, 0])
    info = _indirect_unit(b"\x01" + bytes(4) + b"\x01\x01\x00\x00\x00"
                          + b"\x01" + bytes(4))
    strings = StringTables(debug_str=b"xfoo\x00")
    table = parse_abbrev_table(abbrev, 0)
    wanted = {dwarf.TAG_STRUCTURE_TYPE: frozenset({AT_NAME})}
    header = next(iter_unit_headers(info))
    for _ in range(2):
        walker = UnitWalker(info, header, table, strings, wanted)
        assert [attrs[AT_NAME] for _, _, attrs in walker] == ["xfoo", "foo", "xfoo"]
    assert strings.names == {0: "xfoo", 1: "foo"}


# A compile unit DIE whose DW_AT_str_offsets_base has a form that is no
# section offset, then a structure named through strx1.
@pytest.mark.parametrize("base_form, base_bytes", [
    (0x08, b"x\x00"),     # string
    (0x0D, b"\x78"),      # sdata -8
    (0x18, b"\x01\x00"),  # exprloc
])
def test_str_offsets_base_must_be_an_offset(base_form, base_bytes):
    abbrev = bytes([1, 0x11, 1, 0x72, base_form, 0, 0,
                    2, 0x13, 0, 0x03, 0x25, 0, 0, 0])
    info = _indirect_unit(b"\x01" + base_bytes + b"\x02\x00\x00")
    header = next(iter_unit_headers(info))
    strings = StringTables(debug_str=b"S\x00", str_offsets=bytes(16))
    walker = UnitWalker(info, header, parse_abbrev_table(abbrev, 0), strings,
                        dict.fromkeys((dwarf.TAG_COMPILE_UNIT, dwarf.TAG_STRUCTURE_TYPE),
                                      frozenset({AT_NAME, AT_STR_OFFSETS_BASE})))
    with pytest.raises(MalformedDwarfError, match="str_offsets_base"):
        list(walker)


def _extract_crafted(tmp_path, capsys, abbrev: bytes, dies: bytes):
    """(exit code, {name: (size, [(name, offset), ...])}) of one crafted unit."""
    from structdrift.cli import run

    code = run(["extract", str(_with_debug_sections(tmp_path, _indirect_unit(dies),
                                                    abbrev))])
    out = capsys.readouterr().out
    if code != 0:
        return code, None
    return code, {name: (body["size"], [(m["name"], m["offset"]) for m in body["members"]])
                  for name, body in json.loads(out)["structures"].items()}


def test_wanted_implicit_const_is_the_abbreviations_value(tmp_path, capsys):
    # DW_AT_byte_size in DW_FORM_implicit_const: the value 24 is in the
    # abbreviation, and the DIE holds only the name.
    abbrev = bytes(STRUCT_ABBREV + [0x03, 0x08, 0x0B, 0x21]) + _sleb(24) + bytes([0, 0, 0])
    assert _extract_crafted(tmp_path, capsys, abbrev, b"\x01Deep\x00") == (
        0, {"Deep": (24, [])})


# A name that cannot be read: a strp offset past .debug_str, or a strx1
# index with no .debug_str_offsets in the binary.
BAD_NAMES = {"strp-out-of-range": (0x0E, (0xFFFFFF).to_bytes(4, "little")),
             "strx-without-offsets": (0x25, b"\x00")}


@pytest.mark.parametrize("case", sorted(BAD_NAMES))
@pytest.mark.parametrize("tag, exit_code", [(0x2E, 0), (0x13, 3)],
                         ids=["subprogram", "structure"])
def test_bad_name_fails_only_where_a_layout_reads_it(tmp_path, capsys, case, tag,
                                                     exit_code):
    # The DIE with the bad name, then structure "A" of 4 bytes. A layout
    # never reads a subprogram's name, so it is skipped and never decoded.
    form, name = BAD_NAMES[case]
    abbrev = bytes([1, tag, 0, 0x03, form, 0, 0,
                    2, 0x13, 0, 0x03, 0x08, 0x0B, 0x0B, 0, 0, 0])
    code, structures = _extract_crafted(tmp_path, capsys, abbrev,
                                        b"\x01" + name + b"\x02A\x00\x04")
    assert code == exit_code
    if exit_code == 0:
        assert structures == {"A": (4, [])}


# Layout abbreviations: 1 structure (name string, byte_size data1) with
# children; 2 member (name string, data_member_location data1); 3 union
# with children and no attributes; 4 member whose location is an exprloc;
# 5 member with data_bit_offset data2.
LAYOUT_ABBREV = bytes([1, 0x13, 1, 0x03, 0x08, 0x0B, 0x0B, 0, 0,
                       2, 0x0D, 0, 0x03, 0x08, 0x38, 0x0B, 0, 0,
                       3, 0x17, 1, 0, 0,
                       4, 0x0D, 0, 0x03, 0x08, 0x38, 0x18, 0, 0,
                       5, 0x0D, 0, 0x03, 0x08, 0x6B, 0x05, 0, 0, 0])


# Function abbreviations after the layout ones: 6 subprogram (name string,
# sibling ref4) with children; 7 the same without a sibling; 8 parameter
# (name string); 9 lexical block with children.
FUNCTION_ABBREV = LAYOUT_ABBREV[:-1] + bytes([6, 0x2E, 1, 0x03, 0x08, 0x01, 0x13, 0, 0,
                                              7, 0x2E, 1, 0x03, 0x08, 0, 0,
                                              8, 0x05, 0, 0x03, 0x08, 0, 0,
                                              9, 0x0B, 1, 0, 0, 0])
FILE_ENTRY = b"\x01Entry\x00\x10" + b"\x02a\x00\x00" + b"\x02b\x00\x08" + b"\x00"
# f's parameter x, then its own struct Entry { char c; } and, in a block,
# struct Inner { int i; }.
F_BODY = (b"\x08x\x00" + b"\x01Entry\x00\x01" + b"\x02c\x00\x00" + b"\x00"
          + b"\x09" + b"\x01Inner\x00\x04" + b"\x02i\x00\x00" + b"\x00" + b"\x00" + b"\x00")
TAIL = b"\x01Tail\x00\x04" + b"\x02t\x00\x00" + b"\x00"


def _function_dies(sibling: Optional[int]) -> bytes:
    """File-scope Entry, then f with its body, with or without a sibling
    (unit-relative; None for none), then Tail."""
    if sibling is None:
        return FILE_ENTRY + b"\x07f\x00" + F_BODY + TAIL
    return FILE_ENTRY + b"\x06f\x00" + sibling.to_bytes(4, "little") + F_BODY + TAIL


# The unit-relative offset of Tail, f's sibling: the unit header is 11 bytes.
TAIL_AT = 11 + len(_function_dies(0)) - len(TAIL)


@pytest.mark.parametrize("sibling", [None, TAIL_AT], ids=["walked", "jumped"])
def test_types_in_a_function_body_are_not_extracted(tmp_path, sibling):
    # The same profile whether the walker jumps over f's body or walks it.
    path = _with_debug_sections(tmp_path, _indirect_unit(_function_dies(sibling)),
                                FUNCTION_ABBREV)
    profile, meta = extract_profile_with_meta(path, "9")
    assert layout_map(profile) == {"Entry": (16, [(0, "a"), (8, "b")]),
                                   "Tail": (4, [(0, "t")])}
    assert meta.merge_conflicts == [] and profile.meta.raw_type_die_count == 2
    assert meta.members_skipped == 0


def test_a_sibling_in_another_form_is_not_followed(tmp_path):
    # f's DW_AT_sibling as an inline string: the walker walks f's body.
    abbrev = FUNCTION_ABBREV[:-1] + bytes([10, 0x2E, 1, 0x03, 0x08, 0x01, 0x08, 0, 0, 0])
    dies = FILE_ENTRY + b"\x0af\x00x\x00" + F_BODY + TAIL
    profile = extract_profile(_with_debug_sections(tmp_path, _indirect_unit(dies), abbrev))
    assert layout_map(profile) == {"Entry": (16, [(0, "a"), (8, "b")]), "Tail": (4, [(0, "t")])}


def test_the_jump_skips_the_function_body():
    # f's 6 descendants are never yielded; a walk without the sibling yields them.
    table = parse_abbrev_table(FUNCTION_ABBREV, 0)
    wanted = {dwarf.TAG_SUBPROGRAM: frozenset({dwarf.AT_SIBLING})}
    tags = []
    for sibling in (TAIL_AT, None):
        info = _indirect_unit(_function_dies(sibling))
        walker = UnitWalker(info, next(iter_unit_headers(info)), table, StringTables(), wanted)
        tags.append([tag for _, tag, _ in walker])
    assert tags[0] == [0x13, 0x0D, 0x0D, 0x2E, 0x13, 0x0D]
    assert len(tags[1]) == len(tags[0]) + 6


@pytest.mark.parametrize("stem", [s for s in ORACLE_FIXTURES if s.startswith("functions")])
def test_function_local_types_leave_the_file_scope_one_alone(stem):
    # f(int) and Counter::get define their own Entry, of 1 and 8 bytes.
    profile, meta = extract_profile_with_meta(fixture_path(f"{stem}.so"))
    assert meta.merge_conflicts == []
    assert profile.meta.raw_type_die_count == 3  # Entry, Counter and Pair


@pytest.fixture(scope="module")
def sibling_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("sibling")


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(0, TAIL_AT + len(TAIL) + 2), st.integers(0, (1 << 32) - 1)))
def test_any_sibling_ends_in_a_profile_or_malformed_dwarf(sibling_dir, sibling):
    # Every jump goes forward, so no value can make the walk loop. Half the
    # draws land in the unit: before f, in its body or after it.
    path = _with_debug_sections(sibling_dir, _indirect_unit(_function_dies(sibling)),
                                FUNCTION_ABBREV)
    try:
        profile = extract_profile(path, "9")
    except MalformedDwarfError as exc:
        assert exc.section == ".debug_info"
    else:
        assert "Entry" in profile.structures


def test_union_after_structure_keeps_its_members(tmp_path, capsys):
    # struct S { a at 0 }; then, at the same depth, union U { b at 0 }.
    dies = b"\x01S\x00\x08" + b"\x02a\x00\x00" + b"\x00" \
        + b"\x03" + b"\x02b\x00\x00" + b"\x00"
    assert _extract_crafted(tmp_path, capsys, LAYOUT_ABBREV, dies) == \
        (0, {"S": (8, [("a", 0)])})


def test_anonymous_union_members_stay_out_of_the_structure(tmp_path, capsys):
    # struct S { a at 0; union { b at 4; c at 4 }; d at 4 }.
    dies = b"\x01S\x00\x08" + b"\x02a\x00\x00" \
        + b"\x03" + b"\x02b\x00\x04" + b"\x02c\x00\x04" + b"\x00" \
        + b"\x02d\x00\x04" + b"\x00"
    assert _extract_crafted(tmp_path, capsys, LAYOUT_ABBREV, dies) == \
        (0, {"S": (8, [("a", 0), ("d", 4)])})


def test_expression_and_bit_offset_locations_resolve(tmp_path, capsys):
    # struct S { e at DW_OP_plus_uconst 6; f at bit 17, so byte 2 }.
    dies = b"\x01S\x00\x08" + b"\x04e\x00\x02\x23\x06" \
        + b"\x05f\x00" + (17).to_bytes(2, "little") + b"\x00"
    assert _extract_crafted(tmp_path, capsys, LAYOUT_ABBREV, dies) == \
        (0, {"S": (8, [("f", 2), ("e", 6)])})


LOC, BIT = dwarf.AT_DATA_MEMBER_LOCATION, dwarf.AT_DATA_BIT_OFFSET


@pytest.mark.parametrize("attrs, offset", [
    ({}, None),
    ({LOC: 12}, 12),
    ({LOC: -4}, None),  # a negative sdata constant
    ({LOC: True}, None),  # a flag
    ({LOC: "12"}, None),
    ({LOC: b"\x23\x10"}, 16),  # DW_OP_plus_uconst 16
    ({LOC: bytearray(b"\x23\x90\x01")}, 144),
    ({LOC: b"\x23\x10\x00"}, None),  # trailing bytes
    ({LOC: b"\x23\x80"}, None),  # cut-off ULEB
    ({LOC: b""}, None),
    ({LOC: b"\x10\x04"}, None),  # DW_OP_constu
    ({LOC: -4, BIT: 16}, None),  # a bad location is not replaced by the bit offset
    ({LOC: b"\x10\x04", BIT: 16}, None),
    ({BIT: 13}, 1),
    ({BIT: 0}, 0),
    ({BIT: True}, None),
    ({BIT: -8}, None),
])
def test_member_byte_offset(attrs, offset):
    assert dwarf.member_byte_offset(attrs) == offset


def test_non_string_name_counts_as_unnamed(tmp_path, capsys):
    from structdrift.cli import run

    # Structure "A" (name as string) and a structure whose DW_AT_name is data1.
    abbrev = bytes([1, 0x13, 0, 0x03, 0x0B, 0x0B, 0x0B, 0, 0,
                    2, 0x13, 0, 0x03, 0x08, 0x0B, 0x0B, 0, 0, 0])
    info = _indirect_unit(b"\x01\x05\x08" + b"\x02A\x00\x04")
    patched = _with_debug_sections(tmp_path, info, abbrev)
    assert run(["extract", str(patched)]) == 0
    structures = json.loads(capsys.readouterr().out)["structures"]
    assert {name: body["size"] for name, body in structures.items()} == \
        {"A": 4, "UnNamed": 8}


def test_die_tree_deeper_than_recursion_limit(tmp_path, capsys):
    from structdrift.cli import run

    # CHAIN nested structures "A" of 8 bytes, each the only child of the last.
    abbrev = bytes([1, 0x13, 1, 0x03, 0x08, 0x0B, 0x0B, 0, 0, 0])
    info = _indirect_unit(b"\x01A\x00\x08" * CHAIN + b"\x00" * CHAIN)
    header = next(iter_unit_headers(info))
    walker = UnitWalker(info, header, parse_abbrev_table(abbrev, 0), StringTables(),
                        {dwarf.TAG_STRUCTURE_TYPE: frozenset({AT_NAME})})
    assert [depth for depth, _, _ in walker] == list(range(CHAIN))
    patched = _with_debug_sections(tmp_path, info, abbrev)
    assert run(["extract", str(patched)]) == 0
    structures = json.loads(capsys.readouterr().out)["structures"]
    assert {name: body["size"] for name, body in structures.items()} == {"A": 8}


def test_extraction_loads_the_elf_once(monkeypatch):
    import structdrift.extract as extract_module

    calls = []

    def counting_load(path):
        calls.append(path)
        return load_elf(path)

    monkeypatch.setattr(extract_module, "load_elf", counting_load)
    profile, _ = extract_profile_with_meta(fixture_path("layouts-dwarf4-32.so"))
    assert len(calls) == 1
    assert profile.meta.architecture == "x86_32"


def test_malformed_abbrev_reference(tmp_path):
    def zero_abbrev(data, offset, size):
        data[offset : offset + size] = b"\x00" * size

    patched = _patch_section(tmp_path, "layouts-dwarf4-64.so", ".debug_abbrev",
                             zero_abbrev)
    with pytest.raises(MalformedDwarfError):
        extract_profile(patched)


def test_unnamed_member_recorded_at_its_offset():
    profile = extract_profile(fixture_path("layouts-dwarf4-64.so"),
                              platform_version="9")
    members = profile.structures["RegionTable"].members
    assert ("UnNamed", 8) in [(m.name, m.offset) for m in members]


def test_static_member_never_appears():
    profile = extract_profile(fixture_path("layouts-dwarf4-64.so"),
                              platform_version="9")
    names = [m.name for m in profile.structures["TaskRunner"].members]
    assert "live_count" not in names


def test_declaration_only_type_skipped():
    profile = extract_profile(fixture_path("layouts-dwarf4-64.so"),
                              platform_version="9")
    assert "Opaque" not in profile.structures


def test_inherited_members_not_flattened():
    profile = extract_profile(fixture_path("layouts-dwarf4-64.so"),
                              platform_version="9")
    derived = profile.structures["DerivedCounters"]
    assert [(m.name, m.offset) for m in derived.members] == [("evictions", 16)]


def test_template_instantiation_name_verbatim():
    profile = extract_profile(fixture_path("layouts-dwarf4-64.so"),
                              platform_version="9")
    assert "SmallVec<int>" in profile.structures


def test_triple_fixture_has_exactly_three_structures():
    profile = extract_profile(fixture_path("triple-dwarf4-64.so"),
                              platform_version="9")
    assert sorted(profile.structures) == ["LinkNode", "Registry", "Ring"]


def test_architecture_inferred_from_elf():
    p64 = extract_profile(fixture_path("layouts-dwarf4-64.so"))
    p32 = extract_profile(fixture_path("layouts-dwarf4-32.so"))
    assert p64.meta.architecture == "x86_64"
    assert p32.meta.architecture == "x86_32"


def test_counts_are_consistent():
    profile, meta = extract_profile_with_meta(
        fixture_path("layouts-dwarf4-64.so"), platform_version="9"
    )
    assert profile.meta.raw_type_die_count >= len(profile.structures)
    assert meta.unique_type_name_count >= len(profile.structures)


def test_parallel_extractions_match_serial():
    from concurrent.futures import ThreadPoolExecutor

    paths = [fixture_path(f"{stem}.so") for stem in ORACLE_FIXTURES]
    serial = [extract_profile(p, platform_version="9") for p in paths]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(
            pool.map(lambda p: extract_profile(p, platform_version="9"), paths)
        )
    assert serial == parallel


def test_offsets_always_inside_structure():
    for stem in ORACLE_FIXTURES:
        profile = extract_profile(fixture_path(f"{stem}.so"), platform_version="9")
        for record in profile.structures.values():
            for member in record.members:
                assert record.byte_size == 0 or member.offset < record.byte_size


# ------------------------------------------------------------- merge rules

def test_merge_two_cu_binary():
    profile, meta = extract_profile_with_meta(
        fixture_path("merge-two-cu.so"), platform_version="9"
    )
    assert meta.compilation_unit_count == 2
    assert "SharedHeader" in profile.structures
    assert "SharedHeader" not in meta.merge_conflicts
    assert meta.merge_conflicts == ["Clash"]
    clash = profile.structures["Clash"]
    assert [(m.name, m.offset) for m in clash.members] == [
        ("a", 0), ("b", 8), ("c", 16), ("d", 24), ("e", 32)
    ]


# LAYOUT_ABBREV plus three more structures with children, all with a name
# string: 6 a declaration (DW_AT_declaration flag_present) without a byte
# size, 7 a declaration with one, 8 neither byte size nor declaration.
MERGE_ABBREV = LAYOUT_ABBREV[:-1] + bytes([6, 0x13, 1, 0x03, 0x08, 0x3C, 0x19, 0, 0,
                                           7, 0x13, 1, 0x03, 0x08, 0x0B, 0x0B,
                                           0x3C, 0x19, 0, 0,
                                           8, 0x13, 1, 0x03, 0x08, 0, 0, 0])
# (has a byte size, is a declaration) -> abbreviation code
_TYPE_CODES = {(True, False): 1, (False, True): 6, (True, True): 7, (False, False): 8}
# MERGE_ABBREV plus 9, a member named by a strp offset, as gcc names most:
# its DIEs in a row are decoded as member runs.
RUNS_ABBREV = MERGE_ABBREV[:-1] + bytes([9, 0x0D, 0, 0x03, 0x0E, 0x38, 0x0B, 0, 0, 0])


def _type_die(name, size, members, decl=False, strp=None):
    """One structure DIE with its member children, in MERGE_ABBREV's codes, or
    in RUNS_ABBREV's given `strp`, each member name's .debug_str offset."""
    die = bytes([_TYPE_CODES[size is not None, decl]]) + name.encode() + b"\x00"
    if size is not None:
        die += bytes([size])
    for member, offset in members:
        if strp is None:
            die += b"\x02" + member.encode() + b"\x00" + bytes([offset])
        else:
            die += b"\x09" + strp[member].to_bytes(4, "little") + bytes([offset])
    return die + b"\x00"


def _extract_binary(directory, units, runs=False):
    """(profile, meta) of a binary whose units hold the given _type_die args,
    with strp member names if `runs`."""
    names = sorted({member for unit in units for t in unit for member, _ in t[2]})
    debug_str, offsets = _table(names) if runs else (b"", [])
    strp = dict(zip(names, offsets)) if runs else None
    info = b"".join(_indirect_unit(b"".join(_type_die(*t, strp=strp) for t in unit))
                    for unit in units)
    return extract_profile_with_meta(_with_debug_sections(
        directory, info, RUNS_ABBREV if runs else MERGE_ABBREV, debug_str=debug_str))


def _extract_units(directory, units):
    """(structures, meta) of _extract_binary."""
    profile, meta = _extract_binary(directory, units)
    return profile.structures, meta


def test_merge_identical_definitions(tmp_path):
    thread = ("Thread", 16, [("id", 0), ("state", 8)])
    catalog, meta = _extract_units(tmp_path, [[thread], [thread]])
    assert list(catalog) == ["Thread"]
    assert meta.merge_conflicts == []


def test_merge_conflicting_definitions_keeps_largest(tmp_path):
    catalog, meta = _extract_units(tmp_path, [
        [("Foo", 24, [("a", 0), ("b", 8), ("c", 16)])],
        [("Foo", 40, [("a", 0), ("b", 8), ("c", 16), ("d", 24), ("e", 32)])],
    ])
    assert meta.merge_conflicts == ["Foo"]
    assert len(catalog["Foo"].members) == 5


def test_merge_declaration_never_wins(tmp_path):
    catalog, meta = _extract_units(tmp_path, [
        [("Bar", None, [], True)],
        [("Bar", 8, [("x", 0)])],
    ])
    assert meta.merge_conflicts == []
    assert catalog["Bar"].byte_size == 8
    assert [m.name for m in catalog["Bar"].members] == ["x"]


def test_merge_declaration_only_names_dropped(tmp_path):
    profile, meta = _extract_binary(tmp_path, [[("Ghost", None, [], True)]])
    assert profile.structures == {}
    assert meta.merge_conflicts == []
    assert (profile.meta.raw_type_die_count, meta.unique_type_name_count) == (1, 1)


def test_merge_tie_breaks_by_size_then_unit(tmp_path):
    catalog, meta = _extract_units(tmp_path, [
        [], [], [], [("Tie", 16, [("a", 0), ("b", 8)])],
        [], [("Tie", 32, [("a", 0), ("b", 16)])],
    ])
    assert meta.merge_conflicts == ["Tie"]
    assert catalog["Tie"].byte_size == 32
    # Equal size and member count: the shape first defined earliest wins,
    # though the other one's only unit comes before its repeat.
    early, late = ("Even", 8, [("a", 0)]), ("Even", 8, [("b", 0)])
    catalog, meta = _extract_units(tmp_path, [[early], [late], [early]])
    assert meta.merge_conflicts == ["Even"]
    assert [m.name for m in catalog["Even"].members] == ["a"]


def test_merge_never_invents_names(tmp_path):
    catalog, _ = _extract_units(tmp_path, [
        [("A", 8, [("x", 0)]), ("B", 8, [("y", 0)])],
        [("A", 8, [("x", 0)])],
    ])
    assert set(catalog) <= {"A", "B"}


class _RawType(NamedTuple):
    name: str
    byte_size: Optional[int]
    members: List[MemberRecord]
    origin_unit: int
    is_declaration_only: bool


def _merge_oracle(entries):
    """The merge rule over a list of every definition: extraction's reference.

    Declaration-only entries never win. Identical complete definitions
    merge silently; disagreeing ones keep the definition with the most
    members (ties: larger byte size, then earliest origin unit, then list
    order) and the name is reported as a conflict.
    """
    by_name = {}
    for entry in entries:
        by_name.setdefault(entry.name, []).append(entry)
    catalog, conflicts = {}, []
    for name in sorted(by_name):
        complete = [e for e in by_name[name] if not e.is_declaration_only]
        if not complete:
            continue
        if len({(e.byte_size, tuple(e.members)) for e in complete}) > 1:
            conflicts.append(name)
            complete.sort(key=lambda e: (-len(e.members), -e.byte_size, e.origin_unit))
        winner = complete[0]
        catalog[name] = StructureRecord.canonical(name, winner.byte_size, winner.members)
    return catalog, conflicts


# (name, byte size or None, [(member, offset)], declaration flag). Mostly
# complete definitions over few sizes and members, so that distinct shapes
# of one name often tie on member count and size.
_TYPE_DEFS = st.tuples(
    st.sampled_from("ABC"),
    st.sampled_from([None, 8, 16, 16]),
    st.lists(st.tuples(st.sampled_from("xy"), st.sampled_from([0, 8])), max_size=2),
    st.sampled_from([False, False, False, True]),
)


@st.composite
def _merge_units(draw):
    """Two to eight units of definitions: new ones, identical repeats, and
    repeats or equal-rank rivals (member names swapped) of the first two.
    A forked walk's first half holds the first two, so its second half often
    meets one of them again after a rival."""
    units, drawn = [], []
    for _ in range(draw(st.integers(2, 8))):
        unit = []
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(["new", "repeat", "first", "rival"])) if drawn else "new"
            if kind == "new":
                drawn.append(draw(_TYPE_DEFS))
                unit.append(drawn[-1])
            elif kind == "repeat":
                unit.append(draw(st.sampled_from(drawn)))
            elif kind == "first":
                unit.append(draw(st.sampled_from(drawn[:2])))
            else:
                name, size, members, decl = draw(st.sampled_from(drawn[:2]))
                unit.append((name, size, [("y" if m == "x" else "x", o) for m, o in members],
                             decl))
        units.append(unit)
    return units


@pytest.fixture(scope="module")
def merge_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("merge")


def check_merge_against_oracle(directory, units, runs=False):
    """Extract the units' definitions and compare with _merge_oracle over all of them;
    with `runs`, the members are named by strp and decoded as member runs."""
    entries, skipped = [], 0
    for unit_index, unit in enumerate(units):
        for name, size, members, decl in unit:
            # A member at or past a nonzero byte size is skipped.
            kept = [MemberRecord(m, o) for m, o in members if not size or o < size]
            skipped += len(members) - len(kept)
            entries.append(_RawType(name, size, kept, unit_index, size is None or decl))
    catalog, conflicts = _merge_oracle(entries)
    profile, meta = _extract_binary(directory, units, runs)
    assert profile.structures == catalog
    assert meta.merge_conflicts == conflicts
    assert profile.meta.raw_type_die_count == len(entries)
    assert meta.unique_type_name_count == len({e.name for e in entries})
    assert meta.members_skipped == skipped
    assert meta.compilation_unit_count == len(units)


@settings(max_examples=400, deadline=None)
@given(_merge_units())
def test_merge_while_walking_matches_merging_every_definition(merge_dir, units):
    check_merge_against_oracle(merge_dir, units)


@settings(max_examples=200, deadline=None)
@given(_merge_units())
def test_merge_of_member_runs_matches_merging_every_definition(merge_dir, units):
    check_merge_against_oracle(merge_dir, units, runs=True)


def test_relocatable_object_with_rela_debug_relocations_is_refused(capsys):
    # RELA addends live outside the section, so without applying them every
    # string offset reads 0 and each name would be whatever string is first.
    from structdrift.cli import run

    source = fixture_path("thread-rela-64.o")
    with pytest.raises(NotElfError, match="RELA relocations"):
        load_elf(source)
    assert run(["extract", str(source)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "section .debug_info has RELA relocations" in captured.err


def test_relocatable_object_with_rel_relocations_extracts():
    # REL addends sit in the section bytes, so names resolve unrelocated.
    profile = extract_profile(fixture_path("thread-rel-32.o"))
    assert profile.meta.architecture == "x86_32"
    assert layout_map(profile) == {"Thread": (12, [(0, "state"), (4, "tid"), (8, "name")])}


FUZZ_CASES = 300


@pytest.mark.parametrize("fixture, region", [
    ("layouts-dwarf5-64.so", "header"),
    ("layouts-dwarf5-64.so", ".debug_info"),
    ("layouts-dwarf5-64.so", ".debug_abbrev"),
    ("layouts-dwarf5-64.so", ".debug_str"),
    # Compressed: the mutations hit the compression header and zlib stream.
    ("layouts-zlib-64.so", ".debug_info"),
    ("layouts-zlibgnu-64.so", ".zdebug_info"),
    # Relocatable: the mutations hit the ELF header (e_type) and the section
    # headers (sh_type, sh_info) the RELA refusal reads.
    ("thread-rela-64.o", "header"),
    ("thread-rela-64.o", "section headers"),
    # Function bodies: the mutations hit the sibling references jumped along.
    ("functions-O2-dwarf5-64.so", ".debug_info"),
], ids=["header", ".debug_info", ".debug_abbrev", ".debug_str", "zlib-.debug_info",
        "zlibgnu-.zdebug_info", "rela-object-header", "rela-object-section-headers",
        "functions-.debug_info"])
def test_mutated_fixture_never_escapes(tmp_path, capsys, fixture, region):
    # Seeded, bounded byte mutation: every case must end in success or a
    # clean input error, never a traceback or exit code 1.
    from structdrift.cli import run

    target = tmp_path / "mutated.so"
    for case, data in enumerate(mutations(fixture, region)):
        target.write_bytes(data)
        code = run(["extract", str(target)])
        capsys.readouterr()
        assert code in (0, 3), (fixture, region, case, code)


def mutations(fixture, region, cases=FUZZ_CASES):
    """Copies of the fixture with 1-7 random bytes of `region` changed, seeded by it."""
    source = fixture_path(fixture)
    original = source.read_bytes()
    if region == "header":
        start, size = 0, 64
    elif region == "section headers":  # ELF64 little-endian
        (start,) = struct.unpack_from("<Q", original, 0x28)  # e_shoff
        size = 64 * struct.unpack_from("<H", original, 0x3C)[0]  # 64 bytes * e_shnum
    else:
        section = load_elf(source).sections[region]
        start, size = section.offset, section.size
    rng = random.Random(f"{region}-2024")
    for _ in range(cases):
        data = bytearray(original)
        for _ in range(rng.randint(1, 7)):
            data[start + rng.randrange(size)] = rng.randrange(256)
        yield bytes(data)


# ------------------------------------------------------ decoder round trip
#
# Random abbreviations over every form the walker knows, DIEs encoded to
# match, and the walker's output compared with the values encoded.

def _uleb(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _sleb(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if (value == 0 and not byte & 0x40) or (value == -1 and byte & 0x40):
            out.append(byte)
            return bytes(out)
        out.append(byte | 0x80)


ALL_FORMS = sorted(getattr(dwarf, name) for name in dir(dwarf) if name.startswith("FORM_"))
# DWARF 5 forbids these as the target of DW_FORM_indirect (the constant
# lives in the abbreviation; the chain is drawn separately).
_NOT_INDIRECT = {dwarf.FORM_INDIRECT, dwarf.FORM_IMPLICIT_CONST}
_INT_FORMS = {dwarf.FORM_DATA1: 1, dwarf.FORM_DATA2: 2, dwarf.FORM_DATA4: 4,
              dwarf.FORM_DATA8: 8}
# Unit-relative references, which decode to their .debug_info offset.
_REF_FORMS = {dwarf.FORM_REF1: 1, dwarf.FORM_REF2: 2, dwarf.FORM_REF4: 4,
              dwarf.FORM_REF8: 8}
# ref_sig8 names a type unit by its signature, which is not resolved.
_OPAQUE_FORMS = {dwarf.FORM_REF_SIG8: 8, dwarf.FORM_REF_SUP4: 4,
                 dwarf.FORM_REF_SUP8: 8, dwarf.FORM_DATA16: 16, dwarf.FORM_ADDRX1: 1,
                 dwarf.FORM_ADDRX2: 2, dwarf.FORM_ADDRX3: 3, dwarf.FORM_ADDRX4: 4}
_OPAQUE_LEB_FORMS = {dwarf.FORM_ADDRX, dwarf.FORM_LOCLISTX,
                     dwarf.FORM_RNGLISTX, dwarf.FORM_GNU_ADDR_INDEX}
_OFFSET_OPAQUE_FORMS = {dwarf.FORM_STRP_SUP, dwarf.FORM_GNU_REF_ALT,
                        dwarf.FORM_GNU_STRP_ALT}
_STRX_SIZES = {dwarf.FORM_STRX1: 1, dwarf.FORM_STRX2: 2, dwarf.FORM_STRX3: 3,
               dwarf.FORM_STRX4: 4}
_BLOCK_PREFIX = {dwarf.FORM_BLOCK1: 1, dwarf.FORM_BLOCK2: 2, dwarf.FORM_BLOCK4: 4}
_TEXT = st.text(st.characters(min_codepoint=1, max_codepoint=0x2FF), max_size=5)
# Half the draws come from the forms whose size depends on the unit header
# (address size, offset size, and the version for ref_addr) and from
# DW_FORM_indirect, whose form is only known while decoding.
_TRICKY_FORMS = [dwarf.FORM_ADDR, dwarf.FORM_REF_ADDR, dwarf.FORM_STRP,
                 dwarf.FORM_LINE_STRP, dwarf.FORM_SEC_OFFSET, dwarf.FORM_STRP_SUP,
                 dwarf.FORM_GNU_REF_ALT, dwarf.FORM_GNU_STRP_ALT, dwarf.FORM_INDIRECT]
_FORMS = st.one_of(st.sampled_from(ALL_FORMS), st.sampled_from(_TRICKY_FORMS))


@dataclasses.dataclass(frozen=True)
class _Shape:
    start: int  # .debug_info offset of the unit
    version: int
    dwarf64: bool
    address_size: int
    debug_str: list
    line_str: list

    @property
    def offset_size(self):
        return 8 if self.dwarf64 else 4


def _table(strings):
    """(section bytes, offset of each string) for a .debug_str-style table."""
    blob, offsets = bytearray(), []
    for text in strings:
        offsets.append(len(blob))
        blob += text.encode() + b"\x00"
    return bytes(blob), offsets


def _encode_value(draw, form, const, shape):
    """(bytes, decoded value) of one attribute of `form`."""
    osize = shape.offset_size
    if form in _INT_FORMS:
        size = _INT_FORMS[form]
        value = draw(st.integers(0, (1 << 8 * size) - 1))
        return value.to_bytes(size, "little"), value
    if form in (dwarf.FORM_SEC_OFFSET, dwarf.FORM_REF_ADDR):
        # ref_addr is a .debug_info offset as written, sized like an address
        # in DWARF 2.
        size = shape.address_size if form == dwarf.FORM_REF_ADDR \
            and shape.version == 2 else osize
        value = draw(st.integers(0, (1 << 8 * size) - 1))
        return value.to_bytes(size, "little"), value
    if form in _REF_FORMS:
        size = _REF_FORMS[form]
        value = draw(st.integers(0, (1 << 8 * size) - 1))
        return value.to_bytes(size, "little"), shape.start + value
    if form == dwarf.FORM_REF_UDATA:
        value = draw(st.integers(0, (1 << 64) - 1))
        return _uleb(value), shape.start + value
    if form in _OPAQUE_FORMS or form in _OFFSET_OPAQUE_FORMS or form == dwarf.FORM_ADDR:
        size = shape.address_size if form == dwarf.FORM_ADDR \
            else _OPAQUE_FORMS.get(form, osize)
        return draw(st.binary(min_size=size, max_size=size)), None
    if form == dwarf.FORM_FLAG:
        byte = draw(st.integers(0, 255))
        return bytes([byte]), byte != 0
    if form == dwarf.FORM_FLAG_PRESENT:
        return b"", True
    if form == dwarf.FORM_IMPLICIT_CONST:
        return b"", const
    if form == dwarf.FORM_UDATA:
        value = draw(st.integers(0, (1 << 64) - 1))
        return _uleb(value), value
    if form == dwarf.FORM_SDATA:
        value = draw(st.integers(-(1 << 63), (1 << 63) - 1))
        return _sleb(value), value
    if form in _OPAQUE_LEB_FORMS:
        return _uleb(draw(st.integers(0, (1 << 64) - 1))), None
    if form == dwarf.FORM_STRING:
        text = draw(_TEXT)
        return text.encode() + b"\x00", text
    if form in (dwarf.FORM_STRP, dwarf.FORM_LINE_STRP):
        strings = shape.debug_str if form == dwarf.FORM_STRP else shape.line_str
        index = draw(st.integers(0, len(strings) - 1))
        return _table(strings)[1][index].to_bytes(osize, "little"), strings[index]
    if form in _STRX_SIZES or form in (dwarf.FORM_STRX, dwarf.FORM_GNU_STR_INDEX):
        index = draw(st.integers(0, len(shape.debug_str) - 1))
        if form in _STRX_SIZES:
            return index.to_bytes(_STRX_SIZES[form], "little"), shape.debug_str[index]
        return _uleb(index), shape.debug_str[index]
    if form in _BLOCK_PREFIX or form in (dwarf.FORM_BLOCK, dwarf.FORM_EXPRLOC):
        payload = draw(st.binary(max_size=6))
        if form in _BLOCK_PREFIX:
            prefix = len(payload).to_bytes(_BLOCK_PREFIX[form], "little")
        else:
            prefix = _uleb(len(payload))
        return prefix + payload, payload
    assert form == dwarf.FORM_INDIRECT, form
    hops = draw(st.integers(0, 2))
    target = draw(st.sampled_from([f for f in ALL_FORMS if f not in _NOT_INDIRECT]))
    encoded, value = _encode_value(draw, target, None, shape)
    return _uleb(dwarf.FORM_INDIRECT) * hops + _uleb(target) + encoded, value


@st.composite
def _encoded_units(draw):
    # The unit follows a DWARF 4 unit of 11 header bytes and `padding` null
    # entries, or starts the section, so references resolve against its start.
    padding = draw(st.one_of(st.none(), st.integers(0, 300)))
    before = b"" if padding is None else _indirect_unit(bytes(padding))
    shape = _Shape(
        start=len(before),
        version=draw(st.sampled_from([2, 3, 4, 5])),
        dwarf64=draw(st.booleans()),
        address_size=draw(st.sampled_from([2, 4, 8])),
        debug_str=draw(st.lists(_TEXT, min_size=1, max_size=3)),
        line_str=draw(st.lists(_TEXT, min_size=1, max_size=2)),
    )
    # Attribute numbers include two-byte ULEBs; 0x72 would set the string
    # offsets base and 0x01 jump over the children, which are tested on their own.
    attr_ids = st.integers(2, 0x3FFF).filter(lambda a: a != dwarf.AT_STR_OFFSETS_BASE)
    codes = draw(st.lists(st.integers(1, 300), min_size=1, max_size=3, unique=True))
    abbrev = bytearray()
    decls = {}
    wanted = set()
    for code in codes:
        tag = draw(st.integers(1, 0x40).filter(lambda t: t != dwarf.TAG_COMPILE_UNIT))
        has_children = draw(st.booleans())
        attrs = draw(st.lists(attr_ids, max_size=8, unique=True))
        specs = []
        abbrev += _uleb(code) + _uleb(tag) + bytes([has_children])
        for attr in attrs:
            form = draw(_FORMS)
            const = None
            abbrev += _uleb(attr) + _uleb(form)
            if form == dwarf.FORM_IMPLICIT_CONST:
                const = draw(st.integers(-(1 << 63), (1 << 63) - 1))
                abbrev += _sleb(const)
            if draw(st.booleans()):
                wanted.add(attr)
            specs.append((attr, form, const))
        abbrev += b"\x00\x00"
        decls[code] = (tag, has_children, specs)
    abbrev += b"\x00"

    dies, expected, depth = bytearray(), [], 0
    for _ in range(draw(st.integers(0, 6))):
        code = draw(st.sampled_from(codes))
        tag, has_children, specs = decls[code]
        dies += _uleb(code)
        values = {}
        for attr, form, const in specs:
            encoded, value = _encode_value(draw, form, const, shape)
            dies += encoded
            if attr in wanted:
                values[attr] = value
        expected.append((depth, tag, values))
        if has_children:
            depth += 1
        for _ in range(draw(st.integers(0, 2))):  # null entries
            dies += b"\x00"
            depth = max(depth - 1, 0)

    osize = shape.offset_size
    if shape.version >= 5:
        fields = (5).to_bytes(2, "little") + bytes([1, shape.address_size]) \
            + bytes(osize)
    else:
        fields = shape.version.to_bytes(2, "little") + bytes(osize) \
            + bytes([shape.address_size])
    body = fields + bytes(dies)
    if shape.dwarf64:
        info = before + b"\xff\xff\xff\xff" + len(body).to_bytes(8, "little") + body
    else:
        info = before + len(body).to_bytes(4, "little") + body
    debug_str, str_offsets = _table(shape.debug_str)
    offsets_header = bytes(16 if shape.dwarf64 else 8)
    strings = StringTables(
        debug_str=debug_str,
        line_str=_table(shape.line_str)[0],
        str_offsets=offsets_header + b"".join(o.to_bytes(osize, "little")
                                              for o in str_offsets),
    )
    return info, bytes(abbrev), strings, frozenset(wanted), expected


def _member_dies(items):
    """Walker items with each run of members spelled out as the member DIEs it
    stands for: a run's name is None only where no name was decoded."""
    for depth, tag, attrs in items:
        if tag != dwarf.MEMBER_RUN:
            yield depth, tag, attrs
            continue
        for name, location in attrs:
            member = {} if name is None else {AT_NAME: name}
            yield depth, dwarf.TAG_MEMBER, {**member, dwarf.AT_DATA_MEMBER_LOCATION: location}


def _typed(dies):
    # True == 1 in Python, so compare the value types too.
    return [(depth, tag, {a: (type(v), v) for a, v in attrs.items()})
            for depth, tag, attrs in _member_dies(dies)]


@settings(max_examples=300, deadline=None)
@given(_encoded_units())
def test_walker_round_trips_every_form(unit):
    info, abbrev, strings, wanted, expected = unit
    *_, header = iter_unit_headers(info)
    table = parse_abbrev_table(abbrev, 0)
    by_tag = dict.fromkeys((decl.tag for decl in table.values()), wanted)
    walker = UnitWalker(info, header, table, strings, by_tag)
    assert _typed(walker) == _typed(expected)
    assert walker.cur.pos == header.end == len(info)
    # Cut short at every byte: a clean error, or a prefix of the DIEs.
    for cut in range(header.die_start, len(info)):
        short = header._replace(end=cut)
        walker = UnitWalker(info[:cut], short, table, strings, by_tag)
        got = []
        try:
            for die in walker:
                got.append(die)
        except MalformedDwarfError as exc:
            assert exc.section == ".debug_info"
        got = _typed(got)
        assert got == _typed(expected)[: len(got)]


# ------------------------------------------------------------- member runs
#
# Crafted runs of member DIEs, each walked as extraction walks it and again
# with no run form compiled, on the step path alone: the same layouts and
# counts, or the same error message and offset.

def _abbrev(*decls):
    """A .debug_abbrev table of (code, tag, has children, [(attribute, form)])."""
    table = b""
    for code, tag, children, specs in decls:
        table += _uleb(code) + _uleb(tag) + bytes([children])
        table += b"".join(_uleb(attr) + _uleb(form) for attr, form in specs) + b"\x00\x00"
    return table + b"\x00"


NAME_STRP, LOCATION = (AT_NAME, dwarf.FORM_STRP), (dwarf.AT_DATA_MEMBER_LOCATION, 0x0B)
DECL_LINE = (0x3B, 0x0B)  # DW_AT_decl_line data1, never wanted
# 1 structure with children (name string, byte size data1); 2 member (name
# strp, decl_line data1, location data1); 3 class with children, as 1.
RUN_DECLS = [(1, dwarf.TAG_STRUCTURE_TYPE, 1, [(AT_NAME, 0x08), (AT_BYTE_SIZE, 0x0B)]),
             (2, dwarf.TAG_MEMBER, 0, [NAME_STRP, DECL_LINE, LOCATION]),
             (3, dwarf.TAG_CLASS_TYPE, 1, [(AT_NAME, 0x08), (AT_BYTE_SIZE, 0x0B)])]
RUN_STR = b"\x00a\x00b\x00c\x00d\x00"  # "a" at 1, "b" at 3, "c" at 5, "d" at 7


def _member2(name_at: int, location: int) -> bytes:
    """A member DIE of abbreviation 2."""
    return b"\x02" + name_at.to_bytes(4, "little") + b"\x07" + bytes([location])


def _walk_outcome(info: bytes, abbrev: bytes):
    """(extract._walk's result over every unit of `info`, or its error's
    (message, offset); the length of each run yielded; the codes compiled
    with a run form)."""
    units = list(extract_module._units([(info, ".debug_info")]))
    table = parse_abbrev_table(abbrev, 0)
    runs, forms = [], set()
    try:
        for data, _, header in units:
            walker = UnitWalker(data, header, table, StringTables(debug_str=RUN_STR),
                                extract_module._WANTED)
            try:
                for _, tag, members in walker:
                    if tag == dwarf.MEMBER_RUN:
                        runs.append(len(members))
            finally:
                forms |= {code for code, plan in walker.plans.items() if plan[3]}
        result = extract_module._walk(units, abbrev, StringTables(debug_str=RUN_STR))
    except MalformedDwarfError as exc:
        result = (str(exc), exc.offset)
    return result, runs, forms


def _runs_and_steps(monkeypatch, info: bytes, abbrev: bytes):
    """_walk_outcome with member runs, then on the step path alone."""
    with_runs = _walk_outcome(info, abbrev)
    monkeypatch.setattr(dwarf, "_member_run", lambda steps: None)
    steps = _walk_outcome(info, abbrev)
    assert steps[1:] == ([], set())
    assert with_runs[0] == steps[0]
    return with_runs


def _shapes(**types):
    """extract._walk's result for one DWARF 4 unit of these complete types."""
    return ({4}, len(types), 0, 1,
            {name: {(size, tuple(members)): None} for name, (size, members) in types.items()})


def test_multi_byte_codes_never_continue_a_run(monkeypatch):
    # Codes 133 and 261 (ULEB128 85 01 and 85 02) share their first byte,
    # which is 133; their DIEs differ in size, so a misread one shows.
    abbrev = _abbrev(RUN_DECLS[0], (133, dwarf.TAG_MEMBER, 0, [NAME_STRP, LOCATION]),
                     (261, dwarf.TAG_MEMBER, 0, [(0x3B, 0x05), NAME_STRP, (0x38, 0x05)]))
    die = b"\x01S\x00\x40"
    for i, name_at in enumerate((1, 3, 5, 7)):
        if i % 2:
            die += b"\x85\x02\x07\x00" + name_at.to_bytes(4, "little") + bytes([8 * i, 0])
        else:
            die += b"\x85\x01" + name_at.to_bytes(4, "little") + bytes([8 * i])
    result, runs, forms = _runs_and_steps(monkeypatch, _indirect_unit(die + b"\x00"), abbrev)
    assert result == _shapes(S=(64, [("a", 0), ("b", 8), ("c", 16), ("d", 24)]))
    assert (runs, forms) == ([1, 1, 1, 1], {133, 261})


@pytest.mark.parametrize("cut", range(6))
def test_run_cut_by_the_section_end_fails_as_the_step_path(monkeypatch, cut):
    # The third member keeps `cut` of its 6 attribute bytes: strp 4, decl_line 1,
    # location 1. The unit ends where the section does.
    die = b"\x01S\x00\x40" + _member2(1, 0) + _member2(3, 8) + _member2(5, 16)[: 1 + cut]
    result, runs, forms = _runs_and_steps(monkeypatch, _indirect_unit(die),
                                          _abbrev(*RUN_DECLS))
    where = 11 + 4 + 2 * 7 + 1 + (0 if cut < 4 else cut)
    reading = 4 if cut < 4 else 1
    assert result == (f"unexpected end of data reading {reading} bytes "
                      f"(.debug_info offset {where:#x})", where)
    assert (runs, forms) == ([2], {2})


def test_bad_strp_name_in_a_run_fails_as_the_step_path(monkeypatch):
    die = b"\x01S\x00\x40" + _member2(1, 0) + _member2(3, 8) + _member2(0xFFFF, 16) + b"\x00"
    result, runs, forms = _runs_and_steps(monkeypatch, _indirect_unit(die),
                                          _abbrev(*RUN_DECLS))
    where = 11 + 4 + 2 * 7 + 1 + 4  # the end of the third member's name
    assert result == (f"strp string offset 0xffff out of range (.debug_info offset "
                      f"{where:#x})", where)
    assert (runs, forms) == ([], {2})


def test_run_ends_at_its_units_end(monkeypatch):
    # The first unit ends right after its second member, and the second
    # unit's first byte, the low byte of its length, is the member's code.
    second = b"\x01T\x00\x08" + _member2(7, 0) + b"\x00"
    code = len(_indirect_unit(second)) - 4
    decls = [RUN_DECLS[0], (code, dwarf.TAG_MEMBER, 0, [NAME_STRP, DECL_LINE, LOCATION])]
    first = b"\x01S\x00\x40" + (_member2(1, 0) + _member2(3, 8)).replace(b"\x02", bytes([code]))
    info = _indirect_unit(first) + _indirect_unit(second.replace(b"\x02", bytes([code])))
    assert info[len(_indirect_unit(first))] == code
    result, runs, forms = _runs_and_steps(monkeypatch, info, _abbrev(*decls))
    assert result == ({4}, 2, 0, 2, {"S": {(64, (("a", 0), ("b", 8))): None},
                                     "T": {(8, (("d", 0),)): None}})
    assert (runs, forms) == ([2, 1], {code})


def test_run_followed_by_a_nested_class(monkeypatch):
    die = (b"\x01S\x00\x40" + _member2(1, 0) + _member2(3, 8)
           + b"\x03N\x00\x08" + _member2(7, 0) + b"\x00"
           + _member2(5, 16) + b"\x00")
    result, runs, forms = _runs_and_steps(monkeypatch, _indirect_unit(die),
                                          _abbrev(*RUN_DECLS))
    assert result == _shapes(N=(8, [("d", 0)]), S=(64, [("a", 0), ("b", 8), ("c", 16)]))
    assert (runs, forms) == ([2, 1, 1], {2})


def test_member_runs_keep_the_bounds_of_a_member(monkeypatch):
    # Offsets 8 and 200 of a 16-byte structure: the second is skipped.
    die = b"\x01S\x00\x10" + _member2(1, 8) + _member2(3, 200) + b"\x00"
    result, runs, _ = _runs_and_steps(monkeypatch, _indirect_unit(die), _abbrev(*RUN_DECLS))
    assert result == ({4}, 1, 1, 1, {"S": {(16, (("a", 8),)): None}})
    assert runs == [2]


@pytest.mark.parametrize("version, specs, attributes, offset", [
    # DW_AT_name twice: the step path keeps the second.
    (4, [NAME_STRP, NAME_STRP, LOCATION], (1).to_bytes(4, "little") + b"\x03\x00\x00\x00\x08", 8),
    # DW_AT_data_bit_offset data2, 65 bits: byte 8.
    (4, [NAME_STRP, (dwarf.AT_DATA_BIT_OFFSET, 0x05)], b"\x03\x00\x00\x00\x41\x00", 8),
    # A DWARF 2 block1 location: DW_OP_plus_uconst 8.
    (2, [NAME_STRP, (dwarf.AT_DATA_MEMBER_LOCATION, dwarf.FORM_BLOCK1)],
     b"\x03\x00\x00\x00\x02\x23\x08", 8),
], ids=["name-twice", "data-bit-offset", "dwarf2-block"])
def test_other_member_shapes_stay_on_the_step_path(monkeypatch, version, specs, attributes,
                                                   offset):
    abbrev = _abbrev(RUN_DECLS[0], (4, dwarf.TAG_MEMBER, 0, specs))
    die = b"\x01S\x00\x40" + (b"\x04" + attributes) * 2 + b"\x00"
    result, runs, forms = _runs_and_steps(monkeypatch, _indirect_unit(die, version), abbrev)
    assert result[4] == {"S": {(64, (("b", offset), ("b", offset))): None}}
    assert (runs, forms) == ([], set())


def test_union_and_unnamed_members_in_runs(monkeypatch):
    # 4 a union with children and no attributes; 5 a member with no name.
    # The union's members stay out of S; a missing or empty name is UnNamed.
    abbrev = _abbrev(*RUN_DECLS, (4, 0x17, 1, []),
                     (5, dwarf.TAG_MEMBER, 0, [DECL_LINE, LOCATION]))
    die = (b"\x01S\x00\x40" + _member2(1, 0) + b"\x04" + _member2(3, 8) + _member2(5, 8)
           + b"\x00" + b"\x05\x07\x10" + _member2(0, 24) + b"\x00")
    result, runs, forms = _runs_and_steps(monkeypatch, _indirect_unit(die), abbrev)
    assert result == _shapes(S=(64, [("a", 0), ("UnNamed", 16), ("UnNamed", 24)]))
    assert (runs, forms) == ([1, 2, 1, 1], {2, 5})


def test_a_member_with_another_wanted_attribute_has_no_run_form():
    # A walker that wants DW_AT_decl_line of members too gets it in each DIE's attributes.
    info = _indirect_unit(_member2(1, 0) + _member2(3, 8))
    walker = UnitWalker(info, next(iter_unit_headers(info)), parse_abbrev_table(
        _abbrev(*RUN_DECLS), 0), StringTables(debug_str=RUN_STR),
        {dwarf.TAG_MEMBER: frozenset({AT_NAME, dwarf.AT_DATA_MEMBER_LOCATION, 0x3B})})
    assert list(walker) == [(0, dwarf.TAG_MEMBER, {AT_NAME: name, 0x3B: 7,
                                                   dwarf.AT_DATA_MEMBER_LOCATION: offset})
                            for name, offset in (("a", 0), ("b", 8))]
    assert walker.plans[2][3] is None
