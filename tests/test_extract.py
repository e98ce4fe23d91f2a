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

from structdrift import (
    ExtractionMeta,
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
    _, meta = extract_profile_with_meta(fixture_path(oracle["binary"]))
    assert sorted(meta.dwarf_versions_seen) == oracle["dwarf_versions"]


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


def _indirect_unit(die: bytes) -> bytes:
    body = (4).to_bytes(2, "little") + (0).to_bytes(4, "little") + bytes([8]) + die
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


def _with_debug_sections(tmp_path, info: bytes, abbrev: bytes, types: bytes = b""):
    """Copy a 64-bit fixture, pointing its info/abbrev headers at new bytes.

    Given `types`, its .debug_aranges section is renamed .debug_types and
    holds them.
    """
    data = bytearray(fixture_path("layouts-dwarf4-64.so").read_bytes())
    elf = ElfFile(bytes(data))
    (shoff,) = struct.unpack_from("<Q", data, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", data, 0x3A)
    patches = [(".debug_info", info), (".debug_abbrev", abbrev)]
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


@pytest.mark.parametrize("case", sorted(HOSTILE_UNITS))
def test_hostile_unit_is_malformed_dwarf(case):
    abbrev, die = HOSTILE_UNITS[case]
    info = _indirect_unit(die)
    header = next(iter_unit_headers(info))
    walker = UnitWalker(info, header, parse_abbrev_table(abbrev, 0), StringTables(),
                        {dwarf.TAG_STRUCTURE_TYPE: frozenset({AT_NAME, AT_BYTE_SIZE})})
    with pytest.raises(MalformedDwarfError) as exc_info:
        list(walker)
    assert exc_info.value.section == ".debug_info"


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


def test_extraction_meta_keeps_its_positional_fields():
    # `architecture` was added last, with a default, so callers that build
    # ExtractionMeta positionally keep every earlier field where it was.
    meta = ExtractionMeta("a.so", 10, {4}, 1, 2, 2, 0, [])
    assert meta.dwarf_versions_seen == {4}
    assert meta.merge_conflicts == []
    assert meta.architecture is None


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
    assert meta.raw_type_die_count >= len(profile.structures)
    assert meta.unique_type_name_count >= len(profile.structures)
    assert profile.meta.raw_type_die_count == meta.raw_type_die_count


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


def _type_die(name, size, members, decl=False):
    """One structure DIE with its member children, in MERGE_ABBREV's codes."""
    die = bytes([_TYPE_CODES[size is not None, decl]]) + name.encode() + b"\x00"
    if size is not None:
        die += bytes([size])
    for member, offset in members:
        die += b"\x02" + member.encode() + b"\x00" + bytes([offset])
    return die + b"\x00"


def _extract_units(directory, units):
    """(structures, meta) of a binary whose units hold the given _type_die args."""
    info = b"".join(_indirect_unit(b"".join(_type_die(*t) for t in unit))
                    for unit in units)
    profile, meta = extract_profile_with_meta(
        _with_debug_sections(directory, info, MERGE_ABBREV))
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
    catalog, meta = _extract_units(tmp_path, [[("Ghost", None, [], True)]])
    assert catalog == {}
    assert meta.merge_conflicts == []
    assert (meta.raw_type_die_count, meta.unique_type_name_count) == (1, 1)


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
    units, drawn = [], []
    for _ in range(draw(st.integers(1, 4))):
        unit = []
        for _ in range(draw(st.integers(0, 4))):
            if drawn and draw(st.sampled_from([False, False, True])):
                unit.append(draw(st.sampled_from(drawn)))  # an identical repeat
            else:
                drawn.append(draw(_TYPE_DEFS))
                unit.append(drawn[-1])
        units.append(unit)
    return units


@pytest.fixture(scope="module")
def merge_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("merge")


def check_merge_against_oracle(directory, units):
    """Extract the units' definitions and compare with _merge_oracle over all of them."""
    entries, skipped = [], 0
    for unit_index, unit in enumerate(units):
        for name, size, members, decl in unit:
            # A member at or past a nonzero byte size is skipped.
            kept = [MemberRecord(m, o) for m, o in members if not size or o < size]
            skipped += len(members) - len(kept)
            entries.append(_RawType(name, size, kept, unit_index, size is None or decl))
    catalog, conflicts = _merge_oracle(entries)
    structures, meta = _extract_units(directory, units)
    assert structures == catalog
    assert meta.merge_conflicts == conflicts
    assert meta.raw_type_die_count == len(entries)
    assert meta.unique_type_name_count == len({e.name for e in entries})
    assert meta.members_skipped == skipped
    assert meta.compilation_unit_count == len(units)


@settings(max_examples=400, deadline=None)
@given(_merge_units())
def test_merge_while_walking_matches_merging_every_definition(merge_dir, units):
    check_merge_against_oracle(merge_dir, units)


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
], ids=["header", ".debug_info", ".debug_abbrev", ".debug_str", "zlib-.debug_info",
        "zlibgnu-.zdebug_info", "rela-object-header", "rela-object-section-headers"])
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
_OPAQUE_FORMS = {dwarf.FORM_REF1: 1, dwarf.FORM_REF2: 2, dwarf.FORM_REF4: 4,
                 dwarf.FORM_REF8: 8, dwarf.FORM_REF_SIG8: 8, dwarf.FORM_REF_SUP4: 4,
                 dwarf.FORM_REF_SUP8: 8, dwarf.FORM_DATA16: 16, dwarf.FORM_ADDRX1: 1,
                 dwarf.FORM_ADDRX2: 2, dwarf.FORM_ADDRX3: 3, dwarf.FORM_ADDRX4: 4}
_OPAQUE_LEB_FORMS = {dwarf.FORM_REF_UDATA, dwarf.FORM_ADDRX, dwarf.FORM_LOCLISTX,
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
    if form == dwarf.FORM_SEC_OFFSET:
        value = draw(st.integers(0, (1 << 8 * osize) - 1))
        return value.to_bytes(osize, "little"), value
    if form in _OPAQUE_FORMS or form in _OFFSET_OPAQUE_FORMS \
            or form in (dwarf.FORM_ADDR, dwarf.FORM_REF_ADDR):
        if form == dwarf.FORM_ADDR:
            size = shape.address_size
        elif form == dwarf.FORM_REF_ADDR:
            size = shape.address_size if shape.version == 2 else osize
        else:
            size = _OPAQUE_FORMS.get(form, osize)
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
    shape = _Shape(
        version=draw(st.sampled_from([2, 3, 4, 5])),
        dwarf64=draw(st.booleans()),
        address_size=draw(st.sampled_from([2, 4, 8])),
        debug_str=draw(st.lists(_TEXT, min_size=1, max_size=3)),
        line_str=draw(st.lists(_TEXT, min_size=1, max_size=2)),
    )
    # Attribute numbers include two-byte ULEBs; 0x72 would set the string
    # offsets base, which is tested on its own.
    attr_ids = st.integers(1, 0x3FFF).filter(lambda a: a != dwarf.AT_STR_OFFSETS_BASE)
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
        info = b"\xff\xff\xff\xff" + len(body).to_bytes(8, "little") + body
    else:
        info = len(body).to_bytes(4, "little") + body
    debug_str, str_offsets = _table(shape.debug_str)
    offsets_header = bytes(16 if shape.dwarf64 else 8)
    strings = StringTables(
        debug_str=debug_str,
        line_str=_table(shape.line_str)[0],
        str_offsets=offsets_header + b"".join(o.to_bytes(osize, "little")
                                              for o in str_offsets),
    )
    return info, bytes(abbrev), strings, frozenset(wanted), expected


def _typed(dies):
    # True == 1 in Python, so compare the value types too.
    return [(depth, tag, {a: (type(v), v) for a, v in attrs.items()})
            for depth, tag, attrs in dies]


@settings(max_examples=300, deadline=None)
@given(_encoded_units())
def test_walker_round_trips_every_form(unit):
    info, abbrev, strings, wanted, expected = unit
    header = next(iter_unit_headers(info))
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
        assert _typed(got) == _typed(expected[: len(got)])
