import random
import struct

import pytest

from structdrift import (
    MalformedDwarfError,
    NoDwarfError,
    NotElfError,
    RawMemberEntry,
    RawTypeEntry,
    detect_dwarf_versions,
    extract_profile,
    extract_profile_with_meta,
    merge_duplicate_definitions,
)
from structdrift.dwarf import (
    AT_NAME,
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
    versions = detect_dwarf_versions(fixture_path(oracle["binary"]))
    assert sorted(versions) == oracle["dwarf_versions"]


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
    plain = extract_profile(fixture_path("layouts-dwarf4-64.so"),
                            platform_version="9")
    compressed = extract_profile(fixture_path("layouts-zlib-64.so"),
                                 platform_version="9")
    assert layout_map(plain) == layout_map(compressed)


def test_stripped_binary_reports_missing_dwarf():
    with pytest.raises(NoDwarfError):
        extract_profile(fixture_path("layouts-stripped.so"))
    assert detect_dwarf_versions(fixture_path("layouts-stripped.so")) == set()


def test_non_elf_input_rejected(tmp_path):
    bogus = tmp_path / "not_elf.so"
    bogus.write_text("just some text, definitely not a shared library\n")
    with pytest.raises(NotElfError):
        extract_profile(bogus)
    with pytest.raises(NotElfError):
        detect_dwarf_versions(bogus)


def test_big_endian_rejected_cleanly(tmp_path):
    from structdrift import StructDriftError

    data = bytearray(fixture_path("layouts-dwarf4-64.so").read_bytes())
    data[5] = 2  # EI_DATA = big-endian
    swapped = tmp_path / "be.so"
    swapped.write_bytes(bytes(data))
    with pytest.raises(StructDriftError):
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
                        StringTables(), frozenset({AT_NAME}))
    return list(walker)


def test_nested_indirect_forms_resolve():
    chain = b"\x16" * CHAIN
    die = b"\x01" + chain + b"\x08Deep\x00" + chain + b"\x0b\x07" + b"\x00"
    assert _walk(_indirect_unit(die)) == [(0, 0x13, {AT_NAME: "Deep"})]


def test_endless_indirect_chain_is_malformed_dwarf():
    with pytest.raises(MalformedDwarfError) as exc_info:
        _walk(_indirect_unit(b"\x01" + b"\x16" * CHAIN))
    assert exc_info.value.section == ".debug_info"


def _with_debug_sections(tmp_path, info: bytes, abbrev: bytes):
    """Copy a 64-bit fixture, pointing its info/abbrev headers at new bytes."""
    data = bytearray(fixture_path("layouts-dwarf4-64.so").read_bytes())
    elf = ElfFile(bytes(data))
    (shoff,) = struct.unpack_from("<Q", data, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", data, 0x3A)
    for name, blob in ((".debug_info", info), (".debug_abbrev", abbrev)):
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


def test_endless_indirect_chain_exits_with_input_error(tmp_path, capsys):
    from structdrift.cli import EXIT_INPUT, run

    info = _indirect_unit(b"\x01" + b"\x16" * CHAIN)
    patched = _with_debug_sections(tmp_path, info, INDIRECT_ABBREV)
    assert run(["extract", str(patched)]) == EXIT_INPUT
    assert ".debug_info offset" in capsys.readouterr().err


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


def _entry(name, size, members, unit=0, decl=False):
    return RawTypeEntry(
        name=name,
        byte_size=size,
        members=[RawMemberEntry(m, o) for m, o in members],
        origin_unit=unit,
        is_declaration_only=decl,
    )


def test_merge_identical_definitions():
    entries = [
        _entry("Thread", 16, [("id", 0), ("state", 8)], unit=0),
        _entry("Thread", 16, [("id", 0), ("state", 8)], unit=1),
    ]
    catalog, conflicts = merge_duplicate_definitions(entries)
    assert list(catalog) == ["Thread"]
    assert conflicts == []


def test_merge_conflicting_definitions_keeps_largest():
    entries = [
        _entry("Foo", 24, [("a", 0), ("b", 8), ("c", 16)], unit=0),
        _entry("Foo", 40, [("a", 0), ("b", 8), ("c", 16), ("d", 24), ("e", 32)],
               unit=1),
    ]
    catalog, conflicts = merge_duplicate_definitions(entries)
    assert conflicts == ["Foo"]
    assert len(catalog["Foo"].members) == 5


def test_merge_declaration_never_wins():
    entries = [
        _entry("Bar", None, [], unit=0, decl=True),
        _entry("Bar", 8, [("x", 0)], unit=1),
    ]
    catalog, conflicts = merge_duplicate_definitions(entries)
    assert conflicts == []
    assert catalog["Bar"].byte_size == 8
    assert [m.name for m in catalog["Bar"].members] == ["x"]


def test_merge_declaration_only_names_dropped():
    catalog, conflicts = merge_duplicate_definitions(
        [_entry("Ghost", None, [], decl=True)]
    )
    assert catalog == {}
    assert conflicts == []


def test_merge_tie_breaks_by_size_then_unit():
    entries = [
        _entry("Tie", 16, [("a", 0), ("b", 8)], unit=3),
        _entry("Tie", 32, [("a", 0), ("b", 16)], unit=5),
    ]
    catalog, conflicts = merge_duplicate_definitions(entries)
    assert conflicts == ["Tie"]
    assert catalog["Tie"].byte_size == 32


def test_merge_never_invents_names():
    entries = [
        _entry("A", 8, [("x", 0)]),
        _entry("B", 8, [("y", 0)]),
        _entry("A", 8, [("x", 0)]),
    ]
    catalog, _ = merge_duplicate_definitions(entries)
    assert set(catalog) <= {"A", "B"}


FUZZ_CASES = 300


@pytest.mark.parametrize("region", ["header", ".debug_info", ".debug_abbrev", ".debug_str"])
def test_mutated_fixture_never_escapes(tmp_path, capsys, region):
    # Seeded, bounded byte mutation: every case must end in success or a
    # clean input error, never a traceback or exit code 1.
    from structdrift.cli import run

    source = fixture_path("layouts-dwarf5-64.so")
    original = source.read_bytes()
    if region == "header":
        start, size = 0, 64
    else:
        section = load_elf(source).sections[region]
        start, size = section.offset, section.size
    rng = random.Random(f"{region}-2024")
    target = tmp_path / "mutated.so"
    for case in range(FUZZ_CASES):
        data = bytearray(original)
        for _ in range(rng.randint(1, 7)):
            data[start + rng.randrange(size)] = rng.randrange(256)
        target.write_bytes(bytes(data))
        code = run(["extract", str(target)])
        capsys.readouterr()
        assert code in (0, 3), (region, case, code)
