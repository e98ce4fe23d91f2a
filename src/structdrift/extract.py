"""Structure-layout extraction from ELF shared libraries.

Walks every compilation unit's DIE tree, keeps class- and structure-type
definitions together with their directly declared members, and merges
repeated definitions of the same name across units into one canonical
record per structure.
"""

from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from . import __version__
from .dwarf import (
    AT_BYTE_SIZE,
    AT_DATA_BIT_OFFSET,
    AT_DATA_MEMBER_LOCATION,
    AT_DECLARATION,
    AT_NAME,
    AT_STR_OFFSETS_BASE,
    TAG_CLASS_TYPE,
    TAG_COMPILE_UNIT,
    TAG_MEMBER,
    TAG_STRUCTURE_TYPE,
    StringTables,
    UnitWalker,
    iter_unit_headers,
    member_byte_offset,
    parse_abbrev_table,
    unsigned_value,
)
from .elf import load_elf
from .errors import NoDwarfError, StructDriftError
from .profile import (
    OFFSET_SANITY_BOUND,
    MemberRecord,
    Profile,
    ProfileMeta,
    StructureRecord,
)

UNNAMED = "UnNamed"

_TYPE_TAGS = (TAG_CLASS_TYPE, TAG_STRUCTURE_TYPE)
_TYPE_ATTRS = frozenset([AT_NAME, AT_BYTE_SIZE, AT_DECLARATION])
# The attributes a layout reads, by tag; the walker only skips the others.
_WANTED = {
    TAG_CLASS_TYPE: _TYPE_ATTRS,
    TAG_STRUCTURE_TYPE: _TYPE_ATTRS,
    TAG_MEMBER: frozenset([AT_NAME, AT_DATA_MEMBER_LOCATION, AT_DATA_BIT_OFFSET]),
    TAG_COMPILE_UNIT: frozenset([AT_STR_OFFSETS_BASE]),
}


class RawTypeEntry(NamedTuple):
    name: str
    byte_size: Optional[int]
    members: List[MemberRecord]
    origin_unit: int = 0
    is_declaration_only: bool = False


class ExtractionMeta(NamedTuple):
    binary_path: str
    binary_size_bytes: int
    dwarf_versions_seen: Set[int]
    compilation_unit_count: int
    raw_type_die_count: int
    unique_type_name_count: int
    members_skipped: int
    merge_conflicts: List[str]
    architecture: Optional[str] = None  # from the ELF header; None if unsupported


def _decl_only(attrs: dict, byte_size: Optional[int]) -> bool:
    return byte_size is None or bool(attrs.get(AT_DECLARATION))


def _clean_name(value) -> str:
    # DW_AT_name in a non-string form (hostile input) counts as no name.
    return value if isinstance(value, str) and value else UNNAMED


def parse_raw_types(binary) -> Tuple[List[RawTypeEntry], ExtractionMeta]:
    """Collect one RawTypeEntry per class/structure DIE in the binary."""
    path = Path(binary)
    elf = load_elf(path)
    info = elf.debug_section("info")
    if info is None:
        raise NoDwarfError(f"{path} has no DWARF debug sections")
    strings = StringTables(
        debug_str=elf.debug_section("str"),
        line_str=elf.debug_section("line_str"),
        str_offsets=elf.debug_section("str_offsets"),
    )

    entries: List[RawTypeEntry] = []
    versions: Set[int] = set()
    unit_count = 0
    skipped_members = 0

    sections = [(info, ".debug_info")]
    types = elf.debug_section("types")
    if types is not None:
        sections.append((types, ".debug_types"))
    abbrev = elf.debug_section("abbrev")
    if abbrev is None:
        raise NoDwarfError(f"{path} has no .debug_abbrev section")

    abbrev_cache: Dict[int, dict] = {}
    # One record per distinct (name, offset), so that repeated definitions
    # share their records and merging compares them by identity.
    records: Dict[Tuple[str, int], MemberRecord] = {}
    for data, section_name in sections:
        for header in iter_unit_headers(data, section_name):
            unit_index = unit_count
            unit_count += 1
            versions.add(header.version)
            table = abbrev_cache.get(header.abbrev_offset)
            if table is None:
                table = parse_abbrev_table(abbrev, header.abbrev_offset)
                abbrev_cache[header.abbrev_offset] = table
            walker = UnitWalker(data, header, table, strings, _WANTED, section_name)
            # Stack of (depth, entry) for open class/structure DIEs so that
            # only direct member children attach to each type.
            open_types: List[Tuple[int, RawTypeEntry]] = []
            for depth, tag, attrs in walker:
                while open_types and depth <= open_types[-1][0]:
                    open_types.pop()
                if tag == TAG_MEMBER:
                    if not open_types or depth != open_types[-1][0] + 1:
                        continue
                    parent = open_types[-1][1]
                    # A plain non-negative constant location is the offset.
                    offset = attrs.get(AT_DATA_MEMBER_LOCATION)
                    if type(offset) is not int or offset < 0:
                        offset = member_byte_offset(attrs)
                    if offset is None or offset >= OFFSET_SANITY_BOUND:
                        if AT_DATA_MEMBER_LOCATION in attrs or AT_DATA_BIT_OFFSET in attrs:
                            skipped_members += 1
                        continue
                    if parent.byte_size and offset >= parent.byte_size:
                        skipped_members += 1
                        continue
                    key = (_clean_name(attrs.get(AT_NAME)), offset)
                    record = records.get(key)
                    if record is None:
                        record = records[key] = MemberRecord(*key)
                    parent.members.append(record)
                elif tag in _TYPE_TAGS:
                    name = _clean_name(attrs.get(AT_NAME))
                    byte_size = unsigned_value(attrs.get(AT_BYTE_SIZE))
                    entry = RawTypeEntry(name, byte_size, [], unit_index,
                                         _decl_only(attrs, byte_size))
                    entries.append(entry)
                    open_types.append((depth, entry))

    meta = ExtractionMeta(
        binary_path=str(path),
        binary_size_bytes=path.stat().st_size,
        dwarf_versions_seen=versions,
        compilation_unit_count=unit_count,
        raw_type_die_count=len(entries),
        unique_type_name_count=len({e.name for e in entries}),
        members_skipped=skipped_members,
        merge_conflicts=[],
        architecture=elf.architecture_label(),
    )
    return entries, meta


def merge_duplicate_definitions(
    entries: List[RawTypeEntry],
) -> Tuple[Dict[str, StructureRecord], List[str]]:
    """Reduce repeated definitions to one canonical record per name.

    Declaration-only entries never win. Identical complete definitions
    merge silently; disagreeing ones keep the definition with the most
    members (ties: larger byte size, then earliest origin unit) and the
    name is reported as a conflict.
    """
    by_name: Dict[str, List[RawTypeEntry]] = {}
    for entry in entries:
        by_name.setdefault(entry.name, []).append(entry)

    catalog: Dict[str, StructureRecord] = {}
    conflicts: List[str] = []
    for name in sorted(by_name):
        complete = [e for e in by_name[name] if not e.is_declaration_only]
        if not complete:
            continue
        shapes = {(e.byte_size, tuple(e.members)) for e in complete}
        if len(shapes) > 1:
            conflicts.append(name)
            complete.sort(
                key=lambda e: (-len(e.members), -(e.byte_size or 0), e.origin_unit)
            )
        winner = complete[0]
        catalog[name] = StructureRecord.canonical(
            name, winner.byte_size or 0, winner.members
        )
    return catalog, conflicts


def extract_profile_with_meta(
    binary,
    platform_version: str = "unknown",
    architecture: Optional[str] = None,
    build_variant: str = "unknown",
) -> Tuple[Profile, ExtractionMeta]:
    """Full extraction: returns the profile plus extraction statistics."""
    entries, meta = parse_raw_types(binary)
    catalog, conflicts = merge_duplicate_definitions(entries)
    meta = meta._replace(merge_conflicts=conflicts)

    if architecture is None:
        architecture = meta.architecture
        if architecture is None:
            raise StructDriftError(
                f"cannot map ELF machine type of {binary} to a supported "
                "architecture; pass one of arm32/arm64/x86_32/x86_64 explicitly"
            )

    profile = Profile(
        meta=ProfileMeta(
            platform_version=platform_version,
            architecture=architecture,
            build_variant=build_variant,
            binary_size_bytes=meta.binary_size_bytes,
            dwarf_versions_seen=tuple(sorted(meta.dwarf_versions_seen)),
            raw_type_die_count=meta.raw_type_die_count,
            extraction_tool_version=__version__,
        ),
        structures=catalog,
    )
    return profile, meta


def extract_profile(
    binary,
    platform_version: str = "unknown",
    architecture: Optional[str] = None,
    build_variant: str = "unknown",
) -> Profile:
    profile, _ = extract_profile_with_meta(
        binary, platform_version, architecture, build_variant
    )
    return profile
