"""Structure-layout extraction from ELF shared libraries.

Walks every compilation unit's DIE tree, keeps class- and structure-type
definitions together with their directly declared members, and merges
repeated definitions of the same name during the walk: a header's types,
defined again in every unit that includes it, cost one dict lookup per
repeat. One canonical record per structure is left. From
PARALLEL_EXTRACT_BYTES of DWARF on, a forked worker walks the second half
of the units and sends back its shapes, merged after the first half's;
profiles and errors are the serial walk's.
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
    _fork_and_collect,
)

UNNAMED = "UnNamed"

# Measured on two CPUs, forked against serial `extract` processes: no steady
# gain at 100-300 KB of .debug_info, -6% at 310 KB, -11% at 440 KB, -30% at 1.5 MB.
PARALLEL_EXTRACT_BYTES = 400_000

_TYPE_TAGS = (TAG_CLASS_TYPE, TAG_STRUCTURE_TYPE)
_TYPE_ATTRS = frozenset([AT_NAME, AT_BYTE_SIZE, AT_DECLARATION])
# The attributes a layout reads, by tag; the walker only skips the others.
_WANTED = {
    TAG_CLASS_TYPE: _TYPE_ATTRS,
    TAG_STRUCTURE_TYPE: _TYPE_ATTRS,
    TAG_MEMBER: frozenset([AT_NAME, AT_DATA_MEMBER_LOCATION, AT_DATA_BIT_OFFSET]),
    TAG_COMPILE_UNIT: frozenset([AT_STR_OFFSETS_BASE]),
}


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


def _clean_name(value) -> str:
    # DW_AT_name in a non-string form (hostile input) counts as no name.
    return value if isinstance(value, str) and value else UNNAMED


def _units(sections):
    """(unit index, (section bytes, section name, header)) of each unit, in order."""
    return enumerate((data, name, header) for data, name in sections
                     for header in iter_unit_headers(data, name))


def _walk(units, abbrev, strings, shapes, records) -> tuple:
    """Add each complete definition in `units` (from _units) to `shapes`, its
    (name, offset) members interned through `records`; returns (DWARF versions,
    type DIEs, skipped members, units)."""
    abbrev_cache: Dict[int, dict] = {}
    versions: Set[int] = set()
    unit_count = type_die_count = skipped_members = 0
    for unit_index, (data, section_name, header) in units:
        unit_count += 1
        versions.add(header.version)
        table = abbrev_cache.get(header.abbrev_offset)
        if table is None:
            table = parse_abbrev_table(abbrev, header.abbrev_offset)
            abbrev_cache[header.abbrev_offset] = table
        walker = UnitWalker(data, header, table, strings, _WANTED, section_name)
        # Stack of (depth, byte size, members) for open class/structure
        # DIEs so that only direct member children attach to each type.
        open_types: List[Tuple[int, Optional[int], list]] = []
        # (shapes of the name, byte size, members) per complete definition.
        complete: List[Tuple[dict, int, list]] = []
        for depth, tag, attrs in walker:
            while open_types and depth <= open_types[-1][0]:
                open_types.pop()
            if tag == TAG_MEMBER:
                if not open_types or depth != open_types[-1][0] + 1:
                    continue
                _, parent_size, members = open_types[-1]
                # A plain non-negative constant location is the offset.
                offset = attrs.get(AT_DATA_MEMBER_LOCATION)
                if type(offset) is not int or offset < 0:
                    offset = member_byte_offset(attrs)
                if offset is None or offset >= OFFSET_SANITY_BOUND:
                    if AT_DATA_MEMBER_LOCATION in attrs or AT_DATA_BIT_OFFSET in attrs:
                        skipped_members += 1
                    continue
                if parent_size and offset >= parent_size:
                    skipped_members += 1
                    continue
                key = (_clean_name(attrs.get(AT_NAME)), offset)
                members.append(records.setdefault(key, key))
            elif tag in _TYPE_TAGS:
                type_die_count += 1
                name_shapes = shapes.setdefault(_clean_name(attrs.get(AT_NAME)), {})
                byte_size = unsigned_value(attrs.get(AT_BYTE_SIZE))
                members = []
                open_types.append((depth, byte_size, members))
                if byte_size is not None and not attrs.get(AT_DECLARATION):
                    complete.append((name_shapes, byte_size, members))
        for name_shapes, byte_size, members in complete:
            name_shapes.setdefault((byte_size, tuple(members)), unit_index)
    return versions, type_die_count, skipped_members, unit_count


def _extract_structures(binary) -> Tuple[Dict[str, StructureRecord], ExtractionMeta]:
    """Walk every unit and reduce repeated definitions to one record per name.

    Only complete definitions (a byte size and no DW_AT_declaration) are
    kept, each shape with the first unit that defines it. Of several
    shapes, the one with the most members wins (ties: larger byte size,
    then earliest unit, then first seen) and the name is reported as a
    conflict.
    """
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
    sections = [(info, ".debug_info")]
    types = elf.debug_section("types")
    if types is not None:
        sections.append((types, ".debug_types"))
    abbrev = elf.debug_section("abbrev")
    if abbrev is None:
        raise NoDwarfError(f"{path} has no .debug_abbrev section")

    # name -> {(byte size, members): first unit}; empty for declarations only.
    shapes: Dict[str, Dict[Tuple[int, tuple], int]] = {}
    # One (name, offset) tuple per distinct member, so that repeated
    # definitions share their members and merging compares them by identity.
    records: Dict[Tuple[str, int], Tuple[str, int]] = {}
    counts = []

    def walk(units):
        counts.append(_walk(units, abbrev, strings, shapes, records))

    def walk_to_send(units):  # plain values, for marshal
        sent: Dict[str, dict] = {}
        return _walk(units, abbrev, strings, sent, {}), sent

    units, half, sent = _units(sections), 0, None
    if sum(len(data) for data, _ in sections) >= PARALLEL_EXTRACT_BYTES:
        try:
            units = list(units)
        except StructDriftError:  # the serial walk raises it after the units before it
            units = _units(sections)
        else:  # the caller walks the first half, a worker the second
            half, sent = _fork_and_collect(units, walk_to_send, walk)
    if sent is None:  # the worker's units, or all of them
        walk(units[half:] if half else units)
    else:  # after the caller's units, as the serial walk meets them
        counts.append(sent[0])
        for name, variants in sent[1].items():
            name_shapes = shapes.setdefault(name, {})
            for (byte_size, members), unit in variants.items():
                members = tuple(map(records.setdefault, members, members))
                name_shapes.setdefault((byte_size, members), unit)
    versions, *totals = zip(*counts)
    type_die_count, skipped_members, unit_count = map(sum, totals)

    catalog: Dict[str, StructureRecord] = {}
    for name, variants in sorted(shapes.items()):
        if variants:
            # ((byte size, members), first unit); min keeps the first seen of equals.
            (byte_size, members), _ = min(
                variants.items(), key=lambda v: (-len(v[0][1]), -v[0][0], v[1]))
            catalog[name] = StructureRecord.canonical(
                name, byte_size, map(MemberRecord._make, members))
    conflicts = [name for name in catalog if len(shapes[name]) > 1]

    meta = ExtractionMeta(
        binary_path=str(path),
        binary_size_bytes=path.stat().st_size,
        dwarf_versions_seen=set().union(*versions),
        compilation_unit_count=unit_count,
        raw_type_die_count=type_die_count,
        unique_type_name_count=len(shapes),
        members_skipped=skipped_members,
        merge_conflicts=conflicts,
        architecture=elf.architecture_label(),
    )
    return catalog, meta


def extract_profile_with_meta(
    binary,
    platform_version: str = "unknown",
    architecture: Optional[str] = None,
    build_variant: str = "unknown",
) -> Tuple[Profile, ExtractionMeta]:
    """Full extraction: returns the profile plus extraction statistics."""
    catalog, meta = _extract_structures(binary)

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
