"""Structure-layout extraction from ELF shared libraries.

Walks every compilation unit's DIE tree, keeps class- and structure-type
definitions outside function bodies together with their directly declared
members, and merges repeated definitions of the same name: a header's types,
defined again in every unit that includes it, cost one dict lookup per
repeat. One canonical record per structure is left. From
PARALLEL_EXTRACT_BYTES of DWARF on, a forked worker walks the second half of
the units and sends back its shape table, merged after the first half's. A
damaged unit header keeps the walk serial, and a failed worker's units are
walked here, so profiles and errors are the serial walk's.
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
    AT_SIBLING,
    AT_STR_OFFSETS_BASE,
    MEMBER_RUN,
    TAG_CLASS_TYPE,
    TAG_COMPILE_UNIT,
    TAG_MEMBER,
    TAG_STRUCTURE_TYPE,
    TAG_SUBPROGRAM,
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

# Measured before member runs, on two CPUs, forked against serial `extract` processes:
# no steady gain at 100-300 KB of .debug_info, -6% at 310 KB, -11% at 440 KB, -30% at 1.5 MB.
PARALLEL_EXTRACT_BYTES = 400_000

_TYPE_TAGS = (TAG_CLASS_TYPE, TAG_STRUCTURE_TYPE)
_TYPE_ATTRS = frozenset([AT_NAME, AT_BYTE_SIZE, AT_DECLARATION])
# The attributes a layout reads, by tag; the walker only skips the others.
_WANTED = {
    TAG_CLASS_TYPE: _TYPE_ATTRS,
    TAG_STRUCTURE_TYPE: _TYPE_ATTRS,
    TAG_MEMBER: frozenset([AT_NAME, AT_DATA_MEMBER_LOCATION, AT_DATA_BIT_OFFSET]),
    TAG_COMPILE_UNIT: frozenset([AT_STR_OFFSETS_BASE]),
    TAG_SUBPROGRAM: frozenset([AT_SIBLING]),  # to jump over the body
}


class ExtractionMeta(NamedTuple):
    """The extraction counts no profile records: units walked, distinct class and
    structure names, members skipped, and the names whose definitions differed
    (in name order). The binary's size, DWARF versions and type DIEs are in profile.meta."""
    compilation_unit_count: int
    unique_type_name_count: int
    members_skipped: int
    merge_conflicts: List[str]


def _clean_name(value) -> str:
    # DW_AT_name in a non-string form (hostile input) counts as no name.
    return value if isinstance(value, str) and value else UNNAMED


def _units(sections):
    """(section bytes, section name, header) of each unit, in order."""
    return ((data, name, header) for data, name in sections
            for header in iter_unit_headers(data, name))


def _walk(units, abbrev, strings) -> tuple:
    """Walk `units` (from _units); returns (DWARF versions, type DIEs, skipped
    members, units, shapes). shapes maps each name to {(byte size, members): None}
    of its complete definitions in first-seen order, {} for declarations only."""
    shapes: Dict[str, Dict[Tuple[int, tuple], None]] = {}
    abbrev_cache: Dict[int, dict] = {}
    versions: Set[int] = set()
    unit_count = type_die_count = skipped_members = 0
    for data, section_name, header in units:
        unit_count += 1
        versions.add(header.version)
        table = abbrev_cache.get(header.abbrev_offset)
        if table is None:
            table = parse_abbrev_table(abbrev, header.abbrev_offset)
            abbrev_cache[header.abbrev_offset] = table
        walker = UnitWalker(data, header, table, strings, _WANTED, section_name)
        # The innermost open class/structure DIE or subprogram as (depth, member
        # bound, members), (-2, OFFSET_SANITY_BOUND, ()) while none is open; the stack
        # holds the ones around it. Direct member DIEs and runs attach below the bound,
        # min(nonzero byte size, OFFSET_SANITY_BOUND). A subprogram's members are None.
        top_depth, top_bound, top_members = -2, OFFSET_SANITY_BOUND, ()
        open_types: List[Tuple[int, int, Optional[list]]] = []
        # (shapes of the name, byte size, members) per complete definition.
        complete: List[Tuple[dict, int, list]] = []
        for depth, tag, attrs in walker:
            while depth <= top_depth:
                top_depth, top_bound, top_members = open_types.pop()
            if tag == MEMBER_RUN:  # attrs: [(name or None, offset)] of sibling members
                if depth == top_depth + 1 and top_members is not None:
                    kept = [(name or UNNAMED, offset) for name, offset in attrs
                            if offset < top_bound]
                    skipped_members += len(attrs) - len(kept)
                    top_members += kept
            elif tag == TAG_MEMBER:
                if depth != top_depth + 1 or top_members is None:
                    continue
                # A plain non-negative constant location is the offset.
                offset = attrs.get(AT_DATA_MEMBER_LOCATION)
                if type(offset) is not int or offset < 0:
                    offset = member_byte_offset(attrs)
                    if offset is None:
                        if AT_DATA_MEMBER_LOCATION in attrs or AT_DATA_BIT_OFFSET in attrs:
                            skipped_members += 1
                        continue
                if offset >= top_bound:
                    skipped_members += 1
                    continue
                top_members.append((_clean_name(attrs.get(AT_NAME)), offset))
            elif top_members is None:  # inside a function body
                continue
            elif tag in _TYPE_TAGS:
                type_die_count += 1
                name_shapes = shapes.setdefault(_clean_name(attrs.get(AT_NAME)), {})
                size = unsigned_value(attrs.get(AT_BYTE_SIZE))
                open_types.append((top_depth, top_bound, top_members))
                top_depth, top_bound, top_members = \
                    depth, min(size or OFFSET_SANITY_BOUND, OFFSET_SANITY_BOUND), []
                if size is not None and not attrs.get(AT_DECLARATION):
                    complete.append((name_shapes, size, top_members))
            elif tag == TAG_SUBPROGRAM:
                open_types.append((top_depth, top_bound, top_members))
                top_depth, top_members = depth, None
        for name_shapes, byte_size, members in complete:
            name_shapes[byte_size, tuple(members)] = None
    return versions, type_die_count, skipped_members, unit_count, shapes


def extract_profile_with_meta(
    binary,
    platform_version: str = "unknown",
    architecture: Optional[str] = None,
    build_variant: str = "unknown",
) -> Tuple[Profile, ExtractionMeta]:
    """Full extraction: returns the profile plus extraction statistics.

    Walks every unit and reduces repeated definitions to one record per
    name. Only complete definitions (a byte size and no DW_AT_declaration)
    are kept. Of several shapes, the one with the most members wins (ties:
    larger byte size, then first seen: earliest unit, then first in that
    unit) and the name is reported as a conflict.
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

    def walk(units) -> list:  # _walk's result for each run of units, in unit order
        return [_walk(units, abbrev, strings)]

    units = _units(sections)
    if sum(len(data) for data, _ in sections) >= PARALLEL_EXTRACT_BYTES:
        try:
            units = list(units)
        except StructDriftError:  # the lazy walk raises it after the units before it
            units = _units(sections)
    parts = _fork_and_collect(units, walk) if type(units) is list else walk(units)
    versions, type_dies, skipped, unit_counts, part_shapes = zip(*parts)

    shapes: Dict[str, Dict[Tuple[int, tuple], None]] = {}
    for part in part_shapes:  # update keeps a shape's first-seen position
        for name, variants in part.items():
            shapes.setdefault(name, {}).update(variants)
    catalog: Dict[str, StructureRecord] = {}
    for name, variants in sorted(shapes.items()):
        if variants:  # min keeps the first seen of equals
            byte_size, members = min(variants, key=lambda v: (-len(v[1]), -v[0]))
            catalog[name] = StructureRecord.canonical(
                name, byte_size, map(MemberRecord._make, members))

    if architecture is None:
        architecture = elf.architecture_label()
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
            binary_size_bytes=path.stat().st_size,
            dwarf_versions_seen=tuple(sorted(set().union(*versions))),
            raw_type_die_count=sum(type_dies),
            extraction_tool_version=__version__,
        ),
        structures=catalog,
    )
    meta = ExtractionMeta(sum(unit_counts), len(shapes), sum(skipped),
                          [name for name in catalog if len(shapes[name]) > 1])
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
