"""structdrift: structure-layout extraction, diffing and drift analytics
for ELF shared libraries with DWARF debug information."""

__version__ = "0.1.0"

from .analytics import (  # noqa: E402
    ImpactMatrix,
    ImpactScore,
    StatsReport,
    TimelineReport,
    TransitionTable,
    VolatilityStats,
    aggregate_transitions,
    binary_stats,
    combine_impact_factors,
    impact_matrix,
    impact_score,
    member_offset_timeline,
    size_timeline,
    volatility_stats,
)
from .diff import (  # noqa: E402
    ChangeCounts,
    DiffReport,
    MemberChange,
    StructureDiff,
    diff_profiles,
    diff_structure,
    read_diff,
    summarize_diff,
)
from .errors import (  # noqa: E402
    InvariantError,
    MalformedDwarfError,
    NoDwarfError,
    NotElfError,
    SchemaError,
    StructDriftError,
)
from .profile import (  # noqa: E402
    MemberRecord,
    Profile,
    ProfileMeta,
    RepositoryIndex,
    StructureRecord,
    index_repository,
    read_profile,
    read_sequence,
    write_profile,
)
from .watch import (  # noqa: E402
    CapabilityAssessment,
    ChainReport,
    ChainReports,
    ChainSpec,
    ChainStep,
    WatchlistSpec,
    assess_capabilities,
    default_chains,
    default_watchlist,
    load_chains,
    load_watchlist,
    resolve_chain,
)

__all__ = [
    "__version__",
    "CapabilityAssessment",
    "ChainReport",
    "ChainReports",
    "ChainSpec",
    "ChainStep",
    "ChangeCounts",
    "DiffReport",
    "ExtractionMeta",
    "ImpactMatrix",
    "ImpactScore",
    "InvariantError",
    "MalformedDwarfError",
    "MemberChange",
    "MemberRecord",
    "NoDwarfError",
    "NotElfError",
    "Profile",
    "ProfileMeta",
    "RawTypeEntry",
    "RepositoryIndex",
    "SchemaError",
    "StatsReport",
    "StructDriftError",
    "StructureDiff",
    "StructureRecord",
    "TimelineReport",
    "TransitionTable",
    "VolatilityStats",
    "WatchlistSpec",
    "aggregate_transitions",
    "assess_capabilities",
    "binary_stats",
    "combine_impact_factors",
    "default_chains",
    "default_watchlist",
    "diff_profiles",
    "diff_structure",
    "extract_profile",
    "extract_profile_with_meta",
    "impact_matrix",
    "impact_score",
    "index_repository",
    "load_chains",
    "load_watchlist",
    "member_offset_timeline",
    "merge_duplicate_definitions",
    "read_diff",
    "read_profile",
    "read_sequence",
    "resolve_chain",
    "size_timeline",
    "summarize_diff",
    "volatility_stats",
    "write_profile",
]

# The extraction names come from .extract on first use (PEP 562), so that
# importing the package, as every report command does, does not also load
# the ELF and DWARF readers.
_EXTRACT_NAMES = frozenset({
    "ExtractionMeta",
    "RawTypeEntry",
    "extract_profile",
    "extract_profile_with_meta",
    "merge_duplicate_definitions",
})


def __getattr__(name):
    if name in _EXTRACT_NAMES:
        from . import extract

        return getattr(extract, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
