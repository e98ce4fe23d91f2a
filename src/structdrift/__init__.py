"""structdrift: structure-layout extraction, diffing and drift analytics
for ELF shared libraries with DWARF debug information."""

__version__ = "0.1.0"

# Every public name, under the submodule that defines it. A name loads its
# module on first use (PEP 562), so `import structdrift` loads no submodule
# and a command loads only the modules it runs: the report commands never
# load the ELF and DWARF readers, and extraction never loads the analytics.
_EXPORTS = {
    "analytics": ("ImpactMatrix", "ImpactScore", "StatsReport", "TimelineReport",
                  "TransitionTable", "VolatilityStats", "aggregate_transitions",
                  "binary_stats", "combine_impact_factors", "impact_matrix",
                  "impact_score", "member_offset_timeline", "size_timeline",
                  "volatility_stats"),
    "diff": ("ChangeCounts", "DiffReport", "MemberChange", "StructureDiff",
             "diff_profiles", "diff_structure", "read_diff", "summarize_diff"),
    "errors": ("InvariantError", "MalformedDwarfError", "NoDwarfError", "NotElfError",
               "SchemaError", "StructDriftError"),
    "extract": ("ExtractionMeta", "RawTypeEntry", "extract_profile",
                "extract_profile_with_meta", "merge_duplicate_definitions"),
    "profile": ("MemberRecord", "Profile", "ProfileMeta", "RepositoryIndex",
                "StructureRecord", "index_repository", "read_profile", "read_profiles",
                "read_sequence", "write_profile"),
    "watch": ("CapabilityAssessment", "ChainReport", "ChainReports", "ChainSpec",
              "ChainStep", "WatchlistSpec", "assess_capabilities", "default_chains",
              "default_watchlist", "load_chains", "load_watchlist", "resolve_chain"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)
