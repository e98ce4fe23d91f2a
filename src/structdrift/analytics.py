"""Evolution analytics over profile sequences.

Covers per-structure impact scoring of a version transition, size and
member-offset timelines, pooled volatility rates for surviving members,
binary-level statistics, and per-transition change aggregates with grand
totals.

The three sequence analyses (`impact_matrix`, `aggregate_transitions`,
`volatility_stats`) share one signature, `(profiles, watchlist=None,
watchlist_name=None)`; a watchlist of None means every structure in any
profile, in name order.
"""

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .diff import ChangeCounts, StructureDiff, diff_profiles, diff_structure, \
    match_members, member_identities, same_members, summarize_diff
from .profile import Profile, StructureRecord, check_sequence

# Weights of the three impact factors. Offset movement dominates observed
# change traffic, so it carries the largest weight; churn and growth are
# capped at 1 before weighting, so the score stays within [0, 1].
OFFSET_WEIGHT = 0.5
CHURN_WEIGHT = 0.3
SIZE_WEIGHT = 0.2


class ImpactScore(NamedTuple):
    score: float
    factors: Dict[str, float]


class ImpactMatrix(NamedTuple):
    transitions: List[Tuple[str, str]]
    watchlist_name: Optional[str]
    # scores[structure][transition index] is None when the structure is
    # absent on either side of that transition; rows in report order.
    scores: Dict[str, List[Optional[ImpactScore]]]


class TimelineReport(NamedTuple):
    structure: str
    member: Optional[str]
    points: List[Tuple[str, Optional[int]]]  # (version, value); None = absent


class StructureVolatility(NamedTuple):
    surviving_members: int
    members_with_offset_change: int
    rate: float


class VolatilityStats(NamedTuple):
    per_structure: Dict[str, StructureVolatility]
    overall_rate: float
    total_surviving: int
    total_moved: int
    watchlist_name: Optional[str] = None


class BinaryStats(NamedTuple):
    source: str
    binary_size_mb: float
    symbol_count: int
    dwarf_versions: Tuple[int, ...]


class StatsReport(NamedTuple):
    sources: List[BinaryStats]


class TransitionTable(NamedTuple):
    rows: List[Tuple[str, str, ChangeCounts]]
    totals: ChangeCounts
    watchlist_name: Optional[str] = None


def combine_impact_factors(
    offset_fraction: float, churn_ratio: float, size_delta_fraction: float
) -> float:
    """Weighted combination of the three factors, clamped to [0, 1]."""
    raw = (
        OFFSET_WEIGHT * offset_fraction
        + CHURN_WEIGHT * min(churn_ratio, 1.0)
        + SIZE_WEIGHT * min(size_delta_fraction, 1.0)
    )
    return max(0.0, min(1.0, raw))


def impact_factors(diff: StructureDiff) -> Dict[str, float]:
    shared = max(1, diff.shared_member_count)
    old_count = max(1, diff.old_member_count)
    old_size = max(1, diff.old_size)
    return {
        "offset_fraction": len(diff.offset_changes) / shared,
        "churn_ratio": (len(diff.member_additions) + len(diff.member_removals))
        / old_count,
        "size_delta_fraction": abs(diff.new_size - diff.old_size) / old_size,
    }


def impact_score(diff: StructureDiff) -> ImpactScore:
    factors = impact_factors(diff)
    return ImpactScore(score=combine_impact_factors(**factors), factors=factors)


def _structure_names(
    profiles: Sequence[Profile], watchlist: Optional[Sequence[str]]
) -> List[str]:
    """The watchlist, or every structure in any profile, in name order."""
    if watchlist is None:
        return sorted({name for p in profiles for name in p.structures})
    return list(watchlist)


def impact_matrix(
    profiles: Sequence[Profile],
    watchlist: Optional[Sequence[str]] = None,
    watchlist_name: Optional[str] = None,
) -> ImpactMatrix:
    check_sequence(profiles, 2)
    names = _structure_names(profiles, watchlist)
    transitions = [
        (a.meta.platform_version, b.meta.platform_version)
        for a, b in zip(profiles, profiles[1:])
    ]
    scores: Dict[str, List[Optional[ImpactScore]]] = {}
    for name in names:
        row: List[Optional[ImpactScore]] = []
        for old, new in zip(profiles, profiles[1:]):
            old_rec = old.structures.get(name)
            new_rec = new.structures.get(name)
            if old_rec is None or new_rec is None:
                row.append(None)
                continue
            row.append(impact_score(diff_structure(old_rec, new_rec)))
        scores[name] = row
    return ImpactMatrix(transitions, watchlist_name, scores)


def _timeline(
    profiles: Sequence[Profile],
    structure: str,
    member: Optional[str],
    value: Callable[[StructureRecord], Optional[int]],
) -> TimelineReport:
    check_sequence(profiles, 1)
    points: List[Tuple[str, Optional[int]]] = []
    for profile in profiles:
        record = profile.structures.get(structure)
        points.append(
            (profile.meta.platform_version, None if record is None else value(record))
        )
    return TimelineReport(structure, member, points)


def size_timeline(profiles: Sequence[Profile], structure: str) -> TimelineReport:
    return _timeline(profiles, structure, None, lambda record: record.byte_size)


def member_offset_timeline(
    profiles: Sequence[Profile], structure: str, member: str
) -> TimelineReport:
    """Offset of the first member called `member` at each version."""
    return _timeline(
        profiles, structure, member, lambda record: record.member_offset(member)
    )


def volatility_stats(
    profiles: Sequence[Profile],
    watchlist: Optional[Sequence[str]] = None,
    watchlist_name: Optional[str] = None,
) -> VolatilityStats:
    """Fraction of surviving members that moved at least once.

    A member survives when it is present on both sides of at least one
    consecutive transition; it is volatile when any such transition
    changed its offset. Each member identity counts once for the whole
    sequence, and the overall rate pools the counts rather than averaging
    per-structure rates.
    """
    check_sequence(profiles, 2)
    pairs = list(zip(profiles, profiles[1:]))
    per_structure: Dict[str, StructureVolatility] = {}
    for name in _structure_names(profiles, watchlist):
        # Member identities (name, ordinal), so each count is one pass.
        survived: Set[Tuple[str, int]] = set()
        moved: Set[Tuple[str, int]] = set()
        whole = None  # a member list all of whose identities have survived
        for old, new in pairs:
            old_rec = old.structures.get(name)
            new_rec = new.structures.get(name)
            if old_rec is None or new_rec is None:
                continue
            if same_members(old_rec.members, new_rec.members):
                # Every identity survives and none moves.
                if old_rec.members is not whole:
                    survived.update(member_identities(old_rec.members))
                whole = new_rec.members
                continue
            for identity, a, b in match_members(old_rec.members, new_rec.members)[0]:
                survived.add(identity)
                if a.offset != b.offset:
                    moved.add(identity)
        s, m = len(survived), len(moved)
        per_structure[name] = StructureVolatility(s, m, (m / s) if s else 0.0)
    total_s = sum(v.surviving_members for v in per_structure.values())
    total_m = sum(v.members_with_offset_change for v in per_structure.values())
    return VolatilityStats(
        per_structure=per_structure,
        overall_rate=(total_m / total_s) if total_s else 0.0,
        total_surviving=total_s,
        total_moved=total_m,
        watchlist_name=watchlist_name,
    )


def bytes_to_mb(size_bytes: int) -> float:
    """Megabytes as 10^6 bytes, rounded to two decimals."""
    return round(size_bytes / 1_000_000, 2)


def binary_stats(profile: Profile) -> BinaryStats:
    meta = profile.meta
    return BinaryStats(
        source=f"{meta.platform_version}/{meta.architecture}",
        binary_size_mb=bytes_to_mb(meta.binary_size_bytes),
        symbol_count=meta.raw_type_die_count,
        dwarf_versions=tuple(meta.dwarf_versions_seen),
    )


def aggregate_transitions(
    profiles: Sequence[Profile],
    watchlist: Optional[Sequence[str]] = None,
    watchlist_name: Optional[str] = None,
) -> TransitionTable:
    check_sequence(profiles, 2)
    names = _structure_names(profiles, watchlist)
    rows: List[Tuple[str, str, ChangeCounts]] = []
    for old, new in zip(profiles, profiles[1:]):
        counts = summarize_diff(diff_profiles(old, new, scope=names))
        rows.append((old.meta.platform_version, new.meta.platform_version, counts))
    totals = ChangeCounts(*map(sum, zip(*(counts for _, _, counts in rows))))
    return TransitionTable(rows, totals, watchlist_name)
