"""Evolution analytics over profile sequences.

Covers per-structure impact scoring of a version transition, size and
member-offset timelines, pooled volatility rates for surviving members,
binary-level statistics, and per-transition change aggregates with grand
totals.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .diff import ChangeCounts, DiffReport, StructureDiff, diff_profiles, \
    diff_structure, match_members, member_identities, summarize_diff
from .extract import extract_profile_with_meta
from .profile import Profile, version_key


@dataclass(frozen=True)
class ScoreWeights:
    """Combiner weights for the three impact factors.

    Offset movement dominates observed change traffic, so it carries the
    largest default weight; churn and growth factors are capped at 1
    before weighting so the score stays within [0, 1].
    """

    offset: float = 0.5
    churn: float = 0.3
    size: float = 0.2


DEFAULT_WEIGHTS = ScoreWeights()


@dataclass
class ImpactScore:
    structure: str
    transition: Tuple[str, str]
    score: float
    factors: Dict[str, float]


@dataclass
class ImpactMatrix:
    structures: List[str]
    transitions: List[Tuple[str, str]]
    watchlist_name: Optional[str]
    # scores[structure][transition index] is None when the structure is
    # absent on either side of that transition.
    scores: Dict[str, List[Optional[ImpactScore]]]


@dataclass
class TimelineReport:
    structure: str
    member: Optional[str]
    points: List[Tuple[str, Optional[int]]]  # (version, value); None = absent


@dataclass
class StructureVolatility:
    surviving_members: int
    members_with_offset_change: int
    rate: float


@dataclass
class VolatilityStats:
    per_structure: Dict[str, StructureVolatility]
    overall_rate: float
    total_surviving: int
    total_moved: int
    watchlist_name: Optional[str] = None


@dataclass
class BinaryStats:
    source: str
    binary_size_mb: float
    symbol_count: int
    dwarf_versions: Tuple[int, ...]


@dataclass
class StatsReport:
    sources: List[BinaryStats]


@dataclass
class TransitionTable:
    rows: List[Tuple[str, str, ChangeCounts]]
    totals: ChangeCounts
    watchlist_name: Optional[str] = None
    reports: List[DiffReport] = field(default_factory=list)


def combine_impact_factors(
    offset_fraction: float,
    churn_ratio: float,
    size_delta_fraction: float,
    weights: ScoreWeights = DEFAULT_WEIGHTS,
) -> float:
    """Weighted combination of the three factors, clamped to [0, 1]."""
    raw = (
        weights.offset * offset_fraction
        + weights.churn * min(churn_ratio, 1.0)
        + weights.size * min(size_delta_fraction, 1.0)
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


def impact_score(
    diff: StructureDiff,
    transition: Tuple[str, str] = ("old", "new"),
    weights: ScoreWeights = DEFAULT_WEIGHTS,
) -> ImpactScore:
    factors = impact_factors(diff)
    return ImpactScore(
        structure=diff.name,
        transition=transition,
        score=combine_impact_factors(
            factors["offset_fraction"],
            factors["churn_ratio"],
            factors["size_delta_fraction"],
            weights,
        ),
        factors=factors,
    )


def _labels(profiles: Sequence[Profile]) -> List[str]:
    return [p.meta.platform_version for p in profiles]


def _check_sequence(profiles: Sequence[Profile], minimum: int) -> None:
    if len(profiles) < minimum:
        raise ValueError(f"sequence too short: need at least {minimum} profiles")
    labels = _labels(profiles)
    keys = [version_key(label) for label in labels]
    if any(b <= a for a, b in zip(keys, keys[1:])):
        raise ValueError(f"profile sequence not in ascending version order: {labels}")


def impact_matrix(
    profiles: Sequence[Profile],
    watchlist: Sequence[str],
    weights: ScoreWeights = DEFAULT_WEIGHTS,
    watchlist_name: Optional[str] = None,
) -> ImpactMatrix:
    _check_sequence(profiles, 2)
    archs = {p.meta.architecture for p in profiles}
    if len(archs) > 1:
        raise ValueError(f"profiles span multiple architectures: {sorted(archs)}")
    transitions = [
        (a.meta.platform_version, b.meta.platform_version)
        for a, b in zip(profiles, profiles[1:])
    ]
    scores: Dict[str, List[Optional[ImpactScore]]] = {}
    for name in watchlist:
        row: List[Optional[ImpactScore]] = []
        for old, new in zip(profiles, profiles[1:]):
            old_rec = old.structures.get(name)
            new_rec = new.structures.get(name)
            if old_rec is None or new_rec is None:
                row.append(None)
                continue
            transition = (old.meta.platform_version, new.meta.platform_version)
            row.append(
                impact_score(diff_structure(old_rec, new_rec), transition, weights)
            )
        scores[name] = row
    return ImpactMatrix(list(watchlist), transitions, watchlist_name, scores)


def size_timeline(profiles: Sequence[Profile], structure: str) -> TimelineReport:
    _check_sequence(profiles, 1)
    points: List[Tuple[str, Optional[int]]] = []
    for profile in profiles:
        record = profile.structures.get(structure)
        points.append(
            (profile.meta.platform_version, None if record is None else record.byte_size)
        )
    return TimelineReport(structure, None, points)


def _member_offset(profile: Profile, structure: str, member: str, ordinal: int):
    record = profile.structures.get(structure)
    if record is None:
        return None
    for identity, m in zip(member_identities(record.members), record.members):
        if identity == (member, ordinal):
            return m.offset
    return None


def member_offset_timeline(
    profiles: Sequence[Profile], structure: str, member: str, ordinal: int = 0
) -> TimelineReport:
    _check_sequence(profiles, 1)
    points = [
        (p.meta.platform_version, _member_offset(p, structure, member, ordinal))
        for p in profiles
    ]
    return TimelineReport(structure, member, points)


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
    _check_sequence(profiles, 2)
    if watchlist is None:
        names = sorted({n for p in profiles for n in p.structures})
    else:
        names = list(watchlist)
    # Member identities (name, ordinal) per structure, so every count below
    # is one pass over the sequence.
    survived: Dict[str, Set[Tuple[str, int]]] = {name: set() for name in names}
    moved: Dict[str, Set[Tuple[str, int]]] = {name: set() for name in names}
    for old, new in zip(profiles, profiles[1:]):
        for name in names:
            old_rec = old.structures.get(name)
            new_rec = new.structures.get(name)
            if old_rec is None or new_rec is None:
                continue
            survived_here = survived[name]
            moved_here = moved[name]
            for identity, a, b in match_members(old_rec.members, new_rec.members)[0]:
                survived_here.add(identity)
                if a.offset != b.offset:
                    moved_here.add(identity)
    per_structure: Dict[str, StructureVolatility] = {}
    for name in names:
        s = len(survived[name])
        m = len(moved[name])
        per_structure[name] = StructureVolatility(s, m, (m / s) if s else 0.0)
    total_s = sum(len(keys) for keys in survived.values())
    total_m = sum(len(keys) for keys in moved.values())
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


def binary_stats(source: Union[Profile, str]) -> BinaryStats:
    if isinstance(source, Profile):
        meta = source.meta
        label = f"{meta.platform_version}/{meta.architecture}"
        return BinaryStats(
            source=label,
            binary_size_mb=bytes_to_mb(meta.binary_size_bytes),
            symbol_count=meta.raw_type_die_count,
            dwarf_versions=tuple(meta.dwarf_versions_seen),
        )
    profile, _ = extract_profile_with_meta(source)
    stats = binary_stats(profile)
    stats.source = str(source)
    return stats


def aggregate_transitions(
    profiles: Sequence[Profile],
    watchlist: Optional[Sequence[str]] = None,
    watchlist_name: Optional[str] = None,
) -> TransitionTable:
    _check_sequence(profiles, 2)
    rows: List[Tuple[str, str, ChangeCounts]] = []
    reports: List[DiffReport] = []
    totals = ChangeCounts()
    for old, new in zip(profiles, profiles[1:]):
        report = diff_profiles(old, new, scope=watchlist)
        counts = summarize_diff(report)
        rows.append((old.meta.platform_version, new.meta.platform_version, counts))
        reports.append(report)
        totals.offset_changes += counts.offset_changes
        totals.member_additions += counts.member_additions
        totals.member_removals += counts.member_removals
        totals.structure_removals += counts.structure_removals
        totals.structure_additions += counts.structure_additions
        totals.total_impact += counts.total_impact
    return TransitionTable(rows, totals, watchlist_name, reports)
