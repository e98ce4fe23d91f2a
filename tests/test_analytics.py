import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structdrift import (
    MemberRecord,
    StructureRecord,
    aggregate_transitions,
    assess_capabilities,
    binary_stats,
    combine_impact_factors,
    default_chains,
    diff_profiles,
    diff_structure,
    extract_profile,
    impact_matrix,
    impact_score,
    member_offset_timeline,
    size_timeline,
    volatility_stats,
)
from structdrift.analytics import bytes_to_mb

from conftest import fixture_path, make_profile, profiles
from test_diff import as_sets, brute_force_diff


def record(name, size, members):
    return StructureRecord.canonical(
        name, size, [MemberRecord(m, o) for m, o in members]
    )


# ------------------------------------------------------------ impact score

def test_identical_structure_scores_zero():
    rec = record("S", 64, [("a", 0), ("b", 8), ("c", 16)])
    score = impact_score(diff_structure(rec, rec))
    assert score.score == 0.0
    assert all(v == 0.0 for v in score.factors.values())


def test_all_members_moved_scores_half():
    old = record("S", 64, [("a", 0), ("b", 8), ("c", 16)])
    new = record("S", 64, [("a", 4), ("b", 12), ("c", 20)])
    score = impact_score(diff_structure(old, new))
    assert score.factors["offset_fraction"] == 1.0
    assert score.factors["churn_ratio"] == 0.0
    assert score.factors["size_delta_fraction"] == 0.0
    assert score.score == pytest.approx(0.5)


def test_factor_caps_keep_score_bounded():
    # 162% growth and heavy churn must still land inside [0, 1].
    old = record("Thread", 2584, [("a", 0)])
    new = record("Thread", 6768, [("b", 0), ("c", 8), ("d", 16)])
    score = impact_score(diff_structure(old, new))
    assert score.factors["churn_ratio"] > 1.0
    assert score.factors["size_delta_fraction"] > 1.0
    assert 0.0 <= score.score <= 1.0
    assert score.score == pytest.approx(0.5 * 0 + 0.3 + 0.2)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(0, 1), st.floats(0, 5), st.floats(0, 5),
    st.floats(0, 1, exclude_min=True),
)
def test_score_bounds_and_monotonicity(offset, churn, size, bump):
    base = combine_impact_factors(offset, churn, size)
    assert 0.0 <= base <= 1.0
    assert combine_impact_factors(min(offset + bump, 1.0), churn, size) >= base
    assert combine_impact_factors(offset, churn + bump, size) >= base
    assert combine_impact_factors(offset, churn, size + bump) >= base


def test_score_zero_iff_factors_zero():
    assert combine_impact_factors(0, 0, 0) == 0.0
    assert combine_impact_factors(0.01, 0, 0) > 0.0
    assert combine_impact_factors(0, 0.01, 0) > 0.0
    assert combine_impact_factors(0, 0, 0.01) > 0.0


# ----------------------------------------------------------------- matrix

def test_matrix_of_identical_profiles_is_zero():
    p = make_profile("9", {"A": (8, [("x", 0)]), "B": (8, [("y", 0)]),
                           "C": (8, [("z", 0)])})
    q = make_profile("10", {"A": (8, [("x", 0)]), "B": (8, [("y", 0)]),
                            "C": (8, [("z", 0)])})
    matrix = impact_matrix([p, q], ["A", "B", "C"])
    assert matrix.transitions == [("9", "10")]
    for name in ["A", "B", "C"]:
        assert len(matrix.scores[name]) == 1
        assert matrix.scores[name][0].score == 0.0


def test_matrix_marks_absent_structures():
    p = make_profile("9", {"A": (8, [("x", 0)])})
    q = make_profile("10", {"B": (8, [("y", 0)])})
    matrix = impact_matrix([p, q], ["A", "B"])
    assert matrix.scores["A"] == [None]
    assert matrix.scores["B"] == [None]


def test_matrix_single_nonzero_cell():
    p9 = make_profile("9", {"S": (16, [("a", 0)])})
    p10 = make_profile("10", {"S": (16, [("a", 0)])})
    p11 = make_profile("11", {"S": (16, [("a", 8)])})
    matrix = impact_matrix([p9, p10, p11], ["S"])
    scores = [cell.score for cell in matrix.scores["S"]]
    assert scores[0] == 0.0
    assert scores[1] > 0.0


def test_matrix_requires_two_profiles():
    with pytest.raises(ValueError):
        impact_matrix([make_profile("9", {})], ["S"])


@pytest.mark.parametrize("analysis", [
    impact_matrix, aggregate_transitions, volatility_stats,
    lambda profiles, names: size_timeline(profiles, names[0]),
    lambda profiles, names: member_offset_timeline(profiles, names[0], "a"),
    lambda profiles, names: assess_capabilities(profiles, default_chains()),
], ids=["impact_matrix", "aggregate_transitions", "volatility_stats",
        "size_timeline", "member_offset_timeline", "assess_capabilities"])
def test_matrix_rejects_mixed_architectures(analysis):
    p = make_profile("9", {"S": (8, [("a", 0)])}, arch="arm64")
    q = make_profile("10", {"S": (8, [("a", 0)])}, arch="x86_64")
    with pytest.raises(ValueError, match="multiple architectures"):
        analysis([p, q], ["S"])


def test_sequences_must_be_ordered():
    p = make_profile("10", {})
    q = make_profile("9", {})
    with pytest.raises(ValueError):
        impact_matrix([p, q], ["S"])


@pytest.mark.parametrize(
    "analysis", [impact_matrix, aggregate_transitions, volatility_stats]
)
def test_no_watchlist_means_every_structure_in_name_order(analysis):
    seq = [
        make_profile("9", {"B": (16, [("x", 0)]), "Dead": (8, [("d", 0)])}),
        make_profile("10", {"B": (16, [("x", 8)]), "A": (8, [("y", 0)])}),
        make_profile("11", {"A": (8, [("y", 4)]), "C": (4, [])}),
    ]
    union = ["A", "B", "C", "Dead"]
    assert analysis(seq) == analysis(seq, union)
    assert analysis(seq, watchlist_name="w") == analysis(seq, union, "w")


# -------------------------------------------------------------- timelines

def test_size_timeline_constant_structure():
    seq = [make_profile(v, {"S": (64, [("a", 0)])}) for v in ["9", "10", "11"]]
    report = size_timeline(seq, "S")
    assert report.points == [("9", 64), ("10", 64), ("11", 64)]


def test_size_timeline_unknown_structure_all_absent():
    seq = [make_profile(v, {"S": (64, [])}) for v in ["9", "10"]]
    report = size_timeline(seq, "Nope")
    assert report.points == [("9", None), ("10", None)]


def test_member_offset_timeline_with_gaps():
    seq = [
        make_profile("9", {"R": (1024, [("m", 512)])}),
        make_profile("10", {"R": (1024, [])}),
        make_profile("11", {"R": (1024, [("m", 584)])}),
    ]
    report = member_offset_timeline(seq, "R", "m")
    assert report.points == [("9", 512), ("10", None), ("11", 584)]


def test_timeline_and_diff_agree():
    seq = [
        make_profile("9", {"R": (1024, [("m", 512), ("n", 0)])}),
        make_profile("10", {"R": (1024, [("m", 464), ("n", 0)])}),
        make_profile("11", {"R": (1024, [("m", 464), ("n", 8)])}),
    ]
    timeline = member_offset_timeline(seq, "R", "m")
    values = [v for _, v in timeline.points]
    for i in range(len(seq) - 1):
        report = diff_profiles(seq[i], seq[i + 1])
        changed = any(
            c.member_name == "m"
            for d in report.modified
            for c in d.offset_changes
        )
        assert changed == (values[i] != values[i + 1])


# ------------------------------------------------------------- volatility

def test_stable_sequence_has_zero_volatility():
    seq = [make_profile(v, {"S": (64, [("a", 0), ("b", 8)])})
           for v in ["9", "10", "11"]]
    stats = volatility_stats(seq, ["S"])
    assert stats.overall_rate == 0.0
    assert stats.per_structure["S"].surviving_members == 2


def test_half_of_survivors_moved():
    seq = [
        make_profile("9", {"S": (64, [("a", 0), ("b", 8)])}),
        make_profile("10", {"S": (64, [("a", 4), ("b", 8)])}),
    ]
    stats = volatility_stats(seq, ["S"])
    assert stats.overall_rate == pytest.approx(0.5)
    assert stats.per_structure["S"].members_with_offset_change == 1


def test_member_counted_once_across_sequence():
    seq = [
        make_profile("9", {"S": (64, [("a", 0)])}),
        make_profile("10", {"S": (64, [("a", 4)])}),
        make_profile("11", {"S": (64, [("a", 8)])}),
    ]
    stats = volatility_stats(seq, ["S"])
    assert stats.total_surviving == 1
    assert stats.total_moved == 1
    assert stats.overall_rate == pytest.approx(1.0)


def test_non_survivor_not_counted():
    seq = [
        make_profile("9", {"S": (64, [("a", 0), ("gone", 8)])}),
        make_profile("10", {"S": (64, [("a", 0), ("fresh", 8)])}),
    ]
    stats = volatility_stats(seq, ["S"])
    assert stats.total_surviving == 1
    assert stats.total_moved == 0


def test_pooled_rate_is_not_mean_of_rates():
    seq = [
        make_profile("9", {
            "Big": (128, [(f"m{i}", i * 8) for i in range(10)]),
            "Small": (16, [("x", 0)]),
        }),
        make_profile("10", {
            "Big": (128, [(f"m{i}", i * 8 + 4) for i in range(10)]),
            "Small": (16, [("x", 0)]),
        }),
    ]
    stats = volatility_stats(seq, ["Big", "Small"])
    assert stats.per_structure["Big"].rate == pytest.approx(1.0)
    assert stats.per_structure["Small"].rate == 0.0
    # Pooled: 10 of 11 moved, not the 0.5 a mean of rates would give.
    assert stats.overall_rate == pytest.approx(10 / 11)
    rates = [v.rate for v in stats.per_structure.values()]
    assert min(rates) <= stats.overall_rate <= max(rates)


def test_volatility_all_structures_mode():
    seq = [
        make_profile("9", {"S": (64, [("a", 0)]), "T": (8, [("t", 0)])}),
        make_profile("10", {"S": (64, [("a", 4)]), "T": (8, [("t", 0)])}),
    ]
    stats = volatility_stats(seq)
    assert set(stats.per_structure) == {"S", "T"}


def brute_force_volatility(seq, names):
    """Quadratic reference: one scan of every surviving key per structure."""
    survived, moved = set(), set()
    for old, new in zip(seq, seq[1:]):
        for name in names:
            if name not in old.structures or name not in new.structures:
                continue
            old_ids = _identities(old.structures[name].members)
            new_ids = _identities(new.structures[name].members)
            for identity, offset in old_ids.items():
                if identity in new_ids:
                    survived.add((name,) + identity)
                    if new_ids[identity] != offset:
                        moved.add((name,) + identity)
    return {
        name: (sum(1 for k in survived if k[0] == name),
               sum(1 for k in moved if k[0] == name))
        for name in names
    }


def _identities(members):
    seen = {}
    out = {}
    for m in members:
        ordinal = seen.get(m.name, 0)
        seen[m.name] = ordinal + 1
        out[(m.name, ordinal)] = m.offset
    return out


@st.composite
def drifting_sequences(draw):
    """Profiles over a small name pool, so structures and members recur."""
    seq = []
    for i in range(draw(st.integers(2, 5))):
        structures = {}
        for name in draw(st.sets(st.sampled_from("ABCD"))):
            members = draw(st.lists(st.tuples(st.sampled_from("xyz"),
                                              st.integers(0, 6)), max_size=5))
            structures[name] = (8, members)
        seq.append(make_profile(str(9 + i), structures))
    return seq


@settings(max_examples=150, deadline=None)
@given(drifting_sequences(), st.one_of(st.none(), st.lists(st.sampled_from("ABCDE"))))
def test_volatility_matches_brute_force(seq, watchlist):
    stats = volatility_stats(seq, watchlist)
    names = sorted({n for p in seq for n in p.structures}) if watchlist is None \
        else watchlist
    want = brute_force_volatility(seq, names)
    got = {name: (v.surviving_members, v.members_with_offset_change)
           for name, v in stats.per_structure.items()}
    assert got == want
    assert stats.total_surviving == sum(s for s, _ in want.values())
    assert stats.total_moved == sum(m for _, m in want.values())


def test_volatility_requires_two_profiles():
    with pytest.raises(ValueError):
        volatility_stats([make_profile("9", {})], ["S"])


# ------------------------------------------------------------ binary stats

def test_mb_conversion_is_decimal():
    assert bytes_to_mb(92_520_000) == 92.52
    assert bytes_to_mb(0) == 0.0
    assert bytes_to_mb(1_000_000) == 1.0


def test_stats_from_profile_meta():
    profile = make_profile("13", {"S": (8, [])})
    profile = profile._replace(meta=profile.meta._replace(
        binary_size_bytes=89_760_000, raw_type_die_count=17_275, dwarf_versions_seen=(5,)))
    stats = binary_stats(profile)
    assert stats.binary_size_mb == 89.76
    assert stats.symbol_count == 17_275
    assert stats.dwarf_versions == (5,)


def test_stats_from_fixture_binary():
    stats = binary_stats(extract_profile(fixture_path("triple-dwarf4-64.so")))
    assert stats.symbol_count == 3
    assert stats.dwarf_versions == (4,)
    assert stats.binary_size_mb == bytes_to_mb(
        fixture_path("triple-dwarf4-64.so").stat().st_size
    )


# -------------------------------------------------------------- aggregates

def test_identical_sequence_aggregates_to_zero():
    seq = [make_profile(v, {"S": (64, [("a", 0)])}) for v in ["9", "10", "11"]]
    table = aggregate_transitions(seq, ["S"])
    assert len(table.rows) == 2
    for _, _, counts in table.rows:
        assert counts.total_impact == 0
    assert table.totals.total_impact == 0


def test_injected_changes_are_counted():
    seq = [
        make_profile("9", {
            "A": (32, [("x", 0), ("y", 8)]),
            "B": (16, [("z", 0)]),
            "Dead": (8, []),
        }),
        make_profile("10", {
            "A": (32, [("x", 4), ("y", 8), ("w", 16)]),
            "B": (16, []),
        }),
        make_profile("11", {
            "A": (32, [("x", 4), ("y", 12), ("w", 16)]),
            "B": (16, []),
        }),
    ]
    table = aggregate_transitions(seq, ["A", "B", "Dead"])
    first, second = table.rows[0][2], table.rows[1][2]
    assert (first.offset_changes, first.member_additions,
            first.member_removals, first.structure_removals) == (1, 1, 1, 1)
    assert first.total_impact == 4
    assert (second.offset_changes, second.total_impact) == (1, 1)
    assert table.totals.offset_changes == 2
    assert table.totals.total_impact == 5


def test_totals_row_is_columnwise_sum():
    seq = [
        make_profile("9", {"A": (32, [("x", 0)]), "B": (8, [("b", 0)])}),
        make_profile("10", {"A": (32, [("x", 8)]), "B": (8, [("b", 4)])}),
        make_profile("11", {"A": (48, [("x", 8), ("n", 16)])}),
    ]
    table = aggregate_transitions(seq, ["A", "B"])
    for column in ["offset_changes", "member_additions", "member_removals",
                   "structure_removals", "structure_additions", "total_impact"]:
        assert getattr(table.totals, column) == sum(
            getattr(counts, column) for _, _, counts in table.rows
        )


def test_aggregate_requires_two_profiles():
    with pytest.raises(ValueError):
        aggregate_transitions([make_profile("9", {})], None)


# ------------------------------------------- short-cut for unchanged structures

_EDITS = ("move", "add", "remove", "rename", "resize", "duplicate",
          "drop-structure", "new-structure")
_EDIT_NAMES = st.text(alphabet="abc_", min_size=1, max_size=3)


@st.composite
def edited_sequences(draw):
    """One random profile, then a few edits per version: most structures unchanged."""
    base = draw(profiles(version="9"))
    catalog = {name: (rec.byte_size, [(m.name, m.offset) for m in rec.members])
               for name, rec in base.structures.items()}
    seq = [make_profile("9", catalog)]
    for version in range(10, 10 + draw(st.integers(1, 4))):
        catalog = {name: (size, list(members)) for name, (size, members) in catalog.items()}
        for edit in draw(st.lists(st.sampled_from(_EDITS), max_size=3)):
            if edit == "new-structure" or not catalog:
                catalog[draw(_EDIT_NAMES)] = (draw(st.integers(1, 64)), [])
                continue
            name = draw(st.sampled_from(sorted(catalog)))
            size, members = catalog[name]
            offset = draw(st.integers(0, max(size - 1, 0)))
            if edit == "drop-structure":
                del catalog[name]
            elif edit == "resize":
                catalog[name] = (size + draw(st.integers(1, 16)), members)
            elif edit == "add" or not members:
                members.append((draw(_EDIT_NAMES), offset))
            else:
                i = draw(st.integers(0, len(members) - 1))
                member, old_offset = members[i]
                if edit == "move":
                    members[i] = (member, offset)
                elif edit == "remove":
                    del members[i]
                elif edit == "rename":
                    members[i] = (draw(_EDIT_NAMES), old_offset)
                else:  # duplicate: a second member of the same name
                    members.append((member, offset))
        seq.append(make_profile(str(version), catalog))
    return seq


def brute_force_counts(old, new, scope):
    added, removed, modified, _ = brute_force_diff(old, new, scope)
    moves, adds, rems = (sum(len(m[i]) for m in modified.values()) for i in (2, 0, 1))
    return (moves, adds, rems, len(removed), len(added),
            moves + adds + rems + len(removed))


def brute_force_factors(old, new):
    """Impact factors from the identity maps alone."""
    old_ids, new_ids = _identities(old.members), _identities(new.members)
    shared = old_ids.keys() & new_ids.keys()
    moves = sum(1 for k in shared if old_ids[k] != new_ids[k])
    churn = len(old_ids.keys() ^ new_ids.keys())
    return {
        "offset_fraction": moves / max(1, len(shared)),
        "churn_ratio": churn / max(1, len(old.members)),
        "size_delta_fraction": abs(new.byte_size - old.byte_size) / max(1, old.byte_size),
    }


@settings(max_examples=150, deadline=None)
@given(edited_sequences())
def test_unchanged_structure_short_cut_matches_brute_force(seq):
    names = sorted({n for p in seq for n in p.structures})
    pairs = list(zip(seq, seq[1:]))
    for old, new in pairs:
        assert as_sets(diff_profiles(old, new)) == brute_force_diff(old, new)
    table = aggregate_transitions(seq)
    assert [tuple(counts) for _, _, counts in table.rows] == \
        [brute_force_counts(old, new, names) for old, new in pairs]
    matrix = impact_matrix(seq)
    for name in names:
        for (old, new), score in zip(pairs, matrix.scores[name]):
            if name not in old.structures or name not in new.structures:
                assert score is None
                continue
            factors = brute_force_factors(old.structures[name], new.structures[name])
            assert score.factors == factors
            assert score.score == combine_impact_factors(*factors.values())
    stats = volatility_stats(seq)
    assert {name: (v.surviving_members, v.members_with_offset_change)
            for name, v in stats.per_structure.items()} == brute_force_volatility(seq, names)
