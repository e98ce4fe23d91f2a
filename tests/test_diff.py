import json
import random

import pytest
from hypothesis import given, settings

from structdrift import (
    MemberChange,
    MemberRecord,
    StructureRecord,
    diff_profiles,
    diff_structure,
    summarize_diff,
)
from structdrift.diff import doc_to_diff, read_diff
from structdrift.errors import SchemaError
from structdrift.render import diff_to_doc, render_report

from conftest import make_profile, profiles


# Brute-force comparison used as the oracle: annotate members with their
# per-name ordinal, then use plain set arithmetic. Kept deliberately
# independent of the diff engine's implementation.

def _annotate(members):
    counts = {}
    out = {}
    for m in members:
        ordinal = counts.get(m.name, 0)
        counts[m.name] = ordinal + 1
        out[(m.name, ordinal)] = m.offset
    return out


def brute_force_diff(old_profile, new_profile, scope=None):
    """Identity-paired comparison projected onto observable records."""
    names = set(old_profile.structures) | set(new_profile.structures)
    if scope is not None:
        names &= set(scope)
    added, removed, modified, unchanged = [], [], {}, 0
    for name in sorted(names):
        o = old_profile.structures.get(name)
        n = new_profile.structures.get(name)
        if o is None:
            added.append(name)
            continue
        if n is None:
            removed.append(name)
            continue
        old_m, new_m = _annotate(o.members), _annotate(n.members)
        adds = sorted((k[0], new_m[k]) for k in new_m if k not in old_m)
        rems = sorted((k[0], old_m[k]) for k in old_m if k not in new_m)
        moves = sorted(
            (k[0], old_m[k], new_m[k])
            for k in set(old_m) & set(new_m)
            if old_m[k] != new_m[k]
        )
        if adds or rems or moves or o.byte_size != n.byte_size:
            modified[name] = (adds, rems, moves, o.byte_size, n.byte_size)
        else:
            unchanged += 1
    return added, removed, modified, unchanged


def as_sets(report):
    modified = {}
    for d in report.modified:
        adds = sorted((m.name, m.offset) for m in d.member_additions)
        rems = sorted((m.name, m.offset) for m in d.member_removals)
        moves = sorted(
            (c.member_name, c.old_offset, c.new_offset) for c in d.offset_changes
        )
        modified[d.name] = (adds, rems, moves, d.old_size, d.new_size)
    return (report.added_structures, report.removed_structures, modified,
            report.unchanged_count)


def random_profile(rng, version):
    structures = {}
    for i in rng.sample(range(12), rng.randint(0, 10)):
        name = f"S{i}"
        members = []
        for _ in range(rng.randint(0, 8)):
            members.append((f"m{rng.randint(0, 9)}", rng.randrange(0, 96, 4)))
        size = max((o for _, o in members), default=0) + rng.randint(4, 32)
        structures[name] = (size, members)
    return make_profile(version, structures)


# --------------------------------------------------------------- examples

def test_identity_diff_is_empty():
    profile = make_profile("9", {"A": (8, [("x", 0)]), "B": (16, [("y", 8)])})
    report = diff_profiles(profile, profile)
    assert report.added_structures == []
    assert report.removed_structures == []
    assert report.modified == []
    assert report.unchanged_count == 2


def test_removed_fundamental_structures():
    old = make_profile("12", {
        "Object": (8, [("klass_", 0)]),
        "Class": (200, [("ifields_", 48)]),
        "Runtime": (2000, [("heap_", 416)]),
    })
    new = make_profile("13", {"Runtime": (2100, [("heap_", 512)])})
    report = diff_profiles(old, new)
    assert {"Object", "Class"} <= set(report.removed_structures)


def test_hand_built_add_remove_shift():
    old = make_profile("9", {
        "A": (8, [("x", 0)]),
        "B": (16, [("y", 8)]),
        "C": (24, [("z", 16)]),
        "D": (8, []),
        "Gone": (8, [("g", 0)]),
    })
    new = make_profile("10", {
        "A": (8, [("x", 0)]),
        "B": (16, [("y", 8)]),
        "C": (24, [("z", 20)]),
        "D": (8, []),
        "Fresh": (8, [("f", 0)]),
    })
    report = diff_profiles(old, new)
    assert report.added_structures == ["Fresh"]
    assert report.removed_structures == ["Gone"]
    assert [d.name for d in report.modified] == ["C"]
    assert report.unchanged_count == 3
    counts = summarize_diff(report)
    assert (counts.structure_additions, counts.structure_removals,
            counts.offset_changes) == (1, 1, 1)


def test_member_relocation_recorded_with_both_offsets():
    old = StructureRecord.canonical("Runtime", 2000, [MemberRecord("thread_list_", 512)])
    new = StructureRecord.canonical("Runtime", 2000, [MemberRecord("thread_list_", 464)])
    diff = diff_structure(old, new)
    assert diff.offset_changes == [MemberChange("thread_list_", 512, 464)]


def test_member_addition_recorded():
    old = StructureRecord.canonical("Thread", 2584, [MemberRecord("tls32_", 0)])
    new = StructureRecord.canonical(
        "Thread", 6768,
        [MemberRecord("tls32_", 0), MemberRecord("interpreter_cache_", 2304)],
    )
    diff = diff_structure(old, new)
    assert [m.name for m in diff.member_additions] == ["interpreter_cache_"]


def test_identical_records_have_empty_diff():
    record = StructureRecord.canonical("S", 16, [MemberRecord("a", 0)])
    diff = diff_structure(record, record)
    assert not diff.is_change()
    assert diff.old_size == diff.new_size == 16


def test_name_mismatch_rejected():
    a = StructureRecord("A", 8, [])
    b = StructureRecord("B", 8, [])
    with pytest.raises(ValueError):
        diff_structure(a, b)


def test_duplicate_names_match_by_ordinal():
    old = StructureRecord.canonical(
        "S", 32,
        [MemberRecord("UnNamed", 0), MemberRecord("UnNamed", 8),
         MemberRecord("UnNamed", 16)],
    )
    new = StructureRecord.canonical(
        "S", 32, [MemberRecord("UnNamed", 0), MemberRecord("UnNamed", 12)]
    )
    diff = diff_structure(old, new)
    # Ordinal pairing: first stays, second moves 8->12, third is removed.
    assert diff.member_additions == []
    assert [m.offset for m in diff.member_removals] == [16]
    assert diff.offset_changes == [MemberChange("UnNamed", 8, 12)]


def test_scope_restricts_comparison():
    old = make_profile("9", {"A": (8, [("x", 0)]), "B": (8, [("y", 0)])})
    new = make_profile("10", {"A": (8, [("x", 4)]), "B": (8, [("y", 4)])})
    report = diff_profiles(old, new, scope=["A"])
    assert [d.name for d in report.modified] == ["A"]
    assert report.unchanged_count == 0


def test_size_only_change_is_modified_but_not_counted():
    old = make_profile("9", {"S": (16, [("a", 0)])})
    new = make_profile("10", {"S": (32, [("a", 0)])})
    report = diff_profiles(old, new)
    assert [d.name for d in report.modified] == ["S"]
    counts = summarize_diff(report)
    assert counts.total_impact == 0


def test_summarize_empty_report_is_all_zeros():
    profile = make_profile("9", {"A": (8, [("x", 0)])})
    counts = summarize_diff(diff_profiles(profile, profile))
    assert (counts.offset_changes, counts.member_additions,
            counts.member_removals, counts.structure_removals,
            counts.structure_additions, counts.total_impact) == (0,) * 6


def test_summarize_hand_built_report():
    old = make_profile("9", {"S": (32, [("a", 0), ("b", 8), ("c", 16)])})
    new = make_profile("10", {"S": (32, [("a", 4), ("b", 12), ("c", 16), ("d", 24)])})
    counts = summarize_diff(diff_profiles(old, new))
    assert counts.offset_changes == 2
    assert counts.member_additions == 1
    assert counts.member_removals == 0
    assert counts.structure_removals == 0
    assert counts.total_impact == 3


def test_table_arithmetic_matches_row_sum():
    # total impact = offsets + member adds + member removals + structure removals
    old = make_profile("9", {
        "A": (16, [("x", 0), ("y", 8)]),
        "B": (8, [("z", 0)]),
        "Dead": (8, []),
    })
    new = make_profile("10", {
        "A": (16, [("x", 4), ("y", 8), ("w", 12)]),
        "B": (8, []),
    })
    counts = summarize_diff(diff_profiles(old, new))
    assert counts.total_impact == (
        counts.offset_changes + counts.member_additions
        + counts.member_removals + counts.structure_removals
    )
    assert counts.total_impact == 1 + 1 + 1 + 1


def test_diff_report_round_trip(tmp_path):
    old = make_profile("9", {"A": (16, [("x", 0), ("x", 8)]), "B": (8, [])})
    new = make_profile("10", {"A": (24, [("x", 4), ("y", 8)]), "C": (8, [])})
    report = diff_profiles(old, new)
    text = render_report(report, "json")
    assert doc_to_diff(json.loads(text)) == report
    path = tmp_path / "diff.json"
    path.write_text(text, encoding="utf-8")
    assert read_diff(path) == report


def _diff_doc():
    old = make_profile("9", {"A": (16, [("x", 0), ("x", 8)]), "B": (8, [])})
    new = make_profile("10", {"A": (24, [("x", 4), ("y", 8)]), "C": (8, [])})
    return diff_to_doc(diff_profiles(old, new))


def _entry(doc):
    return doc["modified"][0]


@pytest.mark.parametrize("mutate", [
    pytest.param(lambda d: d.update(unchanged_count=True), id="unchanged-count-bool"),
    pytest.param(lambda d: d["added_structures"].append(3), id="added-name-int"),
    pytest.param(lambda d: _entry(d).update(old_size=True), id="old-size-bool"),
    pytest.param(lambda d: _entry(d).update(new_size=False), id="new-size-bool"),
    pytest.param(lambda d: _entry(d).update(old_member_count=True),
                 id="old-member-count-bool"),
    pytest.param(lambda d: _entry(d).update(shared_member_count=False),
                 id="shared-member-count-bool"),
    pytest.param(lambda d: _entry(d).pop("old_size"), id="old-size-missing"),
    pytest.param(lambda d: _entry(d).pop("shared_member_count"),
                 id="shared-member-count-missing"),
    pytest.param(lambda d: _entry(d)["offset_changes"][0].update(old=True),
                 id="change-old-bool"),
    pytest.param(lambda d: _entry(d)["offset_changes"][0].update(new=False),
                 id="change-new-bool"),
    pytest.param(lambda d: _entry(d).pop("offset_changes"), id="offset-changes-missing"),
    pytest.param(lambda d: _entry(d)["member_additions"][0].update(offset=True),
                 id="addition-offset-bool"),
    pytest.param(lambda d: _entry(d)["member_removals"][0].update(offset=True),
                 id="removal-offset-bool"),
    pytest.param(lambda d: _entry(d).pop("name"), id="name-missing"),
    pytest.param(lambda d: _entry(d).update(name=""), id="name-empty"),
    pytest.param(lambda d: _entry(d).update(name=7), id="name-int"),
])
def test_diff_reader_rejects_malformed_fields(mutate):
    doc = _diff_doc()
    doc_to_diff(doc)  # the unmutated document loads
    mutate(doc)
    with pytest.raises(SchemaError):
        doc_to_diff(doc)


@pytest.mark.parametrize("mutate, message", [
    (lambda d: _entry(d).update(old_size=True),
     "modified[0].old_size must be an integer, got a boolean"),
    (lambda d: _entry(d)["offset_changes"][0].pop("member"),
     "modified[0].offset_changes[0].member has wrong type NoneType"),
    (lambda d: _entry(d)["member_removals"][0].update(name=3),
     "modified[0].member_removals[0].name has wrong type int"),
    (lambda d: d["added_structures"].append(3), "added_structures[1] has wrong type int"),
    (lambda d: d.update(to=None), "to has wrong type NoneType"),
    (lambda d: _entry(d).update(name="A\udbff"), "string 'A\\udbff' holds an unpaired surrogate"),
])
def test_diff_reader_names_the_field_path(tmp_path, mutate, message):
    doc = _diff_doc()
    mutate(doc)
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc), encoding="ascii")
    with pytest.raises(SchemaError) as exc_info:
        read_diff(path)
    assert str(exc_info.value) == message


# -------------------------------------------------------------- properties

def test_oracle_equivalence_on_random_pairs():
    rng = random.Random(1387)
    for _ in range(300):
        old = random_profile(rng, "9")
        new = random_profile(rng, "10")
        report = diff_profiles(old, new)
        assert as_sets(report) == brute_force_diff(old, new)


def test_antisymmetry_on_random_pairs():
    rng = random.Random(64)
    for _ in range(200):
        old = random_profile(rng, "9")
        new = random_profile(rng, "10")
        forward = diff_profiles(old, new)
        backward = diff_profiles(new, old)
        assert set(forward.added_structures) == set(backward.removed_structures)
        assert set(forward.removed_structures) == set(backward.added_structures)
        f_mod = {d.name: d for d in forward.modified}
        b_mod = {d.name: d for d in backward.modified}
        assert set(f_mod) == set(b_mod)
        for name, d in f_mod.items():
            back = b_mod[name]
            assert {(m.name, m.offset) for m in d.member_additions} == \
                {(m.name, m.offset) for m in back.member_removals}
            assert {(m.name, m.offset) for m in d.member_removals} == \
                {(m.name, m.offset) for m in back.member_additions}
            assert {(c.member_name, c.old_offset, c.new_offset)
                    for c in d.offset_changes} == \
                {(c.member_name, c.new_offset, c.old_offset)
                 for c in back.offset_changes}


@settings(max_examples=100, deadline=None)
@given(profiles(version="9"), profiles(version="10"))
def test_partition_is_exact(old, new):
    report = diff_profiles(old, new)
    union = set(old.structures) | set(new.structures)
    assert (len(report.added_structures) + len(report.removed_structures)
            + len(report.modified) + report.unchanged_count) == len(union)
    touched = set(report.added_structures) | set(report.removed_structures) \
        | {d.name for d in report.modified}
    assert touched <= union
    assert not (set(report.added_structures) & set(report.removed_structures))


@settings(max_examples=60, deadline=None)
@given(profiles())
def test_identity_property(profile):
    report = diff_profiles(profile, profile)
    assert not report.added_structures
    assert not report.removed_structures
    assert not report.modified
    assert report.unchanged_count == len(profile.structures)


@settings(max_examples=60, deadline=None)
@given(profiles(version="9"), profiles(version="10"))
def test_member_lists_partition_both_records(old, new):
    # Each member identity lands in exactly one bucket: removals and the
    # shared count partition the old record, additions and the shared
    # count partition the new one, and only shared members can move.
    report = diff_profiles(old, new)
    for d in report.modified:
        old_members = old.structures[d.name].members
        new_members = new.structures[d.name].members
        assert len(d.member_removals) + d.shared_member_count == len(old_members)
        assert len(d.member_additions) + d.shared_member_count == len(new_members)
        assert len(d.offset_changes) <= d.shared_member_count
        old_multiset = sorted((m.name, m.offset) for m in old_members)
        new_multiset = sorted((m.name, m.offset) for m in new_members)
        for m in d.member_removals:
            assert (m.name, m.offset) in old_multiset
        for m in d.member_additions:
            assert (m.name, m.offset) in new_multiset
        for c in d.offset_changes:
            assert c.old_offset != c.new_offset
            assert (c.member_name, c.old_offset) in old_multiset
            assert (c.member_name, c.new_offset) in new_multiset
