"""Acceptance suite: one test per release criterion.

Each test prints a single `[ACCEPTANCE] <criterion>: PASS/FAIL` line
(visible with `pytest -s` or in captured output). The dataset-gated
criterion is skipped unless STRUCTDRIFT_DATASET points at a repository
of canonical x86_64 profiles for platform versions 9 through 14 (with an
optional watchlist.json beside them).
"""

import functools
import json
import os
import random
import time

import pytest

from structdrift import (
    InvariantError,
    SchemaError,
    StructDriftError,
    assess_capabilities,
    combine_impact_factors,
    default_chains,
    default_watchlist,
    diff_profiles,
    diff_structure,
    extract_profile,
    impact_score,
    load_watchlist,
    member_offset_timeline,
    read_profile,
    read_sequence,
    resolve_chain,
    size_timeline,
    volatility_stats,
    write_profile,
)
from structdrift.analytics import aggregate_transitions
from structdrift.profile import loads_profile
from structdrift.watch import REASON_MEMBER_MISSING, REASON_STRUCTURE_MISSING

from conftest import (
    ORACLE_FIXTURES,
    art_profile,
    fixture_path,
    load_oracle,
    make_profile,
)
from test_diff import as_sets, brute_force_diff, random_profile


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception as exc:
                print(f"[ACCEPTANCE] {name}: SKIPPED ({exc})", flush=True)
                raise
            except BaseException:
                print(f"[ACCEPTANCE] {name}: FAIL", flush=True)
                raise
            elapsed = time.perf_counter() - started
            print(f"[ACCEPTANCE] {name}: PASS ({elapsed:.2f}s)", flush=True)
        return wrapper
    return decorate


@criterion("extractor fidelity (compiler layout-dump oracle, tolerance 0)")
def test_extractor_fidelity():
    started = time.perf_counter()
    for stem in ORACLE_FIXTURES:
        oracle = load_oracle(stem)
        profile = extract_profile(fixture_path(oracle["binary"]),
                                  platform_version="9")
        got = {
            name: (rec.byte_size,
                   sorted((m.offset, m.name) for m in rec.members))
            for name, rec in profile.structures.items()
        }
        expected = {
            name: (body["size"],
                   sorted((m["offset"], m["name"]) for m in body["members"]))
            for name, body in oracle["structures"].items()
        }
        assert got == expected, f"layout mismatch in {stem}"
        assert list(profile.meta.dwarf_versions_seen) == oracle["dwarf_versions"]
    elapsed = time.perf_counter() - started
    assert len(ORACLE_FIXTURES) >= 3
    assert elapsed < 5.0, f"fidelity suite took {elapsed:.2f}s"


@criterion("diff oracle equivalence (1,000 random pairs)")
def test_diff_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20260808)
    for _ in range(1000):
        old = random_profile(rng, "9")
        new = random_profile(rng, "10")
        forward = diff_profiles(old, new)
        assert as_sets(forward) == brute_force_diff(old, new)

        backward = diff_profiles(new, old)
        assert set(forward.added_structures) == set(backward.removed_structures)
        assert set(forward.removed_structures) == set(backward.added_structures)
        f_mod = {d.name: d for d in forward.modified}
        b_mod = {d.name: d for d in backward.modified}
        assert set(f_mod) == set(b_mod)
        for name, d in f_mod.items():
            back = b_mod[name]
            assert sorted((m.name, m.offset) for m in d.member_additions) == \
                sorted((m.name, m.offset) for m in back.member_removals)
            assert sorted((m.name, m.offset) for m in d.member_removals) == \
                sorted((m.name, m.offset) for m in back.member_additions)
            assert sorted((c.member_name, c.old_offset, c.new_offset)
                          for c in d.offset_changes) == \
                sorted((c.member_name, c.new_offset, c.old_offset)
                       for c in back.offset_changes)

        for profile in (old, new):
            identity = diff_profiles(profile, profile)
            assert not identity.added_structures
            assert not identity.removed_structures
            assert not identity.modified
            assert identity.unchanged_count == len(profile.structures)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"diff oracle suite took {elapsed:.2f}s"


@criterion("impact-score properties (10,000 random factor triples)")
def test_impact_score_properties():
    started = time.perf_counter()
    rng = random.Random(4242)
    for _ in range(10000):
        offset = rng.random()
        churn = rng.random() * 4
        size = rng.random() * 4
        score = combine_impact_factors(offset, churn, size)
        assert 0.0 <= score <= 1.0
        bump = rng.random() * 0.5 + 1e-6
        assert combine_impact_factors(min(offset + bump, 1.0), churn, size) \
            >= score - 1e-12
        assert combine_impact_factors(offset, churn + bump, size) >= score - 1e-12
        assert combine_impact_factors(offset, churn, size + bump) >= score - 1e-12

    from structdrift import MemberRecord, StructureRecord
    rec = StructureRecord.canonical(
        "S", 64, [MemberRecord("a", 0), MemberRecord("b", 8)]
    )
    assert impact_score(diff_structure(rec, rec)).score == 0.0
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"impact property suite took {elapsed:.2f}s"


@criterion("round-trip stability and malformed-input rejection")
def test_round_trip_stability(tmp_path):
    rng = random.Random(777)
    for i in range(200):
        profile = random_profile(rng, "9")
        path = tmp_path / f"gen{i}.profile.json"
        write_profile(profile, path)
        assert read_profile(path) == profile

    canonical_files = sorted(
        (fixture_path("profiles")).rglob("*.profile.json")
    )
    assert canonical_files
    for path in canonical_files:
        original = path.read_bytes()
        rewritten = tmp_path / path.name
        write_profile(read_profile(path), rewritten)
        assert rewritten.read_bytes() == original, f"byte drift in {path.name}"

    base_text = canonical_files[0].read_text()
    mutations = []
    for cut in (1, 7, len(base_text) // 2, len(base_text) - 2):
        mutations.append(base_text[:cut])
    for _ in range(150):
        pos = rng.randrange(len(base_text))
        char = chr(rng.randrange(32, 127))
        mutations.append(base_text[:pos] + char + base_text[pos + 1 :])
    doc = json.loads(base_text)
    for field in ("schema", "meta", "structures"):
        broken = dict(doc)
        del broken[field]
        mutations.append(json.dumps(broken))
    mutations.append("")
    mutations.append("\x00\xff garbage")
    rejected = 0
    for text in mutations:
        try:
            loads_profile(text)
        except (SchemaError, InvariantError):
            rejected += 1
        except StructDriftError as exc:  # pragma: no cover - would be a bug
            raise AssertionError(f"unexpected error type: {exc!r}")
        # A single-character mutation can still be a valid profile
        # (e.g. inside a string); those loads are allowed to succeed.
    assert rejected >= len(mutations) - 30


def run_dataset_checks(root):
    """Assertions shared by the gated criterion and its machinery test."""
    started = time.perf_counter()
    labels = ["9", "10", "11", "12", "13", "14"]
    by_version = {p.meta.platform_version: p for p in read_sequence(root, "x86_64")}
    missing = [v for v in labels if v not in by_version]
    assert not missing, f"dataset lacks x86_64 profiles for: {missing}"
    sequence = [by_version[v] for v in labels]

    watchlist_path = os.path.join(root, "watchlist.json")
    if os.path.exists(watchlist_path):
        watchlist = load_watchlist(watchlist_path)
    else:
        watchlist = default_watchlist()

    table = aggregate_transitions(sequence, watchlist.structures)
    totals = table.totals
    assert (totals.offset_changes, totals.member_additions,
            totals.member_removals, totals.structure_removals,
            totals.total_impact) == (956, 68, 39, 4, 1067)
    first = table.rows[0][2]
    assert (first.offset_changes, first.member_additions,
            first.member_removals, first.structure_removals,
            first.total_impact) == (312, 24, 19, 1, 356)

    thread_list = member_offset_timeline(sequence, "Runtime", "thread_list_")
    assert [v for _, v in thread_list.points] == [512, 464, 456, 480, 576, 584]
    heap = member_offset_timeline(sequence, "Runtime", "heap_")
    assert [v for _, v in heap.points] == [448, 400, 392, 416, 512, 512]

    thread_sizes = size_timeline(sequence, "Thread")
    assert thread_sizes.points[0][1] == 2584
    assert thread_sizes.points[1][1] == 6768

    vol = volatility_stats(sequence, watchlist.structures)
    assert abs(vol.overall_rate - 0.732) <= 0.005
    assert abs(vol.per_structure["Runtime"].rate - 0.894) <= 0.005

    assessment = assess_capabilities(sequence, default_chains())
    flips = [
        n for n in assessment.annotations
        if n.capability == "object_reconstruction" and n.kind == "broke"
    ]
    assert any((n.from_version, n.to_version) == ("12", "13") for n in flips)

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"dataset suite took {elapsed:.2f}s"


@criterion("dataset reproduction (gated on STRUCTDRIFT_DATASET)")
def test_dataset_reproduction():
    root = os.environ.get("STRUCTDRIFT_DATASET")
    if not root:
        pytest.skip("STRUCTDRIFT_DATASET not set")
    run_dataset_checks(root)


def test_dataset_checks_run_on_engineered_sequence(tmp_path):
    # Machinery validation: an engineered sequence with exactly the
    # published change counts must sail through run_dataset_checks. This
    # does not substitute for the gated criterion above; it proves the
    # checks are attainable by a conforming dataset.
    from synthetic_dataset import build_engineered_repo

    root = build_engineered_repo(tmp_path / "dataset")
    run_dataset_checks(root)


def _without_member(profile, structure, member):
    structures = {}
    for name, rec in profile.structures.items():
        members = [(m.name, m.offset) for m in rec.members]
        if name == structure:
            members = [m for m in members if m[0] != member]
        structures[name] = (rec.byte_size, members)
    return make_profile(profile.meta.platform_version, structures)


def _without_structure(profile, structure):
    structures = {
        name: (rec.byte_size, [(m.name, m.offset) for m in rec.members])
        for name, rec in profile.structures.items()
        if name != structure
    }
    return make_profile(profile.meta.platform_version, structures)


@criterion("chain-resolution consistency on mutation fixtures")
def test_chain_mutation_consistency():
    chains = default_chains()
    for chain in chains:
        version = chain.min_version or chain.max_version or "9"
        base = art_profile(version)
        assert resolve_chain(base, chain).status == "resolved", chain.id

        for index, step in enumerate(chain.steps):
            mutated = _without_structure(base, step.structure)
            report = resolve_chain(mutated, chain)
            expected_index = next(
                k for k, s in enumerate(chain.steps)
                if s.structure == step.structure
            )
            assert report.status == "broken", (chain.id, index)
            assert report.first_failure == (
                expected_index, REASON_STRUCTURE_MISSING
            ), (chain.id, index)
            assert len(report.resolved_steps) == expected_index

            mutated = _without_member(base, step.structure, step.member)
            report = resolve_chain(mutated, chain)
            expected_index = next(
                k for k, s in enumerate(chain.steps)
                if (s.structure, s.member) == (step.structure, step.member)
            )
            assert report.status == "broken", (chain.id, index)
            assert report.first_failure == (
                expected_index, REASON_MEMBER_MISSING
            ), (chain.id, index)

            # Chains that never touch the mutated structure stay resolved.
            for other in chains:
                if not other.applies_to(version):
                    continue
                if all(s.structure != step.structure for s in other.steps):
                    assert resolve_chain(
                        _without_structure(base, step.structure), other
                    ).status == "resolved"
