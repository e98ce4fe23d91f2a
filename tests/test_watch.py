import json
from importlib import resources

import pytest

from structdrift import (
    ChainSpec,
    ChainStep,
    SchemaError,
    assess_capabilities,
    default_chains,
    default_watchlist,
    resolve_chain,
)
from structdrift.watch import (
    REASON_MEMBER_MISSING,
    REASON_NOT_APPLICABLE,
    REASON_STRUCTURE_MISSING,
    STATUS_BROKEN,
    STATUS_RESOLVED,
    parse_chains,
    parse_watchlist,
)

from conftest import art_profile, art_sequence, make_profile


# ---------------------------------------------------------------- defaults

def test_default_watchlist_contains_named_structures():
    watchlist = default_watchlist()
    for name in ["Runtime", "Thread", "ThreadList", "Heap", "RegionSpace",
                 "Region", "Object", "Class", "DexFile", "DexCache",
                 "OatFileManager", "JitCodeCache", "ProfilingInfo", "ArtMethod",
                 "Monitor", "MemMap", "tls_32bit_sized_values"]:
        assert name in watchlist.structures


def test_default_watchlist_is_duplicate_free():
    watchlist = default_watchlist()
    assert len(set(watchlist.structures)) == len(watchlist.structures)
    assert len(watchlist.structures) == 34


def test_default_chains_cover_all_capabilities():
    chains = default_chains()
    assert {c.capability for c in chains} == {
        "thread_enumeration", "heap_analysis", "object_reconstruction",
        "dex_recovery",
    }
    assert len({c.id for c in chains}) == len(chains)


def test_default_chains_round_trip():
    # Every field of the shipped file survives parsing.
    text = resources.files("structdrift.data").joinpath("chains.json").read_text("utf-8")
    chains = parse_chains(text)
    expected = []
    for entry in json.loads(text)["chains"]:
        versions = entry.get("applicable_versions", {})
        expected.append({
            "id": entry["id"],
            "capability": entry["capability"],
            "steps": [(s["structure"], s["member"]) for s in entry["steps"]],
            "min": versions.get("min"),
            "max": versions.get("max"),
        })
    assert [
        {
            "id": c.id,
            "capability": c.capability,
            "steps": [(s.structure, s.member) for s in c.steps],
            "min": c.min_version,
            "max": c.max_version,
        }
        for c in chains
    ] == expected


# -------------------------------------------------------------- resolution

def test_all_default_chains_resolve_on_synthetic_profile():
    for version in ["9", "10"]:
        profile = art_profile(version)
        for chain in default_chains():
            report = resolve_chain(profile, chain)
            if chain.applies_to(version):
                assert report.status == STATUS_RESOLVED, (chain.id, version)
            else:
                assert report.first_failure == (0, REASON_NOT_APPLICABLE)


def test_thread_chain_reports_first_offset():
    report = resolve_chain(
        art_profile("9"),
        ChainSpec("t", "thread_enumeration",
                  [ChainStep("Runtime", "thread_list_"),
                   ChainStep("ThreadList", "list_")]),
    )
    assert report.status == STATUS_RESOLVED
    assert report.resolved_steps[0] == ("Runtime", "thread_list_", 512)


def test_resolved_offsets_match_profile_records():
    profile = art_profile("9")
    for chain in default_chains():
        report = resolve_chain(profile, chain)
        for structure, member, offset in report.resolved_steps:
            record = profile.structures[structure]
            assert any(
                m.name == member and m.offset == offset for m in record.members
            )


def test_missing_structure_breaks_at_its_step():
    profile = art_profile("13", Object=None, Class=None)
    chain = ChainSpec("obj", "object_reconstruction",
                      [ChainStep("Class", "ifields_")])
    report = resolve_chain(profile, chain)
    assert report.status == STATUS_BROKEN
    assert report.first_failure == (0, REASON_STRUCTURE_MISSING)


def test_missing_member_breaks_with_member_reason():
    profile = art_profile("9", Heap=(3200, [("some_other_", 0)]))
    chain = ChainSpec("h", "heap_analysis",
                      [ChainStep("Runtime", "heap_"),
                       ChainStep("Heap", "region_space_")])
    report = resolve_chain(profile, chain)
    assert report.status == STATUS_BROKEN
    assert report.first_failure == (1, REASON_MEMBER_MISSING)
    assert report.resolved_steps == [("Runtime", "heap_", 448)]


def test_empty_profile_breaks_every_chain_at_step_zero():
    empty = make_profile("9", {})
    for chain in default_chains():
        if not chain.applies_to("9"):
            continue
        report = resolve_chain(empty, chain)
        assert report.status == STATUS_BROKEN
        assert report.first_failure[0] == 0


def test_version_gated_chain_applicability():
    chains = {c.id: c for c in default_chains()}
    assert chains["dex-recovery-oat"].applies_to("9")
    assert not chains["dex-recovery-oat"].applies_to("10")
    assert chains["dex-recovery-jit"].applies_to("10")
    assert chains["dex-recovery-jit"].applies_to("14")
    assert not chains["dex-recovery-jit"].applies_to("9")


def test_chain_report_internal_consistency():
    profile = art_profile("9")
    mutations = [{}, {"Runtime": None}, {"ThreadList": (128, [])}]
    for overrides in mutations:
        mutated = art_profile("9", **overrides)
        for chain in default_chains():
            report = resolve_chain(mutated, chain)
            resolved = report.status == STATUS_RESOLVED
            assert resolved == (report.first_failure is None)
            assert resolved == (len(report.resolved_steps) == len(chain.steps))


def test_resolution_monotone_under_growth():
    # Adding structures and members never breaks a resolved chain.
    base = art_profile("9")
    grown = art_profile("9", Extra=(16, [("pad", 0)]),
                        Runtime=(4096, [("heap_", 448), ("thread_list_", 512),
                                        ("oat_file_manager_", 600),
                                        ("jit_", 700)]))
    for chain in default_chains():
        if resolve_chain(base, chain).status == STATUS_RESOLVED:
            assert resolve_chain(grown, chain).status == STATUS_RESOLVED


# ------------------------------------------------------------ capabilities

def test_object_reconstruction_breaks_at_twelve_to_thirteen():
    assessment = assess_capabilities(art_sequence(), default_chains())
    statuses = assessment.statuses["object_reconstruction"]
    assert statuses == ["resolved"] * 4 + ["broken"] * 2
    flips = [n for n in assessment.annotations
             if n.capability == "object_reconstruction" and n.kind == "broke"]
    assert len(flips) == 1
    assert (flips[0].from_version, flips[0].to_version) == ("12", "13")


def test_dex_recovery_switches_chain_generations():
    assessment = assess_capabilities(art_sequence(), default_chains())
    assert assessment.statuses["dex_recovery"] == ["resolved"] * 6


def test_offset_moves_flagged_as_maintenance():
    assessment = assess_capabilities(art_sequence(), default_chains())
    notes = [n for n in assessment.annotations if n.kind == "maintenance-required"]
    assert any(
        n.capability == "thread_enumeration"
        and (n.from_version, n.to_version) == ("9", "10")
        for n in notes
    )
    # The move back from the 10-profile's offsets also needs maintenance.
    assert any((n.from_version, n.to_version) == ("10", "11") for n in notes)


def test_single_stable_profile_has_no_annotations():
    assessment = assess_capabilities([art_profile("11")], default_chains())
    assert assessment.annotations == []
    assert assessment.versions == ["11"]


def test_capabilities_empty_sequence_rejected():
    with pytest.raises(ValueError):
        assess_capabilities([], default_chains())


# ------------------------------------------------------------ spec loading

def test_watchlist_file_validation():
    with pytest.raises(SchemaError):
        parse_watchlist('{"schema": "structdrift-watchlist/1", '
                        '"name": "x", "structures": []}')
    with pytest.raises(SchemaError):
        parse_watchlist('{"schema": "structdrift-watchlist/1", '
                        '"name": "x", "structures": ["A", "A"]}')


@pytest.mark.parametrize("body, message", [
    ({"name": 1, "structures": ["A"]}, "name has wrong type int"),
    ({"name": "x", "structures": "A"}, "structures has wrong type str"),
    ({"name": "x", "structures": ["A", None]}, "structures[1] has wrong type NoneType"),
    ({"name": "w\ud800", "structures": ["A"]}, "string 'w\\ud800' holds an unpaired surrogate"),
])
def test_watchlist_reader_names_the_field_path(body, message):
    with pytest.raises(SchemaError) as exc_info:
        parse_watchlist(json.dumps(dict({"schema": "structdrift-watchlist/1"}, **body)))
    assert str(exc_info.value) == message


@pytest.mark.parametrize("chain, message", [
    ([{"id": 7}], "chains[0].id has wrong type int"),
    ([{"steps": {}}], "chains[0].steps has wrong type dict"),
    ([{"steps": [{"structure": "S", "member": "m"}, {"structure": "S", "member": False}]}],
     "chains[0].steps[1].member has wrong type bool"),
    ([{"id": ""}], "chain id missing"),
    ([{"id": "x"}, {"id": "x"}], "duplicate chain id 'x'"),
    ([{"steps": [{"structure": "S", "member": "m\udfff"}]}],
     "string 'm\\udfff' holds an unpaired surrogate"),
])
def test_chains_reader_names_the_field_path(chain, message):
    with pytest.raises(SchemaError) as exc_info:
        parse_chains(_chain_doc(*chain))
    assert str(exc_info.value) == message


def test_chains_file_validation():
    header = '{"schema": "structdrift-chains/1", "chains": '
    with pytest.raises(SchemaError):
        parse_chains(header + '[{"id": "a", "capability": "nope", '
                     '"steps": [{"structure": "S", "member": "m"}]}]}')
    with pytest.raises(SchemaError):
        parse_chains(header + '[{"id": "a", "capability": "heap_analysis", '
                     '"steps": []}]}')
    with pytest.raises(SchemaError):
        parse_chains(header + '[{"id": "a", "capability": "heap_analysis", '
                     '"applicable_versions": {"min": "12", "max": "9"}, '
                     '"steps": [{"structure": "S", "member": "m"}]}]}')


@pytest.mark.parametrize("versions", [{"min": 5}, {"min": "9", "max": 14}, {"max": [9]}])
def test_chain_version_bounds_must_be_strings(versions):
    doc = {"schema": "structdrift-chains/1", "chains": [{
        "id": "a", "capability": "heap_analysis", "applicable_versions": versions,
        "steps": [{"structure": "S", "member": "m"}],
    }]}
    with pytest.raises(SchemaError, match="bounds must be strings"):
        parse_chains(json.dumps(doc))


def _chain_doc(*changes, **extra) -> str:
    """A chains document of one valid chain updated by each of `changes`, or by `extra`."""
    chain = {"id": "a", "capability": "heap_analysis",
             "steps": [{"structure": "S", "member": "m"}]}
    return json.dumps({"schema": "structdrift-chains/1",
                       "chains": [dict(chain, **change) for change in changes or [extra]]})


@pytest.mark.parametrize("versions", [[], 0, False, "", [1]])
def test_chain_version_bounds_must_be_an_object(versions):
    with pytest.raises(SchemaError, match="applicable_versions must be an object"):
        parse_chains(_chain_doc(applicable_versions=versions))


@pytest.mark.parametrize("extra", [{}, {"applicable_versions": None}])
def test_absent_or_null_chain_version_bounds_mean_none(extra):
    (chain,) = parse_chains(_chain_doc(**extra))
    assert (chain.min_version, chain.max_version) == (None, None)
