import errno
import gc
import json
import os
import random
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import structdrift.cli as cli
import structdrift.profile as profile_module
from structdrift import read_diff, read_profile, write_profile
from structdrift.cli import run
from structdrift.errors import UnsupportedFormatError
from structdrift.profile import ARCHITECTURES
from structdrift.render import _RENDERERS, render_report

from conftest import FIXTURES, SERIAL, art_profile, art_sequence, fixture_path, make_profile


@pytest.fixture
def art_repo(tmp_repo):
    for profile in art_sequence():
        tmp_repo(profile)
    return tmp_repo.root


def write_tmp_profile(tmp_path, profile, name):
    path = tmp_path / name
    write_profile(profile, path)
    return str(path)


# ----------------------------------------------------------------- extract

def test_extract_writes_readable_profile(tmp_path, capsys):
    out = tmp_path / "p.profile.json"
    code = run(["extract", str(fixture_path("layouts-dwarf4-64.so")),
                "--version", "9", "--out", str(out)])
    assert code == 0
    profile = read_profile(out)
    assert profile.meta.platform_version == "9"
    assert "RegionTable" in profile.structures


def test_extract_out_failure_keeps_earlier_file(tmp_path, monkeypatch, capsys):
    out = tmp_path / "p.profile.json"
    out.write_bytes(b"earlier\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr("os.replace", refuse)
    code = run(["extract", str(fixture_path("layouts-dwarf4-64.so")),
                "--version", "9", "--out", str(out)])
    assert code == 3
    assert "rename refused" in capsys.readouterr().err
    assert out.read_bytes() == b"earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["p.profile.json"]


@pytest.mark.parametrize("failure", [errno.ENOENT, errno.EXDEV],
                         ids=["missing directory", "cross-device rename"])
def test_extract_out_failure_names_the_destination(tmp_path, monkeypatch, capsys, failure):
    # The error names the --out path and the OS reason, never the temporary file.
    out = tmp_path / "missing" / "p.json"
    if failure == errno.EXDEV:
        out = tmp_path / "p.json"

        def refuse(src, dst):
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), src, dst)

        monkeypatch.setattr("os.replace", refuse)
    code = run(["extract", str(fixture_path("layouts-dwarf5-64.so")),
                "--version", "9", "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == (
        f"structdrift: [Errno {failure}] {os.strerror(failure)}: {str(out)!r}\n")
    assert list(tmp_path.iterdir()) == []


def test_extract_stdout_is_deterministic(capsys):
    argv = ["extract", str(fixture_path("layouts-dwarf5-64.so")), "--version", "9"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["schema"] == "structdrift-profile/1"


def test_extract_missing_file_is_input_error(capsys):
    code = run(["extract", "missing.so"])
    assert code == 3
    assert "missing.so" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["score", "--repo", "{tmp}", "--arch", "x86_64"], "no x86_64 profiles found under {tmp}"),
    (["stats", "{tmp}/missing.so"], "cannot read {tmp}/missing.so: [Errno 2] "
                                    "No such file or directory: '{tmp}/missing.so'"),
], ids=["empty-repository", "missing-stats-input"])
def test_refused_input_is_named(tmp_path, capsys, argv, message):
    assert run([arg.format(tmp=tmp_path) for arg in argv]) == 3
    assert capsys.readouterr().err == f"structdrift: {message.format(tmp=tmp_path)}\n"


def test_extract_non_elf_is_input_error(tmp_path, capsys):
    bogus = tmp_path / "bogus.so"
    bogus.write_text("nope")
    assert run(["extract", str(bogus)]) == 3


def test_extract_table_format(capsys):
    assert run(["extract", str(fixture_path("triple-dwarf4-64.so")),
                "--version", "9", "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "LinkNode" in out and "Registry" in out


# -------------------------------------------------------------------- diff

def test_diff_identical_files_emits_empty_diff(tmp_path, capsys):
    profile = art_profile("9")
    a = write_tmp_profile(tmp_path, profile, "a.profile.json")
    code = run(["diff", a, a])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["added_structures"] == []
    assert doc["removed_structures"] == []
    assert doc["modified"] == []


def test_diff_output_round_trips(tmp_path, capsys):
    a = write_tmp_profile(tmp_path, art_profile("12"), "a.profile.json")
    b = write_tmp_profile(
        tmp_path, art_profile("13", Object=None, Class=None), "b.profile.json"
    )
    out = tmp_path / "diff.json"
    assert run(["diff", a, b, "--out", str(out)]) == 0
    report = read_diff(out)
    assert {"Object", "Class"} <= set(report.removed_structures)


def test_diff_fail_on_break(tmp_path):
    a = write_tmp_profile(tmp_path, art_profile("12"), "a.profile.json")
    b = write_tmp_profile(
        tmp_path, art_profile("13", Object=None, Class=None), "b.profile.json"
    )
    assert run(["diff", a, b, "--fail-on-break"]) == 1
    assert run(["diff", a, a, "--fail-on-break"]) == 0


def test_diff_scope_default(tmp_path, capsys):
    extra = {"NotWatched": (8, [("x", 0)])}
    a = write_tmp_profile(tmp_path, art_profile("9", **extra), "a.profile.json")
    b = write_tmp_profile(
        tmp_path, art_profile("10", NotWatched=(8, [("x", 4)])), "b.profile.json"
    )
    assert run(["diff", a, b, "--scope", "default"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(d["name"] != "NotWatched" for d in doc["modified"])


# ------------------------------------------------------------------- score

def test_csv_quotes_cells_with_commas_and_quotes(tmp_path, capsys):
    import csv

    # C++ template names carry commas; a quote must be doubled inside quotes.
    old = {"Pair<int, long>": (16, [("first", 0), ("second", 8)]), 'Say"Hi"': (8, [])}
    new = dict(old, **{"Pair<int, long>": (16, [("second", 0), ("first", 8)])})
    a = write_tmp_profile(tmp_path, make_profile("9", old), "a.profile.json")
    b = write_tmp_profile(tmp_path, make_profile("10", new), "b.profile.json")
    assert run(["score", a, b, "--format", "csv"]) == 0
    header, *rows = csv.reader(capsys.readouterr().out.splitlines())
    assert header == ["structure", "9->10"]
    assert [row[0] for row in rows] == ["Pair<int, long>", 'Say"Hi"']
    assert all(len(row) == len(header) for row in rows)


@pytest.mark.parametrize("command", [["score"], ["aggregate"], ["timeline", "c\rd"]])
def test_csv_cells_with_line_breaks_round_trip(tmp_path, capsys, command):
    import csv
    import io

    # A hand-edited profile can hold any character in a name or a version.
    names = ["a\nb", "c\rd", "e\r\nf", "g"]
    paths = [write_tmp_profile(tmp_path, make_profile(version, {
        name: (8, [("m", offset)]) for name in names}), f"{offset}.profile.json")
        for version, offset in (("9", 0), ("10\r", 4))]
    assert run(command + paths + ["--format", "csv"]) == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out, newline=""))
    if command[0] == "score":
        assert header[1:] == ["9->10\r"] and [row[0] for row in rows] == sorted(names)
    elif command[0] == "aggregate":
        assert [row[0] for row in rows] == ["9->10\r", "total"]
    else:
        assert [row[0] for row in rows] == ["9", "10\r"]
    assert all(len(row) == len(header) for row in rows)


def test_score_csv_has_three_decimal_cells(tmp_path, capsys):
    a = write_tmp_profile(tmp_path, art_profile("9"), "a.profile.json")
    b = write_tmp_profile(tmp_path, art_profile(
        "10", Runtime=(2100, [("heap_", 400), ("thread_list_", 464),
                              ("oat_file_manager_", 600)])
    ), "b.profile.json")
    assert run(["score", a, b, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    header, *rows = out.strip().splitlines()
    assert header.startswith("structure,9->10")
    runtime_row = next(r for r in rows if r.startswith("Runtime,"))
    cell = runtime_row.split(",")[1]
    assert cell and len(cell.split(".")[1]) == 3


def test_score_json_round_trips(art_repo, capsys):
    assert run(["score", "--repo", str(art_repo), "--arch", "x86_64"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "structdrift-impact/1"
    assert len(doc["transitions"]) == 5
    assert doc["scores"]["Object"][4] is None  # absent on both sides of 13->14


@pytest.mark.parametrize("command", [
    ["score"],
    ["volatility", "--scope", "default"],
    ["aggregate"],
    ["timeline", "Runtime", "--member", "heap_"],
])
def test_repository_commands_read_each_profile_once(art_repo, monkeypatch, command):
    import structdrift.profile as profile_module

    reads = Counter()
    read_text = profile_module.read_text

    def counting_read_text(source):
        reads[Path(source)] += 1
        return read_text(source)

    monkeypatch.setattr(profile_module, "read_text", counting_read_text)
    assert run(command + ["--repo", str(art_repo), "--arch", "x86_64"]) == 0
    assert sorted(reads) == sorted(art_repo.rglob("*.profile.json"))
    assert set(reads.values()) == {1}


@pytest.mark.parametrize("command", [
    ["score"],
    ["aggregate"],
    ["volatility"],
    ["timeline", "Runtime"],
])
def test_repository_commands_read_only_their_architecture(tmp_path, monkeypatch, command):
    import structdrift.profile as profile_module

    root = tmp_path / "repo"
    for profile in art_sequence():
        for arch in ARCHITECTURES:
            path = root / profile.meta.platform_version / arch / "libart.profile.json"
            path.parent.mkdir(parents=True)
            write_profile(profile._replace(
                meta=profile.meta._replace(architecture=arch)), path)
    reads = []
    read_text = profile_module.read_text

    def counting_read_text(source):
        reads.append(Path(source))
        return read_text(source)

    monkeypatch.setattr(profile_module, "read_text", counting_read_text)
    assert run(command + ["--repo", str(root), "--arch", "arm64"]) == 0
    assert sorted(reads) == sorted(root.glob("*/arm64/*.profile.json"))
    assert len(reads) == 6


def test_repository_sequence_of_two_stems_is_an_input_error(art_repo, capsys):
    write_profile(art_profile("9"), art_repo / "9" / "x86_64" / "libcxx.profile.json")
    assert run(["score", "--repo", str(art_repo), "--arch", "x86_64"]) == 3
    err = capsys.readouterr().err
    assert "libart, libcxx" in err and "pass the profile files" in err


@pytest.mark.parametrize("command", [["score"], ["aggregate"], ["volatility"],
                                     ["timeline", "S"]])
def test_sequence_of_mixed_architectures_is_a_usage_error(tmp_path, capsys, command):
    paths = [write_tmp_profile(tmp_path, make_profile(version, {"S": (8, [])}, arch),
                               f"{version}.profile.json")
             for version, arch in [("9", "x86_64"), ("10", "x86_32")]]
    assert run(command + paths) == 2
    assert "multiple architectures" in capsys.readouterr().err


@pytest.mark.parametrize("replacement, reason", [
    (lambda repo: "{broken", "not valid JSON"),
    (lambda repo: (repo / "10" / "x86_64" / "libart.profile.json").read_text(),
     "meta names 10/x86_64, the path places it at 11/x86_64"),
], ids=["unreadable", "misplaced"])
def test_repository_version_gap_is_an_input_error(tmp_path, capsys, replacement, reason):
    repo = tmp_path / "repo"
    shutil.copytree(FIXTURES / "profiles", repo)
    gap = repo / "11" / "x86_64" / "libart.profile.json"
    gap.write_text(replacement(repo))
    assert run(["aggregate", "--repo", str(repo), "--arch", "x86_64", "--format", "csv"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{gap}: {reason}" in captured.err
    assert run(["index", "--repo", str(repo)]) == 0
    skipped = json.loads(capsys.readouterr().out)["skipped"]
    assert [entry["path"] for entry in skipped] == [str(gap)]


# ------------------------------------------------------------------- stats

def test_stats_on_binary_and_profile(tmp_path, capsys):
    profile_path = write_tmp_profile(tmp_path, art_profile("9"), "p.profile.json")
    assert run(["stats", str(fixture_path("triple-dwarf4-64.so")),
                profile_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "structdrift-stats/1"
    stats = doc["sources"]
    assert stats[0]["symbol_count"] == 3
    assert stats[0]["dwarf_versions"] == [4]
    assert stats[1]["source"] == profile_path


# --------------------------------------------------------------- aggregate

def test_aggregate_csv_header_and_totals(art_repo, capsys):
    assert run(["aggregate", "--repo", str(art_repo), "--arch", "x86_64",
                "--scope", "default", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ("transition,offset_changes,member_additions,member_removals,"
                        "structure_removals,total_impact")
    assert lines[-1].startswith("total,")
    body = [line.split(",") for line in lines[1:]]
    for column in range(1, 6):
        assert int(body[-1][column]) == sum(int(r[column]) for r in body[:-1])


def test_aggregate_table_has_total_row(art_repo, capsys):
    assert run(["aggregate", "--repo", str(art_repo), "--arch", "x86_64",
                "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "Total" in out


def test_aggregate_json_round_trips(art_repo, capsys):
    assert run(["aggregate", "--repo", str(art_repo), "--arch", "x86_64"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "structdrift-aggregate/1"
    assert len(doc["rows"]) == 5


def test_sequence_command_is_byte_deterministic(art_repo, capsys):
    argv = ["aggregate", "--repo", str(art_repo), "--arch", "x86_64",
            "--scope", "default"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


# ---------------------------------------------------------------- timeline

def test_timeline_size_and_member(art_repo, capsys):
    assert run(["timeline", "Runtime", "--repo", str(art_repo),
                "--arch", "x86_64", "--member", "thread_list_"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "structdrift-timeline/1"
    assert [p["value"] for p in doc["points"]] == [512, 464, 512, 512, 512, 512]

    assert run(["timeline", "Thread", "--repo", str(art_repo),
                "--arch", "x86_64", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "version,value"
    assert lines[1] == "9,2584"


def test_timeline_absent_cells_empty_in_csv(art_repo, capsys):
    assert run(["timeline", "Object", "--repo", str(art_repo),
                "--arch", "x86_64", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "13," in lines and "14," in lines


# -------------------------------------------------------------- volatility

def test_volatility_json(art_repo, capsys):
    assert run(["volatility", "--repo", str(art_repo), "--arch", "x86_64",
                "--scope", "default"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "structdrift-volatility/1"
    assert 0.0 <= doc["overall_rate"] <= 1.0
    assert doc["per_structure"]["Runtime"]["members_with_offset_change"] == 2


# ------------------------------------------------------------------ chains

def test_chains_fail_on_break(tmp_path):
    broken = write_tmp_profile(
        tmp_path, art_profile("13", Object=None, Class=None), "p13.profile.json"
    )
    healthy = write_tmp_profile(tmp_path, art_profile("9"), "p9.profile.json")
    assert run(["chains", broken, "--chains", "default", "--fail-on-break"]) == 1
    assert run(["chains", healthy, "--chains", "default", "--fail-on-break"]) == 0


def test_chains_single_profile_report(tmp_path, capsys):
    path = write_tmp_profile(tmp_path, art_profile("9"), "p.profile.json")
    assert run(["chains", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "structdrift-chain-reports/1"
    assert doc["profile_version"] == "9"
    statuses = {r["chain"]: r["status"] for r in doc["reports"]}
    assert statuses["thread-enumeration"] == "resolved"
    assert statuses["dex-recovery-jit"] == "broken"  # not applicable at 9
    jit = next(r for r in doc["reports"] if r["chain"] == "dex-recovery-jit")
    assert jit["first_failure"] == {"step": 0, "reason": "chain-not-applicable"}


def write_chain_spec(tmp_path, chains):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"schema": "structdrift-chains/1", "chains": chains}))
    return str(path)


def test_timeline_and_chains_agree_on_a_repeated_member_name(tmp_path, capsys):
    # Both resolve a member name to the first member of that name.
    profile = write_tmp_profile(tmp_path, art_profile("9", Runtime=(
        2048, [("heap_", 448), ("thread_list_", 512), ("heap_", 1024)]
    )), "p.profile.json")
    assert run(["timeline", "Runtime", profile, "--member", "heap_"]) == 0
    timeline = json.loads(capsys.readouterr().out)
    spec = write_chain_spec(tmp_path, [{
        "id": "heap", "capability": "heap_analysis",
        "steps": [{"structure": "Runtime", "member": "heap_"}],
    }])
    assert run(["chains", profile, "--chains", spec]) == 0
    chains = json.loads(capsys.readouterr().out)
    assert timeline["points"] == [{"version": "9", "value": 448}]
    assert chains["reports"][0]["resolved_steps"] == [
        {"structure": "Runtime", "member": "heap_", "offset": 448}
    ]


def test_chains_empty_spec_renders_chain_report(tmp_path, capsys):
    profile = write_tmp_profile(tmp_path, art_profile("9"), "p9.profile.json")
    spec = write_chain_spec(tmp_path, [])
    assert run(["chains", profile, "--chains", spec]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"schema": "structdrift-chain-reports/1", "profile_version": "9",
                   "reports": []}
    assert run(["chains", profile, "--chains", spec, "--format", "table"]) == 0
    assert capsys.readouterr().out.startswith("chains against profile 9\nchain ")


def test_chains_non_string_version_bound_is_input_error(tmp_path, capsys):
    profile = write_tmp_profile(tmp_path, art_profile("9"), "p9.profile.json")
    spec = write_chain_spec(tmp_path, [{
        "id": "a", "capability": "heap_analysis", "applicable_versions": {"min": 5},
        "steps": [{"structure": "Runtime", "member": "heap_"}],
    }])
    assert run(["chains", profile, "--chains", spec, "--fail-on-break"]) == 3
    assert "bounds must be strings" in capsys.readouterr().err


@pytest.mark.parametrize("second, message", [
    (make_profile("10", {"S": (8, [])}, "x86_32"), "multiple architectures"),
    (None, "not in ascending version order"),  # the same file twice
], ids=["mixed-architectures", "same-profile-twice"])
def test_chains_sequence_is_checked_like_the_others(tmp_path, capsys, second, message):
    first = write_tmp_profile(tmp_path, make_profile("9", {"S": (8, [])}), "p.profile.json")
    other = first if second is None else write_tmp_profile(tmp_path, second, "r.profile.json")
    for command in ("chains", "aggregate"):
        assert run([command, first, other]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


def test_chains_capability_assessment(tmp_path, capsys):
    paths = [
        write_tmp_profile(tmp_path, p, f"p{p.meta.platform_version}.profile.json")
        for p in art_sequence()
    ]
    assert run(["chains", *paths]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "structdrift-capabilities/1"
    assert doc["capabilities"]["object_reconstruction"][-1] == "broken"
    assert any(n["kind"] == "broke" for n in doc["annotations"])


# ------------------------------------------------------------------- index

def test_index_lists_repository(art_repo, capsys):
    assert run(["index", "--repo", str(art_repo)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "structdrift-index/1"
    assert len(doc["entries"]) == 6


def test_index_table_names_skipped_files(art_repo, capsys):
    broken = art_repo / "99" / "x86_64" / "libart.profile.json"
    broken.parent.mkdir(parents=True)
    broken.write_text("{broken")
    assert run(["index", "--repo", str(art_repo), "--format", "table"]) == 0
    listed, skipped = capsys.readouterr().out.split("skipped:\n")
    assert len(listed.splitlines()) == 2 + 6 and str(broken) not in listed
    (line,) = skipped.splitlines()
    assert line.startswith(f"  {broken}: not valid JSON")


def test_repo_env_variable(art_repo, capsys, monkeypatch):
    monkeypatch.setenv("STRUCTDRIFT_REPO", str(art_repo))
    assert run(["index"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["entries"]) == 6


@pytest.mark.parametrize("argv", [["index"], ["score", "--arch", "x86_64"]])
def test_repo_that_is_a_file_is_an_input_error(tmp_path, capsys, argv):
    not_a_directory = tmp_path / "libart.profile.json"
    write_profile(art_profile("9"), not_a_directory)
    assert run(argv + ["--repo", str(not_a_directory)]) == 3
    assert capsys.readouterr().err == (
        f"structdrift: repository root {not_a_directory} is not a directory\n"
    )


def test_custom_watchlist_file(tmp_path, capsys):
    watchlist = tmp_path / "mine.json"
    watchlist.write_text(json.dumps({
        "schema": "structdrift-watchlist/1",
        "name": "mine",
        "structures": ["Runtime"],
    }))
    a = write_tmp_profile(tmp_path, art_profile("9"), "a.profile.json")
    b = write_tmp_profile(tmp_path, art_profile(
        "10", Runtime=(2100, [("heap_", 400), ("thread_list_", 464),
                              ("oat_file_manager_", 600)])
    ), "b.profile.json")
    assert run(["volatility", a, b, "--scope", str(watchlist)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["watchlist"] == "mine"
    assert list(doc["per_structure"]) == ["Runtime"]


def test_matrix_csv_leaves_absent_cells_empty(tmp_path, capsys):
    a = write_tmp_profile(tmp_path, art_profile("12"), "a.profile.json")
    b = write_tmp_profile(
        tmp_path, art_profile("13", Object=None, Class=None), "b.profile.json"
    )
    assert run(["score", a, b, "--scope", "default", "--format", "csv"]) == 0
    rows = dict(
        line.split(",", 1)
        for line in capsys.readouterr().out.strip().splitlines()[1:]
    )
    assert rows["Object"] == ""
    assert rows["Runtime"] != ""


# ------------------------------------------------------------------- usage

def test_unknown_command_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2


def test_unknown_flag_is_usage_error(capsys):
    assert run(["diff", "a", "b", "--bogus"]) == 2


def test_missing_repo_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("STRUCTDRIFT_REPO", raising=False)
    assert run(["index"]) == 2


def test_sequence_too_short_is_usage_error(tmp_path, capsys):
    a = write_tmp_profile(tmp_path, art_profile("9"), "a.profile.json")
    assert run(["score", a]) == 2


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0


@pytest.mark.parametrize("place", ["before", "between", "after"])
@pytest.mark.parametrize("command, option", [
    (["timeline", "Runtime"], ["--member", "heap_"]),
    (["score"], ["--scope", "default"]),
], ids=["timeline-member", "score-scope"])
def test_option_may_come_before_between_or_after_the_files(tmp_path, capsys, command,
                                                           option, place):
    a, b = (write_tmp_profile(tmp_path, art_profile(v), f"{v}.profile.json")
            for v in ("9", "10"))
    argv = {"before": option + [a, b], "between": [a] + option + [b],
            "after": [a, b] + option}[place]
    assert run(command + argv) == 0
    out = capsys.readouterr().out
    assert run(command + [a, b]) == 0
    assert out != capsys.readouterr().out  # the option took effect
    assert run(command + [a, b] + option) == 0
    assert out == capsys.readouterr().out


def test_unexpected_exception_is_internal_error(art_repo, capsys, monkeypatch):
    import structdrift.cli as cli

    def boom(*args, **kwargs):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "index_repository", boom)
    assert run(["index", "--repo", str(art_repo)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "RuntimeError" in err


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("outcome", ["returns", "raises"])
def test_main_turns_the_collector_off_and_restores_it(monkeypatch, collecting, outcome):
    seen = []

    def fake_run(argv):
        seen.append(gc.isenabled())
        if outcome == "raises":
            raise KeyboardInterrupt
        return 0

    monkeypatch.setattr(cli, "run", fake_run)
    monkeypatch.setattr(sys, "argv", ["structdrift", "index"])
    expected = KeyboardInterrupt if outcome == "raises" else SystemExit
    was_collecting = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        with pytest.raises(expected):
            cli.main()
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was_collecting else gc.disable)()
    assert seen == [False]


_REPORT_MODULES = ("analytics", "diff", "watch", "render")
_EXTRACTOR_MODULES = ("extract", "dwarf", "elf")
_PROFILES = FIXTURES / "profiles"


def _quiet_run(*argv):
    """Script lines running the CLI on argv, with its report discarded."""
    return ["import contextlib, io, structdrift.cli",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    assert structdrift.cli.run({list(argv)!r}) == 0"]


# case -> (script lines, structdrift submodules they must not load; None: any)
_IMPORT_BOUNDARIES = {
    "package": (["import structdrift"], None),
    "cli": (["import structdrift.cli"], _REPORT_MODULES + _EXTRACTOR_MODULES),
    "extract": (_quiet_run("extract", str(fixture_path("layouts-dwarf5-64.so"))),
                ("analytics", "diff", "watch")),
    "index": (_quiet_run("index", "--repo", str(_PROFILES)), ("analytics", "diff")),
    "chains": (_quiet_run("chains", str(_PROFILES / "9" / "x86_64" / "libart.profile.json"),
                          str(_PROFILES / "10" / "x86_64" / "libart.profile.json")),
               ("analytics", "diff")),
    "score": (_quiet_run("score", "--repo", str(_PROFILES), "--arch", "x86_64"),
              _EXTRACTOR_MODULES),
    # Lazy loading turns a broken export into an error at first use; use them all.
    "exports": (["import structdrift",
                 "for name in set(structdrift.__all__) - {'__version__'}:",
                 "    assert getattr(structdrift, name).__name__ == name, name",
                 "namespace = {}",
                 "exec('from structdrift import *', namespace)",
                 "assert set(structdrift.__all__) <= set(namespace)"], ()),
}


@pytest.mark.parametrize("case", sorted(_IMPORT_BOUNDARIES))
def test_commands_load_only_what_they_run(case):
    # Run in a fresh interpreter: this one has loaded every module already.
    lines, forbidden = _IMPORT_BOUNDARIES[case]
    script = "\n".join(["import sys", *lines, "print(*sorted(n for n in sys.modules"
                         " if n.startswith('structdrift.')))"])
    loaded = set(_fresh_interpreter(script).split())
    if forbidden is None:
        assert not loaded
    else:
        assert not loaded & {f"structdrift.{m}" for m in forbidden}, loaded


def _fresh_interpreter(script):
    """Standard output of `script` run by a new interpreter on this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_cli_and_extractor_do_not_import_dataclasses():
    script = ("import sys, structdrift.cli, structdrift.extract; "
              "print('dataclasses' in sys.modules)")
    assert _fresh_interpreter(script) == "False\n"


def _report_of_kind(kind: str):
    import structdrift as sd

    seq = art_sequence()
    chains = sd.default_chains()
    return {
        "Profile": lambda: seq[0],
        "DiffReport": lambda: sd.diff_profiles(seq[0], seq[1]),
        "ImpactMatrix": lambda: sd.impact_matrix(seq),
        "TimelineReport": lambda: sd.member_offset_timeline(seq, "Runtime", "thread_list_"),
        "VolatilityStats": lambda: sd.volatility_stats(seq),
        "TransitionTable": lambda: sd.aggregate_transitions(seq),
        "CapabilityAssessment": lambda: sd.assess_capabilities(seq, chains),
        "RepositoryIndex": lambda: sd.RepositoryIndex(
            {("9", "x86_64", "libart"): Path("repo/9/x86_64/libart.profile.json")},
            [(Path("repo/10/x86_64/libart.profile.json"), "broken")]),
        "StatsReport": lambda: sd.StatsReport([sd.binary_stats(seq[0])]),
        "ChainReports": lambda: sd.ChainReports(
            "9", [sd.resolve_chain(seq[0], chain) for chain in chains]),
    }[kind]()


CSV_KINDS = {"ImpactMatrix", "TimelineReport", "TransitionTable"}


@pytest.mark.parametrize("fmt", ["json", "table", "csv", "yaml"])
@pytest.mark.parametrize("kind", sorted(_RENDERERS))
def test_every_report_kind_renders_or_refuses_each_format(kind, fmt):
    report = _report_of_kind(kind)
    assert type(report).__name__ == kind
    if fmt in ("json", "table") or fmt == "csv" and kind in CSV_KINDS:
        text = render_report(report, fmt)
        assert text.endswith("\n") and text.strip()
        if fmt == "json":
            json.loads(text)
    else:
        with pytest.raises(UnsupportedFormatError) as refused:
            render_report(report, fmt)
        assert repr(fmt) in str(refused.value) and kind in str(refused.value)


# ------------------------------------------------------------ end to end

def test_binary_to_analysis_pipeline(tmp_path, capsys):
    # Two real binaries built from evolved sources, driven through the
    # whole workflow: extract -> diff -> score -> timeline -> volatility.
    old_path = tmp_path / "9.profile.json"
    new_path = tmp_path / "10.profile.json"
    assert run(["extract", str(fixture_path("triple-dwarf4-64.so")),
                "--version", "9", "--out", str(old_path)]) == 0
    assert run(["extract", str(fixture_path("triple2-dwarf4-64.so")),
                "--version", "10", "--out", str(new_path)]) == 0

    assert run(["diff", str(old_path), str(new_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    modified = {d["name"]: d for d in doc["modified"]}
    assert set(modified) == {"LinkNode", "Ring"}
    assert doc["unchanged_count"] == 1  # Registry kept its layout
    assert [m["name"] for m in modified["LinkNode"]["member_additions"]] \
        == ["generation"]
    assert [m["name"] for m in modified["Ring"]["member_removals"]] == ["count"]
    assert modified["Ring"]["offset_changes"] == [
        {"member": "capacity", "old": 28, "new": 24}
    ]

    assert run(["score", str(old_path), str(new_path), "--format", "csv"]) == 0
    rows = dict(
        line.split(",", 1)
        for line in capsys.readouterr().out.strip().splitlines()[1:]
    )
    assert float(rows["Ring"]) > float(rows["Registry"]) == 0.0

    assert run(["timeline", "LinkNode", str(old_path), str(new_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [p["value"] for p in doc["points"]] == [24, 24]

    assert run(["volatility", str(old_path), str(new_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    # Survivors: LinkNode 3, Ring 2 (head, capacity), Registry 3; only
    # capacity moved.
    assert doc["total_surviving"] == 8
    assert doc["total_moved"] == 1


# ------------------------------------------------------------------- fuzz

def test_malformed_inputs_never_crash(tmp_path, capsys):
    rng = random.Random(999)
    elf_prefix = fixture_path("layouts-dwarf4-64.so").read_bytes()[:64]
    good = write_tmp_profile(tmp_path, art_profile("9"), "good.profile.json")
    payloads = []
    for i in range(60):
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 400)))
        if i % 3 == 0:
            payload = elf_prefix[: rng.randrange(0, 64)] + payload
        if i % 5 == 0:
            payload = b'{"schema": "structdrift-profile/1"' + payload
        payloads.append(payload)
    # Nested deeper than the JSON parser's recursion limit.
    payloads.append(b"[" * 200000)
    for i, payload in enumerate(payloads):
        bad = tmp_path / f"bad{i}"
        bad.write_bytes(payload)
        for argv in (
            ["extract", str(bad)],
            ["diff", str(bad), str(bad)],
            ["stats", str(bad)],
            ["chains", str(bad)],
            ["diff", good, good, "--scope", str(bad)],
            ["chains", good, "--chains", str(bad)],
        ):
            code = run(argv)
            capsys.readouterr()
            assert code == 3, (argv, code)


# ----------------------------------------------------- JSON mutation gate
#
# Every JSON input a command reads, mutated byte by byte and token by token:
# each run must end in exit 0 or 3, with at most its one `structdrift:` line on
# stderr. The JSON twin of test_extract.test_mutated_fixture_never_escapes.

_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|\w+|\s+|.')
_JSON_POOL = ['"', "{", "}", "[", "]", ",", ":", "0", "-1", "1.5", "1e400", "1" + "0" * 30,
              "true", "false", "null", '""', '"\\ud800"', '"\\u0000"', '"é"', "[]", "{}"]


def _json_mutations(text: str, seed: str, cases: int):
    """Seeded copies of `text` as bytes: odd cases with 1-4 bytes changed, even cases
    with 1-3 tokens deleted, repeated, swapped or replaced from _JSON_POOL."""
    rng = random.Random(seed)
    tokens = _JSON_TOKEN.findall(text)
    for case in range(cases):
        if case % 2:
            data = bytearray(text.encode())
            for _ in range(rng.randint(1, 4)):
                data[rng.randrange(len(data))] = rng.randrange(256)
            yield bytes(data)
            continue
        mutated = list(tokens)
        for _ in range(rng.randint(1, 3)):
            i, j = rng.randrange(len(mutated)), rng.randrange(len(mutated))
            operation = rng.randrange(4)
            if operation == 0:
                del mutated[i]
            elif operation == 1:
                mutated.insert(i, mutated[j])
            elif operation == 2:
                mutated[i], mutated[j] = mutated[j], mutated[i]
            else:
                mutated[i] = rng.choice(_JSON_POOL)
        yield "".join(mutated).encode()


_WATCHLIST = json.dumps({"schema": "structdrift-watchlist/1", "name": "mine",
                         "structures": ["Runtime", "Thread"]})
_CHAIN_SPEC = json.dumps({"schema": "structdrift-chains/1", "chains": [{
    "id": "heap", "capability": "heap_analysis",
    "applicable_versions": {"min": "9", "max": "14"},
    "steps": [{"structure": "Runtime", "member": "heap_"}]}]})
_DEEP = "[" * 200000 + "]" * 200000
_DIGITS = "9" * 5000  # past the digit limit of Python's int from text


def _json_input(tmp_repo, kind):
    """(text, a value site, the input's path, the command lines reading it) of `kind`."""
    p9, p10 = (str(tmp_repo(art_profile(version))) for version in ("9", "10"))
    root, other = str(tmp_repo.root), str(tmp_repo.root / "input.json")
    return {
        "profile": (Path(p10).read_text(), '"size": 2048', p10, [
            ["diff", p9, p10],
            ["index", "--repo", root],
            ["score", "--repo", root, "--arch", "x86_64"]]),
        # Two versions: one profile twice is a usage error (exit 2) of its own.
        "watchlist": (_WATCHLIST, '"name": "mine"', other,
                      [["score", p9, p10, "--scope", other]]),
        "chain-spec": (_CHAIN_SPEC, '"min": "9"', other, [["chains", p9, "--chains", other]]),
    }[kind]


def _named_json_cases(text: str, site: str):
    key = site.split(":")[0]
    return {
        "digit-limit": text.replace(site, f"{key}: {_DIGITS}", 1).encode(),
        "deep-nesting": text.replace(site, f"{key}: {_DEEP}", 1).encode(),
        "lone-surrogate": text.replace('"Runtime"', '"\\ud800"', 1).encode(),
        "utf8-bom": b"\xef\xbb\xbf" + text.encode(),
        "invalid-utf8": text.replace('"Runtime"', '"Run\udcfftime"', 1).encode(
            "utf-8", "surrogateescape"),
    }


def _assert_exit_0_or_3(argv, capsys, case):
    code = run(argv)
    out, err = capsys.readouterr()
    assert code in (0, 3), (case, argv, code, err)
    if code == 0:
        assert err == "", (case, argv, err)
    else:
        assert err.startswith("structdrift: ") and err.count("\n") == 1, (case, argv, err)
        assert "internal error" not in err, (case, argv, err)
    return code, out, err


@pytest.mark.parametrize("kind", ["profile", "watchlist", "chain-spec"])
def test_mutated_json_inputs_exit_0_or_3(tmp_repo, capsys, kind):
    text, _, target, commands = _json_input(tmp_repo, kind)
    for case, data in enumerate(_json_mutations(text, f"{kind}-2024", 120)):
        Path(target).write_bytes(data)
        for argv in commands:
            _assert_exit_0_or_3(argv, capsys, case)


@pytest.mark.parametrize("threshold", [SERIAL, 0], ids=["serial", "forked"])
@pytest.mark.parametrize("name", ["digit-limit", "deep-nesting", "lone-surrogate", "utf8-bom",
                                  "invalid-utf8"])
@pytest.mark.parametrize("kind", ["profile", "watchlist", "chain-spec"])
def test_named_json_damage_exits_3(tmp_repo, capsys, monkeypatch, two_cpus, kind, name,
                                   threshold):
    # A repository lists the damaged profile under skipped; every other command refuses it.
    monkeypatch.setattr(profile_module, "PARALLEL_READ_BYTES", threshold)
    text, site, target, commands = _json_input(tmp_repo, kind)
    Path(target).write_bytes(_named_json_cases(text, site)[name])
    for argv in commands:
        code, out, _ = _assert_exit_0_or_3(argv, capsys, name)
        if argv[0] == "index":
            assert code == 0
            assert [entry["path"] for entry in json.loads(out)["skipped"]] == [target]
        else:
            assert code == 3, argv


_LABELS = {"superscript": "²", "digit-run": _DIGITS, "arabic-indic": "١٠"}
_LABEL_KEYS = {"profile": '"platform_version": "10"', "chain-spec": '"min": "9"'}


@pytest.mark.parametrize("threshold", [SERIAL, 0], ids=["serial", "forked"])
@pytest.mark.parametrize("label", sorted(_LABELS))
@pytest.mark.parametrize("kind", sorted(_LABEL_KEYS))
def test_any_version_label_exits_0_or_3(tmp_repo, capsys, monkeypatch, two_cpus, kind, label,
                                        threshold):
    # A version is a label: "²" is a digit but not a decimal one, and a run of
    # 5,000 digits is past int()'s limit; neither may end in a usage error.
    monkeypatch.setattr(profile_module, "PARALLEL_READ_BYTES", threshold)
    text, _, target, commands = _json_input(tmp_repo, kind)
    site = _LABEL_KEYS[kind]
    Path(target).write_text(text.replace(site, f'{site.split(":")[0]}: "{_LABELS[label]}"'))
    if kind == "profile":  # explicitly named profiles are sorted by version
        commands.append(["score", commands[0][1], target])
    for argv in commands:
        _assert_exit_0_or_3(argv, capsys, label)


@pytest.mark.parametrize("threshold", [SERIAL, 0], ids=["serial", "forked"])
@pytest.mark.parametrize("kind", ["profile", "watchlist", "chain-spec"])
def test_json_error_in_a_named_file_names_it_first(tmp_repo, capsys, monkeypatch, two_cpus,
                                                   kind, threshold):
    monkeypatch.setattr(profile_module, "PARALLEL_READ_BYTES", threshold)
    _, _, target, commands = _json_input(tmp_repo, kind)
    Path(target).write_text("{broken")
    reason = ("not valid JSON: Expecting property name enclosed in double quotes: "
              "line 1 column 2 (char 1)")
    if kind == "profile":
        commands.append(["stats", target])
    for argv in commands:
        code, out, err = _assert_exit_0_or_3(argv, capsys, kind)
        if argv[0] == "index":  # the entry names the path; its reason does not again
            assert json.loads(out)["skipped"] == [{"path": target, "reason": reason}]
        elif "--repo" in argv:
            assert err == f"structdrift: x86_64 sequence under {tmp_repo.root} has unusable " \
                          f"profiles: {target}: {reason}\n"
        else:
            assert err == f"structdrift: {target}: {reason}\n", argv
