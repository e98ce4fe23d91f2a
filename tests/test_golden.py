"""Byte-exact golden outputs for every command x format pair the CLI accepts.

Inputs are built in a scratch directory from `art_sequence()` and a
fixture binary, and every path handed to the CLI is relative to that
directory, so table column widths do not depend on where it lives.

Regenerate the files with `PYTHONPATH=src python tests/test_golden.py`
after a deliberate output change, and review the diff.
"""

import contextlib
import io
import os
import shutil
import tempfile
from pathlib import Path

import pytest

from structdrift import write_profile
from structdrift.cli import run

from conftest import art_sequence, fixture_path

GOLDEN = Path(__file__).parent / "golden"
PLACEHOLDER = "<tmp>"

REPO = ["--repo", "repo", "--arch", "x86_64"]
SEQUENCE = [
    f"repo/{v}/x86_64/libart.profile.json" for v in ("9", "10", "11", "12", "13", "14")
]

# golden stem -> argv without --format
COMMANDS = {
    "extract": ["extract", "lib.so", "--version", "9"],
    "diff": ["diff", SEQUENCE[1], SEQUENCE[4]],
    "stats": ["stats", "lib.so", SEQUENCE[0]],
    "volatility": ["volatility", *REPO, "--scope", "default"],
    "index": ["index", "--repo", "repo"],
    "score": ["score", *REPO],
    "aggregate": ["aggregate", *REPO, "--scope", "default"],
    "timeline-size": ["timeline", "Object", *REPO],
    "timeline-member": ["timeline", "Runtime", "--member", "thread_list_", *REPO],
    "chains-one": ["chains", SEQUENCE[0]],
    "chains-all": ["chains", *SEQUENCE],
}
CSV_COMMANDS = {"score", "aggregate", "timeline-size", "timeline-member"}

CASES = [
    (stem, fmt)
    for stem in COMMANDS
    for fmt in (("json", "csv", "table") if stem in CSV_COMMANDS else ("json", "table"))
]


def build_inputs(workdir: Path) -> None:
    shutil.copyfile(fixture_path("layouts-dwarf4-64.so"), workdir / "lib.so")
    for profile in art_sequence():
        meta = profile.meta
        directory = workdir / "repo" / meta.platform_version / meta.architecture
        directory.mkdir(parents=True)
        write_profile(profile, directory / "libart.profile.json")


def render_case(workdir: Path, stem: str, fmt: str) -> str:
    """Run one command inside `workdir` and return its stdout."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = run(COMMANDS[stem] + ["--format", fmt])
    finally:
        os.chdir(cwd)
    assert code == 0, (stem, fmt, code)
    return out.getvalue().replace(str(workdir), PLACEHOLDER)


@pytest.mark.parametrize("stem,fmt", CASES, ids=[f"{s}.{f}" for s, f in CASES])
def test_output_matches_golden(tmp_path, stem, fmt):
    build_inputs(tmp_path)
    expected = (GOLDEN / f"{stem}.{fmt}").read_text(encoding="utf-8")
    assert render_case(tmp_path, stem, fmt) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        build_inputs(Path(scratch))
        for stem, fmt in CASES:
            text = render_case(Path(scratch), stem, fmt)
            (GOLDEN / f"{stem}.{fmt}").write_text(text, encoding="utf-8")
    print(f"wrote {len(CASES)} files to {GOLDEN}")
