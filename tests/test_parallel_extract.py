"""Forked extraction against the serial walk.

Every test sees two usable CPUs and no CPU quota, so the forked path runs
the same on any machine. The fixtures are far below PARALLEL_EXTRACT_BYTES,
so a test sets it to 0 to put them on the forked path and compares with a
serial run (the constant set out of reach).
"""

import io
import os
import signal
import threading

import pytest
from hypothesis import HealthCheck, given, settings

import structdrift.extract as extract_module
import structdrift.profile as profile_module
from structdrift import MalformedDwarfError, StructDriftError, extract_profile_with_meta
from structdrift.cli import run
from structdrift.profile import dumps_profile

from conftest import FIXTURES
from test_extract import (
    FUZZ_CASES,
    HOSTILE_UNITS,
    MERGE_ABBREV,
    _merge_units,
    _type_die,
    _with_debug_sections,
    check_merge_against_oracle,
    mutations,
)

SERIAL = 10 ** 12
BINARIES = sorted(p.name for p in FIXTURES.iterdir() if p.suffix in (".so", ".o"))

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(profile_module, "_cpu_quota", lambda: float("inf"))


@pytest.fixture
def forks(monkeypatch):
    """Count the os.fork calls made in this process."""
    calls = []
    fork = os.fork

    def counting_fork():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


@pytest.fixture
def forked(monkeypatch):
    monkeypatch.setattr(extract_module, "PARALLEL_EXTRACT_BYTES", 0)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


def _extract(path):
    """The canonical profile text and the ExtractionMeta, or the error raised."""
    try:
        profile, meta = extract_profile_with_meta(path, "9", architecture="x86_64")
    except StructDriftError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)
    return dumps_profile(profile), meta


def serial_and_forked(monkeypatch, call):
    """call() with the serial walk, then with the forked one."""
    results = []
    for threshold in (SERIAL, 0):
        monkeypatch.setattr(extract_module, "PARALLEL_EXTRACT_BYTES", threshold)
        results.append(call())
    return results


def _unit(die: bytes, abbrev_offset: int = 0) -> bytes:
    """One DWARF 4 unit of 8-byte addresses holding `die`."""
    body = ((4).to_bytes(2, "little") + abbrev_offset.to_bytes(4, "little") + bytes([8])
            + die)
    return len(body).to_bytes(4, "little") + body


def _crafted(directory, units, abbrev=MERGE_ABBREV):
    """A binary whose units hold the given _type_die args, or the bytes of a unit."""
    info = b"".join(u if isinstance(u, bytes) else _unit(b"".join(_type_die(*t) for t in u))
                    for u in units)
    return _with_debug_sections(directory, info, abbrev)


THREAD = ("Thread", 16, [("id", 0), ("state", 8)])
CLASH_SMALL = ("Clash", 8, [("a", 0)])
CLASH_LARGE = ("Clash", 16, [("a", 0), ("b", 8)])
CRAFTED = {
    "two units": [[THREAD, CLASH_SMALL], [THREAD, CLASH_LARGE, ("Ghost", None, [], True)]],
    "three units": [[CLASH_LARGE], [THREAD], [CLASH_SMALL, ("Late", 8, [("x", 0)])]],
    # Equal member count and size: the shape of the earlier unit, in the
    # caller's half, wins.
    "tie across halves": [[], [("Even", 8, [("a", 0)])], [("Even", 8, [("b", 0)])]],
}


@pytest.mark.parametrize("name", BINARIES)
def test_fixture_extracts_identically_forked(monkeypatch, forks, name):
    serial, forked = serial_and_forked(monkeypatch, lambda: _extract(FIXTURES / name))
    assert forked == serial
    units = serial[1].compilation_unit_count if type(serial[0]) is str else 0
    assert len(forks) == (units > 1)
    assert_no_child_left()


@pytest.mark.parametrize("case", sorted(CRAFTED))
def test_crafted_units_extract_identically_forked(tmp_path, monkeypatch, forks, case):
    path = _crafted(tmp_path, CRAFTED[case])
    serial, forked = serial_and_forked(monkeypatch, lambda: _extract(path))
    assert forked == serial
    assert serial[1].compilation_unit_count == len(CRAFTED[case])
    assert len(forks) == 1
    assert_no_child_left()


def test_worker_output_larger_than_a_pipe(tmp_path, monkeypatch, forks):
    units = [[(f"S{u}{i:04d}", 16, [("m", 8)]) for i in range(3000)] for u in range(2)]
    path = _crafted(tmp_path, units)
    serial, forked = serial_and_forked(monkeypatch, lambda: _extract(path))
    assert forked == serial
    assert len(forks) == 1
    assert_no_child_left()


# Where the hostile unit sits among three good ones.
PLACES = {"first": (0,), "last": (3,), "first and last": (0, 3)}


@pytest.mark.parametrize("place", sorted(PLACES))
@pytest.mark.parametrize("case", sorted(HOSTILE_UNITS))
def test_hostile_unit_fails_as_in_the_serial_walk(tmp_path, monkeypatch, capsys, forks,
                                                  case, place):
    hostile_abbrev, die = HOSTILE_UNITS[case]
    units = [_unit(die, len(MERGE_ABBREV)) if i in PLACES[place] else [THREAD, CLASH_SMALL]
             for i in range(4)]
    path = _crafted(tmp_path, units, MERGE_ABBREV + hostile_abbrev)
    serial, forked = serial_and_forked(monkeypatch, lambda: _extract(path))
    assert forked == serial
    assert len(forks) == 1
    if 3 in PLACES[place]:  # some cases fail only where the section ends
        assert serial[0] is MalformedDwarfError and ".debug_info offset" in serial[1]

    def cli():
        return run(["extract", str(path)]), capsys.readouterr()

    serial, forked = serial_and_forked(monkeypatch, cli)
    assert forked == serial
    assert serial[0] in ((3,) if 3 in PLACES[place] else (0, 3))
    assert_no_child_left()


@pytest.mark.parametrize("second", ["good", "hostile"])
def test_header_error_falls_back_to_the_serial_walk(tmp_path, monkeypatch, forks, second):
    # Two bytes where a third unit's length should be: the serial walk meets
    # that header only after walking the first two units, so a hostile
    # second unit fails first.
    hostile_abbrev, die = HOSTILE_UNITS["unknown-form"]
    units = [[THREAD], _unit(die, len(MERGE_ABBREV)) if second == "hostile" else [CLASH_SMALL],
             b"\x05\x00"]
    path = _crafted(tmp_path, units, MERGE_ABBREV + hostile_abbrev)
    serial, forked = serial_and_forked(monkeypatch, lambda: _extract(path))
    assert serial[0] is MalformedDwarfError
    assert ("unknown" in serial[1]) == (second == "hostile")
    assert forked == serial
    assert forks == []


def _in_worker(parent: int, action):
    """Wrap extract._walk so that `action` runs first in a forked worker."""
    walk = extract_module._walk

    def wrapped(*args):
        if os.getpid() != parent:
            action()
        return walk(*args)

    return wrapped


def _raise():
    raise RuntimeError("worker failed")


WORKER_FAILURES = {
    "raises": _raise,
    "exits": lambda: os._exit(1),
    "is killed": lambda: os.kill(os.getpid(), signal.SIGKILL),
}


@pytest.mark.parametrize("failure", sorted(WORKER_FAILURES))
@pytest.mark.parametrize("case", ["three units", "hostile last"])
def test_failed_worker_falls_back_to_the_serial_walk(tmp_path, monkeypatch, forks, failure,
                                                     case):
    hostile_abbrev, die = HOSTILE_UNITS["skip-run-past-end"]
    units = CRAFTED["three units"] + ([_unit(die, len(MERGE_ABBREV))] if "hostile" in case
                                      else [])
    path = _crafted(tmp_path, units, MERGE_ABBREV + hostile_abbrev)
    serial = _extract(path)
    parent, fds = os.getpid(), open_fds()
    monkeypatch.setattr(extract_module, "PARALLEL_EXTRACT_BYTES", 0)
    monkeypatch.setattr(extract_module, "_walk", _in_worker(parent, WORKER_FAILURES[failure]))
    try:
        forked = _extract(path)
    finally:
        if os.getpid() != parent:  # a worker came back into the caller's code
            (tmp_path / "returned").touch()
            os._exit(1)
    assert not (tmp_path / "returned").exists()
    assert forked == serial
    assert len(forks) == 1
    assert_no_child_left()
    assert open_fds() == fds


def test_worker_that_cannot_send_falls_back(tmp_path, monkeypatch, forks):
    path = _crafted(tmp_path, CRAFTED["three units"])
    serial = _extract(path)
    parent, dump, sends = os.getpid(), profile_module.marshal.dump, tmp_path / "sends"

    def failing_dump(value, file):
        if os.getpid() != parent:
            sends.touch()
            raise ValueError("unmarshallable")
        return dump(value, file)

    monkeypatch.setattr(extract_module, "PARALLEL_EXTRACT_BYTES", 0)
    monkeypatch.setattr(profile_module.marshal, "dump", failing_dump)
    assert _extract(path) == serial
    assert sends.exists() and len(forks) == 1
    assert_no_child_left()


def test_failed_fork_walks_serially(tmp_path, monkeypatch):
    path = _crafted(tmp_path, CRAFTED["three units"])
    serial, fds = _extract(path), open_fds()

    def no_fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(extract_module, "PARALLEL_EXTRACT_BYTES", 0)
    monkeypatch.setattr(os, "fork", no_fork)
    assert _extract(path) == serial
    assert open_fds() == fds


def test_interrupted_caller_still_waits_for_the_worker(tmp_path, monkeypatch, forks, forked):
    path = _crafted(tmp_path, CRAFTED["three units"])
    parent, walk, fds = os.getpid(), extract_module._walk, open_fds()

    def interrupted_walk(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return walk(*args)

    monkeypatch.setattr(extract_module, "_walk", interrupted_walk)
    with pytest.raises(KeyboardInterrupt):
        _extract(path)
    assert len(forks) == 1
    assert_no_child_left()
    assert open_fds() == fds


@pytest.mark.parametrize("name", BINARIES)
def test_small_binary_never_forks(monkeypatch, forks, name):
    # The default threshold is far above every fixture.
    assert max((FIXTURES / n).stat().st_size for n in BINARIES) < (
        extract_module.PARALLEL_EXTRACT_BYTES)
    _extract(FIXTURES / name)
    assert forks == []


@pytest.mark.parametrize("cpus, quota", [(1, float("inf")), (2, 1.5), (64, 1.0)])
def test_one_cpu_never_forks(tmp_path, monkeypatch, forks, forked, cpus, quota):
    path = _crafted(tmp_path, CRAFTED["three units"])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(profile_module, "_cpu_quota", lambda: quota)
    serial = _extract(path)
    assert forks == []
    monkeypatch.setattr(profile_module, "_cpu_quota", lambda: 2.0)
    assert _extract(path) == serial
    assert len(forks) == (cpus > 1)
    assert_no_child_left()


def test_threaded_caller_never_forks(tmp_path, monkeypatch, forks, forked):
    path = _crafted(tmp_path, CRAFTED["three units"])
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        _extract(path)
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert forks == []


@pytest.mark.parametrize("text, cpus", [
    ("max 100000\n", float("inf")),
    ("150000 100000\n", 1.5),
    ("200000 100000\n", 2.0),
    (None, float("inf")),
], ids=["max", "1.5 CPUs", "2 CPUs", "no file"])
def test_cpu_quota_reads_the_cgroup_v2_limit(monkeypatch, text, cpus):
    # cgroup v1 hosts have no cpu.max, so the file is simulated here.
    def fake_open(file, *args, **kwargs):
        assert file == "/sys/fs/cgroup/cpu.max"
        if text is None:
            raise FileNotFoundError(file)
        return io.StringIO(text)

    monkeypatch.undo()  # the real reader, not the autouse stand-in
    monkeypatch.setattr(profile_module, "open", fake_open, raising=False)
    assert profile_module._cpu_quota() == cpus


@pytest.fixture(scope="module")
def merge_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("merge")


# The autouse and `forked` patches hold for every example alike.
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(units=_merge_units())
def test_forked_merge_matches_merging_every_definition(merge_dir, forked, units):
    check_merge_against_oracle(merge_dir, units)


@pytest.mark.parametrize("region", [".debug_info", ".debug_abbrev"])
def test_mutated_fixture_fails_as_in_the_serial_walk(tmp_path, monkeypatch, capsys, forks,
                                                     region):
    target = tmp_path / "mutated.so"
    for case, data in enumerate(mutations("merge-two-cu.so", region, FUZZ_CASES // 2)):
        target.write_bytes(data)

        def cli():
            return run(["extract", str(target)]), capsys.readouterr()

        serial, forked = serial_and_forked(monkeypatch, cli)
        assert serial[0] in (0, 3), (region, case, serial)
        assert forked == serial, (region, case)
    assert forks
    assert_no_child_left()
