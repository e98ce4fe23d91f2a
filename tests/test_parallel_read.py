"""The forked profile reader against the serial one.

The fixture profiles are far below PARALLEL_READ_BYTES, so each test sets
it to 0 to put them on the forked path, and compares with a serial run
(the constant set out of reach) or with read_profile itself. Every test
sees two usable CPUs, so the forked path runs the same on any machine.
"""

import json
import os
import signal
import threading
from pathlib import Path

import pytest

import structdrift.profile as profile_module
from structdrift import read_profile, read_profiles, write_profile
from structdrift.cli import run

from conftest import art_profile, art_sequence, make_profile

SERIAL = 10 ** 12
VERSIONS = [p.meta.platform_version for p in art_sequence()]

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def forks(monkeypatch):
    """Count the os.fork calls the reader makes in this process."""
    calls = []
    fork = os.fork

    def counting_fork():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


def _path(root: Path, version: str, stem: str = "libart") -> Path:
    return root / version / "x86_64" / f"{stem}.profile.json"


def _break_nothing(root: Path) -> None:
    pass


def _break_json(root: Path) -> None:
    for version in ("10", "14"):
        _path(root, version).write_text("{broken\n")


def _misplace(root: Path) -> None:
    for version in ("10", "14"):
        write_profile(art_profile("11"), _path(root, version))


def _add_stem(root: Path) -> None:
    write_profile(art_profile("9"), _path(root, "9", "libcxx"))


def _not_utf8(root: Path) -> None:
    for version in ("10", "14"):
        _path(root, version).write_bytes(b"\xff\xfe{}")


def _not_canonical(root: Path) -> None:
    # Valid, but indented four spaces: read by the reference reader.
    for version in ("10", "14"):
        path = _path(root, version)
        path.write_text(json.dumps(json.loads(path.read_text()), indent=4))


def _too_deep(root: Path) -> None:
    for version in ("10", "14"):
        _path(root, version).write_text("[" * 200000)


REPOSITORIES = [_break_nothing, _break_json, _misplace, _add_stem, _not_utf8,
                _not_canonical, _too_deep]


def _commands(root: Path):
    repo = ["--repo", str(root), "--arch", "x86_64"]
    files = [str(_path(root, v)) for v in VERSIONS]
    yield ["index", "--repo", str(root)]
    for sequence in (repo, files):
        for command in (["score"], ["aggregate"], ["volatility"], ["timeline", "Runtime"]):
            yield command + sequence
        yield ["timeline", "Runtime"] + sequence + ["--member", "heap_"]
    yield ["chains"] + files
    yield ["diff", files[0], files[-1]]
    yield ["diff", files[1], files[-1]]


@pytest.mark.parametrize("damage", REPOSITORIES, ids=lambda f: f.__name__.lstrip("_"))
def test_forked_commands_match_serial(tmp_repo, monkeypatch, capsys, forks, damage):
    for profile in art_sequence():
        tmp_repo(profile)
    damage(tmp_repo.root)
    for argv in _commands(tmp_repo.root):
        results = {}
        for threshold in (SERIAL, 0):
            monkeypatch.setattr(profile_module, "PARALLEL_READ_BYTES", threshold)
            del forks[:]
            code = run(argv)
            out, err = capsys.readouterr()
            results[threshold] = (code, out, err)
            assert len(forks) == (0 if threshold else 1), argv
        assert results[0] == results[SERIAL], argv
        assert_no_child_left()


def _profile_files(tmp_path, count=6):
    paths = []
    for i, profile in enumerate(art_sequence()[:count]):
        paths.append(tmp_path / f"{i}.profile.json")
        write_profile(profile, paths[-1])
    return paths


@pytest.mark.parametrize("cpus", [1, 2, 4, 64])
def test_reader_forks_one_worker_at_most(tmp_path, monkeypatch, forks, cpus):
    monkeypatch.setattr(profile_module, "PARALLEL_READ_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    for count in (1, 2, 3, 6):
        paths = _profile_files(tmp_path, count)
        del forks[:]
        assert read_profiles(paths) == [read_profile(p) for p in paths]
        assert len(forks) == (cpus > 1 and count > 1)
    assert_no_child_left()


def test_worker_output_larger_than_a_pipe(tmp_path, monkeypatch, forks):
    # Each worker sends far more than a pipe holds, so it blocks until read.
    structures = {f"S{i:05d}": (64, [(f"m{j}", 8 * j) for j in range(8)]) for i in range(3000)}
    paths = []
    for version in ("9", "10"):
        paths.append(tmp_path / f"{version}.profile.json")
        write_profile(make_profile(version, structures), paths[-1])
    monkeypatch.setattr(profile_module, "PARALLEL_READ_BYTES", 0)
    assert read_profiles(paths) == [read_profile(p) for p in paths]
    assert len(forks) == 1
    assert_no_child_left()


def _in_worker(parent: int, action):
    """Wrap read_profile so that `action` runs in place of it in a forked worker."""
    read = profile_module.read_profile

    def wrapped(source):
        if os.getpid() != parent:
            action()
        return read(source)

    return wrapped


def _raise():
    raise RuntimeError("worker failed")


WORKER_FAILURES = {
    "raises": _raise,
    "exits": lambda: os._exit(1),
    "is killed": lambda: os.kill(os.getpid(), signal.SIGKILL),
}


@pytest.mark.parametrize("failure", sorted(WORKER_FAILURES))
def test_failed_worker_falls_back_to_serial_reads(tmp_path, monkeypatch, forks, failure):
    paths = _profile_files(tmp_path)
    serial = [read_profile(p) for p in paths]
    monkeypatch.setattr(profile_module, "PARALLEL_READ_BYTES", 0)
    monkeypatch.setattr(profile_module, "read_profile",
                        _in_worker(os.getpid(), WORKER_FAILURES[failure]))
    assert read_profiles(paths) == serial
    assert forks
    assert_no_child_left()


def test_worker_that_cannot_send_falls_back(tmp_path, monkeypatch, forks):
    paths = _profile_files(tmp_path)
    serial = [read_profile(p) for p in paths]
    parent, dumps = os.getpid(), profile_module.marshal.dumps

    def failing_dumps(value):
        if os.getpid() != parent:
            raise ValueError("unmarshallable")
        return dumps(value)

    monkeypatch.setattr(profile_module, "PARALLEL_READ_BYTES", 0)
    monkeypatch.setattr(profile_module.marshal, "dumps", failing_dumps)
    assert read_profiles(paths) == serial
    assert forks
    assert_no_child_left()


def test_failed_fork_reads_serially(tmp_path, monkeypatch):
    paths = _profile_files(tmp_path)
    serial, fds = [read_profile(p) for p in paths], open_fds()

    def no_fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(profile_module, "PARALLEL_READ_BYTES", 0)
    monkeypatch.setattr(os, "fork", no_fork)
    assert read_profiles(paths) == serial
    assert open_fds() == fds


def _interrupt():
    raise KeyboardInterrupt


def _interrupting_open(parent: int):
    """open, except that reading the worker's pipe in the caller is interrupted."""

    def wrapped(file, mode="r", *args, **kwargs):
        handle = open(file, mode, *args, **kwargs)
        if os.getpid() == parent and mode == "rb" and isinstance(file, int):
            handle.read = _interrupt
        return handle

    return wrapped


@pytest.mark.parametrize("step", ["own reads", "pipe read"])
def test_interrupted_caller_still_waits_for_the_worker(tmp_path, monkeypatch, forks, step):
    paths = _profile_files(tmp_path)
    parent, read, fds = os.getpid(), profile_module.read_profile, open_fds()

    def interrupted_read(source):
        if os.getpid() == parent:
            _interrupt()
        return read(source)

    monkeypatch.setattr(profile_module, "PARALLEL_READ_BYTES", 0)
    if step == "own reads":
        monkeypatch.setattr(profile_module, "read_profile", interrupted_read)
    else:
        monkeypatch.setattr(profile_module, "open", _interrupting_open(parent), raising=False)
    with pytest.raises(KeyboardInterrupt):
        read_profiles(paths)
    assert len(forks) == 1
    assert_no_child_left()
    assert open_fds() == fds


def test_threaded_caller_never_forks(tmp_path, monkeypatch):
    paths = _profile_files(tmp_path)

    def no_fork():
        raise AssertionError("forked with a second thread alive")

    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        monkeypatch.setattr(profile_module, "PARALLEL_READ_BYTES", 0)
        monkeypatch.setattr(os, "fork", no_fork)
        assert read_profiles(paths) == [read_profile(p) for p in paths]
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()


def test_forked_commands_read_each_profile_once(tmp_repo, tmp_path, monkeypatch, forks):
    for profile in art_sequence():
        tmp_repo(profile)
    art_repo = tmp_repo.root
    log = tmp_path / "reads.log"
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    read_text = profile_module.read_text

    def logging_read_text(source):
        os.write(fd, f"{os.getpid()} {source}\n".encode())
        return read_text(source)

    monkeypatch.setattr(profile_module, "PARALLEL_READ_BYTES", 0)
    monkeypatch.setattr(profile_module, "read_text", logging_read_text)
    repo = ["--repo", str(art_repo), "--arch", "x86_64"]
    files = sorted(str(p) for p in art_repo.rglob("*.profile.json"))
    try:
        for argv in (["index", "--repo", str(art_repo)], ["score", *repo], ["volatility", *repo],
                     ["chains", *files], ["diff", files[0], files[1]]):
            log.write_bytes(b"")
            del forks[:]
            assert run(argv) == 0
            reads = [line.split(" ", 1) for line in log.read_text().splitlines()]
            paths = sorted(Path(path) for _, path in reads)
            want = sorted(map(Path, files[:2] if argv[0] == "diff" else files))
            assert paths == want, argv
            assert {int(pid) for pid, _ in reads} - {os.getpid()}, argv  # a worker read some
            assert len(forks) == 1
    finally:
        os.close(fd)
    assert_no_child_left()
