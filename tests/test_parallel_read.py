"""The forked profile reader against the serial one.

The fixture profiles are far below PARALLEL_READ_BYTES, so each test sets
it to 0 to put them on the forked path, and compares with a serial run
(the constant set out of reach) or with read_profile itself. Every test
sees two usable CPUs and no CPU quota, so the forked path runs the same on
any machine.
"""

import json
import os
import signal
import threading
from pathlib import Path

import pytest

import structdrift.profile as profile_module
from structdrift import Profile, read_profile, read_profiles, read_sequence, write_profile
from structdrift.cli import run

from conftest import (SERIAL, art_profile, art_sequence, assert_no_child_left, make_profile,
                      open_fds)

VERSIONS = [p.meta.platform_version for p in art_sequence()]

pytestmark = [pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork"),
              pytest.mark.usefixtures("two_cpus")]


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


def _digit_limit(root: Path) -> None:
    # An integer longer than Python's int-from-text digit limit.
    for version in ("10", "14"):
        path = _path(root, version)
        path.write_text(path.read_text().replace('"size": 128', '"size": ' + "9" * 5000, 1))


# A structure that no command reports on, which is still validated: 10 is read by
# the calling process and 14 by the worker, in version order and in path order alike.
UNREPORTED = "Unreported"
UNREPORTED_ERROR = f"{UNREPORTED}.m: offset 8 outside size 4"


def _invalid_unreported(root: Path) -> None:
    for version in ("10", "14"):
        path = _path(root, version)
        doc = json.loads(path.read_text())
        structures = dict(doc["structures"], **{
            UNREPORTED: {"size": 4, "members": [{"name": "m", "offset": 8}]}})
        doc["structures"] = dict(sorted(structures.items()))
        path.write_text(json.dumps(doc, ensure_ascii=False, indent=2) + "\n")


REPOSITORIES = [_break_nothing, _break_json, _misplace, _add_stem, _not_utf8,
                _not_canonical, _too_deep, _digit_limit, _invalid_unreported]


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


@pytest.mark.parametrize("threshold", [SERIAL, 0])
def test_invalid_unreported_structure_is_refused(tmp_repo, monkeypatch, capsys, threshold):
    # Forked matching serial would also pass if both accepted the files.
    for profile in art_sequence():
        tmp_repo(profile)
    _invalid_unreported(tmp_repo.root)
    monkeypatch.setattr(profile_module, "PARALLEL_READ_BYTES", threshold)
    for argv in _commands(tmp_repo.root):
        code = run(argv)
        out, err = capsys.readouterr()
        if argv[0] == "index":
            assert code == 0
            skipped = json.loads(out)["skipped"]
            assert skipped == [{"path": str(_path(tmp_repo.root, v)), "reason": UNREPORTED_ERROR}
                               for v in ("10", "14")]
        else:
            assert code == 3, argv
            assert UNREPORTED_ERROR in err, argv


def _profile_files(tmp_path, count=6):
    paths = []
    for i, profile in enumerate(art_sequence()[:count]):
        paths.append(tmp_path / f"{i}.profile.json")
        write_profile(profile, paths[-1])
    return paths


def _dropped(profile: Profile, names) -> Profile:
    """read_profile's profile with the structures outside `names` dropped."""
    if names is None:
        return profile
    return profile._replace(structures={
        name: record for name, record in profile.structures.items() if name in names})


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

    def wrapped(source, names=None):
        if os.getpid() != parent:
            action()
        return read(source, names)

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
    # The files read again here keep the named structures, as the worker's would.
    assert read_profiles(paths, {"Runtime"}) == [_dropped(p, {"Runtime"}) for p in serial]
    assert len(forks) == 2
    assert_no_child_left()


def test_worker_that_cannot_send_falls_back(tmp_path, monkeypatch, forks):
    paths = _profile_files(tmp_path)
    serial = [read_profile(p) for p in paths]
    parent, dump, sends = os.getpid(), profile_module.marshal.dump, tmp_path / "sends"

    def failing_dump(value, file):
        if os.getpid() != parent:
            sends.touch()  # the worker's only trace that it got this far
            raise ValueError("unmarshallable")
        return dump(value, file)

    monkeypatch.setattr(profile_module, "PARALLEL_READ_BYTES", 0)
    monkeypatch.setattr(profile_module.marshal, "dump", failing_dump)
    assert read_profiles(paths) == serial
    assert sends.exists() and len(forks) == 1
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

    def interrupted_read(source, names=None):
        if os.getpid() == parent:
            _interrupt()
        return read(source, names)

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


def _assert_forked_commands_read_each_profile_once(tmp_repo, tmp_path, monkeypatch, forks,
                                                   damage):
    for profile in art_sequence():
        tmp_repo(profile)
    art_repo = tmp_repo.root
    damage(art_repo)
    log = tmp_path / "reads.log"
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    read_text = profile_module.read_text

    def logging_read_text(source):
        os.write(fd, f"{os.getpid()} {source}\n".encode())
        return read_text(source)

    monkeypatch.setattr(profile_module, "read_text", logging_read_text)
    repo = ["--repo", str(art_repo), "--arch", "x86_64"]
    files = sorted(str(p) for p in art_repo.rglob("*.profile.json"))
    try:
        for argv in (["index", "--repo", str(art_repo)], ["score", *repo], ["volatility", *repo],
                     ["chains", *files], ["diff", files[0], files[1]]):
            monkeypatch.setattr(profile_module, "PARALLEL_READ_BYTES", SERIAL)
            serial = run(argv)
            assert serial == 0 or damage is not _break_nothing, argv
            monkeypatch.setattr(profile_module, "PARALLEL_READ_BYTES", 0)
            log.write_bytes(b"")
            del forks[:]
            assert run(argv) == serial, argv
            reads = [line.split(" ", 1) for line in log.read_text().splitlines()]
            paths = sorted(Path(path) for _, path in reads)
            want = sorted(map(Path, files[:2] if argv[0] == "diff" else files))
            assert paths == want, argv
            assert {int(pid) for pid, _ in reads} - {os.getpid()}, argv  # a worker read some
            assert len(forks) == 1
    finally:
        os.close(fd)
    assert_no_child_left()


def test_forked_commands_read_each_profile_once(tmp_repo, tmp_path, monkeypatch, forks):
    _assert_forked_commands_read_each_profile_once(tmp_repo, tmp_path, monkeypatch, forks,
                                                   _break_nothing)


@pytest.mark.parametrize("damage", REPOSITORIES[1:], ids=lambda f: f.__name__.lstrip("_"))
def test_forked_commands_read_each_damaged_profile_once(tmp_repo, tmp_path, monkeypatch, forks,
                                                        damage):
    # A file that fails is read once too, by whichever process reads its half.
    _assert_forked_commands_read_each_profile_once(tmp_repo, tmp_path, monkeypatch, forks, damage)


NAMES = {
    "all": None,
    "none": set(),
    "present": {"Thread", "Runtime", "tls_32bit_sized_values"},
    "absent": {"NoSuchStructure"},
    "some absent": ["Object", "NoSuchStructure", "Class"],  # Object and Class leave at 13
}


@pytest.mark.parametrize("threshold", [SERIAL, 0])
@pytest.mark.parametrize("names", sorted(NAMES))
def test_readers_keep_the_named_structures(tmp_repo, monkeypatch, forks, threshold, names):
    paths = [tmp_repo(profile) for profile in art_sequence()]
    want = [_dropped(read_profile(path), NAMES[names]) for path in paths]
    monkeypatch.setattr(profile_module, "PARALLEL_READ_BYTES", threshold)
    for got in (read_profiles(paths, NAMES[names]),
                read_sequence(tmp_repo.root, "x86_64", NAMES[names])):
        assert got == want
        assert [list(p.structures) for p in got] == [list(p.structures) for p in want]
    assert len(forks) == (0 if threshold else 2)
    assert_no_child_left()


@pytest.mark.parametrize("command", ["score", "aggregate", "volatility"])
def test_scope_is_read_before_the_profiles(tmp_path, monkeypatch, capsys, command):
    monkeypatch.delenv("STRUCTDRIFT_REPO", raising=False)
    good, bad = _profile_files(tmp_path, 1)[0], tmp_path / "bad.profile.json"
    bad.write_text("{broken\n")
    missing = tmp_path / "missing.json"
    assert run([command, "--scope", str(missing), str(good), str(bad)]) == 3
    err = capsys.readouterr().err
    assert str(missing) in err and str(bad) not in err
    # Usage errors still come first.
    assert run([command, "--scope", str(missing)]) == 2
    assert run([command, "--scope", str(missing), "--repo", str(tmp_path)]) == 2
    assert str(missing) not in capsys.readouterr().err
