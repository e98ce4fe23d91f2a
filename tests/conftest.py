import json
import os
from pathlib import Path

import pytest
from hypothesis import strategies as st

import structdrift.profile as profile_module
from structdrift import MemberRecord, Profile, ProfileMeta, StructureRecord

FIXTURES = Path(__file__).parent / "fixtures"

ORACLE_FIXTURES = [
    "layouts-dwarf4-64",
    "layouts-dwarf5-64",
    "layouts-dwarf4-32",
    "layouts-dwarf5-32",
    "triple-dwarf4-64",
    "triple-dwarf5-32",
    "triple2-dwarf4-64",
    "functions-dwarf4-64",
    "functions-dwarf5-64",
    "functions-O2-dwarf5-64",
]


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def load_oracle(stem: str) -> dict:
    return json.loads((FIXTURES / f"{stem}.oracle.json").read_text())


def make_meta(version="9", arch="x86_64", **overrides) -> ProfileMeta:
    fields = dict(
        platform_version=version,
        architecture=arch,
        build_variant="eng",
        binary_size_bytes=1000,
        dwarf_versions_seen=(4,),
        raw_type_die_count=50,
        extraction_tool_version="0.1.0",
    )
    fields.update(overrides)
    return ProfileMeta(**fields)


def make_profile(version, structures, arch="x86_64") -> Profile:
    """structures: {name: (size, [(member, offset), ...])}"""
    catalog = {}
    for name in sorted(structures):
        size, members = structures[name]
        catalog[name] = StructureRecord.canonical(
            name, size, [MemberRecord(m, o) for m, o in members]
        )
    return Profile(make_meta(version, arch), catalog)


@pytest.fixture
def tmp_repo(tmp_path):
    """Factory writing profiles into a <root>/<version>/<arch>/ tree."""
    from structdrift import write_profile

    root = tmp_path / "repo"

    def add(profile: Profile, stem: str = "libart"):
        meta = profile.meta
        directory = root / meta.platform_version / meta.architecture
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{stem}.profile.json"
        write_profile(profile, path)
        return path

    root.mkdir()
    add.root = root  # type: ignore[attr-defined]
    return add


def art_profile(version="9", **overrides) -> Profile:
    """Synthetic runtime-library profile on which every shipped chain resolves.

    Keyword overrides replace a structure's (size, members) tuple; None
    removes the structure entirely.
    """
    structures = {
        "Runtime": (2048, [("heap_", 448), ("thread_list_", 512),
                           ("oat_file_manager_", 600)]),
        "ThreadList": (128, [("list_", 16)]),
        "Thread": (2584, [("tls32_", 0), ("tlsPtr_", 128)]),
        "tls_32bit_sized_values": (80, [("tid", 8), ("park_state_", 60)]),
        "Heap": (3200, [("region_space_", 728)]),
        "RegionSpace": (512, [("num_regions_", 96)]),
        "Object": (8, [("klass_", 0)]),
        "Class": (320, [("ifields_", 48)]),
        "OatFileManager": (96, [("oat_files_", 0)]),
        "JitCodeCache": (512, [("profiling_infos_", 200)]),
        "ProfilingInfo": (64, [("method_", 8)]),
        "ArtMethod": (40, [("declaring_class_", 0)]),
        "DexCache": (128, [("dex_file_", 16)]),
    }
    structures.update(overrides)
    structures = {k: v for k, v in structures.items() if v is not None}
    return make_profile(version, structures)


def art_sequence():
    """Six-version sequence: offsets shuffle at 9->10, Object/Class go at 13."""
    seq = [art_profile("9")]
    seq.append(
        art_profile("10", Runtime=(2100, [("heap_", 400), ("thread_list_", 464),
                                          ("oat_file_manager_", 600)]))
    )
    seq.append(art_profile("11"))
    seq.append(art_profile("12"))
    seq.append(art_profile("13", Object=None, Class=None))
    seq.append(art_profile("14", Object=None, Class=None))
    return seq


# ------------------------------------------------------------ forked paths

# A PARALLEL_*_BYTES threshold that no test input reaches: the serial path.
SERIAL = 10 ** 12


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs and no cgroup quota, so the forked paths run the same on any host."""
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


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


# ---------------------------------------------------------------- hypothesis

_NAMES = st.text(alphabet="abcdefgh_", min_size=1, max_size=6)


@st.composite
def structure_records(draw, name=None):
    if name is None:
        name = draw(_NAMES)
    member_names = draw(st.lists(_NAMES, min_size=0, max_size=8))
    members = []
    for member_name in member_names:
        members.append(MemberRecord(member_name, draw(st.integers(0, 120))))
    if members:
        size = max(m.offset for m in members) + draw(st.integers(1, 16))
    else:
        size = draw(st.integers(0, 64))
    return StructureRecord.canonical(name, size, members)


@st.composite
def profiles(draw, version="9", arch="x86_64"):
    names = draw(st.lists(_NAMES, unique=True, min_size=0, max_size=10))
    catalog = {}
    for name in sorted(names):
        catalog[name] = draw(structure_records(name))
    return Profile(make_meta(version, arch), catalog)
