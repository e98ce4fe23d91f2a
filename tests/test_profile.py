import json
import os
import stat
import threading

import pytest
from hypothesis import given, settings

from structdrift import (
    InvariantError,
    MemberRecord,
    Profile,
    SchemaError,
    StructureRecord,
    index_repository,
    read_profile,
    write_profile,
)
from structdrift.profile import (
    dumps_profile,
    loads_profile,
    validate_profile,
    version_key,
    write_text,
)

from conftest import make_meta, make_profile, profiles


def test_write_then_read_round_trip(tmp_path):
    profile = make_profile(
        "9",
        {
            "Thread": (2584, [("tls32_", 0), ("name_", 1520)]),
            "Runtime": (2048, [("heap_", 448), ("thread_list_", 512)]),
        },
    )
    path = tmp_path / "a.profile.json"
    write_profile(profile, path)
    assert read_profile(path) == profile


def test_canonical_bytes_stable(tmp_path):
    profile = make_profile("10", {"Heap": (3200, [("region_space_", 728)])})
    path = tmp_path / "b.profile.json"
    write_profile(profile, path)
    original = path.read_bytes()
    write_profile(read_profile(path), path)
    assert path.read_bytes() == original
    assert original.endswith(b"\n")


def test_structure_count_in_file(tmp_path):
    profile = make_profile(
        "9",
        {
            "A": (8, [("x", 0)]),
            "B": (16, [("y", 8)]),
            "C": (4, []),
        },
    )
    path = tmp_path / "c.profile.json"
    write_profile(profile, path)
    doc = json.loads(path.read_text())
    assert len(doc["structures"]) == 3


def test_unsorted_members_rejected_before_write():
    record = StructureRecord("Bad", 32, [MemberRecord("b", 16), MemberRecord("a", 0)])
    profile = Profile(make_meta(), {"Bad": record})
    with pytest.raises(InvariantError):
        dumps_profile(profile)


def test_unsorted_catalog_rejected():
    profile = Profile(
        make_meta(),
        {
            "Zeta": StructureRecord("Zeta", 8, []),
            "Alpha": StructureRecord("Alpha", 8, []),
        },
    )
    with pytest.raises(InvariantError):
        validate_profile(profile)


def test_offset_outside_size_rejected():
    record = StructureRecord("Bad", 8, [MemberRecord("x", 8)])
    with pytest.raises(InvariantError):
        validate_profile(Profile(make_meta(), {"Bad": record}))


def test_zero_size_structure_allows_members():
    record = StructureRecord("Opaque", 0, [MemberRecord("x", 64)])
    validate_profile(Profile(make_meta(), {"Opaque": record}))


def test_unknown_architecture_rejected():
    profile = Profile(make_meta(arch="mips"), {})
    with pytest.raises(InvariantError):
        validate_profile(profile)


def _canonical_text():
    profile = make_profile("9", {"S": (16, [("a", 0), ("b", 8)])})
    return dumps_profile(profile)


def test_duplicate_structure_key_rejected():
    text = _canonical_text()
    body = '"S": {"size": 16, "members": []}'
    mutated = text.replace('"structures": {', '"structures": {' + body + ", ", 1)
    with pytest.raises(SchemaError):
        loads_profile(mutated)


def _mutated_members(mutate):
    doc = json.loads(_canonical_text())
    mutate(doc["structures"]["S"])
    return json.dumps(doc)


@pytest.mark.parametrize("text, message", [
    pytest.param(_canonical_text().replace('"name": "a"', '"name": "a", "name": "z"'),
                 "duplicate key 'name'", id="duplicate-member-field"),
    pytest.param(_canonical_text().replace('"schema"', '"schema": 1, "schema"'),
                 "duplicate key 'schema'", id="duplicate-top-level-key"),
    pytest.param(_mutated_members(lambda s: s["members"][1].update(offset=True)),
                 "S.members[1].offset must be an integer, got a boolean",
                 id="boolean-offset"),
    pytest.param(_mutated_members(lambda s: s["members"][0].update(offset="0")),
                 "S.members[0].offset has wrong type str", id="string-offset"),
    pytest.param(_mutated_members(lambda s: s["members"][0].pop("offset")),
                 "S.members[0].offset has wrong type NoneType", id="missing-offset"),
    pytest.param(_mutated_members(lambda s: s["members"][0].update(name=5)),
                 "S.members[0].name has wrong type int", id="integer-name"),
    pytest.param(_mutated_members(lambda s: s["members"].__setitem__(1, ["b", 8])),
                 "S.members[1] has wrong type list", id="member-not-object"),
    pytest.param(_mutated_members(lambda s: s.update(members={})),
                 "S.members has wrong type dict", id="members-not-list"),
    pytest.param(_mutated_members(lambda s: s.update(size=False)),
                 "S.size must be an integer, got a boolean", id="boolean-size"),
])
def test_schema_error_messages(text, message):
    with pytest.raises(SchemaError) as exc_info:
        loads_profile(text)
    assert str(exc_info.value) == message


def test_missing_meta_field_rejected():
    doc = json.loads(_canonical_text())
    del doc["meta"]["architecture"]
    with pytest.raises(SchemaError):
        loads_profile(json.dumps(doc))


def test_wrong_type_rejected():
    doc = json.loads(_canonical_text())
    doc["structures"]["S"]["size"] = "16"
    with pytest.raises(SchemaError):
        loads_profile(json.dumps(doc))


def test_boolean_is_not_an_integer():
    doc = json.loads(_canonical_text())
    doc["meta"]["binary_size_bytes"] = True
    with pytest.raises(SchemaError):
        loads_profile(json.dumps(doc))


def test_unsorted_member_document_rejected():
    doc = json.loads(_canonical_text())
    doc["structures"]["S"]["members"].reverse()
    with pytest.raises(InvariantError):
        loads_profile(json.dumps(doc))


def test_wrong_schema_marker_rejected():
    doc = json.loads(_canonical_text())
    doc["schema"] = "something-else/9"
    with pytest.raises(SchemaError):
        loads_profile(json.dumps(doc))


def test_unreadable_file(tmp_path):
    with pytest.raises(SchemaError):
        read_profile(tmp_path / "missing.profile.json")


def test_write_failure_surfaces_as_oserror(tmp_path):
    profile = make_profile("9", {"S": (8, [])})
    with pytest.raises(OSError):
        write_profile(profile, tmp_path / "no_such_dir" / "p.profile.json")


def _refuse_replace(src, dst):
    raise OSError("rename refused")


@pytest.mark.parametrize("failure", ["write", "replace"])
def test_failed_write_keeps_earlier_file(tmp_path, monkeypatch, failure):
    # A failure while writing (text that cannot be encoded) or while putting
    # the new file in place must leave the earlier file and nothing else.
    path = tmp_path / "p.profile.json"
    write_profile(make_profile("9", {"S": (8, [("a", 0)])}), path)
    earlier = path.read_bytes()
    if failure == "write":
        with pytest.raises(UnicodeEncodeError):
            write_text(path, "{\ud800}")
    else:
        monkeypatch.setattr(os, "replace", _refuse_replace)
        with pytest.raises(OSError, match="rename refused"):
            write_profile(make_profile("10", {"S": (16, [])}), path)
    assert path.read_bytes() == earlier
    assert os.listdir(tmp_path) == ["p.profile.json"]


def test_write_replaces_whole_file(tmp_path):
    path = tmp_path / "report.txt"
    path.write_text("a much longer earlier text\n")
    write_text(path, "new\n")
    assert path.read_bytes() == b"new\n"
    assert os.listdir(tmp_path) == ["report.txt"]


def test_write_through_symlink_replaces_the_target(tmp_path):
    # `--out link.json` updates the file the link points at; the link stays.
    target_dir = tmp_path / "store"
    target_dir.mkdir()
    target = target_dir / "p.profile.json"
    target.write_text("earlier\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    write_profile(make_profile("9", {"S": (8, [("a", 0)])}), link)
    assert link.is_symlink()
    assert os.readlink(link) == str(target)
    assert read_profile(target).meta.platform_version == "9"
    assert sorted(os.listdir(tmp_path)) == ["link.json", "store"]
    assert os.listdir(target_dir) == ["p.profile.json"]


def test_write_is_flushed_to_disk_before_the_rename(tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace
    monkeypatch.setattr(os, "fsync", lambda fd: (events.append("fsync"), real_fsync(fd)))
    monkeypatch.setattr(os, "replace",
                        lambda src, dst: (events.append("replace"), real_replace(src, dst)))
    write_text(tmp_path / "report.txt", "new\n")
    assert events == ["fsync", "replace"]


def test_write_into_a_pipe_writes_in_place(tmp_path):
    # `--out /dev/stdout` and the like: a pipe cannot be replaced by a file.
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
    reader.start()
    write_text(pipe, "report\n")
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == [b"report\n"]
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


@settings(max_examples=120, deadline=None)
@given(profiles())
def test_round_trip_over_generated_profiles(profile):
    assert loads_profile(dumps_profile(profile)) == profile


@settings(max_examples=60, deadline=None)
@given(profiles())
def test_canonical_text_fixed_point(profile):
    text = dumps_profile(profile)
    assert dumps_profile(loads_profile(text)) == text


# ----------------------------------------------------------------- repository

def test_index_empty_repository(tmp_path):
    root = tmp_path / "repo"
    root.mkdir()
    index = index_repository(root)
    assert index.entries == {}
    assert index.skipped == []


def test_index_full_grid(tmp_repo):
    for version in ["9", "10", "11", "12", "13", "14"]:
        for arch in ["arm32", "arm64", "x86_32", "x86_64"]:
            tmp_repo(make_profile(version, {"S": (8, [("a", 0)])}, arch=arch))
    index = index_repository(tmp_repo.root)
    assert len(index.entries) == 24
    assert index.skipped == []
    x86_64 = [v for v, a in index.entries if a == "x86_64"]
    assert sorted(x86_64, key=version_key) == ["9", "10", "11", "12", "13", "14"]
    assert index.profiles == {}


def test_sequence_of_profiles_not_kept_is_empty(tmp_repo):
    for version in ["9", "10"]:
        tmp_repo(make_profile(version, {"S": (8, [("a", 0)])}))
    assert index_repository(tmp_repo.root).sequence("x86_64") == []
    assert index_repository(tmp_repo.root, "arm64").sequence("x86_64") == []


def test_index_keeps_profiles_of_one_architecture(tmp_repo):
    for version in ["10", "9"]:
        for arch in ["arm64", "x86_64"]:
            tmp_repo(make_profile(version, {"S": (8, [("a", 0)])}, arch=arch))
    index = index_repository(tmp_repo.root, "arm64")
    assert len(index.entries) == 4
    assert sorted(index.profiles) == [("10", "arm64"), ("9", "arm64")]
    assert index.sequence("arm64") == [
        read_profile(index.entries[(v, "arm64")]) for v in ["9", "10"]
    ]


def test_index_isolates_corrupt_files(tmp_repo):
    for version in ["9", "10"]:
        tmp_repo(make_profile(version, {"S": (8, [("a", 0)])}))
    bad = tmp_repo.root / "11" / "x86_64"
    bad.mkdir(parents=True)
    (bad / "broken.profile.json").write_text("{nonsense")
    index = index_repository(tmp_repo.root)
    assert len(index.entries) == 2
    assert len(index.skipped) == 1
    assert "broken.profile.json" in str(index.skipped[0][0])


def test_index_missing_root(tmp_path):
    with pytest.raises(FileNotFoundError):
        index_repository(tmp_path / "nope")


def test_index_flags_duplicates(tmp_repo):
    tmp_repo(make_profile("9", {"S": (8, [])}), stem="one")
    tmp_repo(make_profile("9", {"S": (8, [])}), stem="two")
    index = index_repository(tmp_repo.root)
    assert len(index.entries) == 1
    assert len(index.skipped) == 1
    assert "duplicate" in index.skipped[0][1]


def test_checked_in_fixture_names_core_structures():
    from conftest import FIXTURES

    profile = read_profile(
        FIXTURES / "profiles" / "14" / "x86_64" / "libart.profile.json"
    )
    assert profile.meta.architecture == "x86_64"
    for name in ("Thread", "Runtime", "Heap"):
        assert name in profile.structures


def test_version_ordering():
    labels = ["10", "9", "14", "11"]
    assert sorted(labels, key=version_key) == ["9", "10", "11", "14"]
    assert version_key("9") < version_key("10") < version_key("14")
