import copy
import json
import os
import pickle
import stat
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structdrift
import structdrift.profile as profile_module

from structdrift import (
    InvariantError,
    MemberRecord,
    Profile,
    SchemaError,
    StructureRecord,
    index_repository,
    read_profile,
    read_sequence,
    write_profile,
)
from structdrift.profile import (
    ARCHITECTURES,
    PROFILE_SCHEMA,
    doc_to_profile,
    dumps_profile,
    loads_profile,
    parse_json_document,
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


@pytest.mark.parametrize("members, message", [
    ([("b", 0), ("a", 0)], "S: members not sorted at 'a'"),
    ([("a", 8), ("b", 0)], "S: members not sorted at 'b'"),
    ([("", 0)], "S: empty member name"),
    ([("a", -1)], "S.a: negative offset"),
    ([("a", 0), ("b", 16)], "S.b: offset 16 outside size 16"),
])
def test_invariant_error_messages(members, message):
    record = StructureRecord("S", 16, [MemberRecord(n, o) for n, o in members])
    with pytest.raises(InvariantError) as exc_info:
        validate_profile(Profile(make_meta(), {"S": record}))
    assert str(exc_info.value) == message


@pytest.mark.parametrize("meta, structures, message", [
    ({"binary_size_bytes": -1}, {}, "negative size or count in metadata"),
    ({"raw_type_die_count": -1}, {}, "negative size or count in metadata"),
    ({"dwarf_versions_seen": (5, 4)}, {},
     "dwarf_versions_seen must be sorted and duplicate-free"),
    ({"dwarf_versions_seen": (4, 4)}, {},
     "dwarf_versions_seen must be sorted and duplicate-free"),
    ({}, {"A": StructureRecord("B", 8, [])}, "catalog key 'A' != record name 'B'"),
    ({}, {"": StructureRecord("", 8, [])}, "empty structure name"),
    ({}, {"S": StructureRecord("S", -1, [])}, "S: negative byte size"),
])
def test_meta_and_catalog_invariant_error_messages(meta, structures, message):
    with pytest.raises(InvariantError) as exc_info:
        validate_profile(Profile(make_meta(**meta), structures))
    assert str(exc_info.value) == message


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


# ------------------------------------------------------ profile reader

def _outcome(read, text):
    """What reading `text` gives: the profile in catalog order, or the error."""
    try:
        profile = read(text)
    except Exception as exc:
        return type(exc), str(exc)
    return profile, list(profile.structures)


def _reference(text):
    return doc_to_profile(parse_json_document(text, PROFILE_SCHEMA))


def assert_reads_like_reference(text, names=None):
    """loads_profile(text, names) gives the reference's profile, kept to `names`, or its error."""
    assert (_outcome(lambda t: loads_profile(t, names), text)
            == _outcome(lambda t: profile_module._kept(_reference(t), names), text))


# C++ scopes put bare colons into names; the one-pass reader takes them.
_BASE = make_profile("9", {
    "ns::S": (16, [("a", 0), ("b", 8)]),
    "T": (8, [("x::y", 0)]),
})
_BASE_TEXT = dumps_profile(_BASE)
# An escaped quote puts a backslash into the text, which sends it to the
# reference path; a leading colon looks like the end of a key.
_QUOTED = make_profile("9", {"T": (8, [('q":r', 0), (":lead", 4)])})
_QUOTED_TEXT = dumps_profile(_QUOTED)
# json reads an escaped UTF-16 pair as one character; the writer writes it as itself.
_ASTRAL = make_profile("9", {"ns::S": (16, [("a\U0001f600", 0), ("b", 8)]),
                             "T": (8, [("x::y", 0)])})


def _rewritten(edit):
    doc = json.loads(_BASE_TEXT)
    edit(doc)
    return json.dumps(doc, indent=2)


def _reordered_member(doc):
    doc["structures"]["T"]["members"][0] = {"offset": 0, "name": "x::y"}


def _reordered_meta(doc):
    doc["meta"] = dict(reversed(list(doc["meta"].items())))


def _set_meta(key, value):
    return lambda doc: doc["meta"].__setitem__(key, value)


def _set_member(key, value):
    return lambda doc: doc["structures"]["ns::S"]["members"][1].__setitem__(key, value)


def _as_pairs(obj):
    """A JSON object written as an array of [key, value] pairs."""
    return [[key, value] for key, value in obj.items()]


def _pairs_member(doc):
    members = doc["structures"]["T"]["members"]
    members[0] = _as_pairs(members[0])


def _replace(text, *pairs):
    for old, new in pairs:
        assert old in text
        text = text.replace(old, new, 1)
    return text


_DUP_MEMBER = ('"name": "a"', '"name": "a", "name": "a"')

READER_CASES = {
    "canonical": _BASE_TEXT,
    "canonical-quoted-names": _QUOTED_TEXT,
    "duplicate-top-level-key": _replace(_BASE_TEXT, ('"meta": {', '"meta": 1, "meta": {')),
    "duplicate-meta-key": _replace(
        _BASE_TEXT, ('"build_variant": "eng"', '"build_variant": "eng", "build_variant": "user"')),
    "duplicate-structure": _replace(
        _BASE_TEXT, ('"T": {', '"T": {"size": 8, "members": []}, "T": {')),
    "duplicate-body-key": _replace(_BASE_TEXT, ('"size": 16', '"size": 16, "size": 16')),
    "duplicate-member-key": _replace(_BASE_TEXT, _DUP_MEMBER),
    "duplicate-member-key-quoted-names": _replace(
        _QUOTED_TEXT, ('"offset": 4', '"offset": 4, "offset": 4')),
    "space-before-colon": _replace(_BASE_TEXT, ('"size": 16', '"size" : 16')),
    "tab-before-colon": _replace(_BASE_TEXT, ('"members": [', '"members"\t: [')),
    "newline-before-colon": _replace(_BASE_TEXT, ('"schema":', '"schema"\n:')),
    "carriage-return-before-colon": _replace(_BASE_TEXT, ('"offset": 8', '"offset"\r\n  : 8')),
    # A duplicate key beside a key spaced from its colon.
    "duplicate-hidden-by-whitespace": _replace(
        _BASE_TEXT, _DUP_MEMBER, ('"size": 8', '"size" : 8')),
    "quoted-name-and-whitespace": _replace(_QUOTED_TEXT, ('"size": 8', '"size" : 8')),
    "extra-top-level-key": _rewritten(lambda doc: doc.update(extra=1)),
    "extra-meta-key": _rewritten(_set_meta("extra", "x")),
    "extra-body-key": _rewritten(lambda doc: doc["structures"]["T"].update(extra=[])),
    "extra-member-key": _rewritten(_set_member("extra", 0)),
    "reordered-member-keys": _rewritten(_reordered_member),
    "reordered-meta-keys": _rewritten(_reordered_meta),
    "reordered-top-level-keys": _rewritten(lambda doc: doc.update(schema=doc.pop("schema"))),
    "boolean-offset": _rewritten(_set_member("offset", True)),
    "float-offset": _rewritten(_set_member("offset", 8.0)),
    "boolean-name": _rewritten(_set_member("name", False)),
    "float-size": _rewritten(lambda doc: doc["structures"]["T"].update(size=8.0)),
    "boolean-binary-size": _rewritten(_set_meta("binary_size_bytes", True)),
    "float-die-count": _rewritten(_set_meta("raw_type_die_count", 50.0)),
    "boolean-dwarf-version": _rewritten(_set_meta("dwarf_versions_seen", [True])),
    "object-in-meta": _rewritten(_set_meta("build_variant", {"eng": 1})),
    "extra-object-in-meta": _rewritten(_set_meta("extra", {"a": {"b": 1}})),
    "null-member": _rewritten(lambda doc: doc["structures"]["T"]["members"].append(None)),
    "missing-meta-key": _rewritten(lambda doc: doc["meta"].pop("architecture")),
    "unsorted-members": _rewritten(lambda doc: doc["structures"]["ns::S"]["members"].reverse()),
    "wrong-schema": _rewritten(lambda doc: doc.update(schema="structdrift-profile/2")),
    "truncated-half": _BASE_TEXT[: len(_BASE_TEXT) // 2],
    "truncated-end": _BASE_TEXT[:-3],
    "truncated-to-nothing": "",
    "duplicate-then-syntax-error": _replace(_BASE_TEXT, _DUP_MEMBER)[:-3],
    "array": "[]",
    "string": '"structdrift-profile/1"',
    "escaped-surrogate-pair": _replace(_BASE_TEXT, ('"name": "a"', '"name": "a\\ud83d\\ude00"')),
    "lone-surrogate-structure": _replace(_BASE_TEXT, ('"T": {', '"\\ud800T": {')),
    "lone-surrogate-member": _replace(_BASE_TEXT, ('"name": "a"', '"name": "a\\udc00"')),
    "lone-surrogate-meta": _replace(
        _BASE_TEXT, ('"build_variant": "eng"', '"build_variant": "\\ud83d"')),
    "raw-lone-surrogate": _replace(_BASE_TEXT, ('"T": {', '"\ud800T": {')),
    # Arrays of pairs in place of objects: the pairs parse must tell them apart.
    "pairs-document": json.dumps(_as_pairs(json.loads(_BASE_TEXT)), indent=2),
    "pairs-meta": _rewritten(lambda doc: doc.update(meta=_as_pairs(doc["meta"]))),
    "pairs-body": _rewritten(
        lambda doc: doc["structures"].update(T=_as_pairs(doc["structures"]["T"]))),
    "pairs-member": _rewritten(_pairs_member),
}


@pytest.mark.parametrize("text", READER_CASES.values(), ids=READER_CASES.keys())
def test_reader_matches_reference(text):
    assert_reads_like_reference(text)


# What each READER_CASES text reads as, written out: loads_profile and the
# reference share one walker, so comparing the two cannot catch a change
# to the shape rules themselves.
READER_OUTCOMES = {
    "canonical": _BASE,
    "canonical-quoted-names": _QUOTED,
    "duplicate-top-level-key": (SchemaError, "duplicate key 'meta'"),
    "duplicate-meta-key": (SchemaError, "duplicate key 'build_variant'"),
    "duplicate-structure": (SchemaError, "duplicate key 'T'"),
    "duplicate-body-key": (SchemaError, "duplicate key 'size'"),
    "duplicate-member-key": (SchemaError, "duplicate key 'name'"),
    "duplicate-member-key-quoted-names": (SchemaError, "duplicate key 'offset'"),
    "space-before-colon": _BASE,
    "tab-before-colon": _BASE,
    "newline-before-colon": _BASE,
    "carriage-return-before-colon": _BASE,
    "duplicate-hidden-by-whitespace": (SchemaError, "duplicate key 'name'"),
    "quoted-name-and-whitespace": _QUOTED,
    "extra-top-level-key": _BASE,
    "extra-meta-key": _BASE,
    "extra-body-key": _BASE,
    "extra-member-key": _BASE,
    "reordered-member-keys": _BASE,
    "reordered-meta-keys": _BASE,
    "reordered-top-level-keys": _BASE,
    "boolean-offset": (SchemaError, "ns::S.members[1].offset must be an integer, got a boolean"),
    "float-offset": (SchemaError, "ns::S.members[1].offset has wrong type float"),
    "boolean-name": (SchemaError, "ns::S.members[1].name has wrong type bool"),
    "float-size": (SchemaError, "T.size has wrong type float"),
    "boolean-binary-size": (
        SchemaError, "meta.binary_size_bytes must be an integer, got a boolean"),
    "float-die-count": (SchemaError, "meta.raw_type_die_count has wrong type float"),
    "boolean-dwarf-version": (
        SchemaError, "meta.dwarf_versions_seen entry must be an integer, got a boolean"),
    "object-in-meta": (SchemaError, "meta.build_variant has wrong type dict"),
    "extra-object-in-meta": _BASE,
    "null-member": (SchemaError, "T.members[1] has wrong type NoneType"),
    "missing-meta-key": (SchemaError, "meta is missing fields: ['architecture']"),
    "unsorted-members": (InvariantError, "ns::S: members not sorted at 'a'"),
    "wrong-schema": (SchemaError, "expected schema 'structdrift-profile/1', "
                                  "found 'structdrift-profile/2'"),
    "truncated-half": (SchemaError, "not valid JSON: Expecting property name enclosed "
                                    "in double quotes: line 16 column 4 (char 319)"),
    "truncated-end": (
        SchemaError, "not valid JSON: Expecting ',' delimiter: line 37 column 4 (char 635)"),
    "truncated-to-nothing": (
        SchemaError, "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    "duplicate-then-syntax-error": (SchemaError, "duplicate key 'name'"),
    "array": (SchemaError, "document is not a JSON object"),
    "string": (SchemaError, "document is not a JSON object"),
    "escaped-surrogate-pair": _ASTRAL,
    "lone-surrogate-structure": (SchemaError, "string '\\ud800T' holds an unpaired surrogate"),
    "lone-surrogate-member": (SchemaError, "string 'a\\udc00' holds an unpaired surrogate"),
    "lone-surrogate-meta": (SchemaError, "string '\\ud83d' holds an unpaired surrogate"),
    "raw-lone-surrogate": (SchemaError, "string '\\ud800T' holds an unpaired surrogate"),
    "pairs-document": (SchemaError, "document is not a JSON object"),
    "pairs-meta": (SchemaError, "meta has wrong type list"),
    "pairs-body": (SchemaError, "structures.T has wrong type list"),
    "pairs-member": (SchemaError, "T.members[0] has wrong type list"),
}


@pytest.mark.parametrize("case", READER_CASES)
def test_reader_outcome_is_pinned(case):
    expected = READER_OUTCOMES[case]
    if isinstance(expected, Profile):
        assert loads_profile(READER_CASES[case]) == expected
    else:
        with pytest.raises(expected[0]) as exc_info:
            loads_profile(READER_CASES[case])
        assert (type(exc_info.value), str(exc_info.value)) == expected


# A fault in T, the structure a read of {"ns::S"} leaves out, still fails that read.
_FAULT_IN_T = {
    "duplicate-key": (_replace(_BASE_TEXT, ('"size": 8', '"size": 8, "size": 8')),
                      SchemaError, "duplicate key 'size'"),
    "invariant": (_rewritten(lambda doc: doc["structures"]["T"].update(size=-1)),
                  InvariantError, "T: negative byte size"),
    "wrong-type": (_rewritten(lambda doc: doc["structures"]["T"]["members"][0].update(
        offset="0")), SchemaError, "T.members[0].offset has wrong type str"),
}


@pytest.mark.parametrize("case", _FAULT_IN_T)
@pytest.mark.parametrize("names", [None, {"ns::S"}, set()], ids=["all", "other", "none"])
def test_reader_checks_structures_it_does_not_keep(case, names):
    text, error, message = _FAULT_IN_T[case]
    with pytest.raises(error) as exc_info:
        loads_profile(text, names)
    assert (type(exc_info.value), str(exc_info.value)) == (error, message)
    assert_reads_like_reference(text, names)


@pytest.mark.parametrize("names", [set(), {"T"}, ["T", "absent"], {"ns::S", "T"}])
def test_reader_keeps_the_named_structures(names):
    profile = loads_profile(_BASE_TEXT, names)
    assert profile == profile_module._kept(_BASE, names)
    assert list(profile.structures) == sorted(set(_BASE.structures) & set(names))


def _refuse_hook(pairs):
    raise AssertionError("canonical text reached the duplicate-key hook")


def test_one_pass_reader_takes_canonical_text_only(monkeypatch):
    # Canonical text never needs the hook; a name whose escaped quote or
    # leading colon adds a '":' does, and still reads the same profile.
    with monkeypatch.context() as patched:
        patched.setattr(profile_module, "_reject_duplicate_keys", _refuse_hook)
        assert loads_profile(_BASE_TEXT) == _BASE
    calls = []
    hook = profile_module._reject_duplicate_keys
    monkeypatch.setattr(profile_module, "_reject_duplicate_keys",
                        lambda pairs: calls.append(pairs) or hook(pairs))
    assert loads_profile(_QUOTED_TEXT) == _QUOTED
    assert calls


def _refuse_walker(doc):
    raise AssertionError("canonical text reached the reference walker")


def test_canonical_text_is_read_in_one_pass(monkeypatch):
    monkeypatch.setattr(profile_module, "doc_to_profile", _refuse_walker)
    assert loads_profile(_BASE_TEXT) == _BASE
    assert loads_profile(_BASE_TEXT, {"T"}) == profile_module._kept(_BASE, {"T"})


class _Object(list):
    """A JSON object as a list of [key, value, separator] pairs, so a test
    can repeat keys and choose the text between a key and its value."""


def _pairs_tree(value):
    if isinstance(value, dict):
        return _Object([k, _pairs_tree(v), ": "] for k, v in value.items())
    if isinstance(value, list):
        return [_pairs_tree(v) for v in value]
    return value


def _render(node) -> str:
    if isinstance(node, _Object):
        return "{" + ", ".join(
            json.dumps(k, ensure_ascii=False) + sep + _render(v) for k, v, sep in node
        ) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(_render(v) for v in node) + "]"
    return json.dumps(node, ensure_ascii=False)


def _objects(node):
    if isinstance(node, _Object):
        yield node
        for _, value, _ in node:
            yield from _objects(value)
    elif isinstance(node, list):
        for value in node:
            yield from _objects(value)


_ODD_NAMES = st.text(alphabet='ab:"\\ _', min_size=1, max_size=5)
_ODD_VALUES = st.sampled_from([0, 8, -1, True, False, None, 1.0, "7", "", [], {"x": 1}])


@st.composite
def _mutated_profile_texts(draw):
    names = draw(st.lists(_ODD_NAMES, unique=True, max_size=4))
    structures = {
        name: (64, [(m, draw(st.integers(0, 63)))
                    for m in draw(st.lists(_ODD_NAMES, max_size=3))])
        for name in names
    }
    tree = _pairs_tree(json.loads(dumps_profile(make_profile("9", structures))))
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.sampled_from(list(_objects(tree))))
        kind = draw(st.sampled_from(
            ["duplicate", "space", "extra", "reorder", "retype", "drop"]))
        if not target and kind != "extra":
            continue
        index = draw(st.integers(0, max(len(target) - 1, 0)))
        if kind == "duplicate":
            key, value, sep = target[index]
            if draw(st.booleans()):
                value = _pairs_tree(draw(_ODD_VALUES))
            target.insert(draw(st.integers(0, len(target))), [key, value, sep])
        elif kind == "space":
            target[index][2] = draw(st.sampled_from([" : ", "\t:", "\n: ", "\r\n  :"]))
        elif kind == "extra":
            target.insert(index, [draw(_ODD_NAMES), _pairs_tree(draw(_ODD_VALUES)), ": "])
        elif kind == "reorder":
            target[:] = draw(st.permutations(target))
        elif kind == "retype":
            target[index][1] = _pairs_tree(draw(_ODD_VALUES))
        else:
            del target[index]
    text = _render(tree)
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    kept = st.sets(st.sampled_from(names + ["absent"]), max_size=len(names) + 1)
    return text, draw(st.none() | kept)


@settings(max_examples=400, deadline=None)
@given(_mutated_profile_texts())
def test_reader_matches_reference_on_mutated_texts(case):
    assert_reads_like_reference(*case)


@settings(max_examples=60, deadline=None)
@given(profiles())
def test_canonical_text_takes_the_one_pass_reader(profile):
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(profile_module, "_reject_duplicate_keys", _refuse_hook)
        assert loads_profile(dumps_profile(profile)) == profile


# ------------------------------------------------------------- MemberRecord

def test_member_record_contract():
    member = MemberRecord("a", 0)
    with pytest.raises(AttributeError):
        member.name = "b"
    assert member == MemberRecord("a", 0)
    assert hash(member) == hash(MemberRecord("a", 0))
    assert member != MemberRecord("a", 1) and member != MemberRecord("b", 0)
    assert member != ("a", 0) and ("a", 0) != member
    assert not member == ("a", 0) and not ("a", 0) == member
    assert repr(member) == "MemberRecord(name='a', offset=0)"
    for clone in (pickle.loads(pickle.dumps(member)), copy.copy(member),
                  copy.deepcopy(member)):
        assert type(clone) is MemberRecord and clone == member
    for other in (MemberRecord("b", 0), ("b", 0)):
        with pytest.raises(TypeError):
            member < other
        with pytest.raises(TypeError):
            other > member
    with pytest.raises(TypeError):
        sorted([MemberRecord("b", 0), member])


_EXPORTS = [getattr(structdrift, name) for name in structdrift.__all__]
_RECORD_TYPES = [obj for obj in _EXPORTS
                 if isinstance(obj, type) and not issubclass(obj, Exception)]


@pytest.mark.parametrize("record_type", _RECORD_TYPES, ids=lambda t: t.__name__)
def test_exported_records_refuse_attribute_assignment(record_type):
    record = record_type._make(range(len(record_type._fields)))
    for name in record_type._fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


@settings(max_examples=120, deadline=None)
@given(profiles())
def test_round_trip_over_generated_profiles(profile):
    assert loads_profile(dumps_profile(profile)) == profile


@settings(max_examples=60, deadline=None)
@given(profiles())
def test_canonical_text_fixed_point(profile):
    text = dumps_profile(profile)
    assert dumps_profile(loads_profile(text)) == text


def test_surrogate_pair_round_trips():
    # The character and its escaped UTF-16 pair read as one name, written as the character.
    text = dumps_profile(_ASTRAL)
    assert "\U0001f600" in text and loads_profile(text) == _ASTRAL
    assert dumps_profile(loads_profile(READER_CASES["escaped-surrogate-pair"])) == text


# ------------------------------------------------------------------- writer

def reference_doc(profile):
    """The profile's canonical document, built apart from the writer."""
    meta = profile.meta._asdict()
    meta["dwarf_versions_seen"] = list(meta["dwarf_versions_seen"])
    return {
        "schema": PROFILE_SCHEMA,
        "meta": meta,
        "structures": {
            name: {"size": record.byte_size,
                   "members": [{"name": m.name, "offset": m.offset} for m in record.members]}
            for name, record in profile.structures.items()
        },
    }


# Quotes, backslashes, control characters, line and paragraph separators,
# non-BMP characters and lone surrogates, among any other characters.
_AWKWARD_TEXT = st.text(st.one_of(
    st.sampled_from('"\\\x00\x1f\x7f\u2028\u2029\ud800\udfff\U0001f600'),
    st.characters()), max_size=6)
_AWKWARD_NAMES = _AWKWARD_TEXT.filter(bool)
_LARGE = st.integers(0, 2 ** 80)


@st.composite
def _awkward_profiles(draw):
    meta = make_meta(
        draw(_AWKWARD_TEXT), draw(st.sampled_from(ARCHITECTURES)),
        build_variant=draw(_AWKWARD_TEXT),
        binary_size_bytes=draw(_LARGE),
        dwarf_versions_seen=tuple(sorted(draw(st.sets(_LARGE, max_size=3)))),
        raw_type_die_count=draw(_LARGE),
        extraction_tool_version=draw(_AWKWARD_TEXT),
    )
    catalog = {}
    for name in sorted(draw(st.sets(_AWKWARD_NAMES, max_size=4))):
        size = draw(st.one_of(st.just(0), _LARGE))
        offsets = st.integers(0, size - 1) if size else _LARGE
        members = [MemberRecord(draw(_AWKWARD_NAMES), draw(offsets))
                   for _ in range(draw(st.integers(0, 3)))]
        catalog[name] = StructureRecord.canonical(name, size, members)
    return Profile(meta, catalog)


@settings(max_examples=300, deadline=None)
@given(_awkward_profiles())
def test_writer_matches_json_dumps_of_the_document(profile):
    expected = json.dumps(reference_doc(profile), ensure_ascii=False, indent=2) + "\n"
    try:
        expected.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate: no file could hold the text
        with pytest.raises(InvariantError, match="holds an unpaired surrogate"):
            dumps_profile(profile)
    else:
        assert dumps_profile(profile) == expected


@pytest.mark.parametrize("profile, message", [
    (make_profile("9", {"\ud800S": (8, [])}),
     "structure name '\\ud800S' holds an unpaired surrogate"),
    (make_profile("9", {"S": (8, [("a", 0), ("b\udfff", 4)])}),
     "S: member name 'b\\udfff' holds an unpaired surrogate"),
    (Profile(make_meta(build_variant="\ud83d"), {}),
     "meta.build_variant '\\ud83d' holds an unpaired surrogate"),
], ids=["structure", "member", "meta"])
def test_writer_refuses_a_lone_surrogate(tmp_path, profile, message):
    path = tmp_path / "s.profile.json"
    with pytest.raises(InvariantError) as exc_info:
        write_profile(profile, path)
    assert str(exc_info.value) == message
    assert not path.exists()
    with pytest.raises(SchemaError):  # json.dumps would write text the reader refuses
        loads_profile(json.dumps(reference_doc(profile)))


@pytest.mark.parametrize("size, name, offset, message", [
    (16, "a", 8.0, "S.a: offset must be an integer, got float"),
    (16, "a", True, "S.a: offset must be an integer, got bool"),
    (16.0, "a", 8, "S: size must be an integer, got float"),
    (16, "a", "8", "S.a: offset must be an integer, got str"),
    ("16", "a", 8, "S: size must be an integer, got str"),
    (16, 5, 8, "S: member name must be a string, got int"),
], ids=["offset-float", "offset-bool", "size-float", "offset-str", "size-str", "name-int"])
def test_writer_refuses_numbers_the_reader_refuses(tmp_path, size, name, offset, message):
    profile = Profile(make_meta(), {"S": StructureRecord("S", size, [MemberRecord(name, offset)])})
    with pytest.raises(SchemaError):  # json.dumps would write a file the reader refuses
        loads_profile(json.dumps(reference_doc(profile), indent=2))
    path = tmp_path / "s.profile.json"
    with pytest.raises(InvariantError) as exc_info:
        write_profile(profile, path)
    assert str(exc_info.value) == message
    assert not path.exists()


@pytest.mark.parametrize("meta", [
    make_meta(binary_size_bytes=1000.0),
    make_meta(dwarf_versions_seen=(True,)),
    make_meta(raw_type_die_count="50"),
    make_meta(dwarf_versions_seen=(4, "5")),
    make_meta(build_variant=5),
], ids=["meta-float", "version-bool", "meta-str", "version-str", "meta-string-int"])
def test_writer_refuses_meta_values_the_reader_refuses(meta):
    with pytest.raises(InvariantError):
        dumps_profile(Profile(meta, {}))


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
    x86_64 = [v for v, a, stem in index.entries if a == "x86_64" and stem == "libart"]
    assert sorted(x86_64, key=version_key) == ["9", "10", "11", "12", "13", "14"]


def test_sequence_of_absent_architecture_is_empty(tmp_repo):
    for version in ["9", "10"]:
        tmp_repo(make_profile(version, {"S": (8, [("a", 0)])}))
    assert read_sequence(tmp_repo.root, "arm64") == []
    with pytest.raises(ValueError):
        read_sequence(tmp_repo.root, "*")


def test_sequence_reads_one_architecture_in_version_order(tmp_repo):
    for version in ["10", "9"]:
        for arch in ["arm64", "x86_64"]:
            tmp_repo(make_profile(version, {"S": (8, [("a", 0)])}, arch=arch))
    index = index_repository(tmp_repo.root)
    assert len(index.entries) == 4
    assert read_sequence(tmp_repo.root, "arm64") == [
        read_profile(index.entries[(v, "arm64", "libart")]) for v in ["9", "10"]
    ]


def test_sequence_refuses_files_the_index_skips(tmp_repo):
    placed = tmp_repo(make_profile("9", {"S": (8, [])}))
    for version, text in [("10", "{nonsense"), ("11", placed.read_text())]:
        path = tmp_repo.root / version / "x86_64" / "libart.profile.json"
        path.parent.mkdir(parents=True)
        path.write_text(text)
    skipped = index_repository(tmp_repo.root).skipped
    assert len(skipped) == 2
    with pytest.raises(SchemaError) as caught:
        read_sequence(tmp_repo.root, "x86_64")
    for path, reason in skipped:
        assert f"{path}: {reason}" in str(caught.value)


def test_sequence_of_two_stems_is_a_schema_error(tmp_repo):
    tmp_repo(make_profile("9", {"S": (8, [])}), stem="libart")
    tmp_repo(make_profile("9", {"S": (8, [])}), stem="libcxx")
    with pytest.raises(SchemaError, match="libart, libcxx"):
        read_sequence(tmp_repo.root, "x86_64")


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


def test_index_keeps_every_stem_of_a_directory(tmp_repo):
    libart = tmp_repo(make_profile("9", {"S": (8, [])}), stem="libart")
    libcxx = tmp_repo(make_profile("9", {"S": (8, [])}), stem="libcxx")
    index = index_repository(tmp_repo.root)
    assert index.entries == {("9", "x86_64", "libart"): libart,
                             ("9", "x86_64", "libcxx"): libcxx}
    assert index.skipped == []


def test_index_skips_a_profile_its_path_misplaces(tmp_repo):
    placed = tmp_repo(make_profile("9", {"S": (8, [])}))
    copy = tmp_repo.root / "10" / "arm64" / "libart.profile.json"
    copy.parent.mkdir(parents=True)
    copy.write_bytes(placed.read_bytes())
    index = index_repository(tmp_repo.root)
    assert index.entries == {("9", "x86_64", "libart"): placed}
    assert index.skipped == [(copy, "meta names 9/x86_64, the path places it at 10/arm64")]


def test_index_ignores_files_at_other_depths(tmp_repo):
    placed = tmp_repo(make_profile("9", {"S": (8, [])}))
    for extra in ["top.profile.json", "9/shallow.profile.json", "9/x86_64/d/deep.profile.json"]:
        (tmp_repo.root / extra).parent.mkdir(parents=True, exist_ok=True)
        (tmp_repo.root / extra).write_bytes(placed.read_bytes())
    index = index_repository(tmp_repo.root)
    assert index.entries == {("9", "x86_64", "libart"): placed}
    assert index.skipped == []


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


def test_version_key_orders_any_label_by_its_digit_values():
    # Decimal digits of any script count by value, leading zeros aside; "²" is
    # a digit but not a decimal one, so it orders as text, after every number.
    assert version_key("١٠") == version_key("10") == version_key("010")
    assert version_key("1.01") == version_key("1.1")
    long = "9" * 5000  # past int()'s digit limit
    labels = ["²", "1" + long, long, "0", "10", "9", "8.1a", "8.1"]
    assert sorted(labels, key=version_key) == ["0", "8.1", "8.1a", "9", "10", long,
                                               "1" + long, "²"]
