"""Canonical on-disk representation of structure-layout profiles.

A profile records, for one binary build, every structure's byte size and
member offsets plus the metadata needed to place it in a version/
architecture matrix. Files are canonical UTF-8 JSON: fixed key order,
lexicographically sorted structure names, members sorted by (offset,
name), decimal integers only, newline-terminated. Writing a loaded
profile reproduces the input byte for byte.
"""

import json
import marshal
import os
import re
import sys
from itertools import repeat
from json.encoder import encode_basestring as _quote  # the C quoting json.dumps uses
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import InvariantError, SchemaError

PROFILE_SCHEMA = "structdrift-profile/1"
PROFILE_SUFFIX = ".profile.json"

ARCHITECTURES = ("arm32", "arm64", "x86_32", "x86_64")

OFFSET_SANITY_BOUND = 2 ** 32


class MemberRecord(NamedTuple):
    """A member's name and byte offset: immutable, hashable and picklable.

    Unlike the other records, equal only to another MemberRecord and not
    ordered, so it never stands in for a plain (name, offset) pair.
    """

    name: str
    offset: int

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __lt__(self, other):
        raise TypeError("MemberRecord values are not ordered")

    __hash__ = tuple.__hash__
    __le__ = __gt__ = __ge__ = __lt__


class StructureRecord(NamedTuple):
    name: str
    byte_size: int
    members: List[MemberRecord]

    @classmethod
    def canonical(
        cls, name: str, byte_size: int, members: Iterable[MemberRecord]
    ) -> "StructureRecord":
        """Build a record with members in canonical (offset, name) order."""
        return cls(name, byte_size, sorted(members, key=lambda m: (m.offset, m.name)))

    def member_offset(self, name: str) -> Optional[int]:
        """Offset of the first member called `name`; None if there is none."""
        return next((m.offset for m in self.members if m.name == name), None)


class ProfileMeta(NamedTuple):
    platform_version: str
    architecture: str
    build_variant: str
    binary_size_bytes: int
    dwarf_versions_seen: Tuple[int, ...]
    raw_type_die_count: int
    extraction_tool_version: str


# ProfileMeta's fields in order, with the JSON type of each.
_META_FIELDS = {
    "platform_version": str,
    "architecture": str,
    "build_variant": str,
    "binary_size_bytes": int,
    "dwarf_versions_seen": list,
    "raw_type_die_count": int,
    "extraction_tool_version": str,
}


class Profile(NamedTuple):
    meta: ProfileMeta
    structures: Dict[str, StructureRecord]


def version_key(label: str):
    """Numeric-aware ordering key so "9" sorts before "10"."""
    parts = re.split(r"(\d+)", label)
    return tuple(
        (0, int(p), "") if p.isdigit() else (1, 0, p) for p in parts if p != ""
    )


def check_sequence(profiles: Sequence[Profile], minimum: int) -> None:
    """ValueError unless `minimum`+ profiles, one architecture, strictly rising versions."""
    if len(profiles) < minimum:
        raise ValueError(f"sequence too short: need at least {minimum} profiles")
    labels = [p.meta.platform_version for p in profiles]
    keys = [version_key(label) for label in labels]
    if any(b <= a for a, b in zip(keys, keys[1:])):
        raise ValueError(f"profile sequence not in ascending version order: {labels}")
    archs = {p.meta.architecture for p in profiles}
    if len(archs) > 1:
        raise ValueError(f"profiles span multiple architectures: {sorted(archs)}")


def _check_type(value, expected, what: str):
    if expected is int and isinstance(value, bool):
        raise SchemaError(f"{what} must be an integer, got a boolean")
    if not isinstance(value, expected):
        raise SchemaError(f"{what} has wrong type {type(value).__name__}")
    return value


def _check_str(value, what: str) -> str:
    return _check_type(value, str, what)


def _check_fields(doc, fields, where: str = "") -> list:
    """The value of each (key, JSON type) of `fields` in the object `doc`, checked.

    A value's path is `where.key`, or `key` alone in a top-level document.
    """
    if where:
        _check_type(doc, dict, where)
        where += "."
    return [_check_type(doc.get(key), kind, where + key) for key, kind in fields]


def _check_list(value, what: str, read) -> list:
    """The JSON list `value`, each entry read by read(entry, its path)."""
    items = _check_type(value, list, what)
    return [read(item, f"{what}[{i}]") for i, item in enumerate(items)]


def validate_profile(profile: Profile) -> None:
    """Raise InvariantError unless the profile is canonical."""
    meta = profile.meta
    if meta.architecture not in ARCHITECTURES:
        raise InvariantError(f"unknown architecture {meta.architecture!r}")
    if meta.binary_size_bytes < 0 or meta.raw_type_die_count < 0:
        raise InvariantError("negative size or count in metadata")
    if list(meta.dwarf_versions_seen) != sorted(set(meta.dwarf_versions_seen)):
        raise InvariantError("dwarf_versions_seen must be sorted and duplicate-free")
    names = list(profile.structures)
    if names != sorted(names):
        raise InvariantError("structure catalog is not in lexicographic order")
    for name, record in profile.structures.items():
        if name != record.name:
            raise InvariantError(f"catalog key {name!r} != record name {record.name!r}")
        if not name:
            raise InvariantError("empty structure name")
        size = record.byte_size
        if size < 0:
            raise InvariantError(f"{name}: negative byte size")
        # (offset, name) order, compared field by field: no key tuple per member.
        prev_offset, prev_name = -1, ""
        for member_name, offset in record.members:
            if not member_name:
                raise InvariantError(f"{name}: empty member name")
            if offset < 0:
                raise InvariantError(f"{name}.{member_name}: negative offset")
            if size != 0 and offset >= size:
                raise InvariantError(
                    f"{name}.{member_name}: offset {offset} outside size {size}"
                )
            if offset <= prev_offset and (offset < prev_offset or member_name < prev_name):
                raise InvariantError(f"{name}: members not sorted at {member_name!r}")
            prev_offset, prev_name = offset, member_name


def dumps_document(doc: dict) -> str:
    """Canonical JSON text of a document: UTF-8, two-space indent, final newline."""
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


def _number(value, what: str) -> str:
    """Decimal text of an exact int; anything else would not read back."""
    if type(value) is not int:
        raise InvariantError(f"{what} must be an integer, got {type(value).__name__}")
    return int.__repr__(value)


def _block(ends: str, items: List[str], indent: str) -> str:
    """A JSON array or object of indented item texts, laid out as json.dumps does."""
    return "\n".join([ends[0], ",\n".join(items), indent + ends[1]]) if items else ends


def _structure_text(record: StructureRecord) -> str:
    members = record.members
    items = [f'        {{\n          "name": {_quote(name)},\n'
             f'          "offset": {offset}\n        }}'
             for name, offset in members if type(offset) is int]
    if len(items) != len(members):
        bad = next(m for m in members if type(m.offset) is not int)
        _number(bad.offset, f"{record.name}.{bad.name}: offset")
    size = _number(record.byte_size, f"{record.name}: size")
    return (f'    {_quote(record.name)}: {{\n      "size": {size},\n'
            f'      "members": {_block("[]", items, "      ")}\n    }}')


def dumps_profile(profile: Profile) -> str:
    """Canonical text of a profile: dumps_document of its document, byte for byte.

    Built from the records, without json.dumps's pure-Python indenting encoder.
    Rejects non-canonical profiles, and a number that is not exactly an int.
    """
    validate_profile(profile)
    meta = []
    for key, kind in _META_FIELDS.items():
        value = getattr(profile.meta, key)
        if kind is list:
            text = _block("[]", [f"      {_number(v, f'meta.{key}')}" for v in value], "    ")
        else:
            text = _quote(value) if kind is str else _number(value, f"meta.{key}")
        meta.append(f'    "{key}": {text}')
    structures = [_structure_text(record) for record in profile.structures.values()]
    return (f'{{\n  "schema": {_quote(PROFILE_SCHEMA)},\n'
            f'  "meta": {_block("{}", meta, "  ")},\n'
            f'  "structures": {_block("{}", structures, "  ")}\n}}\n')


def write_text(destination, text: str) -> None:
    """Write UTF-8 text so that `destination` is replaced whole or not at all.

    The text goes to a new file in the destination's directory, which is
    flushed to disk and then renamed over the destination; on any failure
    that file is removed and an earlier destination file is left as it was.
    A symbolic link is followed, so the file it points at is replaced and
    the link is kept. A destination that exists and is not a regular file
    (a pipe, a terminal) is written in place, since it cannot be replaced.
    """
    path = Path(os.path.realpath(destination))
    if path.exists() and not path.is_file():
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return
    temp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(temp, "x", encoding="utf-8", newline="") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temp, path)
    except BaseException as exc:
        try:
            os.unlink(temp)
        except OSError:
            pass
        if isinstance(exc, OSError) and exc.errno:  # name the destination, not the temp file
            raise OSError(exc.errno, exc.strerror, str(destination)) from exc
        raise


def write_profile(profile: Profile, destination) -> None:
    write_text(destination, dumps_profile(profile))


def _reject_duplicate_keys(pairs):
    result = dict(pairs)
    if len(result) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError(f"duplicate key {key!r}")
            seen.add(key)
    return result


def parse_json_document(text: str, expected_schema: str) -> dict:
    """Parse JSON and check the schema marker; duplicate keys are rejected."""
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError("JSON nesting is too deep") from exc
    if not isinstance(doc, dict):
        raise SchemaError("document is not a JSON object")
    schema = doc.get("schema")
    if schema != expected_schema:
        raise SchemaError(f"expected schema {expected_schema!r}, found {schema!r}")
    return doc


def read_text(source) -> str:
    try:
        with open(source, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {source}: {exc}") from exc
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{source} is not valid UTF-8: {exc}") from exc


def _member_record(doc, where: str) -> MemberRecord:
    return MemberRecord(*_check_fields(doc, (("name", str), ("offset", int)), where))


def doc_to_profile(doc: dict) -> Profile:
    """Profile of a parsed document, validated. Fields are tested by exact JSON
    type; one that fails is checked again by the helper whose error names it."""
    meta_doc = _check_type(doc.get("meta"), dict, "meta")
    structures_doc = _check_type(doc.get("structures"), dict, "structures")
    missing = set(_META_FIELDS) - set(meta_doc)
    if missing:
        raise SchemaError(f"meta is missing fields: {sorted(missing)}")
    meta = ProfileMeta(*_check_fields(meta_doc, _META_FIELDS.items(), "meta"))
    meta = meta._replace(dwarf_versions_seen=tuple(
        _check_type(v, int, "meta.dwarf_versions_seen entry")
        for v in meta.dwarf_versions_seen))
    new_member = tuple.__new__  # skips MemberRecord's Python-level __new__
    structures: Dict[str, StructureRecord] = {}
    for name, body in structures_doc.items():
        if type(body) is not dict:
            _check_type(body, dict, f"structures.{name}")
        size, members_doc = body.get("size"), body.get("members")
        if type(size) is not int:
            size = _check_type(size, int, f"{name}.size")
        if type(members_doc) is not list:
            members_doc = _check_type(members_doc, list, f"{name}.members")
        members = []
        for m in members_doc:
            if type(m) is dict:
                member_name, offset = m.get("name"), m.get("offset")
                if type(member_name) is str and type(offset) is int:
                    members.append(new_member(MemberRecord, (member_name, offset)))
                    continue
            members.append(_member_record(m, f"{name}.members[{len(members)}]"))
        structures[name] = StructureRecord(name, size, members)
    profile = Profile(meta, structures)
    validate_profile(profile)
    return profile


_SPACE_BEFORE_COLON = re.compile(r'"[ \t\n\r]+:')


def loads_profile(text: str) -> Profile:
    """Profile from canonical JSON text, validated.

    The text is parsed by a plain json.loads, without the per-object
    duplicate-key hook, and its document read by doc_to_profile. That
    profile is returned only when the text provably has no duplicate key;
    anything else is read by parse_json_document and doc_to_profile, the
    reference whose errors every rejected document gets (a duplicate key
    before any other).

    The proof: the schema, meta and structures keys, the seven meta keys,
    and size and members in each structure and name and offset in each
    member total `expected`, and doc_to_profile accepts a document only if
    every parsed object holds at least its expected keys. A key in the
    text is a string, optional whitespace and ':', so when no '"' is
    followed by whitespace and ':', each key in the text adds one '":';
    one inside a string (an escaped quote, a leading colon) only adds
    more. Hence '":' count >= keys in the text >= parsed keys >= expected,
    and a count equal to `expected` proves the text has no extra key and
    no duplicate key.
    """
    try:
        doc = json.loads(text)
        if type(doc) is dict and doc.get("schema") == PROFILE_SCHEMA:
            profile = doc_to_profile(doc)
            records = profile.structures.values()
            expected = 3 + len(_META_FIELDS) + sum(3 + 2 * len(r.members) for r in records)
            if text.count('":') == expected and not _SPACE_BEFORE_COLON.search(text):
                return profile
    except (ValueError, RecursionError, SchemaError, InvariantError):
        pass
    return doc_to_profile(parse_json_document(text, PROFILE_SCHEMA))


def read_profile(source) -> Profile:
    return loads_profile(read_text(source))


# Measured on two CPUs: a fresh command breaks even at 1-1.5 MB and gains 5% at 2.7 MB.
PARALLEL_READ_BYTES = 2_000_000


def _read_or_none(source) -> Optional[Profile]:
    try:
        return read_profile(source)
    except Exception:  # the caller reads it again and raises the error itself
        return None


def _cpu_quota() -> float:
    """CPUs a cgroup v2 quota allows this process; infinite without one."""
    try:
        with open("/sys/fs/cgroup/cpu.max") as fh:
            quota, period = fh.read().split()
        return int(quota) / int(period)
    except (OSError, ValueError, ZeroDivisionError):  # no file, or "max"
        return float("inf")


def _fork_and_collect(items: list, work: Callable[[list], Any],
                     own: Callable[[list], Any]) -> Tuple[int, Any]:
    """Run own(items[:half]) here and work(items[half:]) in one forked worker.

    Returns half (rounded up: the caller also rebuilds what the worker sends)
    and work's result by marshal, or None where the caller must do
    items[half:] itself: the fork or the worker failed. With fewer than two
    items, a second thread, or one CPU by the affinity mask or a cgroup v2
    quota, it returns (0, None) without forking or calling own. The worker
    is reaped even if own raises.
    """
    if (len(items) < 2 or not hasattr(os, "fork")
            or "threading" in sys.modules and sys.modules["threading"].active_count() > 1
            or len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2
            or _cpu_quota() < 2):
        return 0, None
    half = (len(items) + 1) // 2
    reader, writer = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the caller does the second half too
        pid = None
    if pid == 0:  # the worker: send its result and exit
        try:
            os.close(reader)  # so that a write fails, not blocks, once the caller is gone
            with open(writer, "wb") as out:
                marshal.dump(work(items[half:]), out)
            os._exit(0)
        finally:
            os._exit(1)  # never return into the caller's code
    os.close(writer)
    try:
        own(items[:half])
    finally:
        try:  # to EOF before waiting: a full pipe blocks the worker
            with open(reader, "rb") as pipe:
                data = pipe.read()
        finally:
            status = pid and os.waitpid(pid, 0)[1]
    return half, marshal.loads(data) if status == 0 else None


def _profile_tuples(paths: list) -> list:  # a worker's profiles, or None, for marshal
    return [p and (tuple(p.meta), [(r.name, r.byte_size, list(map(tuple, r.members)))
                                   for r in p.structures.values()])
            for p in map(_read_or_none, paths)]


def _prefetched(paths: list) -> List[Optional[Profile]]:
    """Each path's profile as read_profiles reads it, or None for the caller to read."""
    found: List[Optional[Profile]] = []
    try:
        total = sum(os.stat(path).st_size for path in paths)
    except OSError:  # reading the files reports the error
        total = 0
    half, sent = (0, None) if total < PARALLEL_READ_BYTES else _fork_and_collect(
        paths, _profile_tuples, lambda part: found.extend(map(_read_or_none, part)))
    if sent is None:  # the caller reads these files
        return found + [None] * (len(paths) - half)
    new = tuple.__new__
    return found + [p and Profile(new(ProfileMeta, p[0]), {
        name: new(StructureRecord, (name, size, list(map(new, repeat(MemberRecord), m))))
        for name, size, m in p[1]}) for p in sent]


def read_profiles(sources) -> List[Profile]:
    """read_profile of each source, in order: the same profiles and the same first error.

    From PARALLEL_READ_BYTES on, a forked worker may read the second half; only a file it
    fails on, or every file if it fails, is read twice (here, for the serial error)."""
    paths = list(sources)
    return [profile or read_profile(path) for path, profile in zip(paths, _prefetched(paths))]


class RepositoryIndex(NamedTuple):
    """Profiles found under <root>/<version>/<architecture>/<stem>.profile.json,
    keyed by the (version, architecture, stem) of their path."""

    entries: Dict[Tuple[str, str, str], Path]
    skipped: List[Tuple[Path, str]]


def _placed_profiles(root, architecture: str, skipped: List[Tuple[Path, str]]):
    """Yield (key, path, profile) for each valid <root>/*/<architecture>/*.profile.json.

    The path places a profile: its key is (version, architecture, stem)
    from the path, and a profile whose meta names another version or
    architecture is misplaced. Unreadable, invalid and misplaced files are
    appended to `skipped` with the reason instead of being yielded.
    """
    root = Path(root)
    if not root.is_dir():
        if root.exists():
            raise NotADirectoryError(f"repository root {root} is not a directory")
        raise FileNotFoundError(f"repository root {root} does not exist")
    paths = sorted(root.glob(f"*/{architecture}/*{PROFILE_SUFFIX}"))
    for path, profile in zip(paths, _prefetched(paths)):  # read_profiles, one error each
        placed = (path.parent.parent.name, path.parent.name)
        try:
            profile = profile or read_profile(path)
        except (SchemaError, InvariantError) as exc:
            skipped.append((path, str(exc)))
            continue
        named = (profile.meta.platform_version, profile.meta.architecture)
        if named != placed:
            skipped.append((path, f"meta names {'/'.join(named)}, "
                                  f"the path places it at {'/'.join(placed)}"))
            continue
        yield placed + (path.name[: -len(PROFILE_SUFFIX)],), path, profile


def index_repository(root) -> RepositoryIndex:
    """Read and validate every profile of the repository at `root`."""
    skipped: List[Tuple[Path, str]] = []
    entries = {key: path for key, path, _ in _placed_profiles(root, "*", skipped)}
    return RepositoryIndex(entries, skipped)


def read_sequence(root, architecture: str) -> List[Profile]:
    """The profiles of `architecture` in version order.

    Only <root>/*/<architecture>/*.profile.json is read. Raises SchemaError,
    naming each file and why, when index_repository would skip any of them,
    since a dropped version would pass for a gap in the sequence; and when
    the profiles have more than one stem, since one sequence follows one
    library.
    """
    if architecture not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {architecture!r}")
    skipped: List[Tuple[Path, str]] = []
    placed = sorted(_placed_profiles(root, architecture, skipped),
                    key=lambda item: version_key(item[0][0]))
    if skipped:
        raise SchemaError(f"{architecture} sequence under {root} has unusable profiles: "
                          + "; ".join(f"{path}: {reason}" for path, reason in skipped))
    stems = sorted({key[2] for key, _, _ in placed})
    if len(stems) > 1:
        raise SchemaError(
            f"{architecture} profiles under {root} have more than one stem "
            f"({', '.join(stems)}); pass the profile files instead"
        )
    return [profile for _, _, profile in placed]
