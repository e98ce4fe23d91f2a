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
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

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
    """Numeric-aware ordering key so "9" sorts before "10". A run of decimal digits (any
    script's, as \\d matches them) orders by value: by length, then digits, less leading zeros."""
    from unicodedata import decimal  # here, so that no command pays for it at start-up
    return tuple(
        (0, len(d := "".join(str(decimal(c)) for c in p).lstrip("0")), d)
        if p.isdecimal() else (1, 0, p) for p in re.split(r"(\d+)", label) if p != ""
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


def _json_text(value, kind, what: str) -> str:
    """JSON text of an exact int or str; anything else would not read back."""
    if type(value) is not kind:
        article = "an integer" if kind is int else "a string"
        raise InvariantError(f"{what} must be {article}, got {type(value).__name__}")
    if kind is str and _unpaired_surrogate(value):  # no UTF-8 text holds one
        raise InvariantError(f"{what} {value!r} holds an unpaired surrogate")
    return int.__repr__(value) if kind is int else _quote(value)


def _block(ends: str, items: List[str], indent: str) -> str:
    """A JSON array or object of indented item texts, laid out as json.dumps does."""
    return "\n".join([ends[0], ",\n".join(items), indent + ends[1]]) if items else ends


def _structure_text(name: str, record: StructureRecord) -> str:
    members = record.members
    items = [f'        {{\n          "name": {_quote(member)},\n'
             f'          "offset": {offset}\n        }}'
             for member, offset in members if type(member) is str and type(offset) is int
             and (member.isascii() or not _unpaired_surrogate(member))]
    if len(items) != len(members):  # the first member that cannot be written raises
        for member, offset in members:
            _json_text(member, str, f"{name}: member name")
            _json_text(offset, int, f"{name}.{member}: offset")
    size = _json_text(record.byte_size, int, f"{name}: size")
    return (f'    {_json_text(name, str, "structure name")}: {{\n      "size": {size},\n'
            f'      "members": {_block("[]", items, "      ")}\n    }}')


def dumps_profile(profile: Profile) -> str:
    """Canonical text of a profile: dumps_document of its document, byte for byte.

    Built from the records, without json.dumps's pure-Python indenting encoder.
    Rejects a value not exactly of its JSON type (an int, not a bool or float),
    then a non-canonical profile.
    """
    meta = []
    for key, kind in _META_FIELDS.items():
        value, what = getattr(profile.meta, key), f"meta.{key}"
        if kind is list:
            text = _block("[]", [f"      {_json_text(v, int, what)}" for v in value], "    ")
        else:
            text = _json_text(value, kind, what)
        meta.append(f'    "{key}": {text}')
    structures = [_structure_text(name, record) for name, record in profile.structures.items()]
    validate_profile(profile)
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


def _unpaired_surrogate(value: str) -> bool:
    """Whether the string holds a surrogate: json reads an escaped pair as one character,
    so one left is unpaired, and no UTF-8 text holds it."""
    return not value.isascii() and re.search("[\ud800-\udfff]", value) is not None


def _refuse_surrogates(text: str, doc) -> None:
    """SchemaError if a key or string parsed from `text` holds an unpaired surrogate."""
    # Only an escape or the text itself brings one in.
    stack = [doc] if "\\" in text or not text.isascii() else []
    while stack:
        value = stack.pop()
        if type(value) is dict:
            stack += (*value, *value.values())
        elif type(value) is list:
            stack += value
        elif type(value) is str and _unpaired_surrogate(value):
            raise SchemaError(f"string {value!r} holds an unpaired surrogate")


def parse_json_document(text: str, expected_schema: str) -> dict:
    """Parse JSON and check the schema marker; refuses duplicate keys and lone surrogates."""
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except ValueError as exc:  # a JSONDecodeError, or an integer over the digit limit
        raise SchemaError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError("JSON nesting is too deep") from exc
    if not isinstance(doc, dict):
        raise SchemaError("document is not a JSON object")
    schema = doc.get("schema")
    if schema != expected_schema:
        raise SchemaError(f"expected schema {expected_schema!r}, found {schema!r}")
    _refuse_surrogates(text, doc)
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


def read_named(source, parse: Callable[[str], object]):
    """parse(the text of `source`); its errors name the file first, as read_text's do."""
    text = read_text(source)
    try:
        return parse(text)
    except (SchemaError, InvariantError) as exc:
        raise type(exc)(f"{source}: {exc}") from exc


def _member_record(doc, where: str) -> MemberRecord:
    return MemberRecord(*_check_fields(doc, (("name", str), ("offset", int)), where))


def doc_to_profile(doc: dict) -> Profile:
    """Profile of a parsed document, validated; a wrong field is named by its path."""
    meta_doc = _check_type(doc.get("meta"), dict, "meta")
    structures_doc = _check_type(doc.get("structures"), dict, "structures")
    missing = set(_META_FIELDS) - set(meta_doc)
    if missing:
        raise SchemaError(f"meta is missing fields: {sorted(missing)}")
    meta = ProfileMeta(*_check_fields(meta_doc, _META_FIELDS.items(), "meta"))
    meta = meta._replace(dwarf_versions_seen=tuple(
        _check_type(v, int, "meta.dwarf_versions_seen entry")
        for v in meta.dwarf_versions_seen))
    structures: Dict[str, StructureRecord] = {}
    for name, body in structures_doc.items():
        _check_type(body, dict, f"structures.{name}")
        size = _check_type(body.get("size"), int, f"{name}.size")
        members = _check_list(body.get("members"), f"{name}.members", _member_record)
        structures[name] = StructureRecord(name, size, members)
    profile = Profile(meta, structures)
    validate_profile(profile)
    return profile


def _pairs_profile(doc, names) -> Optional[Profile]:
    """The profile of a document parsed with object_pairs_hook=tuple, with the structures
    in `names` (all with None); None unless every object (a tuple of its key/value pairs)
    has exactly its canonical keys in order, every value its exact JSON type, structure
    names strictly increase and every validate_profile rule holds."""
    if type(doc) is not tuple or tuple(key for key, _ in doc) != ("schema", "meta", "structures"):
        return None
    (_, schema), (_, meta_doc), (_, structures_doc) = doc
    if (schema != PROFILE_SCHEMA or type(meta_doc) is not tuple
            or type(structures_doc) is not tuple
            or tuple(key for key, _ in meta_doc) != tuple(_META_FIELDS)):
        return None
    meta = ProfileMeta._make(value for _, value in meta_doc)
    if (list(map(type, meta)) != list(_META_FIELDS.values())
            or any(type(v) is not int for v in meta.dwarf_versions_seen)):
        return None
    meta = meta._replace(dwarf_versions_seen=tuple(meta.dwarf_versions_seen))
    validate_profile(Profile(meta, {}))  # the meta rules
    wanted, structures, previous = None if names is None else set(names), {}, ""
    new = tuple.__new__  # skips MemberRecord's Python-level __new__
    for name, body in structures_doc:
        if name <= previous or type(body) is not tuple:
            return None
        (size_key, size), (members_key, members) = body
        if (size_key != "size" or members_key != "members" or type(size) is not int
                or size < 0 or type(members) is not list):
            return None
        bound, prev_offset, prev_name = size or float("inf"), -1, ""
        keep, records = wanted is None or name in wanted, []
        for member in members:
            if type(member) is not tuple:
                return None
            (name_key, member_name), (offset_key, offset) = member
            if (name_key != "name" or offset_key != "offset" or type(member_name) is not str
                    or type(offset) is not int or not member_name or not 0 <= offset < bound
                    or offset <= prev_offset
                    and (offset < prev_offset or member_name < prev_name)):
                return None
            prev_offset, prev_name = offset, member_name
            if keep:
                records.append(new(MemberRecord, (member_name, offset)))
        if keep:
            structures[name] = StructureRecord(name, size, records)
        previous = name
    return Profile(meta, structures)


def _kept(profile: Profile, names) -> Profile:
    """`profile` with only the structures in `names`, in canonical order; None keeps all."""
    return profile if names is None else profile._replace(structures={
        name: profile.structures[name] for name in sorted(profile.structures.keys() & names)})


def loads_profile(text: str, names=None) -> Profile:
    """Profile from JSON text, validated, with the structures in `names` (all with None).

    ASCII text with no backslash is parsed once into key/value pairs and read by
    _pairs_profile. Any text it refuses, and any other text, is read in full by
    parse_json_document and doc_to_profile, the reference whose errors every rejected
    document gets (a duplicate key before any other), in a structure kept or not.
    """
    if text.isascii() and "\\" not in text:
        try:
            profile = _pairs_profile(json.loads(text, object_pairs_hook=tuple), names)
            if profile is not None:
                return profile
        except (ValueError, RecursionError, InvariantError):
            pass
    return _kept(doc_to_profile(parse_json_document(text, PROFILE_SCHEMA)), names)


def read_profile(source, names=None) -> Profile:
    return read_named(source, lambda text: loads_profile(text, names))


# Measured on two CPUs: a fresh command breaks even at 1-1.5 MB and gains 5% at 2.7 MB.
PARALLEL_READ_BYTES = 2_000_000


def _cpu_quota() -> float:
    """CPUs a cgroup v2 quota allows this process; infinite without one."""
    try:
        with open("/sys/fs/cgroup/cpu.max") as fh:
            quota, period = fh.read().split()
        return int(quota) / int(period)
    except (OSError, ValueError, ZeroDivisionError):  # no file, or "max"
        return float("inf")


def _fork_and_collect(items: list, work: Callable[[list], list], send: Callable = list,
                      receive: Callable = list) -> list:
    """work(items[:half]) + work(items[half:]), the second half run in one forked worker.

    The worker sends send(its list) by marshal, and the caller appends receive(what
    came) to its own list (both default to list). If the fork or the worker fails,
    the caller runs the second half itself. With fewer than two items, a second
    thread, or one CPU by the affinity mask or a cgroup v2 quota, it returns
    work(items) unforked. The worker is reaped even if the caller's half raises.
    """
    if (len(items) < 2 or not hasattr(os, "fork")
            or "threading" in sys.modules and sys.modules["threading"].active_count() > 1
            or len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2
            or _cpu_quota() < 2):
        return work(items)
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
                marshal.dump(send(work(items[half:])), out)
            os._exit(0)
        finally:
            os._exit(1)  # never return into the caller's code
    os.close(writer)
    try:
        done = work(items[:half])
    finally:
        try:  # to EOF before waiting: a full pipe blocks the worker
            with open(reader, "rb") as pipe:
                data = pipe.read()
        finally:
            status = pid and os.waitpid(pid, 0)[1]
    return done + (receive(marshal.loads(data)) if status == 0 else work(items[half:]))


def _read_one(path, names, named):
    """The profile at `path`, keeping `names`, or its error, naming the file if `named`."""
    try:
        return read_profile(path, names) if named else loads_profile(read_text(path), names)
    except (SchemaError, InvariantError) as exc:
        return exc


def _sendable(results: list) -> list:  # plain tuples; an error as (is InvariantError, message)
    return [(type(r) is InvariantError, str(r)) if isinstance(r, Exception) else
            (tuple(r.meta), [(s.name, s.byte_size, list(map(tuple, s.members)))
                             for s in r.structures.values()]) for r in results]


def _received(sent: list) -> list:
    new = tuple.__new__
    return [(InvariantError if head else SchemaError)(body) if type(head) is bool else
            Profile(new(ProfileMeta, head), {
                name: new(StructureRecord, (name, size, list(map(new, repeat(MemberRecord), m))))
                for name, size, m in body}) for head, body in sent]


def _read_all(paths: list, names, named: bool) -> Iterable:
    """_read_one of each path; from PARALLEL_READ_BYTES on, a worker reads the second half."""
    try:
        total = sum(os.stat(path).st_size for path in paths)
    except OSError:  # reading the files reports the error
        total = 0
    if total < PARALLEL_READ_BYTES:  # lazily, so that read_profiles stops at an error
        return map(_read_one, paths, repeat(names), repeat(named))
    return _fork_and_collect(
        paths, lambda part: list(map(_read_one, part, repeat(names), repeat(named))),
        _sendable, _received)


def read_profiles(sources, names=None) -> List[Profile]:
    """read_profile of each source, in order: the same profiles and the same first error.

    Each file is validated whole, but records are built only for the structures in the
    collection `names` (all of them with None), so a worker sends back only those. Each file is
    read once: from PARALLEL_READ_BYTES on, a forked worker reads the second half, and
    that half is read again here only if the worker fails."""
    profiles = []
    for profile in _read_all(list(sources), names, True):
        if isinstance(profile, Exception):
            raise profile
        profiles.append(profile)
    return profiles


class RepositoryIndex(NamedTuple):
    """Profiles found under <root>/<version>/<architecture>/<stem>.profile.json,
    keyed by the (version, architecture, stem) of their path."""

    entries: Dict[Tuple[str, str, str], Path]
    skipped: List[Tuple[Path, str]]


def _placed_profiles(root, architecture: str, skipped: List[Tuple[Path, str]], names):
    """Yield (key, path, profile) for each valid <root>/*/<architecture>/*.profile.json,
    keeping the structures in `names` as read_profiles does.

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
    for path, profile in zip(paths, _read_all(paths, names, False)):
        placed = (path.parent.parent.name, path.parent.name)
        if isinstance(profile, Exception):
            skipped.append((path, str(profile)))
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
    entries = {key: path for key, path, _ in _placed_profiles(root, "*", skipped, set())}
    return RepositoryIndex(entries, skipped)


def read_sequence(root, architecture: str, names=None) -> List[Profile]:
    """The profiles of `architecture` in version order, with the structures in `names`.

    Only <root>/*/<architecture>/*.profile.json is read. Raises SchemaError,
    naming each file and why, when index_repository would skip any of them,
    since a dropped version would pass for a gap in the sequence; and when
    the profiles have more than one stem, since one sequence follows one
    library.
    """
    if architecture not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {architecture!r}")
    skipped: List[Tuple[Path, str]] = []
    placed = sorted(_placed_profiles(root, architecture, skipped, names),
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
