"""Canonical on-disk representation of structure-layout profiles.

A profile records, for one binary build, every structure's byte size and
member offsets plus the metadata needed to place it in a version/
architecture matrix. Files are canonical UTF-8 JSON: fixed key order,
lexicographically sorted structure names, members sorted by (offset,
name), decimal integers only, newline-terminated. Writing a loaded
profile reproduces the input byte for byte.
"""

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import InvariantError, SchemaError

PROFILE_SCHEMA = "structdrift-profile/1"
PROFILE_SUFFIX = ".profile.json"

ARCHITECTURES = ("arm32", "arm64", "x86_32", "x86_64")

OFFSET_SANITY_BOUND = 2 ** 32


@dataclass(frozen=True)
class MemberRecord:
    name: str
    offset: int


@dataclass
class StructureRecord:
    name: str
    byte_size: int
    members: List[MemberRecord] = field(default_factory=list)

    @classmethod
    def canonical(
        cls, name: str, byte_size: int, members: Iterable[MemberRecord]
    ) -> "StructureRecord":
        """Build a record with members in canonical (offset, name) order."""
        return cls(name, byte_size, sorted(members, key=lambda m: (m.offset, m.name)))

    def member_offset(self, name: str) -> Optional[int]:
        """Offset of the first member called `name`; None if there is none."""
        return next((m.offset for m in self.members if m.name == name), None)


@dataclass
class ProfileMeta:
    platform_version: str
    architecture: str
    build_variant: str
    binary_size_bytes: int
    dwarf_versions_seen: Tuple[int, ...]
    raw_type_die_count: int
    extraction_tool_version: str


@dataclass
class Profile:
    meta: ProfileMeta
    structures: Dict[str, StructureRecord] = field(default_factory=dict)


def version_key(label: str):
    """Numeric-aware ordering key so "9" sorts before "10"."""
    parts = re.split(r"(\d+)", label)
    return tuple(
        (0, int(p), "") if p.isdigit() else (1, 0, p) for p in parts if p != ""
    )


def _check_type(value, expected, what: str):
    if expected is int and isinstance(value, bool):
        raise SchemaError(f"{what} must be an integer, got a boolean")
    if not isinstance(value, expected):
        raise SchemaError(f"{what} has wrong type {type(value).__name__}")
    return value


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
        if record.byte_size < 0:
            raise InvariantError(f"{name}: negative byte size")
        prev = None
        for member in record.members:
            if not member.name:
                raise InvariantError(f"{name}: empty member name")
            if member.offset < 0:
                raise InvariantError(f"{name}.{member.name}: negative offset")
            if record.byte_size != 0 and member.offset >= record.byte_size:
                raise InvariantError(
                    f"{name}.{member.name}: offset {member.offset} outside size "
                    f"{record.byte_size}"
                )
            key = (member.offset, member.name)
            if prev is not None and key < prev:
                raise InvariantError(f"{name}: members not sorted at {member.name!r}")
            prev = key


def profile_to_doc(profile: Profile) -> dict:
    """Canonical document; rejects non-canonical profiles."""
    validate_profile(profile)
    meta = profile.meta
    return {
        "schema": PROFILE_SCHEMA,
        "meta": {
            "platform_version": meta.platform_version,
            "architecture": meta.architecture,
            "build_variant": meta.build_variant,
            "binary_size_bytes": meta.binary_size_bytes,
            "dwarf_versions_seen": list(meta.dwarf_versions_seen),
            "raw_type_die_count": meta.raw_type_die_count,
            "extraction_tool_version": meta.extraction_tool_version,
        },
        "structures": {
            name: {
                "size": record.byte_size,
                "members": [{"name": m.name, "offset": m.offset} for m in record.members],
            }
            for name, record in profile.structures.items()
        },
    }


def dumps_document(doc: dict) -> str:
    """Canonical JSON text of a document: UTF-8, two-space indent, final newline."""
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


def dumps_profile(profile: Profile) -> str:
    """Serialize to canonical text; rejects non-canonical profiles."""
    return dumps_document(profile_to_doc(profile))


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
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
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
    _check_type(doc, dict, where)
    return MemberRecord(
        _check_type(doc.get("name"), str, f"{where}.name"),
        _check_type(doc.get("offset"), int, f"{where}.offset"),
    )


def doc_to_profile(doc: dict) -> Profile:
    meta_doc = _check_type(doc.get("meta"), dict, "meta")
    structures_doc = _check_type(doc.get("structures"), dict, "structures")
    expected_meta = {
        "platform_version": str,
        "architecture": str,
        "build_variant": str,
        "binary_size_bytes": int,
        "dwarf_versions_seen": list,
        "raw_type_die_count": int,
        "extraction_tool_version": str,
    }
    missing = set(expected_meta) - set(meta_doc)
    if missing:
        raise SchemaError(f"meta is missing fields: {sorted(missing)}")
    for key, expected in expected_meta.items():
        _check_type(meta_doc[key], expected, f"meta.{key}")
    versions = []
    for v in meta_doc["dwarf_versions_seen"]:
        versions.append(_check_type(v, int, "meta.dwarf_versions_seen entry"))
    meta = ProfileMeta(
        platform_version=meta_doc["platform_version"],
        architecture=meta_doc["architecture"],
        build_variant=meta_doc["build_variant"],
        binary_size_bytes=meta_doc["binary_size_bytes"],
        dwarf_versions_seen=tuple(versions),
        raw_type_die_count=meta_doc["raw_type_die_count"],
        extraction_tool_version=meta_doc["extraction_tool_version"],
    )
    structures: Dict[str, StructureRecord] = {}
    for name, body in structures_doc.items():
        _check_type(body, dict, f"structures.{name}")
        size = _check_type(body.get("size"), int, f"{name}.size")
        members_doc = _check_type(body.get("members"), list, f"{name}.members")
        members = []
        # Exact-type tests pass what json.loads produces with one comparison
        # per value; anything else takes _member_record, whose _check_type
        # calls name the offending field.
        for i, m in enumerate(members_doc):
            if type(m) is dict:
                member_name = m.get("name")
                offset = m.get("offset")
                if type(member_name) is str and type(offset) is int:
                    members.append(MemberRecord(member_name, offset))
                    continue
            members.append(_member_record(m, f"{name}.members[{i}]"))
        structures[name] = StructureRecord(name, size, members)
    profile = Profile(meta, structures)
    validate_profile(profile)
    return profile


def loads_profile(text: str) -> Profile:
    return doc_to_profile(parse_json_document(text, PROFILE_SCHEMA))


def read_profile(source) -> Profile:
    return loads_profile(read_text(source))


@dataclass
class RepositoryIndex:
    """Profiles found under <root>/<version>/<architecture>/<stem>.profile.json.

    `profiles` holds the validated profiles of the architecture the index
    was built for, so a sequence is analyzed without reading a file twice.
    """

    entries: Dict[Tuple[str, str], Path]
    skipped: List[Tuple[Path, str]]
    profiles: Dict[Tuple[str, str], Profile] = field(default_factory=dict, repr=False)

    def sequence(self, architecture: str) -> List[Profile]:
        """Kept profiles of `architecture` in version order; empty unless the
        index was built with index_repository(root, architecture)."""
        keys = sorted(
            (key for key in self.profiles if key[1] == architecture),
            key=lambda key: version_key(key[0]),
        )
        return [self.profiles[key] for key in keys]


def index_repository(root, architecture: Optional[str] = None) -> RepositoryIndex:
    """Read and validate every profile under `root`.

    The profiles of `architecture` are kept in the index; the others are
    dropped once validated, so memory stays that of one architecture.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"repository root {root} does not exist")
    entries: Dict[Tuple[str, str], Path] = {}
    profiles: Dict[Tuple[str, str], Profile] = {}
    skipped: List[Tuple[Path, str]] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(PROFILE_SUFFIX):
                continue
            path = Path(dirpath) / filename
            try:
                profile = read_profile(path)
            except (SchemaError, InvariantError) as exc:
                skipped.append((path, str(exc)))
                continue
            key = (profile.meta.platform_version, profile.meta.architecture)
            if key in entries:
                skipped.append((path, f"duplicate profile for {key[0]}/{key[1]}"))
                continue
            entries[key] = path
            if key[1] == architecture:
                profiles[key] = profile
    return RepositoryIndex(entries, skipped, profiles)
