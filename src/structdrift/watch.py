"""Forensic traversal chains and their per-version resolvability.

A chain is an ordered list of (structure, member) steps modelling how an
analysis tool walks from one runtime structure to the next. Resolution
checks structural presence only: each step's structure must exist in the
profile and contain the named member. The shipped chain and watchlist
definitions live in data files so deployments can amend them.
"""

from importlib import resources
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import SchemaError
from .profile import (
    Profile,
    _check_fields,
    _check_list,
    _check_str,
    _check_type,
    check_sequence,
    parse_json_document,
    read_named,
    version_key,
)

CHAINS_SCHEMA = "structdrift-chains/1"
WATCHLIST_SCHEMA = "structdrift-watchlist/1"

CAPABILITIES = (
    "thread_enumeration",
    "heap_analysis",
    "object_reconstruction",
    "dex_recovery",
)

REASON_STRUCTURE_MISSING = "structure-missing"
REASON_MEMBER_MISSING = "member-missing"
REASON_NOT_APPLICABLE = "chain-not-applicable"

STATUS_RESOLVED = "resolved"
STATUS_BROKEN = "broken"


class WatchlistSpec(NamedTuple):
    name: str
    structures: List[str]

    def validate(self) -> None:
        if not self.structures:
            raise SchemaError(f"watchlist {self.name!r} is empty")
        if len(set(self.structures)) != len(self.structures):
            raise SchemaError(f"watchlist {self.name!r} contains duplicates")


class ChainStep(NamedTuple):
    structure: str
    member: str


class ChainSpec(NamedTuple):
    id: str
    capability: str
    steps: List[ChainStep]
    min_version: Optional[str] = None
    max_version: Optional[str] = None

    def applies_to(self, version: str) -> bool:
        key = version_key(version)
        if self.min_version is not None and key < version_key(self.min_version):
            return False
        if self.max_version is not None and key > version_key(self.max_version):
            return False
        return True


class ChainReport(NamedTuple):
    chain_id: str
    status: str
    resolved_steps: List[Tuple[str, str, int]]
    first_failure: Optional[Tuple[int, str]] = None  # (step index, reason)


class ChainReports(NamedTuple):
    """Every chain resolved against one profile."""

    profile_version: str
    reports: List[ChainReport]


class TransitionNote(NamedTuple):
    from_version: str
    to_version: str
    capability: str
    kind: str  # "broke" | "restored" | "maintenance-required"
    detail: str


class CapabilityAssessment(NamedTuple):
    versions: List[str]
    # statuses[capability][i] corresponds to versions[i].
    statuses: Dict[str, List[str]]
    annotations: List[TransitionNote]


def _load_data_file(name: str) -> str:
    return resources.files("structdrift.data").joinpath(name).read_text("utf-8")


def parse_watchlist(text: str) -> WatchlistSpec:
    doc = parse_json_document(text, WATCHLIST_SCHEMA)
    spec = WatchlistSpec(_check_type(doc.get("name"), str, "name"),
                         _check_list(doc.get("structures"), "structures", _check_str))
    spec.validate()
    return spec


def load_watchlist(path) -> WatchlistSpec:
    return read_named(path, parse_watchlist)


def default_watchlist() -> WatchlistSpec:
    return parse_watchlist(_load_data_file("watchlist.json"))


def _chain_step(doc, where: str) -> ChainStep:
    return ChainStep(*_check_fields(doc, (("structure", str), ("member", str)), where))


def _chain_spec(doc, where: str) -> ChainSpec:
    _check_type(doc, dict, where)
    chain_id = _check_type(doc.get("id"), str, f"{where}.id")
    if not chain_id:
        raise SchemaError("chain id missing")
    capability = doc.get("capability")
    if capability not in CAPABILITIES:
        raise SchemaError(f"chain {chain_id}: unknown capability {capability!r}")
    steps = _check_list(doc.get("steps"), f"{where}.steps", _chain_step)
    if not steps:
        raise SchemaError(f"chain {chain_id}: needs at least one step")
    # Absent or null means no bounds; any other value must be an object.
    versions = doc.get("applicable_versions")
    versions = {} if versions is None else versions
    if not isinstance(versions, dict):
        raise SchemaError(f"chain {chain_id}: applicable_versions must be an object")
    min_v = versions.get("min")
    max_v = versions.get("max")
    if any(v is not None and not isinstance(v, str) for v in (min_v, max_v)):
        raise SchemaError(f"chain {chain_id}: applicable_versions bounds must be strings")
    if min_v is not None and max_v is not None \
            and version_key(min_v) > version_key(max_v):
        raise SchemaError(f"chain {chain_id}: applicable_versions range is inverted")
    return ChainSpec(chain_id, capability, steps, min_v, max_v)


def parse_chains(text: str) -> List[ChainSpec]:
    doc = parse_json_document(text, CHAINS_SCHEMA)
    chains = _check_list(doc.get("chains"), "chains", _chain_spec)
    seen_ids = set()
    for chain in chains:
        if chain.id in seen_ids:
            raise SchemaError(f"duplicate chain id {chain.id!r}")
        seen_ids.add(chain.id)
    return chains


def load_chains(path) -> List[ChainSpec]:
    return read_named(path, parse_chains)


def default_chains() -> List[ChainSpec]:
    return parse_chains(_load_data_file("chains.json"))


def resolve_chain(profile: Profile, chain: ChainSpec) -> ChainReport:
    """Walk the chain's steps against one profile's structure catalog."""
    if not chain.applies_to(profile.meta.platform_version):
        return ChainReport(chain.id, STATUS_BROKEN, [], (0, REASON_NOT_APPLICABLE))
    resolved: List[Tuple[str, str, int]] = []
    for index, step in enumerate(chain.steps):
        record = profile.structures.get(step.structure)
        offset = None if record is None else record.member_offset(step.member)
        if offset is None:
            reason = REASON_STRUCTURE_MISSING if record is None else REASON_MEMBER_MISSING
            return ChainReport(chain.id, STATUS_BROKEN, resolved, (index, reason))
        resolved.append((step.structure, step.member, offset))
    return ChainReport(chain.id, STATUS_RESOLVED, resolved)


def assess_capabilities(
    profiles: Sequence[Profile], chains: Sequence[ChainSpec]
) -> CapabilityAssessment:
    """Per-version capability status with transition annotations.

    A capability is resolved at a version when at least one applicable
    chain resolves there. Annotations mark status flips between
    consecutive versions, and offset movement inside chains that stay
    resolved (maintenance needed, but not broken).
    """
    check_sequence(profiles, 1)
    versions = [p.meta.platform_version for p in profiles]
    capabilities = sorted({c.capability for c in chains})
    reports: Dict[str, List[ChainReport]] = {c.id: [] for c in chains}
    statuses: Dict[str, List[str]] = {cap: [] for cap in capabilities}
    for profile in profiles:
        resolved_caps = set()
        for chain in chains:
            report = resolve_chain(profile, chain)
            reports[chain.id].append(report)
            if report.status == STATUS_RESOLVED:
                resolved_caps.add(chain.capability)
        for cap in capabilities:
            statuses[cap].append(
                STATUS_RESOLVED if cap in resolved_caps else STATUS_BROKEN
            )
    annotations: List[TransitionNote] = []
    for i in range(len(profiles) - 1):
        frm, to = versions[i], versions[i + 1]
        for cap in capabilities:
            before, after = statuses[cap][i], statuses[cap][i + 1]
            if before != after:
                kind = "broke" if after == STATUS_BROKEN else "restored"
                annotations.append(
                    TransitionNote(frm, to, cap, kind,
                                   f"capability {cap} {kind} at {frm}->{to}")
                )
        for chain in chains:
            a, b = reports[chain.id][i], reports[chain.id][i + 1]
            if a.status == STATUS_RESOLVED and b.status == STATUS_RESOLVED:
                shifted = [
                    step_a[0] + "." + step_a[1]
                    for step_a, step_b in zip(a.resolved_steps, b.resolved_steps)
                    if step_a[2] != step_b[2]
                ]
                if shifted:
                    annotations.append(
                        TransitionNote(
                            frm, to, chain.capability, "maintenance-required",
                            f"chain {chain.id}: offsets moved for "
                            + ", ".join(shifted),
                        )
                    )
    return CapabilityAssessment(versions, statuses, annotations)
