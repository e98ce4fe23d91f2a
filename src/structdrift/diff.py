"""Profile comparison: structure add/remove plus member-level changes.

Members are matched by identity (name, ordinal-among-same-name) so that
repeated anonymous members pair up positionally instead of collapsing.
Every structure name in either catalog lands in exactly one of: added,
removed, modified, unchanged.
"""

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .profile import MemberRecord, Profile, StructureRecord


class MemberChange(NamedTuple):
    member_name: str
    old_offset: int
    new_offset: int


class StructureDiff(NamedTuple):
    name: str
    old_size: int
    new_size: int
    member_additions: List[MemberRecord]
    member_removals: List[MemberRecord]
    offset_changes: List[MemberChange]
    # Denominators for impact scoring; not part of the change taxonomy.
    old_member_count: int
    shared_member_count: int

    def is_change(self) -> bool:
        return bool(
            self.member_additions
            or self.member_removals
            or self.offset_changes
            or self.old_size != self.new_size
        )


class DiffReport(NamedTuple):
    from_label: str
    to_label: str
    added_structures: List[str]
    removed_structures: List[str]
    modified: List[StructureDiff]
    unchanged_count: int


class ChangeCounts(NamedTuple):
    offset_changes: int = 0
    member_additions: int = 0
    member_removals: int = 0
    structure_removals: int = 0
    structure_additions: int = 0
    total_impact: int = 0


def member_identities(members: Sequence[MemberRecord]) -> List[Tuple[str, int]]:
    """Identity of each member: its name plus ordinal among that name."""
    counts: Dict[str, int] = {}
    identities = []
    for member in members:
        ordinal = counts.get(member.name, 0)
        counts[member.name] = ordinal + 1
        identities.append((member.name, ordinal))
    return identities


MemberPair = Tuple[Tuple[str, int], MemberRecord, MemberRecord]


def match_members(
    old: Sequence[MemberRecord], new: Sequence[MemberRecord]
) -> Tuple[List[MemberPair], List[MemberRecord], List[MemberRecord]]:
    """Pair members by identity.

    Returns (identity, old member, new member) for each shared identity,
    then the removed members in old order and the added ones in new order.
    """
    unmatched = dict(zip(member_identities(new), new))
    pairs: List[MemberPair] = []
    removed = []
    for identity, member in zip(member_identities(old), old):
        counterpart = unmatched.pop(identity, None)
        if counterpart is None:
            removed.append(member)
        else:
            pairs.append((identity, member, counterpart))
    return pairs, removed, list(unmatched.values())


def same_members(old: Sequence[MemberRecord], new: Sequence[MemberRecord]) -> bool:
    """Whether two member lists are equal: same names and offsets, in order.

    Compares the records as plain tuples, in C; MemberRecord.__eq__ runs in
    Python. Most structures keep their members from one version to the next.
    """
    return len(old) == len(new) and all(map(tuple.__eq__, old, new))


def diff_structure(old: StructureRecord, new: StructureRecord) -> StructureDiff:
    if old.name != new.name:
        raise ValueError(f"structure name mismatch: {old.name!r} vs {new.name!r}")
    if same_members(old.members, new.members):
        # Every member is shared and none moved; only the size may differ.
        added, removed, changes, shared = [], [], [], len(old.members)
    else:
        pairs, removed, added = match_members(old.members, new.members)
        changes = [MemberChange(a.name, a.offset, b.offset)
                   for _, a, b in pairs if a.offset != b.offset]
        shared = len(pairs)
    return StructureDiff(
        name=old.name, old_size=old.byte_size, new_size=new.byte_size,
        member_additions=added, member_removals=removed, offset_changes=changes,
        old_member_count=len(old.members), shared_member_count=shared,
    )


def diff_profiles(
    old: Profile, new: Profile, scope: Optional[Sequence[str]] = None
) -> DiffReport:
    names = set(old.structures) | set(new.structures)
    if scope is not None:
        names &= set(scope)
    added, removed, modified = [], [], []
    unchanged = 0
    for name in sorted(names):
        in_old = name in old.structures
        in_new = name in new.structures
        if in_old and not in_new:
            removed.append(name)
        elif in_new and not in_old:
            added.append(name)
        else:
            diff = diff_structure(old.structures[name], new.structures[name])
            if diff.is_change():
                modified.append(diff)
            else:
                unchanged += 1
    return DiffReport(old.meta.platform_version, new.meta.platform_version,
                      added, removed, modified, unchanged)


def summarize_diff(report: DiffReport) -> ChangeCounts:
    """Aggregate counts; total_impact excludes structure additions."""
    moves = sum(len(d.offset_changes) for d in report.modified)
    additions = sum(len(d.member_additions) for d in report.modified)
    removals = sum(len(d.member_removals) for d in report.modified)
    structure_removals = len(report.removed_structures)
    return ChangeCounts(moves, additions, removals, structure_removals,
                        len(report.added_structures),
                        moves + additions + removals + structure_removals)
