"""Report serialization: canonical JSON, CSV and tables.

One registry maps each report type's name to its JSON, table and optional
CSV renderers, so importing this module loads no module that builds
reports. A profile's JSON is written from its records, other reports'
from their documents. CSV is available for matrix-, aggregate- and
timeline-shaped reports; real-valued cells carry three fraction digits,
counts and offsets stay plain integers, and absent cells are left empty.
Table output is fixed-width and carries the same values as the JSON form.
A report with both forms has one (headers, rows) builder, told only the
absent-cell marker or the total-row label each form uses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, NamedTuple, Optional

from .errors import UnsupportedFormatError
from .profile import Profile, RepositoryIndex, dumps_document, dumps_profile

if TYPE_CHECKING:  # annotations only: importing render loads no report module
    from .analytics import (ImpactMatrix, ImpactScore, StatsReport, TimelineReport,
                            TransitionTable, VolatilityStats)
    from .diff import ChangeCounts, DiffReport
    from .watch import CapabilityAssessment, ChainReports

DIFF_SCHEMA = "structdrift-diff/1"
IMPACT_SCHEMA = "structdrift-impact/1"
TIMELINE_SCHEMA = "structdrift-timeline/1"
VOLATILITY_SCHEMA = "structdrift-volatility/1"
STATS_SCHEMA = "structdrift-stats/1"
AGGREGATE_SCHEMA = "structdrift-aggregate/1"
CAPABILITIES_SCHEMA = "structdrift-capabilities/1"
CHAIN_REPORTS_SCHEMA = "structdrift-chain-reports/1"
INDEX_SCHEMA = "structdrift-index/1"

# The ChangeCounts fields the aggregate CSV and table show, in column order.
_AGGREGATE_COUNTS = ["offset_changes", "member_additions", "member_removals",
                     "structure_removals", "total_impact"]


def transition_label(from_label: str, to_label: str) -> str:
    return f"{from_label}->{to_label}"


# ------------------------------------------------------------------ diff

def diff_to_doc(report: DiffReport) -> dict:
    return {
        "schema": DIFF_SCHEMA,
        "from": report.from_label,
        "to": report.to_label,
        "added_structures": list(report.added_structures),
        "removed_structures": list(report.removed_structures),
        "modified": [
            {
                "name": d.name,
                "old_size": d.old_size,
                "new_size": d.new_size,
                "member_additions": [
                    {"name": m.name, "offset": m.offset} for m in d.member_additions
                ],
                "member_removals": [
                    {"name": m.name, "offset": m.offset} for m in d.member_removals
                ],
                "offset_changes": [
                    {"member": c.member_name, "old": c.old_offset, "new": c.new_offset}
                    for c in d.offset_changes
                ],
                "old_member_count": d.old_member_count,
                "shared_member_count": d.shared_member_count,
            }
            for d in report.modified
        ],
        "unchanged_count": report.unchanged_count,
    }


# ---------------------------------------------------------------- impact

def _score_to_doc(score: Optional[ImpactScore]):
    if score is None:
        return None
    return {"score": score.score, "factors": dict(score.factors)}


def matrix_to_doc(matrix: ImpactMatrix) -> dict:
    return {
        "schema": IMPACT_SCHEMA,
        "watchlist": matrix.watchlist_name,
        "transitions": [{"from": a, "to": b} for a, b in matrix.transitions],
        "structures": list(matrix.structures),
        "scores": {
            name: [_score_to_doc(s) for s in row]
            for name, row in matrix.scores.items()
        },
    }


def _matrix_rows(matrix: ImpactMatrix, absent: str):
    headers = ["structure"] + [transition_label(a, b) for a, b in matrix.transitions]
    rows = [
        [name] + [absent if s is None else f"{s.score:.3f}" for s in matrix.scores[name]]
        for name in matrix.structures
    ]
    return headers, rows


# -------------------------------------------------------------- timeline

def timeline_to_doc(report: TimelineReport) -> dict:
    return {
        "schema": TIMELINE_SCHEMA,
        "structure": report.structure,
        "member": report.member,
        "points": [
            {"version": version, "value": value} for version, value in report.points
        ],
    }


def _timeline_rows(report: TimelineReport, absent: str):
    rows = [
        [version, absent if value is None else str(value)]
        for version, value in report.points
    ]
    return ["version", "value"], rows


# ------------------------------------------------------------ volatility

def volatility_to_doc(stats: VolatilityStats) -> dict:
    return {
        "schema": VOLATILITY_SCHEMA,
        "watchlist": stats.watchlist_name,
        "overall_rate": stats.overall_rate,
        "total_surviving": stats.total_surviving,
        "total_moved": stats.total_moved,
        "per_structure": {
            name: {
                "surviving_members": v.surviving_members,
                "members_with_offset_change": v.members_with_offset_change,
                "rate": v.rate,
            }
            for name, v in stats.per_structure.items()
        },
    }


# ----------------------------------------------------------------- stats

def stats_to_doc(stats: StatsReport) -> dict:
    return {
        "schema": STATS_SCHEMA,
        "sources": [
            {
                "source": s.source,
                "binary_size_mb": s.binary_size_mb,
                "symbol_count": s.symbol_count,
                "dwarf_versions": list(s.dwarf_versions),
            }
            for s in stats.sources
        ],
    }


# ------------------------------------------------------------- aggregate

def aggregate_to_doc(table: TransitionTable) -> dict:
    return {
        "schema": AGGREGATE_SCHEMA,
        "watchlist": table.watchlist_name,
        "rows": [
            dict({"from": frm, "to": to}, **counts._asdict())
            for frm, to, counts in table.rows
        ],
        "totals": table.totals._asdict(),
    }


def _aggregate_rows(table: TransitionTable, total: str):
    def row(label: str, counts: ChangeCounts) -> List[str]:
        return [label] + [str(getattr(counts, name)) for name in _AGGREGATE_COUNTS]

    rows = [row(transition_label(frm, to), c) for frm, to, c in table.rows]
    rows.append(row(total, table.totals))
    return ["transition"] + _AGGREGATE_COUNTS, rows


# ---------------------------------------------------------- chain reports

def chain_reports_to_doc(chains: ChainReports) -> dict:
    return {
        "schema": CHAIN_REPORTS_SCHEMA,
        "profile_version": chains.profile_version,
        "reports": [
            {
                "chain": r.chain_id,
                "status": r.status,
                "resolved_steps": [
                    {"structure": s, "member": m, "offset": o}
                    for s, m, o in r.resolved_steps
                ],
                "first_failure": None
                if r.first_failure is None
                else {"step": r.first_failure[0], "reason": r.first_failure[1]},
            }
            for r in chains.reports
        ],
    }


def capabilities_to_doc(assessment: CapabilityAssessment) -> dict:
    return {
        "schema": CAPABILITIES_SCHEMA,
        "versions": list(assessment.versions),
        "capabilities": {
            cap: list(statuses) for cap, statuses in assessment.statuses.items()
        },
        "annotations": [
            {
                "from": n.from_version,
                "to": n.to_version,
                "capability": n.capability,
                "kind": n.kind,
                "detail": n.detail,
            }
            for n in assessment.annotations
        ],
    }


# ----------------------------------------------------------------- index

def index_to_doc(index: RepositoryIndex) -> dict:
    return {
        "schema": INDEX_SCHEMA,
        "entries": [
            {"platform_version": v, "architecture": a, "path": str(p)}
            for (v, a, _), p in sorted(index.entries.items())
        ],
        "skipped": [
            {"path": str(p), "reason": reason} for p, reason in index.skipped
        ],
    }


# ------------------------------------------------------------ csv, table

def _csv(headers: List[str], rows: List[List[str]]) -> str:
    """CSV text quoting a cell that holds a comma, a quote or a newline, and every
    cell if one holds a carriage return, which a writer ending lines in LF leaves bare."""
    import csv
    import io

    out = io.StringIO()
    table = [headers, *rows]
    bare = any("\r" in cell for row in table for cell in row)
    csv.writer(out, lineterminator="\n",
               quoting=csv.QUOTE_ALL if bare else csv.QUOTE_MINIMAL).writerows(table)
    return out.getvalue()


def _fixed_table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    out = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    out.append("  ".join("-" * w for w in widths))
    for row in rows:
        out.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(out) + "\n"


def _profile_table(profile: Profile) -> str:
    meta = profile.meta
    head = (
        f"profile {meta.platform_version}/{meta.architecture} "
        f"({len(profile.structures)} structures, "
        f"{meta.raw_type_die_count} raw type entries)\n"
    )
    rows = [
        [name, str(rec.byte_size), str(len(rec.members))]
        for name, rec in profile.structures.items()
    ]
    return head + _fixed_table(["structure", "size", "members"], rows)


def _diff_table(report: DiffReport) -> str:
    lines = [
        f"diff {report.from_label} -> {report.to_label}",
        f"added:     {', '.join(report.added_structures) or '(none)'}",
        f"removed:   {', '.join(report.removed_structures) or '(none)'}",
        f"modified:  {len(report.modified)}    unchanged: {report.unchanged_count}",
    ]
    rows = []
    for d in report.modified:
        rows.append(
            [d.name, str(d.old_size), str(d.new_size), str(len(d.offset_changes)),
             str(len(d.member_additions)), str(len(d.member_removals))]
        )
    if rows:
        lines.append(
            _fixed_table(
                ["structure", "old_size", "new_size", "moves", "adds", "removes"], rows
            ).rstrip("\n")
        )
    return "\n".join(lines) + "\n"


def _timeline_table(report: TimelineReport) -> str:
    subject = report.structure + (f".{report.member}" if report.member else "")
    return f"timeline for {subject}\n" + _fixed_table(*_timeline_rows(report, "absent"))


def _volatility_table(stats: VolatilityStats) -> str:
    rows = [
        [name, str(v.surviving_members), str(v.members_with_offset_change),
         f"{v.rate:.3f}"]
        for name, v in stats.per_structure.items()
    ]
    head = (
        f"overall rate {stats.overall_rate:.3f} "
        f"({stats.total_moved}/{stats.total_surviving} surviving members moved)\n"
    )
    return head + _fixed_table(["structure", "surviving", "moved", "rate"], rows)


def _stats_table(stats: StatsReport) -> str:
    rows = [
        [s.source, f"{s.binary_size_mb:.2f}", str(s.symbol_count),
         ",".join(str(v) for v in s.dwarf_versions)]
        for s in stats.sources
    ]
    return _fixed_table(["source", "size_mb", "symbols", "dwarf"], rows)


def _chain_reports_table(chains: ChainReports) -> str:
    rows = []
    for r in chains.reports:
        if r.first_failure is None:
            where = "-"
        else:
            where = f"step {r.first_failure[0]}: {r.first_failure[1]}"
        rows.append([r.chain_id, r.status, str(len(r.resolved_steps)), where])
    return (
        f"chains against profile {chains.profile_version}\n"
        + _fixed_table(["chain", "status", "steps_resolved", "failure"], rows)
    )


def _capabilities_table(assessment: CapabilityAssessment) -> str:
    headers = ["capability"] + list(assessment.versions)
    rows = [
        [cap] + list(statuses) for cap, statuses in assessment.statuses.items()
    ]
    body = _fixed_table(headers, rows)
    if assessment.annotations:
        notes = "\n".join(
            f"  [{n.kind}] {transition_label(n.from_version, n.to_version)} "
            f"{n.capability}: {n.detail}"
            for n in assessment.annotations
        )
        body += "annotations:\n" + notes + "\n"
    return body


def _index_table(index: RepositoryIndex) -> str:
    rows = [
        [v, a, str(p)] for (v, a, _), p in sorted(index.entries.items())
    ]
    body = _fixed_table(["version", "architecture", "path"], rows)
    if index.skipped:
        body += "skipped:\n" + "\n".join(
            f"  {p}: {reason}" for p, reason in index.skipped
        ) + "\n"
    return body


class _Renderers(NamedTuple):
    json: Callable[..., str]
    table: Callable[..., str]
    csv: Optional[Callable[..., str]] = None


def _json(to_doc: Callable[..., dict]) -> Callable[..., str]:
    return lambda report: dumps_document(to_doc(report))


_RENDERERS = {
    "Profile": _Renderers(dumps_profile, _profile_table),
    "DiffReport": _Renderers(_json(diff_to_doc), _diff_table),
    "ImpactMatrix": _Renderers(_json(matrix_to_doc),
                               lambda m: _fixed_table(*_matrix_rows(m, "-")),
                               lambda m: _csv(*_matrix_rows(m, ""))),
    "TimelineReport": _Renderers(_json(timeline_to_doc), _timeline_table,
                                 lambda r: _csv(*_timeline_rows(r, ""))),
    "VolatilityStats": _Renderers(_json(volatility_to_doc), _volatility_table),
    "TransitionTable": _Renderers(_json(aggregate_to_doc),
                                  lambda t: _fixed_table(*_aggregate_rows(t, "Total")),
                                  lambda t: _csv(*_aggregate_rows(t, "total"))),
    "CapabilityAssessment": _Renderers(_json(capabilities_to_doc), _capabilities_table),
    "RepositoryIndex": _Renderers(_json(index_to_doc), _index_table),
    "StatsReport": _Renderers(_json(stats_to_doc), _stats_table),
    "ChainReports": _Renderers(_json(chain_reports_to_doc), _chain_reports_table),
}


def render_report(report, fmt: str) -> str:
    """Render any module report; csv only exists for matrix-shaped ones."""
    kind = type(report).__name__
    renderers = _RENDERERS.get(kind)
    if fmt == "json":
        if renderers is None:
            raise UnsupportedFormatError(f"no json renderer for {kind}")
        return renderers.json(report)
    if fmt == "csv":
        if renderers is None or renderers.csv is None:
            raise UnsupportedFormatError(f"csv output is not available for {kind} reports")
        return renderers.csv(report)
    if fmt == "table":
        if renderers is None:
            raise UnsupportedFormatError(f"no table renderer for {kind}")
        return renderers.table(report)
    raise UnsupportedFormatError(f"unknown format {fmt!r}")
