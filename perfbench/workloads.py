"""The three benchmark workloads: their operations and output checks.

A workload builds its corpus from the seed (`prepare`), then hands out one
cycle of operations at a time (`cycle`). Each operation is one structdrift
CLI invocation plus a check of its report against the generator's
reference model (corpus.py); the check returns an error message or None.
"""

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import corpus


@dataclass
class Op:
    command: str                              # CLI subcommand, used for per-command timings
    key: str                                  # identity of the report, for digest comparisons
    argv: List[str]
    check: Callable[[bytes], Optional[str]]
    out: Optional[Path] = None                # report file when the op writes with --out
    before: Optional[Callable[[], None]] = None
    input_bytes: Callable[[], int] = field(default=lambda: 0)


def _json(data: bytes):
    return json.loads(data.decode("utf-8"))


def check_profile(data: bytes, binary: corpus.Binary, version: str) -> Optional[str]:
    doc = _json(data)
    meta = doc.get("meta", {})
    want = {"platform_version": version, "architecture": binary.architecture,
            "build_variant": "unknown", "binary_size_bytes": binary.path.stat().st_size,
            "dwarf_versions_seen": [binary.dwarf_version],
            "raw_type_die_count": binary.raw_type_dies}
    if doc.get("schema") != "structdrift-profile/1":
        return f"schema {doc.get('schema')!r}"
    for key, value in want.items():
        if meta.get(key) != value:
            return f"meta.{key} = {meta.get(key)!r}, expected {value!r}"
    got = {name: (body["size"], [(m["name"], m["offset"]) for m in body["members"]])
           for name, body in doc["structures"].items()}
    if got != binary.structures:
        wrong = sorted(n for n in set(got) | set(binary.structures)
                       if got.get(n) != binary.structures.get(n))
        return f"{len(wrong)} structures differ from the reference, first {wrong[:3]}"
    if list(doc["structures"]) != sorted(doc["structures"]):
        return "structures are not in canonical order"
    return None


def _counts_match(rows: list, series: corpus.Series, scope=None) -> Optional[str]:
    keys = ("offset_changes", "member_additions", "member_removals",
            "structure_removals", "total_impact")
    want = []
    for (a, b), old, new in zip(zip(series.versions, series.versions[1:]),
                                series.layouts, series.layouts[1:]):
        counts = corpus.transition_counts(old, new, scope)
        want.append([f"{a}->{b}"] + [counts[k] for k in keys])
    want.append(["Total"] + [sum(r[i + 1] for r in want) for i in range(len(keys))])
    if rows != want:
        return f"aggregate rows {rows} differ from planted counts {want}"
    return None


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path, data_dir: Path):
        """`data_dir` holds the shipped watchlist and chain specs."""
        self.seed, self.work, self.data_dir = seed, work, data_dir


class ExtractLarge(Workload):
    name = "extract_large"

    def prepare(self) -> None:
        self.binary = corpus.build_extract_large(self.seed, self.work / "corpus")
        self.out = self.work / "large.profile.json"

    def cycle(self) -> List[Op]:
        b = self.binary
        return [Op("extract", "extract", ["extract", str(b.path), "--version", "14",
                                          "--out", str(self.out)],
                   lambda data: check_profile(data, b, "14"), out=self.out,
                   input_bytes=lambda: b.debug_info_bytes)]


class IngestSeries(Workload):
    name = "ingest_series"

    def prepare(self) -> None:
        self.series, self.binaries = corpus.build_ingest_series(self.seed, self.work / "corpus")
        self.repo = self.work / "repo"

    def _fresh_repo(self) -> None:
        shutil.rmtree(self.repo, ignore_errors=True)
        for version in self.series.versions:
            (self.repo / version / "x86_32").mkdir(parents=True)

    def cycle(self) -> List[Op]:
        ops = []
        paths = []
        for version, b in zip(self.series.versions, self.binaries):
            out = self.repo / version / "x86_32" / "libseries.profile.json"
            paths.append(out)
            ops.append(Op("extract", f"extract-{version}",
                          ["extract", str(b.path), "--version", version, "--out", str(out)],
                          lambda data, b=b, v=version: check_profile(data, b, v), out=out,
                          before=self._fresh_repo if not ops else None,
                          input_bytes=lambda b=b: b.debug_info_bytes))
        ops.append(Op("aggregate", "aggregate",
                      ["aggregate", "--repo", str(self.repo), "--arch", "x86_32"],
                      self._check_aggregate,
                      input_bytes=lambda: sum(p.stat().st_size for p in paths)))
        return ops

    def _check_aggregate(self, data: bytes) -> Optional[str]:
        doc = _json(data)
        keys = ("offset_changes", "member_additions", "member_removals",
                "structure_removals", "total_impact")
        rows = [[f"{r['from']}->{r['to']}"] + [r[k] for k in keys] for r in doc["rows"]]
        rows.append(["Total"] + [doc["totals"][k] for k in keys])
        return _counts_match(rows, self.series)


class RepoReports(Workload):
    name = "repo_reports"

    def prepare(self) -> None:
        self.watchlist = json.loads((self.data_dir / "watchlist.json").read_text())["structures"]
        self.chains = json.loads((self.data_dir / "chains.json").read_text())
        self.repo, self.series, self.link = corpus.build_repo(
            self.seed, self.work / "corpus", self.watchlist, self.chains)
        s = self.series
        self.files = [self.repo / v / "x86_64" / "libart.profile.json" for v in s.versions]
        self.diffs = [corpus.diff_layouts(a, b) for a, b in zip(s.layouts, s.layouts[1:])]

    def cycle(self) -> List[Op]:
        repo = ["--repo", str(self.repo), "--arch", "x86_64"]
        files = [str(f) for f in self.files]
        structure, member = self.link
        every = self._all_bytes
        return [
            Op("index", "index", ["index", "--repo", str(self.repo)], self._check_index,
               input_bytes=every),
            Op("score", "score", ["score", *repo, "--format", "csv"], self._check_score,
               input_bytes=every),
            Op("aggregate", "aggregate",
               ["aggregate", *repo, "--scope", "default", "--format", "table"],
               self._check_aggregate, input_bytes=every),
            Op("volatility", "volatility", ["volatility", *repo], self._check_volatility,
               input_bytes=every),
            Op("timeline", "timeline-size", ["timeline", structure, *repo],
               lambda d: self._check_timeline(d, structure, None), input_bytes=every),
            Op("timeline", "timeline-member", ["timeline", structure, "--member", member, *repo],
               lambda d: self._check_timeline(d, structure, member), input_bytes=every),
            Op("chains", "chains", ["chains", *files], self._check_chains, input_bytes=every),
            Op("diff", "diff", ["diff", files[0], files[-1]], self._check_diff,
               input_bytes=self._end_bytes),
        ]

    def _all_bytes(self) -> int:
        return sum(f.stat().st_size for f in self.files)

    def _end_bytes(self) -> int:
        return self.files[0].stat().st_size + self.files[-1].stat().st_size

    def _check_index(self, data: bytes) -> Optional[str]:
        doc = _json(data)
        got = sorted((e["platform_version"], e["architecture"], Path(e["path"]).name)
                     for e in doc["entries"])
        want = sorted((v, "x86_64", "libart.profile.json") for v in self.series.versions)
        if got != want or doc["skipped"]:
            return f"index entries {got} (skipped {doc['skipped']}) != {want}"
        return None

    def _check_score(self, data: bytes) -> Optional[str]:
        lines = [line.split(",") for line in data.decode("utf-8").splitlines()]
        s = self.series
        header = ["structure"] + [f"{a}->{b}" for a, b in zip(s.versions, s.versions[1:])]
        if lines[0] != header:
            return f"score header {lines[0]}"
        names = sorted(set().union(*s.layouts))
        if [row[0] for row in lines[1:]] != names:
            return "score rows are not every structure in name order"
        for row in lines[1:]:
            name = row[0]
            for i, cell in enumerate(row[1:]):
                old, new = s.layouts[i], s.layouts[i + 1]
                if name not in old or name not in new:
                    if cell != "":
                        return f"{name} {header[i + 1]}: score {cell} for an absent structure"
                    continue
                change = self.diffs[i]["modified"].get(name)
                value = float(cell)
                if not 0.0 <= value <= 1.0:
                    return f"{name}: score {value} outside [0, 1]"
                if change is None and cell != "0.000":
                    return f"{name} {header[i + 1]}: unchanged but scored {cell}"
                if change and (change["adds"] or change["removes"] or change["moves"]) \
                        and value <= 0.0:
                    return f"{name} {header[i + 1]}: member changes but scored 0"
        return None

    def _check_aggregate(self, data: bytes) -> Optional[str]:
        lines = data.decode("utf-8").splitlines()
        rows = [[cells[0]] + [int(c) for c in cells[1:]]
                for cells in (line.split() for line in lines[2:])]
        return _counts_match(rows, self.series, scope=self.watchlist)

    def _check_volatility(self, data: bytes) -> Optional[str]:
        doc = _json(data)
        want = corpus.volatility_counts(self.series.layouts)
        got = {n: (v["surviving_members"], v["members_with_offset_change"])
               for n, v in doc["per_structure"].items()}
        surviving = sum(v[0] for v in want.values())
        moved = sum(v[1] for v in want.values())
        if got != want:
            return "per-structure volatility differs from the planted drift"
        if (doc["total_surviving"], doc["total_moved"]) != (surviving, moved):
            return f"volatility totals {doc['total_surviving']}/{doc['total_moved']}"
        if doc["overall_rate"] != moved / surviving:
            return f"overall rate {doc['overall_rate']}"
        return None

    def _check_timeline(self, data: bytes, structure: str, member) -> Optional[str]:
        doc = _json(data)
        want = []
        for version, lay in zip(self.series.versions, self.series.layouts):
            if structure not in lay:
                value = None
            elif member is None:
                value = lay[structure][0]
            else:
                value = dict(lay[structure][1]).get(member)
            want.append({"version": version, "value": value})
        if doc["points"] != want:
            return f"timeline {doc['points']} != {want}"
        return None

    def _check_chains(self, data: bytes) -> Optional[str]:
        doc = _json(data)
        s = self.series
        want = corpus.chain_statuses(s.layouts, s.versions, self.chains)
        if doc["versions"] != s.versions or doc["capabilities"] != want:
            return f"capabilities {doc['capabilities']} != {want}"
        flips = sorted((n["from"], n["to"], n["capability"], n["kind"])
                       for n in doc["annotations"] if n["kind"] != "maintenance-required")
        expect = []
        for cap, statuses in want.items():
            for i in range(len(statuses) - 1):
                if statuses[i] != statuses[i + 1]:
                    kind = "broke" if statuses[i + 1] == "broken" else "restored"
                    expect.append((s.versions[i], s.versions[i + 1], cap, kind))
        if flips != sorted(expect):
            return f"capability flips {flips} != {expect}"
        return None

    def _check_diff(self, data: bytes) -> Optional[str]:
        doc = _json(data)
        want = corpus.diff_layouts(self.series.layouts[0], self.series.layouts[-1])
        if (doc["added_structures"], doc["removed_structures"], doc["unchanged_count"]) \
                != (want["added"], want["removed"], want["unchanged"]):
            return "diff structure lists differ from the reference"
        got: Dict[str, dict] = {}
        for d in doc["modified"]:
            got[d["name"]] = {
                "adds": sorted(m["name"] for m in d["member_additions"]),
                "removes": sorted(m["name"] for m in d["member_removals"]),
                "moves": sorted((c["member"], c["old"], c["new"]) for c in d["offset_changes"]),
                "old_size": d["old_size"], "new_size": d["new_size"]}
        if got != want["modified"]:
            wrong = sorted(n for n in set(got) | set(want["modified"])
                           if got.get(n) != want["modified"].get(n))
            return f"{len(wrong)} modified structures differ, first {wrong[:3]}"
        return None


WORKLOADS = {"extract_large": ExtractLarge, "repo_reports": RepoReports,
             "ingest_series": IngestSeries}
