"""Run-time span tracing of structdrift's modules, from outside the program.

`Tracer.install()` replaces every public function of each layer module
(and a few methods and generators named in EXTRA) with a wrapper that
records a span (name, start, end, parent) in memory, then patches every
structdrift module attribute that referred to the original, so calls
through `from .x import f` imports are traced too. `uninstall()` puts the
originals back. No source file is edited.

Generators (the DIE walker, the unit-header iterator) are timed per
resumption: their span starts at the first resumption and lasts for the
summed busy time, so parent self time stays exact.

A layer or metric whose functions no longer exist is reported as
untraced instead of failing the run.
"""

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

LAYERS = ("elf", "dwarf", "extract", "profile", "diff", "analytics", "watch",
          "render", "cli")

# Methods and generators traced besides the public module-level functions.
EXTRA = {"elf": ("ElfFile.debug_section",), "dwarf": ("UnitWalker.__iter__",)}

# Per-element helpers called once per DIE, member or sort key: tracing
# them would cost more than the work they do.
SKIP = {"dwarf.member_byte_offset", "profile.version_key", "render.transition_label"}

KEPT_TAGS = (0x02, 0x13, 0x0D)  # DW_TAG_class_type, DW_TAG_structure_type, DW_TAG_member

# Counts that must repeat exactly from run to run of one corpus.
EXACT_COUNTS = ("elf.load_calls_per_extract", "profile.reads_per_file",
                "diff.member_match_passes", "dwarf.dies", "dwarf.abbrev_tables_parsed",
                "extract.raw_types")


class Tracer:
    def __init__(self):
        self.spans: List[list] = []       # [name, start, end, parent index]
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.paths: Dict[int, Counter] = defaultdict(Counter)  # op span -> read_text paths
        self.patches: list = []
        self.traced: set = set()
        self.broken_observers: set = set()
        self.op_root: Optional[int] = None

    # ------------------------------------------------------------ install

    def install(self) -> None:
        self.uninstall()
        originals = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"structdrift.{layer}")
            except ImportError:
                continue
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in SKIP or not inspect.isfunction(value) \
                        or value.__module__ != module.__name__:
                    continue
                originals[value] = self._wrap(name, value)
            for qualified in EXTRA.get(layer, ()):
                owner_name, method = qualified.split(".")
                owner = getattr(module, owner_name, None)
                fn = getattr(owner, method, None) if owner is not None else None
                if fn is None:
                    continue
                self.patches.append((owner, method, fn))
                setattr(owner, method, self._wrap(f"{layer}.{qualified}", fn))
        for module in [m for n, m in sys.modules.items()
                       if n == "structdrift" or n.startswith("structdrift.")]:
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self.patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        self.traced.add(name)
        observe = OBSERVERS.get(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn, observe)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            self.counts[name] += 1
            if observe is not None:
                self._observe(name, observe, args, result)
            return result
        return wrapper

    def _wrap_generator(self, name: str, fn: Callable, observe) -> Callable:
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, None, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            inner = fn(*args, **kwargs)
            busy, items, kept = 0.0, 0, 0
            watch = observe
            try:
                while True:
                    stack.append(index)
                    start = time.perf_counter()
                    if record[1] is None:
                        record[1] = start
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        busy += time.perf_counter() - start
                        stack.pop()
                    items += 1
                    if watch is not None:
                        try:
                            kept += watch(item)
                        except Exception:  # the item shape changed; report, never fail
                            self.broken_observers.add(name)
                            watch = None
                    yield item
            finally:
                if record[1] is None:
                    record[1] = time.perf_counter()
                record[2] = record[1] + busy
                self.counts[name] += 1
                self.counts[name + ":items"] += items
                self.counts[name + ":kept"] += kept
        return wrapper

    def _observe(self, name: str, observe, args, result) -> None:
        try:
            observe(self, args, result)
        except Exception:  # a refactor changed the shape; report, never fail
            self.broken_observers.add(name)

    # -------------------------------------------------------------- spans

    @contextlib.contextmanager
    def op(self, label: str):
        """Root span of one CLI operation; spans below it share its index."""
        self.op_root = len(self.spans)
        record = [f"op.{label}", time.perf_counter(), 0.0, -1]
        self.spans.append(record)
        self.stack.append(self.op_root)
        try:
            yield
        finally:
            self.stack.pop()
            record[2] = time.perf_counter()


def _observe_walker(item) -> int:
    return 1 if item[1] in KEPT_TAGS else 0


def _observe_read_text(tracer, args, result):
    tracer.counts["profile.bytes_read"] += len(result)
    tracer.paths[tracer.op_root][str(args[0])] += 1


def _observe_parse_raw_types(tracer, args, result):
    entries, meta = result
    tracer.counts["extract.raw_types"] += len(entries)
    tracer.counts["extract.members_skipped"] += meta.members_skipped


def _observe_merge(tracer, args, result):
    catalog, conflicts = result
    tracer.counts["extract.merge_input"] += len(args[0])
    tracer.counts["extract.unique"] += len(catalog)
    tracer.counts["extract.merge_conflicts"] += len(conflicts)


def _observe_section(tracer, args, result):
    tracer.counts["elf.debug_bytes"] += len(result) if result is not None else 0


def _observe_render(tracer, args, result):
    tracer.counts["render.bytes_out"] += len(result)


OBSERVERS = {
    "dwarf.UnitWalker.__iter__": _observe_walker,
    "profile.read_text": _observe_read_text,
    "extract.parse_raw_types": _observe_parse_raw_types,
    "extract.merge_duplicate_definitions": _observe_merge,
    "elf.ElfFile.debug_section": _observe_section,
    "render.render_report": _observe_render,
}


# ------------------------------------------------------------- metrics

class SpanIndex:
    """Durations, self times and outermost sums over one pass's spans."""

    def __init__(self, spans: List[list], first_span: int = 0):
        self.spans = spans
        self.first_span = first_span
        self.children = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                self.children[parent] += end - start

    def total(self, *names: str) -> float:
        """Summed duration of spans with these names, outermost only."""
        wanted = set(names)
        total = 0.0
        for name, start, end, parent in self.spans:
            if name in wanted and not self._inside(parent, wanted):
                total += end - start
        return total

    def _inside(self, parent: int, wanted: set) -> bool:
        while parent >= 0:
            if self.spans[parent][0] in wanted:
                return True
            parent = self.spans[parent][3]
        return False

    def self_time(self, prefix: str = "", name: str = "") -> float:
        out = 0.0
        for i, (n, start, end, _) in enumerate(self.spans):
            if (name and n == name) or (prefix and n.startswith(prefix)):
                out += end - start - self.children[i]
        return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _reads_per_file(tracer, first_span: int) -> float:
    """Most reads of one file within one operation."""
    return max((max(paths.values()) for op, paths in tracer.paths.items()
                if op >= first_span and paths), default=0)


# metric -> (unit, functions it needs, compute(index, counts, tracer))
METRICS = {
    "dwarf.walk_s": ("s", ["dwarf.UnitWalker.__iter__"],
                     lambda ix, c, t: ix.total("dwarf.UnitWalker.__iter__")),
    "dwarf.dies": ("count", ["dwarf.UnitWalker.__iter__"],
                   lambda ix, c, t: c["dwarf.UnitWalker.__iter__:items"]),
    "dwarf.dies_per_s": ("1/s", ["dwarf.UnitWalker.__iter__"],
                         lambda ix, c, t: _ratio(c["dwarf.UnitWalker.__iter__:items"],
                                                 ix.total("dwarf.UnitWalker.__iter__"))),
    "dwarf.kept_ratio": ("ratio", ["dwarf.UnitWalker.__iter__"],
                         lambda ix, c, t: _ratio(c["dwarf.UnitWalker.__iter__:kept"],
                                                 c["dwarf.UnitWalker.__iter__:items"])),
    "dwarf.unit_headers_s": ("s", ["dwarf.iter_unit_headers"],
                             lambda ix, c, t: ix.total("dwarf.iter_unit_headers")),
    "dwarf.units": ("count", ["dwarf.iter_unit_headers"],
                    lambda ix, c, t: c["dwarf.iter_unit_headers:items"]),
    "dwarf.abbrev_s": ("s", ["dwarf.parse_abbrev_table"],
                       lambda ix, c, t: ix.total("dwarf.parse_abbrev_table")),
    "dwarf.abbrev_tables_parsed": ("count", ["dwarf.parse_abbrev_table"],
                                   lambda ix, c, t: c["dwarf.parse_abbrev_table"]),
    "extract.collect_s": ("s", ["extract.parse_raw_types"],
                          lambda ix, c, t: ix.self_time(name="extract.parse_raw_types")),
    "extract.raw_types": ("count", ["extract.parse_raw_types"],
                          lambda ix, c, t: c["extract.raw_types"]),
    "extract.merge_s": ("s", ["extract.merge_duplicate_definitions"],
                        lambda ix, c, t: ix.total("extract.merge_duplicate_definitions")),
    "extract.unique_ratio": ("ratio", ["extract.merge_duplicate_definitions"],
                             lambda ix, c, t: _ratio(c["extract.unique"],
                                                     c["extract.merge_input"])),
    "extract.members_skipped": ("count", ["extract.parse_raw_types"],
                                lambda ix, c, t: c["extract.members_skipped"]),
    "extract.merge_conflicts": ("count", ["extract.merge_duplicate_definitions"],
                                lambda ix, c, t: c["extract.merge_conflicts"]),
    "elf.load_s": ("s", ["elf.load_elf"], lambda ix, c, t: ix.total("elf.load_elf")),
    "elf.load_calls_per_extract": ("count", ["elf.load_elf", "extract.extract_profile_with_meta"],
                                   lambda ix, c, t: _ratio(
                                       c["elf.load_elf"],
                                       c["extract.extract_profile_with_meta"])),
    "elf.section_s": ("s", ["elf.ElfFile.debug_section"],
                      lambda ix, c, t: ix.total("elf.ElfFile.debug_section")),
    "elf.debug_bytes": ("bytes", ["elf.ElfFile.debug_section"],
                        lambda ix, c, t: c["elf.debug_bytes"]),
    "profile.write_s": ("s", ["profile.dumps_profile"],
                        lambda ix, c, t: ix.total("profile.dumps_profile",
                                                  "profile.write_profile")),
    "profile.read_s": ("s", ["profile.read_profile"],
                       lambda ix, c, t: ix.total("profile.read_profile", "profile.read_text")),
    "profile.validate_s": ("s", ["profile.validate_profile"],
                           lambda ix, c, t: ix.total("profile.validate_profile")),
    "profile.reads_per_file": ("count", ["profile.read_text"],
                               lambda ix, c, t: _reads_per_file(t, ix.first_span)),
    "profile.index_s": ("s", ["profile.index_repository"],
                        lambda ix, c, t: ix.total("profile.index_repository")),
    "profile.bytes_read": ("bytes", ["profile.read_text"],
                           lambda ix, c, t: c["profile.bytes_read"]),
    "diff.diff_profiles_s": ("s", ["diff.diff_profiles"],
                             lambda ix, c, t: ix.total("diff.diff_profiles")),
    "diff.structure_diffs": ("count", ["diff.diff_structure"],
                             lambda ix, c, t: c["diff.diff_structure"]),
    "diff.member_match_passes": ("count", ["diff.member_identities"],
                                 lambda ix, c, t: c["diff.member_identities"] // 2),
    "analytics.impact_matrix_s": ("s", ["analytics.impact_matrix"],
                                  lambda ix, c, t: ix.total("analytics.impact_matrix")),
    "analytics.aggregate_s": ("s", ["analytics.aggregate_transitions"],
                              lambda ix, c, t: ix.total("analytics.aggregate_transitions")),
    "analytics.volatility_s": ("s", ["analytics.volatility_stats"],
                               lambda ix, c, t: ix.total("analytics.volatility_stats")),
    "analytics.timeline_s": ("s", ["analytics.size_timeline"],
                             lambda ix, c, t: ix.total("analytics.size_timeline",
                                                       "analytics.member_offset_timeline")),
    "watch.chains_s": ("s", ["watch.assess_capabilities"],
                       lambda ix, c, t: ix.total("watch.assess_capabilities",
                                                 "watch.resolve_chain")),
    "watch.resolve_calls": ("count", ["watch.resolve_chain"],
                            lambda ix, c, t: c["watch.resolve_chain"]),
    "render.render_s": ("s", ["render.render_report"],
                        lambda ix, c, t: ix.total("render.render_report")),
    "render.bytes_out": ("bytes", ["render.render_report"],
                         lambda ix, c, t: c["render.bytes_out"]),
}
for _layer in LAYERS:
    METRICS[f"{_layer}.self_s"] = ("s", [], (lambda p: lambda ix, c, t: ix.self_time(p))(
        _layer + "."))

# Observers that feed a metric besides the span counts.
_FED_BY = {"dwarf.kept_ratio": "dwarf.UnitWalker.__iter__",
           "extract.raw_types": "extract.parse_raw_types",
           "extract.members_skipped": "extract.parse_raw_types",
           "extract.unique_ratio": "extract.merge_duplicate_definitions",
           "extract.merge_conflicts": "extract.merge_duplicate_definitions",
           "elf.debug_bytes": "elf.ElfFile.debug_section",
           "profile.reads_per_file": "profile.read_text",
           "profile.bytes_read": "profile.read_text",
           "render.bytes_out": "render.render_report"}


def untraced_metrics(tracer: Tracer) -> List[str]:
    out = []
    for metric, (_, needs, _) in METRICS.items():
        layer = metric.split(".")[0]
        if not any(n.startswith(layer + ".") for n in tracer.traced) \
                or any(n not in tracer.traced for n in needs) \
                or _FED_BY.get(metric) in tracer.broken_observers:
            out.append(metric)
    return out


def pass_metrics(tracer: Tracer, first_span: int, counts: Counter) -> Dict[str, float]:
    """Every layer metric over the spans recorded since `first_span`."""
    spans = tracer.spans[first_span:]
    rebased = [[n, s, e, p - first_span if p >= 0 else -1] for n, s, e, p in spans]
    index = SpanIndex(rebased, first_span)
    skip = set(untraced_metrics(tracer))
    return {metric: (0 if metric in skip else compute(index, counts, tracer))
            for metric, (_, _, compute) in METRICS.items()}
