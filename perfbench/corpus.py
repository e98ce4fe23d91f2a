"""Seeded corpus generator and reference model for the structdrift benchmark.

Everything here is independent of structdrift: layouts are computed from
the System V x86 ABI rules below, every binary embeds a static assertion
per member offset and per structure size so that gcc itself confirms the
reference while it builds, and the expected report contents (diffs,
aggregate counts, volatility, chain resolution) come from the plain-dict
reference functions at the end of this file.

The seed picks names, the order of member counts and types, which
structures drift and how. The amount of work is fixed by the constants
below (multisets of counts and types are shuffled, never redrawn), so
different seeds give corpora of the same size and shape.
"""

import hashlib
import json
import os
import random
import re
import shutil
import subprocess
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

# (size, alignment inside a structure) per scalar type and architecture.
SCALARS = {
    "x86_64": {"char": (1, 1), "short": (2, 2), "int": (4, 4), "float": (4, 4),
               "long long": (8, 8), "double": (8, 8), "void *": (8, 8)},
    "x86_32": {"char": (1, 1), "short": (2, 2), "int": (4, 4), "float": (4, 4),
               "long long": (8, 4), "double": (8, 4), "void *": (4, 4)},
}

# Fixed composition of member types; each corpus shuffles this cycle.
TYPE_CYCLE = (["int"] * 6 + ["char"] * 2 + ["short"] * 2 + ["long long"] * 2
              + ["double"] * 2 + ["void *"] * 3 + ["float"] + ["int[]"] * 2)
ARRAY_LENGTHS = (2, 3, 4)
WIDER = {"char": "int", "short": "int", "int": "long long", "float": "double"}

SYLLABLES = ("art", "bin", "cor", "dex", "el", "fal", "gar", "hep", "io",
             "jit", "kal", "lum", "mon", "nar", "oat", "pel", "quo", "ref",
             "sel", "tor", "ul", "vex", "wal", "xen", "yor", "zim")

# extract_large: a shared header of EXTRACT_STRUCTS classes included by
# EXTRACT_UNITS compilation units, each also defining EXTRACT_FUNCTIONS
# functions with parameters, locals and a nested block.
EXTRACT_UNITS = 10
EXTRACT_STRUCTS = 500
EXTRACT_FUNCTIONS = 200
EXTRACT_CONFLICTS = 6         # classes whose odd-unit definition has one more member
EXTRACT_EMBED_EVERY = 40      # every Nth member embeds an earlier class by value

# ingest_series: SERIES_STRUCTS structures over two headers and three units.
SERIES_VERSIONS = ("9", "10", "11", "12", "13", "14")
SERIES_STRUCTS = 220
SERIES_FUNCTIONS = 25

# repo_reports: REPO_STRUCTS structures per profile, watchlist included.
REPO_STRUCTS = 1200

# Planted drift per transition, as shares of the structure count.
DRIFT = {"insert": 0.03, "remove": 0.015, "widen": 0.015,
         "drop_struct": 0.005, "add_struct": 0.005}


@dataclass
class Member:
    name: str
    ctype: str               # a SCALARS key, or "struct <Name>" / "class <Name>"
    count: Optional[int] = None


@dataclass
class Struct:
    name: str
    members: List[Member]
    keyword: str = "struct"


Layout = Dict[str, Tuple[int, List[Tuple[str, int]]]]   # name -> (size, [(member, offset)])


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


def layout(structs: List[Struct], arch: str) -> Layout:
    """Sizes and member offsets by the x86 System V rules; members sorted by (offset, name)."""
    scalars = SCALARS[arch]
    shape: Dict[str, Tuple[int, int]] = {}
    result: Layout = {}
    for s in structs:
        offset, max_align, members = 0, 1, []
        for m in s.members:
            if m.ctype.split()[0] in ("struct", "class"):
                size, align = shape[m.ctype.split()[1]]
            else:
                size, align = scalars[m.ctype]
            offset = _align(offset, align)
            members.append((m.name, offset))
            offset += size * (m.count or 1)
            max_align = max(max_align, align)
        size = _align(offset, max_align)
        shape[s.name] = (size, max_align)
        result[s.name] = (size, sorted(members, key=lambda nm: (nm[1], nm[0])))
    return result


class Names:
    """Seeded, collision-free identifiers."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used = set()

    def make(self, capital: bool, suffix: str = "") -> str:
        while True:
            word = "".join(self.rng.choice(SYLLABLES)
                           for _ in range(self.rng.randint(2, 4)))
            name = (word.capitalize() if capital else word) + suffix
            if name not in self.used:
                self.used.add(name)
                return name


def _member_types(rng: random.Random, total: int) -> List[Tuple[str, Optional[int]]]:
    cycle = (TYPE_CYCLE * (total // len(TYPE_CYCLE) + 1))[:total]
    rng.shuffle(cycle)
    out = []
    for i, t in enumerate(cycle):
        if t == "int[]":
            out.append(("int", ARRAY_LENGTHS[i % len(ARRAY_LENGTHS)]))
        else:
            out.append((t, None))
    return out


def random_structs(rng: random.Random, count: int, names: Names,
                   fixed_names=()) -> List[Struct]:
    """`count` structures with 3..25 members each (a fixed, shuffled multiset)."""
    sizes = [3 + i % 23 for i in range(count)]
    rng.shuffle(sizes)
    types = _member_types(rng, sum(sizes))
    structs = []
    pos = 0
    fixed = list(fixed_names)
    for i, n in enumerate(sizes):
        member_names = Names(rng)
        members = [Member(member_names.make(False, "_"), t, c)
                   for t, c in types[pos:pos + n]]
        pos += n
        name = fixed[i] if i < len(fixed) else names.make(True)
        names.used.add(name)
        structs.append(Struct(name, members))
    return structs


# ---------------------------------------------------------------- C source

def _decl(m: Member) -> str:
    if m.ctype == "void *":
        text = f"void *{m.name}"
    else:
        text = f"{m.ctype} {m.name}"
    return text + (f"[{m.count}]" if m.count else "") + ";"


def struct_source(s: Struct) -> str:
    body = "\n".join("  " + _decl(m) for m in s.members)
    access = "public:\n" if s.keyword == "class" else ""
    return f"{s.keyword} {s.name} {{\n{access}{body}\n}};\n"


def layout_asserts(structs: List[Struct], lay: Layout, cxx: bool) -> str:
    sa = "static_assert" if cxx else "_Static_assert"
    lines = []
    for s in structs:
        size, members = lay[s.name]
        ref = f"{s.keyword} {s.name}"
        lines.append(f'{sa}(sizeof({ref}) == {size}, "{s.name} size");')
        for name, offset in members:
            lines.append(f'{sa}(__builtin_offsetof({ref}, {name}) == {offset}, '
                         f'"{s.name}.{name}");')
    return "\n".join(lines) + "\n"


def functions_source(rng: random.Random, prefix: str, count: int,
                     structs: List[Struct]) -> str:
    """Functions whose parameters, locals and blocks the DIE walker must skip."""
    out = []
    for i in range(count):
        a, b, c, d = (rng.choice(structs) for _ in range(4))
        out.append(
            f"int {prefix}_fn{i}({a.keyword} {a.name} *pa, {b.keyword} {b.name} *pb, "
            "int n, double w)\n"
            "{\n"
            f"  {c.keyword} {c.name} local;\n"
            f"  {d.keyword} {d.name} *other = 0;\n"
            "  int total = n;\n  double scale = w * 1.5;\n  void *alias = pb;\n"
            "  char tag = 'x';\n  short width = 2;\n"
            "  { int inner = total + 1; long long wide = inner; total = (int)wide; }\n"
            "  return total + (int)scale + (pa != 0) + (alias != 0) + (other != 0)\n"
            "         + tag + width + (int)sizeof local;\n"
            "}\n"
        )
    return "\n".join(out)


# ----------------------------------------------------------------- drift

def evolve(structs: List[Struct], rng: random.Random, names: Names, tag: str,
           protected=frozenset(), forced=()) -> Tuple[List[Struct], Dict[str, int]]:
    """Next version: each planted mutation hits a distinct structure.

    Structures named in `protected` are never dropped, and members listed
    there as "Structure.member" are never removed. `forced` lists (kind,
    structure, member) mutations applied first, such as removing or
    restoring a chain link. Returns the new model and the planted
    mutation counts by kind.
    """
    new = [Struct(s.name, [Member(m.name, m.ctype, m.count) for m in s.members],
                  s.keyword) for s in structs]
    by_name = {s.name: s for s in new}
    planted = dict.fromkeys(DRIFT, 0)
    touched = set()
    for kind, sname, mname in forced:
        s = by_name[sname]
        touched.add(sname)
        if kind == "remove":
            s.members = [m for m in s.members if m.name != mname]
        else:
            s.members.insert(rng.randint(0, len(s.members)), Member(mname, "void *"))
        planted[kind] += 1
    n = len(structs)
    for kind, share in DRIFT.items():
        want = max(1, round(n * share))
        if kind == "add_struct":
            for s in random_structs(rng, want, names):
                new.insert(rng.randint(0, len(new)), s)
                touched.add(s.name)
            planted[kind] += want
            continue
        pool = [s for s in new if s.name not in touched
                and (kind != "drop_struct" or s.name not in protected)
                and (kind != "remove" or len(s.members) > 4)
                and (kind != "widen" or any(m.ctype in WIDER for m in s.members))]
        for s in rng.sample(pool, want):
            touched.add(s.name)
            if kind == "insert":
                s.members.insert(rng.randint(0, len(s.members)),
                                 Member(names.make(False, f"_{tag}"),
                                        rng.choice(("int", "void *", "long long"))))
            elif kind == "remove":
                victims = [m for m in s.members if f"{s.name}.{m.name}" not in protected]
                s.members.remove(rng.choice(victims))
            elif kind == "widen":
                m = rng.choice([m for m in s.members if m.ctype in WIDER])
                m.ctype = WIDER[m.ctype]
            elif kind == "drop_struct":
                new.remove(s)
            planted[kind] += 1
    return new, planted


# ------------------------------------------------------------- reference

def diff_layouts(old: Layout, new: Layout, scope=None) -> dict:
    """Set-based reference diff; member names are unique within a structure."""
    names = set(old) | set(new)
    if scope is not None:
        names &= set(scope)
    out = {"added": sorted(n for n in names if n not in old),
           "removed": sorted(n for n in names if n not in new),
           "modified": {}, "unchanged": 0}
    for name in sorted(n for n in names if n in old and n in new):
        (osize, om), (nsize, nm) = old[name], new[name]
        o, n = dict(om), dict(nm)
        change = {"adds": sorted(set(n) - set(o)), "removes": sorted(set(o) - set(n)),
                  "moves": sorted((k, o[k], n[k]) for k in set(o) & set(n) if o[k] != n[k]),
                  "old_size": osize, "new_size": nsize}
        if change["adds"] or change["removes"] or change["moves"] or osize != nsize:
            out["modified"][name] = change
        else:
            out["unchanged"] += 1
    return out


def transition_counts(old: Layout, new: Layout, scope=None) -> dict:
    d = diff_layouts(old, new, scope)
    counts = {
        "offset_changes": sum(len(c["moves"]) for c in d["modified"].values()),
        "member_additions": sum(len(c["adds"]) for c in d["modified"].values()),
        "member_removals": sum(len(c["removes"]) for c in d["modified"].values()),
        "structure_removals": len(d["removed"]),
        "structure_additions": len(d["added"]),
    }
    counts["total_impact"] = (counts["offset_changes"] + counts["member_additions"]
                              + counts["member_removals"] + counts["structure_removals"])
    return counts


def volatility_counts(layouts: List[Layout], scope=None) -> Dict[str, Tuple[int, int]]:
    """Per structure: (members surviving some transition, of those moved in one)."""
    names = sorted(set().union(*layouts)) if scope is None else list(scope)
    survived, moved = set(), set()
    for old, new in zip(layouts, layouts[1:]):
        for name in names:
            if name in old and name in new:
                o, n = dict(old[name][1]), dict(new[name][1])
                for k in set(o) & set(n):
                    survived.add((name, k))
                    if o[k] != n[k]:
                        moved.add((name, k))
    per = {name: [0, 0] for name in names}
    for name, _ in survived:
        per[name][0] += 1
    for name, _ in moved:
        per[name][1] += 1
    return {name: tuple(v) for name, v in per.items()}


def _version_key(label: str):
    return [int(p) if p.isdigit() else p for p in re.split(r"(\d+)", label) if p]


def chain_statuses(layouts: List[Layout], versions: List[str], chains_doc: dict) -> dict:
    """Capability -> per-version "resolved"/"broken" from the chain spec document."""
    caps = sorted({c["capability"] for c in chains_doc["chains"]})
    result = {cap: [] for cap in caps}
    for lay, version in zip(layouts, versions):
        ok = set()
        for chain in chains_doc["chains"]:
            rng = chain.get("applicable_versions") or {}
            if "min" in rng and _version_key(version) < _version_key(rng["min"]):
                continue
            if "max" in rng and _version_key(version) > _version_key(rng["max"]):
                continue
            if all(step["structure"] in lay
                   and step["member"] in dict(lay[step["structure"]][1])
                   for step in chain["steps"]):
                ok.add(chain["capability"])
        for cap in caps:
            result[cap].append("resolved" if cap in ok else "broken")
    return result


# ----------------------------------------------------------------- builds

def _run(cmd: List[str], cwd: Path) -> None:
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr[-4000:]}")


def section_size(binary: Path, name: str) -> int:
    """Size of one section as readelf reports it (uncompressed file)."""
    out = subprocess.run(["readelf", "-S", "-W", str(binary)], capture_output=True,
                         text=True, check=True).stdout
    for line in out.splitlines():
        fields = line.replace("[ ", "[").split()
        if len(fields) > 5 and fields[1] == name:
            return int(fields[5], 16)
    raise RuntimeError(f"{binary} has no {name} section")


@dataclass
class Binary:
    path: Path
    structures: Layout        # expected profile catalog after merge
    raw_type_dies: int        # class/structure DIEs the binary holds
    dwarf_version: int
    architecture: str
    debug_info_bytes: int     # decompressed .debug_info size


def build(units: Dict[str, str], headers: Dict[str, str], out_dir: Path, name: str,
          compiler: str, flags: List[str], compress: bool) -> Tuple[Path, int]:
    """Compile and link the units into `name`, reusing a build of identical sources."""
    key = hashlib.sha256(json.dumps([units, headers, compiler, flags, compress],
                                    sort_keys=True).encode()).hexdigest()
    target = out_dir / name
    stamp = out_dir / (name + ".key")
    if target.exists() and stamp.exists() and stamp.read_text().split()[0] == key:
        return target, int(stamp.read_text().split()[1])
    src = out_dir / (name + ".src")
    shutil.rmtree(src, ignore_errors=True)
    src.mkdir(parents=True)
    for fname, text in {**headers, **units}.items():
        (src / fname).write_text(text)
    common = flags + ["-O0", "-fPIC", "-fno-eliminate-unused-debug-types"]
    objects = []

    def compile_unit(fname: str) -> None:
        _run([compiler] + common + ["-c", fname, "-o", fname + ".o"], src)

    with ThreadPoolExecutor(max_workers=2) as pool:
        for future in [pool.submit(compile_unit, f) for f in units]:
            future.result()
    objects = [f + ".o" for f in units]
    linked = src / "linked.so"
    _run([compiler] + common + ["-shared", "-nostdlib", "-o", str(linked)] + objects, src)
    info = section_size(linked, ".debug_info")
    if compress:
        _run(["objcopy", "--compress-debug-sections=zlib", str(linked), str(target)], src)
    else:
        os.replace(linked, target)
    shutil.rmtree(src)
    stamp.write_text(f"{key} {info}\n")
    return target, info


def build_extract_large(seed: int, out_dir: Path) -> Binary:
    rng = random.Random(f"extract_large:{seed}")
    names = Names(rng)
    structs = random_structs(rng, EXTRACT_STRUCTS, names)
    conflicted = set(rng.sample(range(EXTRACT_STRUCTS), EXTRACT_CONFLICTS))
    # Embed earlier, non-conflicted classes by value so nested layouts count.
    for i, s in enumerate(structs):
        s.keyword = "class" if i % 3 == 0 else "struct"
    k = 0
    for i, s in enumerate(structs):
        for m in s.members:
            k += 1
            if k % EXTRACT_EMBED_EVERY == 0 and i > 0:
                j = rng.randrange(i)
                if j not in conflicted:
                    m.ctype, m.count = f"{structs[j].keyword} {structs[j].name}", None
    variant = [Struct(s.name, list(s.members) + ([Member("planted_extra_", "int")]
                      if i in conflicted else []), s.keyword)
               for i, s in enumerate(structs)]
    base_lay = layout(structs, "x86_64")
    var_lay = layout(variant, "x86_64")

    header = ["#pragma once\n"]
    for i, (s, v) in enumerate(zip(structs, variant)):
        if i in conflicted:
            header.append(f"#if CU_VARIANT\n{struct_source(v)}#else\n{struct_source(s)}#endif\n")
        else:
            header.append(struct_source(s))
    units = {}
    for u in range(EXTRACT_UNITS):
        text = f"#define CU_VARIANT {u % 2}\n#include \"types.h\"\n"
        if u < 2:
            text += layout_asserts(variant if u else structs, var_lay if u else base_lay,
                                   cxx=True)
        text += functions_source(rng, f"u{u}", EXTRACT_FUNCTIONS, structs)
        units[f"unit{u:02d}.cpp"] = text
    flags = ["-gdwarf-5", "-fno-rtti", "-fno-exceptions", "-std=c++17"]
    path, info = build(units, {"types.h": "".join(header)}, out_dir, "large.so",
                       "g++", flags, compress=False)
    # Merge keeps the definition with the most members: the variant for
    # conflicted classes (their odd-unit definition).
    expected = {**base_lay, **{structs[i].name: var_lay[structs[i].name]
                               for i in conflicted}}
    return Binary(path, expected, EXTRACT_UNITS * EXTRACT_STRUCTS, 5, "x86_64", info)


@dataclass
class Series:
    versions: List[str]
    layouts: List[Layout]
    planted: List[Dict[str, int]]   # mutation counts per transition


def evolve_series(rng: random.Random, first: List[Struct], versions, names: Names,
                  arch: str, protected=frozenset(), forced=None) -> Tuple[Series, list]:
    """Versions drifting from `first`; checks the reference diff sees every plant."""
    models, layouts, planted = [first], [layout(first, arch)], []
    for version in versions[1:]:
        model, counts = evolve(models[-1], rng, names, f"v{version}", protected,
                               (forced or {}).get(version, ()))
        models.append(model)
        layouts.append(layout(model, arch))
        planted.append(counts)
        seen = transition_counts(layouts[-2], layouts[-1])
        if [seen[k] for k in ("member_additions", "member_removals", "structure_removals",
                              "structure_additions")] \
                != [counts[k] for k in ("insert", "remove", "drop_struct", "add_struct")]:
            raise RuntimeError(f"planted drift {counts} not seen by the reference diff {seen}")
    return Series(list(versions), layouts, planted), models


def build_ingest_series(seed: int, out_dir: Path) -> Tuple[Series, List[Binary]]:
    rng = random.Random(f"ingest_series:{seed}")
    names = Names(rng)
    first = random_structs(rng, SERIES_STRUCTS, names)
    series, models = evolve_series(rng, first, SERIES_VERSIONS, names, "x86_32")
    binaries = []
    for version, model, lay in zip(series.versions, models, series.layouts):
        half = len(model) // 2
        shared, own = model[:half], model[half:]
        headers = {"a.h": "".join(struct_source(s) for s in shared),
                   "b.h": "".join(struct_source(s) for s in own)}
        units = {
            "u0.c": '#include "a.h"\n' + layout_asserts(shared, lay, cxx=False)
                    + functions_source(rng, "u0", SERIES_FUNCTIONS, shared),
            "u1.c": '#include "a.h"\n#include "b.h"\n'
                    + functions_source(rng, "u1", SERIES_FUNCTIONS, model),
            "u2.c": '#include "b.h"\n' + layout_asserts(own, lay, cxx=False)
                    + functions_source(rng, "u2", SERIES_FUNCTIONS, own),
        }
        path, info = build(units, headers, out_dir, f"series{version}.so", "gcc",
                           ["-m32", "-gdwarf-4"], compress=True)
        binaries.append(Binary(path, lay, 2 * len(model), 4, "x86_32", info))
    return series, binaries


def profile_text(version: str, arch: str, lay: Layout, raw_dies: int) -> str:
    """A profile in the canonical structdrift-profile/1 layout."""
    doc = {
        "schema": "structdrift-profile/1",
        "meta": {"platform_version": version, "architecture": arch,
                 "build_variant": "userdebug", "binary_size_bytes": 40_000_000 + raw_dies,
                 "dwarf_versions_seen": [5], "raw_type_die_count": raw_dies,
                 "extraction_tool_version": "perfbench"},
        "structures": {name: {"size": size, "members": [{"name": m, "offset": o}
                                                      for m, o in members]}
                       for name, (size, members) in sorted(lay.items())},
    }
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


def chain_members(chains_doc: dict) -> Dict[str, List[str]]:
    out: Dict[str, List[str]] = {}
    for chain in chains_doc["chains"]:
        for step in chain["steps"]:
            members = out.setdefault(step["structure"], [])
            if step["member"] not in members:
                members.append(step["member"])
    return out


def build_repo(seed: int, out_dir: Path, watchlist: List[str], chains_doc: dict):
    """Six x86_64 profiles (versions 9..14) with planted drift, written as a repository."""
    rng = random.Random(f"repo_reports:{seed}")
    names = Names(rng)
    links = chain_members(chains_doc)
    fixed = list(dict.fromkeys(watchlist + sorted(links)))
    first = random_structs(rng, REPO_STRUCTS, names, fixed_names=fixed)
    for s in first:
        for member in links.get(s.name, ()):
            s.members.insert(rng.randint(0, len(s.members)), Member(member, "void *"))
    # One chain link breaks at the third version and comes back at the fourth.
    step = rng.choice([st for c in chains_doc["chains"] if "applicable_versions" not in c
                       for st in c["steps"]])
    link = (step["structure"], step["member"])
    forced = {SERIES_VERSIONS[2]: [("remove",) + link],
              SERIES_VERSIONS[3]: [("insert",) + link]}
    protected = frozenset(fixed + [f"{s}.{m}" for s, ms in links.items() for m in ms])
    series, _ = evolve_series(rng, first, SERIES_VERSIONS, names, "x86_64",
                              protected=protected, forced=forced)
    repo = out_dir / "repo"
    key = hashlib.sha256(repr(series.layouts).encode()).hexdigest()
    stamp = out_dir / "repo.key"
    if not (stamp.exists() and stamp.read_text() == key):
        shutil.rmtree(repo, ignore_errors=True)
        for version, lay in zip(series.versions, series.layouts):
            d = repo / version / "x86_64"
            d.mkdir(parents=True)
            (d / "libart.profile.json").write_text(
                profile_text(version, "x86_64", lay, 3 * len(lay)), encoding="utf-8")
        stamp.write_text(key)
    return repo, series, link
