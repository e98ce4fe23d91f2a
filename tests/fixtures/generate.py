#!/usr/bin/env python3
"""Regenerate the checked-in ELF fixtures and their layout oracles.

For each fixture binary this script freezes two independent oracles:

  * the compiler's own record-layout dump (clang -fdump-record-layouts),
    parsed into <name>.oracle.json as the expected sizes and offsets;
  * readelf's unit-header dump, parsed into the expected DWARF versions.

The test suite compares extractor output against these files; it never
invokes a compiler itself. Rerun this script only to rebuild fixtures,
then commit the new binaries and oracle files together.

Where clang is missing, `--binaries-only --cc gcc` rebuilds just the
binaries with gcc/g++ and leaves every *.oracle.json untouched (the
oracles need clang's record-layout dump, which gcc cannot produce):

    python tests/fixtures/generate.py --binaries-only --cc gcc

The functions-* fixtures hold function bodies for the DIE walker to jump
over. Their oracle is g++'s own: class sizes from -fdump-lang-class and
member offsets from the static_asserts in functions.cpp, which the compile
has checked. A full run rebuilds them too; `--binaries-only` leaves them
alone, and `--functions-only` rebuilds just them and their oracles, with
g++ alone:

    python tests/fixtures/generate.py --functions-only
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

CLANGXX = "clang++"
CLANG = "clang"
GXX = "g++"

# --cc choice -> (C compiler, C++ compiler) standing in for clang/clang++.
COMPILERS = {"clang": (CLANG, CLANGXX), "gcc": ("gcc", GXX)}

# Record source paths relative to this directory, so the binaries do not
# depend on where the repository is checked out.
PREFIX_MAP = [f"-fdebug-prefix-map={HERE}=."]
COMMON = ["-shared", "-fPIC", "-nostdlib", "-g"] + PREFIX_MAP
CXXFLAGS = ["-fno-rtti", "-fno-exceptions"]

# (output stem, compiler, source, extra flags)
BUILDS = [
    ("layouts-dwarf4-64", CLANGXX, "layouts.cpp", ["-gdwarf-4"]),
    ("layouts-dwarf5-64", CLANGXX, "layouts.cpp", ["-gdwarf-5"]),
    ("layouts-dwarf4-32", CLANGXX, "layouts.cpp", ["-gdwarf-4", "-m32"]),
    ("layouts-dwarf5-32", CLANGXX, "layouts.cpp", ["-gdwarf-5", "-m32"]),
    ("triple-dwarf4-64", CLANG, "triple.c", ["-gdwarf-4"]),
    ("triple-dwarf5-32", CLANG, "triple.c", ["-gdwarf-5", "-m32"]),
    ("triple2-dwarf4-64", CLANG, "triple_v2.c", ["-gdwarf-4"]),
]

# Differential fixtures: the same source from the GCC producer
# (data_bit_offset, implicit_const forms), compared in tests against the
# clang build. The 64-bit DWARF ones hold the only compiler-written units
# with 8-byte offsets, the DWARF 4 one also in .debug_types units.
GCC_BUILDS = [
    ("layouts-gcc-dwarf5-64", ["-gdwarf-5"]),
    ("layouts-gcc-dwarf64-v5", ["-gdwarf-5", "-gdwarf64"]),
    ("layouts-gcc-dwarf64-v4-types", ["-gdwarf-4", "-gdwarf64", "-fdebug-types-section"]),
]

# (output stem, flags) of the g++ builds of functions.cpp; -O2 adds inlined
# subroutines and call sites to the function bodies.
FUNCTION_BUILDS = [
    ("functions-dwarf4-64", ["-gdwarf-4"]),
    ("functions-dwarf5-64", ["-gdwarf-5"]),
    ("functions-O2-dwarf5-64", ["-O2", "-gdwarf-5"]),
]

FIELD_RE = re.compile(r"^\s*(\d+)(?::\d+-\d+)? \|( +)(.*?)\s*$")
SIZEOF_RE = re.compile(r"\[sizeof=(\d+)")
CLASS_DUMP_RE = re.compile(r"^Class (.*)\n\s+size=(\d+)", re.M)
OFFSETOF_RE = re.compile(r"static_assert\(offsetof\((\w+), (\w+)\) == (\d+)")


def run(cmd):
    # Run from this directory so the recorded compilation directory maps too.
    result = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE)
    if result.returncode != 0:
        sys.exit(f"command failed: {' '.join(cmd)}\n{result.stderr}")
    return result


def compile_fixture(stem, compiler, source, flags):
    out = HERE / f"{stem}.so"
    cmd = [compiler] + COMMON + flags + [str(HERE / source), "-o", str(out)]
    if compiler.endswith("++"):
        cmd[1:1] = CXXFLAGS
    run(cmd)
    return out


def record_layout_dump(compiler, source, flags):
    # Full codegen (not -fsyntax-only) so every record layout is forced.
    cmd = [compiler] + flags + ["-g", "-Xclang", "-fdump-record-layouts",
                                "-c", str(HERE / source), "-o", "/dev/null"]
    if compiler.endswith("++"):
        cmd[1:1] = CXXFLAGS
    result = subprocess.run(cmd, capture_output=True, text=True)
    if result.returncode != 0:
        sys.exit(f"layout dump failed: {' '.join(cmd)}\n{result.stderr}")
    return result.stdout + result.stderr


def parse_layout_dump(text):
    """Extract direct members and sizes for named struct/class records."""
    structures = {}
    lines = iter(text.splitlines())
    for line in lines:
        if line.strip() != "*** Dumping AST Record Layout":
            continue
        record_name = None
        members = []
        size = None
        for line in lines:
            m = FIELD_RE.match(line)
            if m:
                offset, indent, text_part = int(m.group(1)), m.group(2), m.group(3)
                depth = (len(indent) - 1) // 2  # "| " then two spaces per level
                if depth == 0:
                    kind, _, rest = text_part.partition(" ")
                    if kind in ("struct", "class") and "(anonymous" not in rest \
                            and "(unnamed" not in rest:
                        record_name = rest
                elif depth == 1 and record_name is not None:
                    if text_part.endswith("(base)") or text_part.endswith("base)"):
                        continue  # base-class subobject, not a direct member
                    if text_part.endswith(")"):
                        members.append({"name": "UnNamed", "offset": offset})
                    else:
                        members.append(
                            {"name": text_part.rsplit(" ", 1)[1], "offset": offset}
                        )
                continue
            s = SIZEOF_RE.search(line)
            if s:
                size = int(s.group(1))
                break
        if record_name is not None and size is not None:
            structures.setdefault(record_name, {"size": size, "members": members})
    return structures


def functions_oracle():
    """Structures of functions.cpp from g++'s class dump and static_asserts.

    The dump qualifies a type defined in a function body by its function,
    as in "f(int)::Entry", and writes a nameless one in angle brackets;
    neither is a layout.
    """
    source = HERE / "functions.cpp"
    dump = HERE / "functions.class"
    run([GXX] + CXXFLAGS + [f"-fdump-lang-class={dump}", "-c", str(source),
                            "-o", "/dev/null"])
    sizes = {name: int(size) for name, size in CLASS_DUMP_RE.findall(dump.read_text())
             if "::" not in name and not name.startswith("<")}
    dump.unlink()
    members = {}
    for name, member, offset in OFFSETOF_RE.findall(source.read_text()):
        members.setdefault(name, []).append({"name": member, "offset": int(offset)})
    return {name: {"size": size, "members": members[name]}
            for name, size in sorted(sizes.items())}


def build_functions():
    structures = functions_oracle()
    for stem, flags in FUNCTION_BUILDS:
        binary = compile_fixture(stem, GXX, "functions.cpp", flags)
        oracle = {
            "binary": binary.name,
            "dwarf_versions": dwarf_versions(binary),
            "structures": structures,
        }
        oracle_path = HERE / f"{stem}.oracle.json"
        oracle_path.write_text(json.dumps(oracle, indent=2) + "\n", encoding="utf-8")
        print(f"{binary.name}: {len(structures)} records, "
              f"DWARF {oracle['dwarf_versions']}")


def dwarf_versions(binary):
    result = run(["readelf", "--debug-dump=info", str(binary)])
    versions = sorted(
        {int(v) for v in re.findall(r"^\s*Version:\s+(\d+)", result.stdout, re.M)}
    )
    if not versions:
        sys.exit(f"readelf found no unit headers in {binary}")
    return versions


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--binaries-only", action="store_true",
                        help="rebuild the .so fixtures; never rewrite *.oracle.json")
    parser.add_argument("--cc", choices=sorted(COMPILERS), default="clang",
                        help="compiler family for the clang-built fixtures "
                             "(gcc needs --binaries-only)")
    parser.add_argument("--functions-only", action="store_true",
                        help="rebuild only the functions-* fixtures and their oracles")
    args = parser.parse_args()
    if args.functions_only:
        build_functions()
        return
    if args.cc != "clang" and not args.binaries_only:
        parser.error("oracles need clang's record-layout dump; "
                     "use --binaries-only with --cc gcc")
    cc, cxx = COMPILERS[args.cc]
    stand_in = {CLANG: cc, CLANGXX: cxx}
    for stem, compiler, source, flags in BUILDS:
        binary = compile_fixture(stem, stand_in[compiler], source, flags)
        if args.binaries_only:
            print(f"{binary.name}: built")
            continue
        dump_flags = [f for f in flags if not f.startswith("-gdwarf")]
        dump = record_layout_dump(compiler, source, dump_flags)
        structures = parse_layout_dump(dump)
        oracle = {
            "binary": binary.name,
            "dwarf_versions": dwarf_versions(binary),
            "structures": structures,
        }
        oracle_path = HERE / f"{stem}.oracle.json"
        oracle_path.write_text(json.dumps(oracle, indent=2) + "\n", encoding="utf-8")
        print(f"{binary.name}: {len(structures)} records, "
              f"DWARF {oracle['dwarf_versions']}")

    if not args.binaries_only:
        build_functions()

    for stem, flags in GCC_BUILDS:
        run([GXX, "-shared", "-fPIC", "-g"] + flags + PREFIX_MAP + CXXFLAGS
            + [str(HERE / "layouts.cpp"), "-o", str(HERE / f"{stem}.so")])
        print(f"{stem}.so: built")

    # Two compilation units: one identical duplicate type, one conflicting.
    run([cc, "-c", "-fPIC", "-g", "-gdwarf-4"] + PREFIX_MAP
        + [str(HERE / "merge_a.c"), "-o", str(HERE / "merge_a.o")])
    run([cc, "-c", "-fPIC", "-g", "-gdwarf-4"] + PREFIX_MAP
        + [str(HERE / "merge_b.c"), "-o", str(HERE / "merge_b.o")])
    run([cc, "-shared", "-nostdlib", str(HERE / "merge_a.o"),
         str(HERE / "merge_b.o"), "-o", str(HERE / "merge-two-cu.so")])
    (HERE / "merge_a.o").unlink()
    (HERE / "merge_b.o").unlink()
    print("merge-two-cu.so: built")

    # Relocatable objects. x86_64 uses RELA relocations, whose addends (and
    # so every string offset) live outside the debug sections: the extractor
    # does not apply them and must refuse the file (exit 3). i386 uses REL
    # relocations, whose addends sit in the section bytes, so its names
    # come out right without them.
    for stem, flags in (("thread-rela-64", []), ("thread-rel-32", ["-m32"])):
        run(["gcc", "-c", "-g", "-gdwarf-5"] + flags + PREFIX_MAP
            + [str(HERE / "thread.c"), "-o", str(HERE / f"{stem}.o")])
    print("thread-rela-64.o, thread-rel-32.o: built")

    # Stripped and compressed variants of the dwarf4-64 build.
    run(["objcopy", "--strip-debug", str(HERE / "layouts-dwarf4-64.so"),
         str(HERE / "layouts-stripped.so")])
    run(["objcopy", "--compress-debug-sections=zlib",
         str(HERE / "layouts-dwarf4-64.so"), str(HERE / "layouts-zlib-64.so")])
    # Legacy GNU compression: .zdebug_* sections with a "ZLIB" header.
    run(["objcopy", "--compress-debug-sections=zlib-gnu",
         str(HERE / "layouts-dwarf4-64.so"), str(HERE / "layouts-zlibgnu-64.so")])
    print("layouts-stripped.so, layouts-zlib-64.so, layouts-zlibgnu-64.so: built")


if __name__ == "__main__":
    main()
