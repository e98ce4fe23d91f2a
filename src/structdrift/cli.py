"""Command-line front end: extract, store, diff, analyze, report.

Exit codes: 0 success, 1 breaking changes found under --fail-on-break,
2 usage error, 3 unreadable or malformed input, 4 internal error.

main() turns the cyclic garbage collector off for the run and restores
its earlier state afterwards. What a command builds (profiles, members,
reports) holds no reference cycles, so reference counting frees it. With
the collector on, the tens of thousands of objects allocated per profile
set off collections, some of which walk the whole growing heap, and
none of which finds anything to free.

Each command imports only the modules it runs, inside its handler: the
extractor only for an ELF input, analytics only for the sequence
analyses, diff only for diff, watch only for chains and a --scope, and
render for the output. Building the parser loads none of them.
A command keeps only the structures it reports on, after validating all.
"""

import argparse
import gc
import os
import sys
from typing import Dict, List, Optional, Tuple

from .errors import StructDriftError, UnsupportedFormatError
from .profile import (
    ARCHITECTURES,
    Profile,
    index_repository,
    read_profile,
    read_profiles,
    read_sequence,
    version_key,
    write_text,
)

EXIT_OK = 0
EXIT_BREAKAGE = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


def _add_output_options(parser, formats=("json", "table")):
    parser.add_argument("--out", help="write the report to this path instead of stdout")
    parser.add_argument("--format", choices=formats, default="json",
                        help="output format (default: json)")


def _add_repo_options(parser):
    parser.add_argument("--repo", default=os.environ.get("STRUCTDRIFT_REPO"),
                        help="profile repository root (default: $STRUCTDRIFT_REPO)")
    parser.add_argument("--arch", choices=ARCHITECTURES,
                        help="architecture to select from the repository")


def build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each command's parser by command name."""
    parser = argparse.ArgumentParser(
        prog="structdrift",
        description="Extract, store, diff and analyze structure layouts "
                    "from DWARF debug information in ELF shared libraries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract a layout profile from an ELF binary")
    p.add_argument("binary")
    p.add_argument("--version", dest="platform_version", default="unknown",
                   help="platform version label to record (e.g. 9..14)")
    p.add_argument("--arch", choices=ARCHITECTURES,
                   help="architecture label (default: inferred from the ELF header)")
    p.add_argument("--build-variant", default="unknown")
    _add_output_options(p)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("diff", help="compare two profiles")
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--scope", help="watchlist file restricting the comparison, "
                                   "or 'default' for the built-in list")
    p.add_argument("--fail-on-break", action="store_true",
                   help="exit 1 when the diff contains removals or offset moves")
    _add_output_options(p)
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("score", help="impact scores per structure and transition")
    p.add_argument("profiles", nargs="*", help="profile files in version order")
    p.add_argument("--scope", help="watchlist file or 'default'")
    _add_repo_options(p)
    _add_output_options(p, formats=("json", "csv", "table"))
    p.set_defaults(func=_cmd_analysis, analysis="impact_matrix")

    p = sub.add_parser("stats", help="binary size and symbol statistics")
    p.add_argument("sources", nargs="+", help="ELF binaries or profile files")
    _add_output_options(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("aggregate", help="change counts per transition with totals")
    p.add_argument("profiles", nargs="*")
    p.add_argument("--scope", help="watchlist file or 'default'")
    _add_repo_options(p)
    _add_output_options(p, formats=("json", "csv", "table"))
    p.set_defaults(func=_cmd_analysis, analysis="aggregate_transitions")

    p = sub.add_parser("timeline", help="size or member-offset timeline")
    p.add_argument("structure")
    p.add_argument("profiles", nargs="*")
    p.add_argument("--member", help="member name; omit for the size timeline")
    _add_repo_options(p)
    _add_output_options(p, formats=("json", "csv", "table"))
    p.set_defaults(func=_cmd_timeline)

    p = sub.add_parser("volatility", help="offset-change rates for surviving members")
    p.add_argument("profiles", nargs="*")
    p.add_argument("--scope", help="watchlist file or 'default'")
    _add_repo_options(p)
    _add_output_options(p)
    p.set_defaults(func=_cmd_analysis, analysis="volatility_stats")

    p = sub.add_parser("chains", help="resolve forensic chains against profiles")
    p.add_argument("profiles", nargs="+")
    p.add_argument("--chains", dest="chains_file", default="default",
                   help="chain spec file, or 'default' for the built-in chains")
    p.add_argument("--fail-on-break", action="store_true",
                   help="exit 1 when any chain or capability is broken")
    _add_output_options(p)
    p.set_defaults(func=_cmd_chains)

    p = sub.add_parser("index", help="catalog a profile repository")
    _add_repo_options(p)
    _add_output_options(p)
    p.set_defaults(func=_cmd_index)

    return parser, sub.choices


def _emit(args, report) -> None:
    from .render import render_report

    text = render_report(report, args.format)
    if args.out:
        write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _load_scope(value: Optional[str]):
    if value is None:
        return None, None
    from .watch import default_watchlist, load_watchlist

    spec = default_watchlist() if value == "default" else load_watchlist(value)
    return spec.structures, spec.name


def _check_sources(args) -> None:
    if not args.profiles and not args.repo:
        raise UsageError("give profile files, or --repo (or $STRUCTDRIFT_REPO)")
    if not args.profiles and not args.arch:
        raise UsageError("--arch is required when reading a sequence from --repo")


def _load_sequence(args, names) -> List[Profile]:
    _check_sources(args)
    if args.profiles:
        profiles = read_profiles(args.profiles, names)
        return sorted(profiles, key=lambda p: version_key(p.meta.platform_version))
    profiles = read_sequence(args.repo, args.arch, names)
    if not profiles:
        raise StructDriftError(f"no {args.arch} profiles found under {args.repo}")
    return profiles


class UsageError(Exception):
    pass


def _cmd_extract(args) -> int:
    from .extract import extract_profile

    profile = extract_profile(
        args.binary,
        platform_version=args.platform_version,
        architecture=args.arch,
        build_variant=args.build_variant,
    )
    _emit(args, profile)
    return EXIT_OK


def _diff_is_breaking(report) -> bool:
    if report.removed_structures:
        return True
    return any(d.offset_changes or d.member_removals for d in report.modified)


def _cmd_diff(args) -> int:
    from .diff import diff_profiles

    scope, _ = _load_scope(args.scope)
    report = diff_profiles(*read_profiles([args.old, args.new], scope), scope)
    _emit(args, report)
    if args.fail_on_break and _diff_is_breaking(report):
        return EXIT_BREAKAGE
    return EXIT_OK


def _cmd_analysis(args) -> int:
    """score, aggregate and volatility: one analysis over a version sequence."""
    from . import analytics

    _check_sources(args)  # before the scope file, which is read before the profiles
    scope, scope_name = _load_scope(args.scope)
    profiles = _load_sequence(args, scope)
    report = getattr(analytics, args.analysis)(profiles, scope, watchlist_name=scope_name)
    _emit(args, report)
    return EXIT_OK


def _is_elf(path: str) -> bool:
    try:
        with open(path, "rb") as fh:
            return fh.read(4) == b"\x7fELF"
    except OSError as exc:
        raise StructDriftError(f"cannot read {path}: {exc}") from exc


def _cmd_stats(args) -> int:
    from .analytics import StatsReport, binary_stats

    results = []
    for source in args.sources:
        if _is_elf(source):
            from .extract import extract_profile

            profile = extract_profile(source)
        else:
            profile = read_profile(source)
        results.append(binary_stats(profile)._replace(source=str(source)))
    _emit(args, StatsReport(results))
    return EXIT_OK


def _cmd_timeline(args) -> int:
    from .analytics import member_offset_timeline, size_timeline

    profiles = _load_sequence(args, [args.structure])
    if args.member:
        report = member_offset_timeline(profiles, args.structure, args.member)
    else:
        report = size_timeline(profiles, args.structure)
    _emit(args, report)
    return EXIT_OK


def _cmd_chains(args) -> int:
    from .watch import REASON_NOT_APPLICABLE, ChainReports, assess_capabilities, \
        default_chains, load_chains, resolve_chain

    chains = default_chains() if args.chains_file == "default" else load_chains(args.chains_file)
    profiles = _load_sequence(args, {step.structure for chain in chains for step in chain.steps})
    if len(profiles) == 1:
        reports = ChainReports(profiles[0].meta.platform_version,
                               [resolve_chain(profiles[0], chain) for chain in chains])
        _emit(args, reports)
        # Chains outside their version range are not breakage.
        broken = any(r.first_failure is not None
                     and r.first_failure[1] != REASON_NOT_APPLICABLE for r in reports.reports)
    else:
        assessment = assess_capabilities(profiles, chains)
        _emit(args, assessment)
        broken = any("broken" in statuses for statuses in assessment.statuses.values())
    if args.fail_on_break and broken:
        return EXIT_BREAKAGE
    return EXIT_OK


def _cmd_index(args) -> int:
    if not args.repo:
        raise UsageError("--repo (or $STRUCTDRIFT_REPO) is required")
    index = index_repository(args.repo)
    _emit(args, index)
    return EXIT_OK


def run(argv: List[str]) -> int:
    parser, commands = build_parser()
    try:
        # The command's own parser reads its arguments, so that options may
        # come before, between or after its files: the subcommand dispatch
        # fills a nargs="*" positional before later options (bpo-14191).
        if argv and argv[0] in commands:
            args = commands[argv[0]].parse_intermixed_args(argv[1:])
        else:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    # Before StructDriftError: UnsupportedFormatError is a SchemaError.
    except (UnsupportedFormatError, UsageError, ValueError) as exc:
        print(f"structdrift: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (StructDriftError, OSError) as exc:
        print(f"structdrift: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # Never exit 1 here: --fail-on-break users read 1 as breakage.
        print(f"structdrift: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = run(sys.argv[1:])
    finally:
        if collecting:
            gc.enable()
    sys.exit(code)


if __name__ == "__main__":
    main()
