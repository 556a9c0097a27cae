"""Command-line front end: evaluate | align | selfcheck.

Every report and every align record is written as UTF-8, whatever the
locale: the bytes on stdout are the bytes --out would hold.

Exit codes: 0 success, 1 usage error, 2 ingestion or I/O error, 3 fixture or
self-check failure.
"""

import argparse
import sys

from .align import DEFAULT_THRESHOLD
from .corpus import (REPORT_FORMATS, IngestionError, load_annotations, load_manifest, write_output,
                     write_report)
from .runner import GROUP_KEYS, RunConfig, align_corpus, evaluate_corpus
from .textnorm import DEFAULT_MAX_NGRAM, NORMALIZATION_MODES

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INGESTION = 2
EXIT_SELFCHECK = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the exit-code contract
    # reserves 2 for ingestion problems.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="medwer",
                     description="Entity-aware evaluation of ASR transcripts: "
                                 "WER, M-WER, M-CER, and per-category recall.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--manifest", required=True,
                        help="line-delimited JSON with id/reference/hypothesis records")
    common.add_argument("--annotations", required=True,
                        help="line-delimited JSON with per-id entity annotations")
    common.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help=f"fuzzy-match cutoff in (0, 1] (default {DEFAULT_THRESHOLD})")
    common.add_argument("--max-ngram", type=int, default=DEFAULT_MAX_NGRAM,
                        help=f"largest candidate n-gram (default {DEFAULT_MAX_NGRAM})")
    common.add_argument("--normalization", choices=NORMALIZATION_MODES, default="standard",
                        help="text normalization policy (default standard)")
    common.add_argument("--strict", action="store_true",
                        help="escalate skippable annotation problems to errors")
    common.add_argument("--workers", type=int, default=1,
                        help="processes that score contiguous ranges of the samples, at most "
                             "one per usable CPU; this process scores the first range and "
                             "POSIX-forks one child per other range, and the run is serial "
                             "where there is no fork. Results do not depend on it (default 1)")
    common.add_argument("--out", default=None,
                        help="output path; the output is UTF-8, the same bytes as on stdout "
                             "(default stdout)")

    evaluate = sub.add_parser("evaluate", parents=[common],
                              help="run alignment and all metrics, write a report")
    evaluate.add_argument("--format", choices=REPORT_FORMATS, default="json",
                          dest="fmt", help="report format (default json)")
    evaluate.add_argument("--per-sample", action="store_true",
                          help="include per-sample rows in the report")
    evaluate.add_argument("--group-by", default=None,
                          help=f"comma-separated subset of {{{','.join(GROUP_KEYS)}}} "
                               "for grouped corpus rows")

    sub.add_parser("align", parents=[common],
                   help="emit per-entity alignment records as line-delimited JSON")

    sub.add_parser("selfcheck", help="run the embedded golden fixtures and oracle spot-checks")
    return parser


def _run_config(args: argparse.Namespace) -> RunConfig:
    """The run's RunConfig; raises ValueError for a bad knob, or for a report
    section that the format cannot hold."""
    raw = getattr(args, "group_by", None)  # align has no --group-by
    group_by = () if raw is None else tuple(key.strip() for key in raw.split(",") if key.strip())
    if raw is not None and not group_by:
        raise ValueError(f"group-by {raw!r} names no key; expected a subset of {GROUP_KEYS}")
    cfg = RunConfig(threshold=args.threshold, max_ngram=args.max_ngram, normalization=args.normalization,
                    group_by=group_by, workers=args.workers)
    if args.command == "evaluate":
        if args.fmt == "csv" and cfg.group_by:
            raise ValueError("csv reports have no group rows; use json or table with group-by")
        if args.fmt == "table" and args.per_sample:
            raise ValueError("table reports have no per-sample rows; use json or csv with per-sample")
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)

    if args.command == "selfcheck":
        # the fixtures and oracles load only for selfcheck, not on every run
        from .fixtures import run_selfcheck
        return EXIT_OK if run_selfcheck() else EXIT_SELFCHECK

    try:
        cfg = _run_config(args)
    except ValueError as e:
        print(f"medwer: error: {e}", file=sys.stderr)
        return EXIT_USAGE

    try:
        pairs = load_manifest(args.manifest)
        annotations = load_annotations(args.annotations, pairs, strict=args.strict,
                                       normalization=cfg.normalization)
        if args.command == "evaluate":
            corpus, samples, groups = evaluate_corpus(pairs, annotations, cfg)
            write_report(corpus, samples if args.per_sample else None, args.fmt, args.out,
                         config=cfg.config_dict(), groups=groups)
        else:
            write_output(align_corpus(pairs, annotations, cfg), args.out)
    except (IngestionError, OSError) as e:
        print(f"medwer: error: {e}", file=sys.stderr)
        return EXIT_INGESTION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
