"""Traced run: the workload's `medwer` command run in-process through
`cli.main`, with one span per call into a module's public function.

    PYTHONPATH=src python3 perfbench/traced.py --spans SPANS.jsonl \
        [--evaluate-out REPORT] -- COMMAND --manifest M --annotations A --workers 1 --out OUT ...

Run it as a fresh interpreter, so that the first import of `medwer.cli` is
timed. The command after `--` goes to `cli.main` unchanged, so the traced
run takes the CLI's own path and writes the same bytes. Each call that
crosses a module boundary on that path is traced by rebinding the imported
name on the calling module while the command runs: `cli` -> load_manifest,
load_annotations, evaluate_corpus, align_corpus and write_report; `runner`
-> the per-sample `_eval_task` (as `runner.evaluate_sample`),
med_text_align, wer, medical_wer, medical_cer and aggregate; `align` ->
tokenize, ngrams and similarity_ratio; `metrics` -> tokenize and
edit_distance. No file of the package changes.

The `align` command never enters `metrics`, never renders a report and
never calls `_eval_task`. For it, --evaluate-out is required: after the
command, `evaluate --per-sample` runs on the same files under a tracer of
its own and writes its report there, and the figures in EVALUATE_PASS come
from that pass. Every other figure comes from the command alone.
Afterwards `align_corpus` runs untraced, at one and two workers.

Spans are kept in memory as (name, start, end, parent index); those of the
command are written to SPANS.jsonl at the end. A `<name>_s` metric is the
inclusive time of all calls to that function; `<layer>.self_s` subtracts the
time of child spans. The last line of standard output is one JSON object:
`metrics`, plus `command_end` and `top_level_s`, from which the parent
derives the time no span covers.

    PYTHONPATH=src python3 perfbench/traced.py --wer-peak --manifest M

prints how much one `wer` call on the manifest's largest pair raises the
peak resident set of a fresh interpreter, in MB. It stands in for a
tracemalloc peak, which takes tens of seconds on a 2000 x 2000 table.
"""

import argparse
import importlib
import json
import math
import os
import resource
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("cli", "corpus", "textnorm", "align", "fuzzy", "metrics", "runner")

# Figures of functions the `align` command never calls; for it they come
# from the separate `evaluate --per-sample` pass.
EVALUATE_PASS = ("corpus.write_report_s", "metrics.wer_s", "metrics.medical_wer_s",
                 "metrics.medical_cer_s", "metrics.dp_cells", "metrics.aggregate_s",
                 "metrics.self_s", "runner.sample_p50_ms", "runner.sample_p99_ms")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name: str, fn, count=None):
        """fn wrapped to record a span per call; count(counts, args, result) tallies work."""
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced


@contextmanager
def rebound(bindings):
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in bindings]
    try:
        for module, attr, fn in bindings:
            setattr(module, attr, fn)
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def run_cli(tracer: Tracer, argv: list[str]) -> int:
    """cli.main(argv) with every cross-module call on its path traced."""
    from medwer import align, cli, corpus, fuzzy, metrics, runner, textnorm

    last_candidates = 0

    def count_pairs(counts, args, result):
        counts["corpus.pairs"] += len(result)

    def count_tokens(counts, args, result):
        counts["textnorm.tokens"] += len(result)

    def count_candidates(counts, args, result):
        nonlocal last_candidates
        last_candidates = len(result)
        counts["textnorm.candidates"] += len(result)

    def count_alignment(counts, args, result):
        counts["align.entities"] += len(result)
        counts["align.pairs"] += len(result) * last_candidates
        counts["align.matched"] += sum(ae.candidate is not None for ae in result)
        counts["align.exact"] += sum(ae.exact for ae in result)
        counts["align.shared_spans"] += align.shared_span_count(result)

    def count_cells(counts, args, result):
        counts["metrics.dp_cells"] += len(args[0]) * len(args[1])

    span = tracer.span
    tokenize = span("textnorm.tokenize", textnorm.tokenize, count_tokens)
    bindings = [
        (cli, "load_manifest", span("corpus.load_manifest", corpus.load_manifest, count_pairs)),
        (cli, "load_annotations", span("corpus.load_annotations", corpus.load_annotations)),
        (cli, "write_report", span("corpus.write_report", corpus.write_report)),
        (cli, "evaluate_corpus", span("runner.evaluate_corpus", runner.evaluate_corpus)),
        (cli, "align_corpus", span("runner.align_corpus", runner.align_corpus)),
        (runner, "_eval_task", span("runner.evaluate_sample", runner._eval_task)),
        (runner, "med_text_align", span("align.med_text_align", align.med_text_align, count_alignment)),
        (runner, "wer", span("metrics.wer", metrics.wer)),
        (runner, "medical_wer", span("metrics.medical_wer", metrics.medical_wer)),
        (runner, "medical_cer", span("metrics.medical_cer", metrics.medical_cer)),
        (runner, "aggregate", span("metrics.aggregate", metrics.aggregate)),
        (align, "tokenize", tokenize),
        (metrics, "tokenize", tokenize),
        (align, "ngrams", span("textnorm.ngrams", textnorm.ngrams, count_candidates)),
        (align, "similarity_ratio", span("fuzzy.similarity_ratio", fuzzy.similarity_ratio)),
        (metrics, "edit_distance", span("metrics.edit_distance", metrics.edit_distance, count_cells)),
    ]
    with rebound(bindings):
        return span("cli.main", cli.main)(argv)


def _percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def _span_totals(spans) -> tuple[Counter, Counter, Counter, float]:
    """Inclusive time and calls per span name, self time per layer, top-level time."""
    inclusive: Counter = Counter()
    calls: Counter = Counter()
    child: Counter = Counter()
    top = 0.0
    for name, start, end, parent in spans:
        inclusive[name] += end - start
        calls[name] += 1
        if parent < 0:
            top += end - start
        else:
            child[parent] += end - start
    self_time: Counter = Counter({layer: 0.0 for layer in LAYERS})
    for index, (name, start, end, _) in enumerate(spans):
        self_time[name.split(".")[0]] += end - start - child[index]
    return inclusive, calls, self_time, top


def figures(tracer: Tracer) -> tuple[dict, float]:
    """The per-layer figures of one traced command, and its top-level span time."""
    inclusive, calls, self_time, top = _span_totals(tracer.spans)
    counts = tracer.counts
    sample_ms = [(end - start) * 1000 for name, start, end, _ in tracer.spans
                 if name == "runner.evaluate_sample"]
    out = {
        "cli.import_s": inclusive["cli.import"],
        "corpus.load_manifest_s": inclusive["corpus.load_manifest"],
        "corpus.load_annotations_s": inclusive["corpus.load_annotations"],
        "corpus.write_report_s": inclusive["corpus.write_report"],
        "textnorm.tokenize_s": inclusive["textnorm.tokenize"],
        "textnorm.tokenize_calls": calls["textnorm.tokenize"],
        "textnorm.tokenize_calls_per_sample": calls["textnorm.tokenize"] / max(1, counts["corpus.pairs"]),
        "textnorm.tokens": counts["textnorm.tokens"],
        "textnorm.ngrams_s": inclusive["textnorm.ngrams"],
        "textnorm.candidates": counts["textnorm.candidates"],
        "align.med_text_align_s": inclusive["align.med_text_align"],
        "align.entities": counts["align.entities"],
        "align.matched": counts["align.matched"],
        "align.exact": counts["align.exact"],
        "align.shared_spans": counts["align.shared_spans"],
        "align.pairs": counts["align.pairs"],
        "align.full_ratio_frac": calls["fuzzy.similarity_ratio"] / max(1, counts["align.pairs"]),
        "fuzzy.similarity_ratio_calls": calls["fuzzy.similarity_ratio"],
        "fuzzy.similarity_ratio_s": inclusive["fuzzy.similarity_ratio"],
        "metrics.wer_s": inclusive["metrics.wer"],
        "metrics.medical_wer_s": inclusive["metrics.medical_wer"],
        "metrics.medical_cer_s": inclusive["metrics.medical_cer"],
        "metrics.dp_cells": counts["metrics.dp_cells"],
        "metrics.aggregate_s": inclusive["metrics.aggregate"],
        "runner.sample_p50_ms": _percentile(sample_ms, 50) if sample_ms else 0.0,
        "runner.sample_p99_ms": _percentile(sample_ms, 99) if sample_ms else 0.0,
        **{f"{layer}.self_s": self_time[layer] for layer in LAYERS},
    }
    return out, top


def wer_peak_mb(manifest: str) -> float:
    from medwer.corpus import load_manifest
    from medwer.metrics import wer

    largest = max(load_manifest(manifest),
                  key=lambda p: len(p.reference.split()) * len(p.hypothesis.split()))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wer(largest.reference, largest.hypothesis)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    own, command = (argv[:argv.index("--")], argv[argv.index("--") + 1:]) if "--" in argv else (argv, [])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans")
    parser.add_argument("--evaluate-out", help="report of the evaluate pass (align only)")
    parser.add_argument("--wer-peak", action="store_true")
    parser.add_argument("--manifest", help="with --wer-peak")
    args = parser.parse_args(own)
    if args.wer_peak:
        print(wer_peak_mb(args.manifest))
        return 0
    if not (args.spans and command):
        parser.error("--spans and a medwer command after -- are required for a traced run")
    if (command[0] == "align") != (args.evaluate_out is not None):
        parser.error("--evaluate-out is required with the align command, and only with it")

    tracer = Tracer()
    tracer.span("cli.import", importlib.import_module)("medwer.cli")
    from medwer import cli, corpus, runner

    code = run_cli(tracer, command)
    command_end = time.perf_counter()
    if code != 0:
        return code
    cli_args = cli.build_parser().parse_args(command)
    out, top = figures(tracer)
    out["corpus.input_bytes"] = os.path.getsize(cli_args.manifest) + os.path.getsize(cli_args.annotations)
    out["corpus.report_bytes"] = os.path.getsize(cli_args.out)

    if args.evaluate_out is not None:
        evaluate = Tracer()
        code = run_cli(evaluate, ["evaluate", "--manifest", cli_args.manifest, "--annotations",
                                  cli_args.annotations, "--workers", "1", "--per-sample",
                                  "--out", args.evaluate_out])
        if code != 0:
            return code
        evaluate_figures = figures(evaluate)[0]
        out.update((name, evaluate_figures[name]) for name in EVALUATE_PASS)

    pairs = corpus.load_manifest(cli_args.manifest)
    annotations = corpus.load_annotations(cli_args.annotations, pairs)
    for workers in (1, 2):
        start = time.perf_counter()
        runner.align_corpus(pairs, annotations, runner.RunConfig(workers=workers))
        out[f"runner.align_corpus_w{workers}_s"] = time.perf_counter() - start
    out["runner.parallel_speedup"] = out["runner.align_corpus_w1_s"] / out["runner.align_corpus_w2_s"]

    with open(args.spans, "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps(s) + "\n" for s in tracer.spans)
    print(json.dumps({"metrics": out, "command_end": command_end, "top_level_s": top}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
