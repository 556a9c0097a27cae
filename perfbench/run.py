"""The medwer benchmark: seeded corpora, the CLI end to end, and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the repository root; it needs `src/medwer` and writes only under
`.perfbench_work/`. Each workload's corpus comes from
`medwer.fixtures.synthetic_corpus` under a seed derived from --seed and is
written as manifest and annotation JSONL before anything is timed.

With --trace 0, the workload's `medwer` command runs as a subprocess, one
process at a time, until --seconds have passed (a closed loop with one
client). Before each run, a set-up probe starts the interpreter, imports
`medwer.cli` and loads the corpus files. With --trace 1 the untraced CLI at
one worker alternates with `traced.py`, which runs the same command
in-process through `cli.main` with a span around each call into a module;
see that file for the per-layer metrics.

Every output is checked outside the timed region (see verify.py). The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the line before it holds quartiles, run counts,
input sizes and machine details. The exit code is 1 when any check fails and
2 when the program is missing.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Set-up probes before each timed CLI run; the median of all of them is setup_s.
PROBES_PER_RUN = 2
# A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 90


PER_SAMPLE_JSON = ("--per-sample", "--format", "json")


@dataclass(frozen=True)
class Workload:
    command: tuple[str, ...]          # subcommand and flags besides files, --workers and --out
    workers: int
    shape: tuple[int, int, int]       # samples, tokens per sample, entities per sample
    smoke_shape: tuple[int, int, int]
    letter_map: bool = False          # map every letter to a non-ASCII one (corpora.LETTER_MAP)


WORKLOADS = {
    "short_utterances": Workload(("evaluate", *PER_SAMPLE_JSON), 1, (2000, 30, 3), (12, 30, 3)),
    "long_consultation": Workload(("evaluate",), 1, (1, 2000, 100), (1, 120, 8)),
    "short_unicode_align": Workload(("align",), 2, (2000, 30, 3), (12, 30, 3), letter_map=True),
}

# The evaluate pass that traced.py adds to an align command (see EVALUATE_PASS there).
EVALUATE_PASS_COMMAND = ("evaluate", "--per-sample")

# Count metrics of the traced run; they must repeat exactly between iterations.
TRACE_COUNTS = ("corpus.input_bytes", "corpus.report_bytes", "textnorm.tokenize_calls",
                "textnorm.tokens", "textnorm.candidates", "align.entities", "align.matched",
                "align.exact", "align.shared_spans", "align.pairs",
                "fuzzy.similarity_ratio_calls", "metrics.dp_cells")


@dataclass
class Run:
    start: float
    wall: float
    cpu: float
    rss_mb: float
    code: int


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
                PYTHONHASHSEED="0")


def spawn(argv: list[str], stdout, stderr) -> Run:
    """Run a child to completion; CPU time and peak RSS cover its reaped workers too."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=stdout, stderr=stderr)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(start, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def machine_details() -> dict:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": model, "load_at_start": list(os.getloadavg())}


class Bench:
    """One workload at one seed: its corpus, its work directory and its checks."""

    def __init__(self, name: str, seed: int, seconds: float, smoke: bool):
        import corpora
        self.name, self.seed, self.seconds = name, seed, seconds
        self.workload = WORKLOADS[name]
        self.work = WORK / name
        self.work.mkdir(parents=True, exist_ok=True)
        shape = self.workload.smoke_shape if smoke else self.workload.shape
        self.corpus, self.plain = corpora.build(self.work, name, seed, corpora.Shape(*shape),
                                                self.workload.letter_map)
        self.inputs = self.corpus.sizes()
        self.problems: list[str] = []
        self.attempted = self.failed = 0

    def _spawn(self, argv: list[str], stdout=subprocess.DEVNULL) -> Run:
        with open(self.work / "stderr.log", "wb") as stderr:
            run = spawn(argv, stdout, stderr)
        self.attempted += 1
        if run.code != 0:
            self.failed += 1
            tail = (self.work / "stderr.log").read_text(encoding="utf-8", errors="replace")[-500:]
            self.problems.append(f"{argv[1:3]} exited {run.code}: {tail}")
        return run

    def _files(self) -> list[str]:
        return ["--manifest", str(self.corpus.manifest),
                "--annotations", str(self.corpus.annotations_path)]

    def cli(self, command: tuple[str, ...], workers: int, out: Path) -> tuple[Run, bytes | None]:
        """One timed CLI run and the digest of its output (None when it failed)."""
        run = self._spawn([sys.executable, "-m", "medwer.cli", command[0], *self._files(),
                           "--workers", str(workers), "--out", str(out), *command[1:]])
        return run, hashlib.sha256(out.read_bytes()).digest() if run.code == 0 else None

    def probe(self) -> float:
        """Wall time of one set-up probe."""
        out = self.work / "probe.out"
        with open(out, "wb") as handle:
            run = self._spawn([sys.executable, str(HERE / "setup_probe.py"),
                               str(self.corpus.manifest), str(self.corpus.annotations_path)], handle)
        expected = f"{len(self.corpus.pairs)} {len(self.corpus.annotations)}"
        if run.code == 0 and out.read_text().strip() != expected:
            self.failed += 1
            self.problems.append(f"set-up probe loaded {out.read_text().strip()}, expected {expected}")
        return run.wall

    def repeat(self, step) -> None:
        """Call step() until --seconds have passed; a call starts only if the
        median call so far fits in the time left, so a run does not overshoot."""
        durations: list[float] = []
        deadline = time.perf_counter() + self.seconds
        while not durations or time.perf_counter() + statistics.median(durations) < deadline:
            start = time.perf_counter()
            if not step():
                return
            durations.append(time.perf_counter() - start)

    def _plain_align_records(self) -> str:
        """`align --workers 1` records of the unmapped corpus."""
        from medwer import cli
        out = self.work / "plain" / "align.jsonl"
        code = cli.main(["align", "--manifest", str(self.plain.manifest), "--annotations",
                         str(self.plain.annotations_path), "--workers", "1", "--out", str(out)])
        return out.read_text(encoding="utf-8") if code == 0 else ""

    def check_output(self, command: tuple[str, ...], digests: list[bytes | None], path: Path) -> None:
        """Identical bytes on every run, and the bytes themselves verified once."""
        import verify
        good = [d for d in digests if d is not None]
        if not good:
            return
        mismatched = sum(d is not None and d != good[0] for d in digests)
        if mismatched:
            self.failed += mismatched
            self.problems.append(f"{mismatched} of {len(digests)} outputs differ from the first")
        text = path.read_text(encoding="utf-8")
        if hashlib.sha256(text.encode("utf-8")).digest() != good[0]:
            self.failed += 1
            self.problems.append("the last output differs from the first")
            return
        if command[0] == "align":
            problems = verify.check_align(text, self.corpus, self._plain_align_records(), self.seed)
        else:
            problems = verify.check_report(text, self.corpus, "--per-sample" in command, self.seed)
        if problems:
            self.failed += len(good) - mismatched
            self.problems += problems

    def end_to_end(self) -> tuple[dict, dict]:
        out = self.work / "output"
        setup, runs, digests = [], [], []

        def step() -> bool:
            setup.extend(self.probe() for _ in range(PROBES_PER_RUN))
            run, digest = self.cli(self.workload.command, self.workload.workers, out)
            runs.append(run)
            digests.append(digest)
            return True

        self.repeat(step)
        self.check_output(self.workload.command, digests, out)
        tokens = self.inputs["tokens"]
        series = {
            "setup_s": setup,
            "wall_s": [r.wall for r in runs],
            "tokens_per_s": [tokens / r.wall for r in runs],
            "cpu_s": [r.cpu for r in runs],
            "peak_rss_mb": [r.rss_mb for r in runs],
        }
        return series, {}

    def traced(self) -> tuple[dict, dict]:
        """The untraced CLI at one worker alternating with traced.py on the same files."""
        command = self.workload.command
        cli_out, traced_out = self.work / "output_cli", self.work / "output_traced"
        argv = [sys.executable, str(HERE / "traced.py"), "--spans", str(self.work / "spans.jsonl")]
        evaluate_out = self.work / "traced_evaluate" if command[0] == "align" else None
        if evaluate_out is not None:
            argv += ["--evaluate-out", str(evaluate_out)]
        argv += ["--", command[0], *self._files(), "--workers", "1", "--out", str(traced_out), *command[1:]]
        digests: list[bytes | None] = []
        evaluate_digests: list[bytes | None] = []
        layers, overheads, unattributed = [], [], []

        def step() -> bool:
            untraced, digest = self.cli(command, 1, cli_out)
            digests.append(digest)
            with open(self.work / "traced.out", "wb") as handle:
                run = self._spawn(argv, handle)
            if run.code != 0:
                return False
            doc = json.loads((self.work / "traced.out").read_text().splitlines()[-1])
            layers.append(doc["metrics"])
            total = doc["command_end"] - run.start
            overheads.append(total / untraced.wall - 1)
            unattributed.append(total - doc["top_level_s"])
            if digest is not None and traced_out.read_bytes() != cli_out.read_bytes():
                self.failed += 1
                self.problems.append("the traced output differs from the CLI output")
            if evaluate_out is not None:
                evaluate_digests.append(hashlib.sha256(evaluate_out.read_bytes()).digest())
            return True

        self.repeat(step)
        self.check_output(command, digests, cli_out)
        if evaluate_out is not None:
            self.check_output(EVALUATE_PASS_COMMAND, evaluate_digests, evaluate_out)
        for name in TRACE_COUNTS:
            if len({m[name] for m in layers}) > 1:
                self.failed += 1
                self.problems.append(f"{name} differs between traced runs: {[m[name] for m in layers]}")
        peak_out = self.work / "wer_peak.out"
        with open(peak_out, "wb") as handle:
            run = self._spawn([sys.executable, str(HERE / "traced.py"), "--wer-peak",
                               "--manifest", str(self.corpus.manifest)], handle)
        if not layers or run.code != 0:
            return {}, {}
        series = {name: [m[name] for m in layers] for name in layers[0]}
        series["trace.unattributed_s"] = unattributed
        series["trace.overhead_frac"] = overheads
        return series, {"metrics.wer_peak_mb": float(peak_out.read_text())}

    def result(self, trace: bool, units: dict[str, str]) -> tuple[dict, dict]:
        self.probe()  # untimed: compiles bytecode and fills the page cache
        series, extra = self.traced() if trace else self.end_to_end()
        summary = {}
        for name, values in series.items():
            q1, median, q3 = quartiles(values)
            summary[name] = {"median": median, "q1": q1, "q3": q3, "min": min(values),
                             "mean": statistics.fmean(values), "n": len(values)}
        values = {name: series[name][0] if name in TRACE_COUNTS else s["median"]
                  for name, s in summary.items()} | extra
        result = {"correct": not self.problems, "attempted": self.attempted, "failed": self.failed,
                  "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()}}
        details = {"workload": self.name, "seed": self.seed, "trace": int(trace),
                   "inputs": self.inputs, "summary": summary,
                   "failed_frac": self.failed / max(1, self.attempted), "problems": self.problems}
        return result, details


def print_table(details: dict, result: dict) -> None:
    print(f"# {details['workload']} seed={details['seed']} trace={details['trace']} "
          f"inputs={details['inputs']}")
    for name, m in result["metrics"].items():
        s = details["summary"].get(name)
        spread = f"  q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}" if s else ""
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']:6s}{spread}")
    print(f"  {'failed_frac':36s} {details['failed_frac']:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']})")
    for problem in details["problems"]:
        print(f"  FAIL {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpora, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "medwer" / "cli.py").is_file():
        print(f"run.py: no medwer package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    machine = machine_details()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result, details = Bench(name, args.seed, args.seconds, args.smoke).result(bool(args.trace), units)
        print_table(details, result)
        print(json.dumps({**details, "machine": machine}))
        results.append((name, result))

    if len(results) == 1:
        final = results[0][1]
    else:
        final = {"correct": all(r["correct"] for _, r in results),
                 "attempted": sum(r["attempted"] for _, r in results),
                 "failed": sum(r["failed"] for _, r in results),
                 "metrics": {f"{name}.{metric}": value for name, r in results
                             for metric, value in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
