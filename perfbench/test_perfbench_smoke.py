"""Smoke test of the benchmark: every workload at a tiny size reports every
metric BENCHMARK.json names, with its unit, and failed_frac; the output
checks catch a wrong count, an align record that does not map back and an
align record folded to ASCII."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpora
import verify
from medwer import cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_reports_every_metric_with_its_unit(workload, trace, section):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert details["failed_frac"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[section]}


def test_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_report_check_catches_a_wrong_count(tmp_path):
    corpus, _ = corpora.build(tmp_path, "short_utterances", 1, corpora.Shape(4, 30, 3))
    out = tmp_path / "report.json"
    assert cli.main(["evaluate", "--manifest", str(corpus.manifest), "--annotations",
                     str(corpus.annotations_path), "--per-sample", "--out", str(out)]) == 0
    assert verify.check_report(out.read_text(), corpus, True, seed=1) == []
    doc = json.loads(out.read_text())
    doc["per_sample"][2]["mcer"]["insertions"] += 1
    assert verify.check_report(json.dumps(doc), corpus, True, seed=1)


def test_align_check_catches_a_record_that_does_not_map_back(tmp_path):
    corpus, plain = corpora.build(tmp_path, "short_unicode_align", 1, corpora.Shape(4, 30, 3),
                                  letter_map=True)
    outputs = {}
    for name, c in (("mapped", corpus), ("plain", plain)):
        out = tmp_path / f"{name}.jsonl"
        assert cli.main(["align", "--manifest", str(c.manifest), "--annotations",
                         str(c.annotations_path), "--out", str(out)]) == 0
        outputs[name] = out.read_text()
    assert outputs["mapped"] != outputs["plain"]
    assert verify.check_align(outputs["mapped"], corpus, outputs["plain"], seed=1) == []
    records = [json.loads(line) for line in outputs["plain"].splitlines()]
    records[1]["candidate"]["start_token"] += 1
    wrong = "".join(json.dumps(r) + "\n" for r in records)
    assert verify.check_align(outputs["mapped"], corpus, wrong, seed=1)

    # A candidate surface folded to ASCII keeps every score, so only the
    # comparison with the plain records can catch it.
    to_ascii = {mapped: letter for letter, mapped in corpora.LETTER_MAP.items()}
    records = [json.loads(line) for line in outputs["mapped"].splitlines()]
    record = next(r for r in records if r["candidate"] is not None)
    folded = record["candidate"]["surface"].translate(to_ascii)
    assert folded != record["candidate"]["surface"]
    record["candidate"]["surface"] = folded
    folded_output = "".join(json.dumps(r) + "\n" for r in records)
    assert verify.check_align(folded_output, corpus, outputs["plain"], seed=1)
