import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import medwer

from helpers import dump_corpus, write_jsonl
from medwer import cli, fixtures, metrics, runner
from medwer.fixtures import load_golden
from medwer.metrics import EditCounts, RecallCount
from medwer.runner import RunConfig


@pytest.fixture()
def golden_files(tmp_path):
    pairs, annotations = load_golden()
    return dump_corpus(tmp_path, pairs, annotations)


def test_evaluate_writes_expected_json(golden_files, tmp_path):
    manifest, annotations = golden_files
    out = tmp_path / "report.json"
    code = cli.main(["evaluate", "--manifest", str(manifest), "--annotations", str(annotations),
                     "--out", str(out), "--per-sample"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"] == {"threshold": 0.5, "max_ngram": 3, "normalization": "standard"}
    t2r1 = next(s for s in doc["per_sample"] if s["id"] == "t2r1")
    assert t2r1["mwer"]["rate"] == 1.3333
    assert t2r1["mcer"]["rate"] == 0.2667
    verbatim = next(s for s in doc["per_sample"] if s["id"] == "t1_verbatim")
    assert verbatim["wer"]["rate"] == 0.0
    assert verbatim["recall"]["ANA"]["rate"] == 1.0


def test_evaluate_to_stdout(golden_files, capsys):
    manifest, annotations = golden_files
    code = cli.main(["evaluate", "--manifest", str(manifest), "--annotations", str(annotations),
                     "--format", "table"])
    assert code == 0
    out = capsys.readouterr().out
    assert "M-WER" in out and "M-CER" in out


def test_a_text_only_stdout_gets_the_report(golden_files, tmp_path, monkeypatch):
    # Jupyter's and IDLE's stdout, like a StringIO, have no binary buffer
    manifest, annotations = golden_files
    argv = ["evaluate", "--manifest", str(manifest), "--annotations", str(annotations), "--format", "table"]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 0
    stdout = io.StringIO()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.main(argv) == 0
    assert stdout.getvalue() == (tmp_path / "out").read_text(encoding="utf-8")


def test_evaluate_group_by(golden_files, tmp_path):
    manifest, annotations = golden_files
    out = tmp_path / "report.json"
    code = cli.main(["evaluate", "--manifest", str(manifest), "--annotations", str(annotations),
                     "--out", str(out), "--group-by", "model"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert "model=whisper-medium-clinical" in doc["groups"]
    assert doc["groups"]["model=whisper-medium-clinical"]["wer"]["rate"] == 0.0


def test_evaluate_runs_are_byte_identical(golden_files, tmp_path):
    manifest, annotations = golden_files
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert cli.main(["evaluate", "--manifest", str(manifest), "--annotations", str(annotations),
                         "--out", str(path), "--per-sample"]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_align_emits_expected_records(golden_files, capsys):
    manifest, annotations = golden_files
    code = cli.main(["align", "--manifest", str(manifest), "--annotations", str(annotations)])
    assert code == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    keys = [(r["id"], r["entity"]["begin"]) for r in records]
    assert keys == sorted(keys)
    t2r1 = [r for r in records if r["id"] == "t2r1"]
    assert [r["candidate"]["normalized"] for r in t2r1] == ["quinidan", "disopiramid", "dikod sin"]


def test_align_with_threshold_one_keeps_only_exact(golden_files, capsys):
    manifest, annotations = golden_files
    code = cli.main(["align", "--manifest", str(manifest), "--annotations", str(annotations),
                     "--threshold", "1.0"])
    assert code == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    matched = [r for r in records if r["candidate"] is not None]
    assert all(r["exact"] for r in matched)
    t2r2 = [r for r in records if r["id"] == "t2r2" and r["candidate"] is not None]
    assert [r["entity"]["text"] for r in t2r2] == ["paralysis"]


def test_align_unigram_cutoff_case(golden_files, capsys):
    manifest, annotations = golden_files
    code = cli.main(["align", "--manifest", str(manifest), "--annotations", str(annotations),
                     "--max-ngram", "1"])
    assert code == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    digoxin = next(r for r in records if r["entity"]["text"] == "digoxin")
    assert digoxin["candidate"]["normalized"] == "dikod"
    assert digoxin["score"] == 0.5


def test_missing_manifest_exits_with_ingestion_error(tmp_path, capsys):
    code = cli.main(["evaluate", "--manifest", str(tmp_path / "absent.jsonl"),
                     "--annotations", str(tmp_path / "a.jsonl")])
    assert code == cli.EXIT_INGESTION
    assert "absent.jsonl" in capsys.readouterr().err


def test_duplicate_manifest_id_exits_two(tmp_path, capsys):
    manifest = write_jsonl(tmp_path / "m.jsonl", [
        {"id": "s1", "reference": "a", "hypothesis": "a"},
        {"id": "s1", "reference": "b", "hypothesis": "b"}])
    annotations = write_jsonl(tmp_path / "a.jsonl", [])
    code = cli.main(["evaluate", "--manifest", str(manifest), "--annotations", str(annotations)])
    assert code == cli.EXIT_INGESTION
    assert "s1" in capsys.readouterr().err


def test_offset_mismatch_exits_two(tmp_path, capsys):
    manifest = write_jsonl(tmp_path / "m.jsonl", [{"id": "s1", "reference": "the couch", "hypothesis": "x"}])
    annotations = write_jsonl(tmp_path / "a.jsonl", [
        {"id": "s1", "entities": [{"text": "cough", "category": "COND", "begin": 4, "end": 9}]}])
    code = cli.main(["evaluate", "--manifest", str(manifest), "--annotations", str(annotations)])
    assert code == cli.EXIT_INGESTION
    assert "offset mismatch" in capsys.readouterr().err


def test_unknown_category_exits_two(tmp_path, capsys):
    manifest = write_jsonl(tmp_path / "m.jsonl", [{"id": "s1", "reference": "the cough", "hypothesis": "x"}])
    annotations = write_jsonl(tmp_path / "a.jsonl", [
        {"id": "s1", "entities": [{"text": "cough", "category": "DOSAGE_FORM", "begin": 4, "end": 9}]}])
    code = cli.main(["evaluate", "--manifest", str(manifest), "--annotations", str(annotations)])
    assert code == cli.EXIT_INGESTION
    assert "DOSAGE_FORM" in capsys.readouterr().err


@pytest.mark.parametrize("normalization, code", [("raw", cli.EXIT_OK), ("standard", cli.EXIT_INGESTION)])
def test_an_entity_is_checked_under_the_run_normalization(tmp_path, capsys, normalization, code):
    # "-" is a token under raw normalization and nothing under standard
    manifest = write_jsonl(tmp_path / "m.jsonl", [
        {"id": "s1", "reference": "dose 5 - 10 mg", "hypothesis": "dose 5 - 10 mg"}])
    annotations = write_jsonl(tmp_path / "a.jsonl", [
        {"id": "s1", "entities": [{"text": "-", "category": "MED", "begin": 7, "end": 8}]}])
    assert cli.main(["align", "--manifest", str(manifest), "--annotations", str(annotations),
                     "--normalization", normalization]) == code
    out, err = capsys.readouterr()
    if code == cli.EXIT_OK:
        record = json.loads(out)
        assert (record["candidate"]["normalized"], record["exact"]) == ("-", True)
    else:
        assert "normalizes to nothing" in err


@pytest.mark.parametrize("record", [{"id": ["a"], "entities": []},
                                    {"id": "s1", "entities": ["context"]}])
def test_hostile_annotation_record_exits_two(tmp_path, capsys, record):
    manifest = write_jsonl(tmp_path / "m.jsonl", [{"id": "s1", "reference": "the cough", "hypothesis": "x"}])
    annotations = write_jsonl(tmp_path / "a.jsonl", [record])
    code = cli.main(["evaluate", "--manifest", str(manifest), "--annotations", str(annotations)])
    assert code == cli.EXIT_INGESTION
    assert "a.jsonl:1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "align"])
@pytest.mark.parametrize("broken, line", [
    ("m.jsonl", b'{"id": "s2", "reference": "caf\xe9", "hypothesis": "x"}\n'),
    ("a.jsonl", b'{"id": "s1", "entities": []}\xff\n'),
], ids=["manifest", "annotations"])
def test_non_utf8_input_exits_two_naming_the_file(tmp_path, capsys, command, broken, line):
    manifest = write_jsonl(tmp_path / "m.jsonl", [{"id": "s1", "reference": "the cough", "hypothesis": "x"}])
    annotations = write_jsonl(tmp_path / "a.jsonl", [])
    path = tmp_path / broken
    path.write_bytes(path.read_bytes() + line)
    code = cli.main([command, "--manifest", str(manifest), "--annotations", str(annotations)])
    assert code == cli.EXIT_INGESTION
    assert str(path) in capsys.readouterr().err


_PAIR = {"id": "s1", "reference": "the cough", "hypothesis": "x"}


@pytest.mark.parametrize("command, more_pairs, more_annotations, broken", [
    (["evaluate", "--format", "csv", "--per-sample"], [{**_PAIR, "id": "b\udc00"}], [], "m.jsonl"),
    (["evaluate", "--format", "table", "--group-by", "accent"], [{**_PAIR, "id": "b", "accent": "\udc00"}],
     [], "m.jsonl"),
    (["align"], [], [{"id": "\ud800", "entities": []}], "a.jsonl"),
], ids=["manifest-id", "manifest-accent", "annotations"])
def test_lone_surrogate_exits_two_naming_the_line(tmp_path, capsys, command, more_pairs, more_annotations,
                                                  broken):
    manifest = write_jsonl(tmp_path / "m.jsonl", [_PAIR, *more_pairs])
    annotations = write_jsonl(tmp_path / "a.jsonl", [{"id": "s1", "entities": []}, *more_annotations])
    out = tmp_path / "o.out"
    code = cli.main([command[0], "--manifest", str(manifest), "--annotations", str(annotations),
                     "--out", str(out), *command[1:]])
    assert code == cli.EXIT_INGESTION
    assert f"{tmp_path / broken}:2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("broken, line", [
    ("m.jsonl", '{"id": "s2", "reference": "x", "hypothesis": "x", "model": '
                + "[" * 100_000 + "]" * 100_000 + "}"),
    ("a.jsonl", '{"id": "s1", "entities": [{"text": "cough", "category": "COND", "begin": 4, "end": 9, '
                '"score": ' + "[" * 50_000 + "]" * 50_000 + "}]}"),
    ("a.jsonl", '{"id": "s1", "entities": [{"text": "cough", "category": "COND", "begin": '
                + "1" * 5000 + ', "end": 9}]}'),
], ids=["manifest-model-nested-100000-deep", "annotation-score-nested-50000-deep",
        "entity-begin-of-5000-digits"])
def test_json_past_the_parser_limits_exits_two_with_one_line(tmp_path, broken, line):
    # a subprocess: the bytes and exit code a user sees, and the interpreter's
    # own stack depth, which decides where a deeply nested record gives out
    manifest = write_jsonl(tmp_path / "m.jsonl", [_PAIR])
    annotations = write_jsonl(tmp_path / "a.jsonl", [] if broken == "a.jsonl" else
                              [{"id": "s1", "entities": [{"text": "cough", "category": "COND",
                                                          "begin": 4, "end": 9}]}])
    path = tmp_path / broken
    path.write_text(path.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(medwer.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "medwer.cli", "evaluate", "--manifest", str(manifest),
                           "--annotations", str(annotations), "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True)
    assert done.returncode == cli.EXIT_INGESTION
    assert "Traceback" not in done.stderr
    [message] = done.stderr.splitlines()
    assert message.startswith(f"medwer: error: {path}:{1 if broken == 'a.jsonl' else 2}: ")


@pytest.mark.parametrize("broken", ["m.jsonl", "a.jsonl"], ids=["manifest", "annotations"])
@pytest.mark.parametrize("line, kind", [("[]", "list"), ("3", "int"), ('"x"', "str"), ("null", "NoneType")])
def test_a_line_that_is_not_an_object_exits_two_with_one_line(tmp_path, capsys, broken, line, kind):
    files = {"m.jsonl": json.dumps(_PAIR), "a.jsonl": json.dumps({"id": "s1", "entities": []}), broken: line}
    for name, text in files.items():
        (tmp_path / name).write_text(text + "\n", encoding="utf-8")
    code = cli.main(["evaluate", "--manifest", str(tmp_path / "m.jsonl"),
                     "--annotations", str(tmp_path / "a.jsonl")])
    assert code == cli.EXIT_INGESTION
    out, err = capsys.readouterr()
    assert (out, err.splitlines()) == (
        "", [f"medwer: error: {tmp_path / broken}:1: expected an object, got {kind}"])


def test_strict_mode_requires_annotations_for_every_sample(tmp_path, capsys):
    manifest = write_jsonl(tmp_path / "m.jsonl", [
        {"id": "s1", "reference": "the cough", "hypothesis": "x"},
        {"id": "s9", "reference": "the fever", "hypothesis": "y"}])
    annotations = write_jsonl(tmp_path / "a.jsonl", [
        {"id": "s1", "entities": [{"text": "cough", "category": "COND", "begin": 4, "end": 9}]}])
    assert cli.main(["evaluate", "--manifest", str(manifest), "--annotations", str(annotations)]) == 0
    code = cli.main(["evaluate", "--manifest", str(manifest), "--annotations", str(annotations), "--strict"])
    assert code == cli.EXIT_INGESTION
    assert "'s9'" in capsys.readouterr().err


def test_bad_threshold_is_a_usage_error(tmp_path, capsys):
    code = cli.main(["evaluate", "--manifest", "m", "--annotations", "a", "--threshold", "0"])
    assert code == cli.EXIT_USAGE
    assert "threshold" in capsys.readouterr().err


def test_unknown_flag_value_is_a_usage_error(capsys):
    code = cli.main(["evaluate", "--manifest", "m", "--annotations", "a", "--format", "xml"])
    assert code == cli.EXIT_USAGE
    code = cli.main(["evaluate", "--manifest", "m", "--annotations", "a", "--group-by", "speaker"])
    assert code == cli.EXIT_USAGE
    # a group-by that names no key; the csv run would otherwise pass the group check.
    # Exit 1, not 2: the run stops before it reads the missing files.
    for flags in (["--group-by", ""], ["--group-by", ","], ["--format", "csv", "--group-by", ","]):
        assert cli.main(["evaluate", "--manifest", "m", "--annotations", "a", *flags]) == cli.EXIT_USAGE
        assert "names no key" in capsys.readouterr().err


@pytest.mark.parametrize("flags, section", [
    (["--format", "csv", "--group-by", "model"], "group"),
    (["--format", "table", "--per-sample"], "per-sample"),
])
def test_report_section_the_format_cannot_hold_is_a_usage_error(golden_files, tmp_path, capsys, monkeypatch,
                                                                 flags, section):
    message = {"group": "csv reports have no group rows; use json or table with group-by",
               "per-sample": "table reports have no per-sample rows; use json or csv with per-sample"}[section]
    read = []
    monkeypatch.setattr(cli, "load_manifest", lambda *args, **kwargs: read.append(args))
    monkeypatch.setattr(cli, "load_annotations", lambda *args, **kwargs: read.append(args))
    manifest, annotations = golden_files
    out = tmp_path / "report"
    code = cli.main(["evaluate", "--manifest", str(manifest), "--annotations", str(annotations),
                     "--out", str(out), *flags])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"medwer: error: {message}\n"
    assert (read, out.exists()) == ([], False)


def test_repeated_group_by_key_is_a_usage_error(golden_files, tmp_path, capsys):
    manifest, annotations = golden_files
    out = tmp_path / "report"
    code = cli.main(["evaluate", "--manifest", str(manifest), "--annotations", str(annotations),
                     "--out", str(out), "--format", "table", "--group-by", "model,model"])
    assert code == cli.EXIT_USAGE
    assert "model" in capsys.readouterr().err
    assert not out.exists()


def test_missing_required_flag_is_a_usage_error(capsys):
    assert cli.main(["evaluate", "--manifest", "m"]) == cli.EXIT_USAGE


@pytest.mark.parametrize("command", ["evaluate", "align"])
def test_cli_defaults_are_the_run_config_defaults(command):
    args = cli.build_parser().parse_args([command, "--manifest", "m", "--annotations", "a"])
    assert cli._run_config(args) == RunConfig()


@pytest.mark.parametrize("command, group_by", [("evaluate", ("accent", "model")), ("align", ())])
def test_run_config_takes_the_five_scoring_flags_and_no_other(command, group_by):
    extra = ["--group-by", "accent, model"] if group_by else []
    args = cli.build_parser().parse_args([command, "--manifest", "m", "--annotations", "a",
                                          "--threshold", "0.75", "--max-ngram", "2",
                                          "--normalization", "raw", "--workers", "3", *extra])
    args.a_flag_run_config_does_not_hold = True
    assert cli._run_config(args) == RunConfig(0.75, 2, "raw", group_by, 3)


def test_every_public_name_resolves_and_is_listed_once():
    assert [name for name in medwer.__all__ if not hasattr(medwer, name)] == []
    assert sorted(set(medwer.__all__)) == sorted(medwer.__all__)


def test_importing_the_cli_loads_neither_the_selfcheck_nor_the_pool():
    # evaluate and align pay for no module only selfcheck or --workers > 1 use,
    # nor for logging: the two diagnostics are plain lines on stderr
    heavy = ("medwer.fixtures", "medwer._oracles", "multiprocessing", "logging")
    code = f"import sys, medwer.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(medwer.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("command", [["align"], ["evaluate", "--per-sample"]], ids=["align", "evaluate"])
@pytest.mark.parametrize("workers, unused", [(1, ("multiprocessing", "pickle")), (2, ("multiprocessing",))])
def test_a_run_imports_no_module_its_worker_count_does_not_use(golden_files, tmp_path, command,
                                                               workers, unused):
    manifest, annotations = golden_files
    argv = [command[0], "--manifest", str(manifest), "--annotations", str(annotations),
            "--workers", str(workers), "--out", str(tmp_path / "out"), *command[1:]]
    code = f"import sys; from medwer import cli; print(cli.main({argv!r}), [m for m in {unused!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(medwer.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "0 []"


def test_diagnostics_go_to_stderr_as_two_fixed_lines(tmp_path):
    # a subprocess: the bytes a user sees, whatever the test runner does to stderr
    manifest = write_jsonl(tmp_path / "m.jsonl", [
        {"id": "p1", "reference": "digoxin and digoxine", "hypothesis": "digoxin and"}])
    annotations = write_jsonl(tmp_path / "a.jsonl", [
        {"id": "p1", "entities": [{"text": "digoxin", "category": "MED", "begin": 0, "end": 7},
                                  {"text": "digoxine", "category": "MED", "begin": 12, "end": 20}]},
        {"id": "ghost", "entities": []}])
    env = {**os.environ, "PYTHONPATH": str(Path(medwer.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "medwer.cli", "evaluate", "--manifest", str(manifest),
                           "--annotations", str(annotations), "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stderr == (f"WARNING {annotations}:2: skipping annotation for unknown id 'ghost'\n"
                           "INFO 2 entities aligned to a hypothesis span shared with another entity\n")


@pytest.mark.parametrize("flags", [["--format", "csv", "--per-sample"],
                                   ["--format", "table", "--group-by", "model"]], ids=["csv", "table"])
def test_stdout_gets_the_utf8_bytes_of_out_whatever_the_locale(tmp_path, flags):
    # a subprocess under an ASCII stdout, as on a console whose code page
    # cannot encode the report's non-ASCII sample id or model name
    manifest = write_jsonl(tmp_path / "m.jsonl", [
        {"id": "sé", "reference": "digoxin daily", "hypothesis": "digoxine daily", "model": "mé"}])
    annotations = write_jsonl(tmp_path / "a.jsonl", [
        {"id": "sé", "entities": [{"text": "digoxin", "category": "MED", "begin": 0, "end": 7}]}])
    out = tmp_path / "out"
    argv = [sys.executable, "-m", "medwer.cli", "evaluate", "--manifest", str(manifest),
            "--annotations", str(annotations), *flags]
    env = {**os.environ, "PYTHONPATH": str(Path(medwer.__file__).parents[1]), "PYTHONIOENCODING": "ascii"}
    to_file = subprocess.run([*argv, "--out", str(out)], env=env, capture_output=True)
    to_stdout = subprocess.run(argv, env=env, capture_output=True)
    assert (to_file.returncode, to_stdout.returncode, to_stdout.stderr) == (0, 0, b"")
    assert "é".encode("utf-8") in out.read_bytes()
    assert to_stdout.stdout == out.read_bytes()


def test_selfcheck_passes_on_pristine_build(capsys):
    assert cli.main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "PASS golden-alignment[t2r1]" in out
    assert "FAIL" not in out


def test_selfcheck_flags_tampered_threshold_default(monkeypatch, capsys):
    monkeypatch.setattr("medwer.align.DEFAULT_THRESHOLD", 0.9)
    assert cli.main(["selfcheck"]) == cli.EXIT_SELFCHECK
    out = capsys.readouterr().out
    assert "FAIL config-defaults" in out


def test_selfcheck_flags_a_wrong_edit_split(monkeypatch, capsys):
    # same error totals, so only the comparison of the S/I/D split can see it
    exact = metrics.edit_distance

    def swapped(ref, hyp):
        c = exact(ref, hyp)
        return EditCounts(c.deletions, c.insertions, c.substitutions, c.hits, c.ref_len)

    monkeypatch.setattr(metrics, "edit_distance", swapped)
    assert cli.main(["selfcheck"]) == cli.EXIT_SELFCHECK
    out = capsys.readouterr().out
    assert "FAIL oracle-metrics[t2r1]: wer: pipeline S/I/D/hits" in out


def test_selfcheck_flags_a_wrong_recall(monkeypatch, capsys):
    exact = runner.entity_recall

    def miscounted(aligned):
        return {cat: RecallCount(count.recalled, count.total + 2) for cat, count in exact(aligned).items()}

    monkeypatch.setattr(runner, "entity_recall", miscounted)
    assert cli.main(["selfcheck"]) == cli.EXIT_SELFCHECK
    out = capsys.readouterr().out
    assert ("FAIL oracle-metrics[t2r1]: recall: pipeline {'MED': (0, 5)}, oracle {'MED': (0, 3)}, "
            "frozen {'MED': (0, 3)}") in out


def test_selfcheck_flags_an_oracle_that_drifts_from_the_frozen_candidates(monkeypatch, capsys):
    exact = fixtures.reference_sample

    def drifted(*args):
        oracle = exact(*args)
        first, *rest = oracle.alignment
        return oracle._replace(alignment=[first and first._replace(normalized="quinidine"), *rest])

    monkeypatch.setattr(fixtures, "reference_sample", drifted)
    assert cli.main(["selfcheck"]) == cli.EXIT_SELFCHECK
    out = capsys.readouterr().out
    assert ("FAIL golden-alignment[t2r1]: entity 'quinidine': pipeline ('quinidan', False), "
            "oracle ('quinidine', False), frozen ('quinidan', False)") in out


def test_selfcheck_flags_a_pipeline_score_off_the_oracle(monkeypatch, capsys):
    exact = runner.med_text_align

    def scaled(*args):
        return [ae if ae.exact else ae._replace(score=ae.score * 0.999) for ae in exact(*args)]

    monkeypatch.setattr(runner, "med_text_align", scaled)
    assert cli.main(["selfcheck"]) == cli.EXIT_SELFCHECK
    out = capsys.readouterr().out
    assert (f"FAIL oracle-scores[t2r1]: entity 'quinidine': pipeline {14 / 17 * 0.999!r}, "
            f"oracle {14 / 17!r}, frozen {14 / 17!r}") in out
    assert "FAIL golden-alignment" not in out and "FAIL oracle-metrics" not in out


def test_selfcheck_flags_an_entity_missing_from_expected(monkeypatch, tmp_path, capsys):
    for name in ("manifest.jsonl", "annotations.jsonl"):
        (tmp_path / name).write_bytes(fixtures.fixture_path(name).read_bytes())
    expected = fixtures.load_expected()
    del expected["samples"]["t2r1"]["alignment"][0]
    (tmp_path / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
    monkeypatch.setattr(fixtures, "fixture_path", lambda name: tmp_path / name)
    assert cli.main(["selfcheck"]) == cli.EXIT_SELFCHECK
    entities = ["quinidine", "disopyramide", "digoxin"]
    assert (f"FAIL golden-alignment[t2r1]: entities: pipeline {entities}, oracle {entities}, "
            f"frozen {entities[1:]}") in capsys.readouterr().out


def test_selfcheck_reports_missing_fixture_file(monkeypatch, capsys):
    monkeypatch.setattr(fixtures, "DATA_VERSION", "v999")
    assert cli.main(["selfcheck"]) == cli.EXIT_SELFCHECK
    out = capsys.readouterr().out
    assert "FAIL fixture-files" in out
    assert "missing fixture file" in out


def _drift_hypothesis(test):
    """A change that gives every manifest record that passes test another hypothesis."""
    def change(manifest, annotations, expected):
        for record in filter(test, manifest):
            record["hypothesis"] = "drifted"
    return change


@pytest.mark.parametrize("change, detail", [
    (lambda manifest, annotations, expected: expected["samples"].pop("t2r2"),
     "sample id(s) in only one of the manifest and expected.json: t2r2"),
    (lambda manifest, annotations, expected: (manifest.pop(), annotations.pop()),
     "sample id(s) in only one of the manifest and expected.json: t1_empty"),
    (lambda manifest, annotations, expected: annotations.pop(0),
     "missing annotations for id(s): 't2r1'"),
    (_drift_hypothesis(lambda r: r["reference"] == r["hypothesis"]),
     "no golden pair has a hypothesis equal to its reference"),
    (_drift_hypothesis(lambda r: r["hypothesis"] == ""), "no golden pair has an empty hypothesis"),
], ids=["expected-lacks-a-sample", "manifest-lacks-a-sample", "annotations-lack-a-sample",
        "no-identity-pair", "no-empty-hypothesis-pair"])
def test_selfcheck_reports_fixture_drift(monkeypatch, tmp_path, capsys, change, detail):
    manifest, annotations = ([json.loads(line) for line in
                              fixtures.fixture_path(name).read_text(encoding="utf-8").splitlines()]
                             for name in ("manifest.jsonl", "annotations.jsonl"))
    expected = fixtures.load_expected()
    change(manifest, annotations, expected)
    write_jsonl(tmp_path / "manifest.jsonl", manifest)
    write_jsonl(tmp_path / "annotations.jsonl", annotations)
    (tmp_path / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
    monkeypatch.setattr(fixtures, "fixture_path", lambda name: tmp_path / name)
    assert cli.main(["selfcheck"]) == cli.EXIT_SELFCHECK
    assert capsys.readouterr().out.splitlines()[-1] == f"FAIL fixture-load: {detail}"


@pytest.mark.parametrize("command", ["evaluate", "align"])
def test_unwritable_output_path_exits_two(golden_files, tmp_path, capsys, command):
    manifest, annotations = golden_files
    code = cli.main([command, "--manifest", str(manifest), "--annotations", str(annotations),
                     "--out", str(tmp_path / "no_such_dir" / "r.json")])
    assert code == cli.EXIT_INGESTION


def _cli_env(unbuffered: str | None) -> dict:
    """The environment of a child CLI run, with PYTHONUNBUFFERED set to unbuffered or removed."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(medwer.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    return env


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["evaluate", "align", "selfcheck"])
def test_a_closed_stdout_exits_two_with_one_error_line(golden_files, command, unbuffered):
    # a subprocess whose stdout is a pipe with no reader left: Python ignores
    # SIGPIPE, so a write or flush there raises BrokenPipeError
    manifest, annotations = golden_files
    files = [] if command == "selfcheck" else ["--manifest", str(manifest), "--annotations", str(annotations)]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "medwer.cli", command, *files], stdout=write_end,
                              stderr=subprocess.PIPE, env=_cli_env(unbuffered), text=True)
    finally:
        os.close(write_end)
    assert done.returncode == cli.EXIT_INGESTION, done.stderr
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("medwer: error:"), done.stderr


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_a_reader_that_leaves_part_way_through_a_report_gets_one_error_line(tmp_path, unbuffered):
    # the report is far larger than a 64 KiB pipe buffer, so the writer is
    # still in its loop over the report's pieces when the reader closes
    manifest, annotations = dump_corpus(tmp_path, *fixtures.synthetic_corpus(500, seed=31))
    argv = [sys.executable, "-m", "medwer.cli", "evaluate", "--per-sample",
            "--manifest", str(manifest), "--annotations", str(annotations)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
                          env=_cli_env(unbuffered)) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
    assert head.startswith(b'{\n  "config"')
    assert proc.returncode == cli.EXIT_INGESTION, stderr
    errors = [line for line in stderr.splitlines() if not line.startswith("INFO ")]
    assert len(errors) == 1 and errors[0].startswith("medwer: error:"), stderr
