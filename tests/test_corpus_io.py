import json
import math

import pytest

from helpers import dump_corpus, write_jsonl
from medwer.align import EntityCategory
from medwer.corpus import (AnnotationError, FileNerSource, IngestionError, ManifestError,
                           ReportError, fetch_annotations, load_annotations, load_manifest,
                           load_report, render_table, write_report)
from medwer.fixtures import load_golden, synthetic_corpus
from medwer.runner import RunConfig, evaluate_corpus


def test_load_manifest_well_formed(tmp_path):
    path = write_jsonl(tmp_path / "m.jsonl", [
        {"id": "s1", "reference": "a b", "hypothesis": "a b"},
        {"id": "s2", "reference": "c", "hypothesis": "", "accent": "igbo", "model": "m1"},
    ])
    pairs = load_manifest(path)
    assert [p.id for p in pairs] == ["s1", "s2"]
    assert pairs[1].accent == "igbo"
    assert pairs[1].model == "m1"
    assert pairs[1].domain is None


def test_load_manifest_duplicate_ids(tmp_path):
    path = write_jsonl(tmp_path / "m.jsonl", [
        {"id": "s1", "reference": "a", "hypothesis": "a"},
        {"id": "s1", "reference": "b", "hypothesis": "b"},
    ])
    with pytest.raises(ManifestError, match="duplicate id.*'s1'"):
        load_manifest(path)


def test_load_manifest_missing_field_reports_name_and_line(tmp_path):
    path = write_jsonl(tmp_path / "m.jsonl", [
        {"id": "s1", "reference": "a", "hypothesis": "a"},
        {"id": "s2", "reference": "b"},
    ])
    with pytest.raises(ManifestError, match=r"m\.jsonl:2.*'hypothesis'"):
        load_manifest(path)


def test_load_manifest_malformed_json_reports_line(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"id": "s1", "reference": "a", "hypothesis": "a"}\n{oops\n', encoding="utf-8")
    with pytest.raises(ManifestError, match=r"m\.jsonl:2.*malformed JSON"):
        load_manifest(path)


def test_load_manifest_missing_file_names_path(tmp_path):
    with pytest.raises(ManifestError, match="nowhere.jsonl"):
        load_manifest(tmp_path / "nowhere.jsonl")


def test_load_manifest_rejects_empty_reference(tmp_path):
    path = write_jsonl(tmp_path / "m.jsonl", [{"id": "s1", "reference": "", "hypothesis": "a"}])
    with pytest.raises(ManifestError, match="reference"):
        load_manifest(path)


def _manifest(tmp_path, reference="the digoxin level"):
    return load_manifest(write_jsonl(tmp_path / "m.jsonl", [
        {"id": "s1", "reference": reference, "hypothesis": "the dikod sin level"}]))


def test_load_annotations_accepts_valid_offsets(tmp_path):
    manifest = _manifest(tmp_path)
    path = write_jsonl(tmp_path / "a.jsonl", [
        {"id": "s1", "entities": [{"text": "digoxin", "category": "MEDICATION", "begin": 4, "end": 11}]}])
    annotations = load_annotations(path, manifest)
    entity = annotations["s1"].entities[0]
    assert entity.category is EntityCategory.MED
    assert (entity.begin, entity.end) == (4, 11)


def test_load_annotations_offset_mismatch(tmp_path):
    manifest = _manifest(tmp_path, reference="the couch level")
    path = write_jsonl(tmp_path / "a.jsonl", [
        {"id": "s1", "entities": [{"text": "cough", "category": "COND", "begin": 4, "end": 9}]}])
    with pytest.raises(AnnotationError, match="offset mismatch.*'s1'.*'couch'.*'cough'"):
        load_annotations(path, manifest)


def test_load_annotations_unknown_category(tmp_path):
    manifest = _manifest(tmp_path)
    path = write_jsonl(tmp_path / "a.jsonl", [
        {"id": "s1", "entities": [{"text": "digoxin", "category": "DOSAGE_FORM", "begin": 4, "end": 11}]}])
    with pytest.raises(AnnotationError, match="unknown category 'DOSAGE_FORM'"):
        load_annotations(path, manifest)


def test_load_annotations_custom_category_map(tmp_path):
    manifest = _manifest(tmp_path)
    path = write_jsonl(tmp_path / "a.jsonl", [
        {"id": "s1", "entities": [{"text": "digoxin", "category": "DRUG", "begin": 4, "end": 11}]}])
    annotations = load_annotations(path, manifest, category_map={"DRUG": EntityCategory.MED})
    assert annotations["s1"].entities[0].category is EntityCategory.MED


def test_load_annotations_unknown_id_warns_then_skips(tmp_path, caplog):
    manifest = _manifest(tmp_path)
    path = write_jsonl(tmp_path / "a.jsonl", [{"id": "ghost", "entities": []}])
    with caplog.at_level("WARNING"):
        annotations = load_annotations(path, manifest)
    assert annotations == {}
    assert "ghost" in caplog.text


def test_load_annotations_unknown_id_strict(tmp_path):
    manifest = _manifest(tmp_path)
    path = write_jsonl(tmp_path / "a.jsonl", [{"id": "ghost", "entities": []}])
    with pytest.raises(AnnotationError, match="unknown id 'ghost'"):
        load_annotations(path, manifest, strict=True)


def test_load_annotations_duplicate_id(tmp_path):
    manifest = _manifest(tmp_path)
    path = write_jsonl(tmp_path / "a.jsonl", [
        {"id": "s1", "entities": []},
        {"id": "s1", "entities": []}])
    with pytest.raises(AnnotationError, match="duplicate annotation.*'s1'"):
        load_annotations(path, manifest)


def test_load_annotations_entities_sorted_by_begin(tmp_path):
    manifest = _manifest(tmp_path, reference="warfarin and digoxin")
    path = write_jsonl(tmp_path / "a.jsonl", [
        {"id": "s1", "entities": [
            {"text": "digoxin", "category": "MED", "begin": 13, "end": 20},
            {"text": "warfarin", "category": "MED", "begin": 0, "end": 8}]}])
    annotations = load_annotations(path, manifest)
    assert [e.text for e in annotations["s1"].entities] == ["warfarin", "digoxin"]


def test_load_annotations_rejects_punctuation_only_entity(tmp_path):
    manifest = _manifest(tmp_path, reference="a ,, b")
    path = write_jsonl(tmp_path / "a.jsonl", [
        {"id": "s1", "entities": [{"text": ",,", "category": "PHI", "begin": 2, "end": 4}]}])
    with pytest.raises(AnnotationError, match="normalizes to nothing"):
        load_annotations(path, manifest)


def test_load_annotations_rejects_bad_score(tmp_path):
    manifest = _manifest(tmp_path)
    path = write_jsonl(tmp_path / "a.jsonl", [
        {"id": "s1", "entities": [{"text": "digoxin", "category": "MED", "begin": 4, "end": 11, "score": 1.5}]}])
    with pytest.raises(AnnotationError, match="score"):
        load_annotations(path, manifest)


def test_file_ner_source_matches_loader(tmp_path):
    pairs, annotations = load_golden()
    manifest_path, annotations_path = dump_corpus(tmp_path, pairs, annotations)
    loaded = load_annotations(annotations_path, pairs)
    fetched = fetch_annotations(FileNerSource(annotations_path), pairs)
    assert fetched == loaded


def test_fetch_annotations_strict_names_missing_id(tmp_path):
    manifest = _manifest(tmp_path)
    extra = load_manifest(write_jsonl(tmp_path / "m2.jsonl", [
        {"id": "s1", "reference": "the digoxin level", "hypothesis": "x"},
        {"id": "s9", "reference": "more text", "hypothesis": "y"}]))
    path = write_jsonl(tmp_path / "a.jsonl", [
        {"id": "s1", "entities": [{"text": "digoxin", "category": "MED", "begin": 4, "end": 11}]}])
    source = FileNerSource(path)
    with pytest.raises(AnnotationError, match="'s9'"):
        fetch_annotations(source, extra, strict=True)
    relaxed = fetch_annotations(source, extra)
    assert set(relaxed) == {"s1"}
    assert fetch_annotations(source, []) == {}


def _evaluated(tmp_path, n=8):
    pairs, annotations = synthetic_corpus(n, seed=5, tokens_per_sample=12)
    cfg = RunConfig(group_by=("model",))
    corpus, samples, groups = evaluate_corpus(pairs, annotations, cfg)
    return cfg, corpus, samples, groups


def test_json_report_round_trip_is_byte_identical(tmp_path):
    cfg, corpus, samples, groups = _evaluated(tmp_path)
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    write_report(corpus, samples, "json", first, config=cfg.config_dict(), groups=groups)
    report = load_report(first)
    write_report(report.corpus, report.per_sample, "json", second,
                 config=report.config, groups=report.groups)
    assert first.read_bytes() == second.read_bytes()


def test_json_report_load_preserves_counts(tmp_path):
    cfg, corpus, samples, _ = _evaluated(tmp_path)
    path = tmp_path / "r.json"
    write_report(corpus, samples, "json", path, config=cfg.config_dict())
    report = load_report(path)
    assert report.corpus.wer == corpus.wer
    assert report.corpus.mwer == corpus.mwer
    assert report.corpus.mcer == corpus.mcer
    assert report.corpus.recall == corpus.recall
    assert report.corpus.samples == corpus.samples
    assert [s.sample_id for s in report.per_sample] == [s.sample_id for s in samples]
    assert [s.wer for s in report.per_sample] == [s.wer for s in samples]


def test_json_report_formats_rates_to_four_decimals(tmp_path):
    pairs, annotations = load_golden()
    corpus, samples, _ = evaluate_corpus(pairs, annotations, RunConfig())
    path = tmp_path / "r.json"
    write_report(corpus, samples, "json", path, config=RunConfig().config_dict())
    text = path.read_text()
    assert '"rate": 1.3333' in text          # t2r1 medical WER of 4/3
    assert '"threshold": 0.5000' in text
    doc = json.loads(text)
    assert doc["corpus"]["samples"] == 6
    assert doc["corpus"]["skipped_zero_entity"] == 0


def test_json_report_null_rate_for_zero_denominator(tmp_path):
    corpus, samples, _ = evaluate_corpus(*load_golden(), RunConfig())
    t1_empty = [s for s in samples if s.sample_id == "t1_empty"]
    write_report(corpus, t1_empty, "json", tmp_path / "r.json")
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["per_sample"][0]["mwer"]["rate"] == 1.0
    pairs, annotations = load_golden()
    no_entities = {pid: a for pid, a in annotations.items() if pid != "t2r1"}
    corpus, samples, _ = evaluate_corpus(pairs, no_entities, RunConfig())
    write_report(corpus, samples, "json", tmp_path / "r2.json")
    doc = json.loads((tmp_path / "r2.json").read_text())
    row = next(s for s in doc["per_sample"] if s["id"] == "t2r1")
    assert row["mwer"]["rate"] is None
    assert doc["corpus"]["skipped_zero_entity"] == 1


def test_csv_report_has_sample_rows_and_summary(tmp_path):
    cfg, corpus, samples, _ = _evaluated(tmp_path, n=4)
    path = tmp_path / "r.csv"
    write_report(corpus, samples, "csv", path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 4 + 1
    assert lines[0].startswith("id,wer_substitutions")
    assert lines[-1].startswith("corpus,")


def test_table_report_headers(tmp_path):
    cfg, corpus, _, groups = _evaluated(tmp_path)
    text = render_table(corpus, groups)
    header = text.splitlines()[0]
    for cell in ("WER", "M-WER", "M-CER", "MED", "ANA", "COND", "TTP", "PHI"):
        assert cell in header
    assert "model=model-alpha" in text


def test_unknown_format_rejected(tmp_path):
    _, corpus, samples, _ = _evaluated(tmp_path, n=2)
    with pytest.raises(ValueError, match="unknown report format"):
        write_report(corpus, samples, "yaml", tmp_path / "r.yaml")


def test_identical_inputs_write_identical_bytes(tmp_path):
    cfg, corpus, samples, groups = _evaluated(tmp_path)
    for fmt in ("json", "csv", "table"):
        a, b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        write_report(corpus, samples, fmt, a, config=cfg.config_dict(), groups=groups)
        write_report(corpus, samples, fmt, b, config=cfg.config_dict(), groups=groups)
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("content, match", [
    ('{"per_sample": []}\n', r"missing field 'corpus'"),
    ('{"corpus": {"wer": {"substitutions": 1}', r"malformed JSON"),
    ('[1, 2]\n', r"expected a JSON object"),
])
def test_load_report_rejects_foreign_or_truncated_json(tmp_path, content, match):
    path = tmp_path / "r.json"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ReportError, match=match) as info:
        load_report(path)
    assert str(path) in str(info.value)
    assert isinstance(info.value, IngestionError)


class _FlakySource:
    """Annotates every pair with no entities, but crashes on one id."""

    def __init__(self, bad_id):
        self.bad_id = bad_id

    def annotate(self, pair):
        if pair.id == self.bad_id:
            raise RuntimeError("service unavailable")
        return ()


def test_fetch_annotations_wraps_any_source_failure(tmp_path):
    pairs = load_manifest(write_jsonl(tmp_path / "m.jsonl", [
        {"id": "s1", "reference": "a", "hypothesis": "a"},
        {"id": "s2", "reference": "b", "hypothesis": "b"}]))
    source = _FlakySource("s2")
    with pytest.raises(AnnotationError, match=r"'s2'.*RuntimeError: service unavailable"):
        fetch_annotations(source, pairs, strict=True)
    assert set(fetch_annotations(source, pairs)) == {"s1"}
