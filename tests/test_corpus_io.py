import ast
import codecs
import csv
import io
import json
import math
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import annotation_record, pair_record, write_jsonl
import medwer
from medwer.align import EntityCategory
from medwer.corpus import (AnnotationError, ManifestError, TranscriptPair, _sample_json, load_annotations,
                           load_manifest, render_csv, render_json, render_table, write_output, write_report)
from medwer.fixtures import fixture_path, load_golden, synthetic_corpus
from medwer.metrics import CorpusMetrics, EditCounts, RecallCount, SampleMetrics, aggregate
from medwer.runner import RunConfig, align_corpus, evaluate_corpus
from medwer.textnorm import NORMALIZATION_MODES
from oracles import reference_report_json


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


def test_leading_byte_order_mark_is_accepted(tmp_path):
    plain_manifest, plain_annotations = fixture_path("manifest.jsonl"), fixture_path("annotations.jsonl")
    bom_manifest, bom_annotations = tmp_path / "m.jsonl", tmp_path / "a.jsonl"
    bom_manifest.write_bytes(codecs.BOM_UTF8 + plain_manifest.read_bytes())
    bom_annotations.write_bytes(codecs.BOM_UTF8 + plain_annotations.read_bytes())
    pairs = load_manifest(plain_manifest)
    assert load_manifest(bom_manifest) == pairs
    assert load_annotations(bom_annotations, pairs) == load_annotations(plain_annotations, pairs)


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


# JSON can escape a lone surrogate, which is not Unicode text and cannot be
# written back out as UTF-8; a surrogate pair is one astral character.
@pytest.mark.parametrize("line", [
    json.dumps({"id": "b\udc00", "reference": "a", "hypothesis": "a"}),
    json.dumps({"id": "b", "reference": "a", "hypothesis": "a", "accent": "\ud800"}),
    json.dumps({"id": "b", "reference": "a", "hypothesis": "a", "\udfff": 1}),
    '{"id": "b\\uDC00", "reference": "a", "hypothesis": "a"}',
], ids=["id", "accent", "key", "uppercase-hex"])
def test_load_manifest_rejects_lone_surrogate_naming_line(tmp_path, line):
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps({"id": "s1", "reference": "a", "hypothesis": "a"}) + "\n" + line + "\n",
                    encoding="utf-8")
    with pytest.raises(ManifestError, match=r"m\.jsonl:2: .*surrogate"):
        load_manifest(path)


def test_load_annotations_rejects_lone_surrogate_naming_line(tmp_path):
    pairs = [TranscriptPair("s1", "the cough", "x")]
    path = write_jsonl(tmp_path / "a.jsonl", [{"id": "s1", "entities": []},
                                              {"id": "s\udc00", "entities": []}])
    with pytest.raises(AnnotationError, match=r"a\.jsonl:2: .*surrogate"):
        load_annotations(path, pairs)


def test_surrogate_pair_escape_is_one_astral_character(tmp_path):
    path = write_jsonl(tmp_path / "m.jsonl", [{"id": "b\U0001F600", "reference": "a \\u00e9",
                                               "hypothesis": "a"}])
    assert "\\ud83d" in path.read_text(encoding="utf-8")
    [pair] = load_manifest(path)
    assert (pair.id, pair.reference) == ("b\U0001F600", "a \\u00e9")


def test_an_ascii_escaped_copy_of_a_corpus_loads_equal_to_it(tmp_path):
    # one astral and precomposed letters, each one code point, so offsets stay valid
    letters = str.maketrans("aeiou", "\U0001D4B6éïöü")
    pairs, annotations = synthetic_corpus(20, seed=3)
    pairs = [TranscriptPair(p.id, p.reference.translate(letters), p.hypothesis.translate(letters),
                            p.accent, p.domain, p.model) for p in pairs]
    records = [annotation_record(a) for a in annotations.values()]
    for record in records:
        for entity in record["entities"]:
            entity["text"] = entity["text"].translate(letters)
    loaded = []
    for ensure_ascii in (False, True):
        manifest, annot = tmp_path / f"m{ensure_ascii}.jsonl", tmp_path / f"a{ensure_ascii}.jsonl"
        manifest.write_text("".join(json.dumps(pair_record(p), ensure_ascii=ensure_ascii) + "\n"
                                    for p in pairs), encoding="utf-8")
        annot.write_text("".join(json.dumps(r, ensure_ascii=ensure_ascii) + "\n" for r in records),
                         encoding="utf-8")
        loaded_pairs = load_manifest(manifest)
        loaded.append((loaded_pairs, load_annotations(annot, loaded_pairs)))
    assert "\\ud835" in manifest.read_text(encoding="utf-8")
    assert loaded[0] == loaded[1]
    assert loaded[0][0] == pairs


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


def test_load_annotations_unknown_id_warns_then_skips(tmp_path, capsys):
    manifest = _manifest(tmp_path)
    path = write_jsonl(tmp_path / "a.jsonl", [{"id": "ghost", "entities": []}])
    annotations = load_annotations(path, manifest)
    assert annotations == {}
    assert capsys.readouterr().err == f"WARNING {path}:1: skipping annotation for unknown id 'ghost'\n"


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


@pytest.mark.parametrize("record_id", [["a"], {"id": "s1"}, 7, None])
def test_load_annotations_rejects_non_string_id(tmp_path, record_id):
    manifest = _manifest(tmp_path)
    path = write_jsonl(tmp_path / "a.jsonl", [{"id": record_id, "entities": []}])
    with pytest.raises(AnnotationError, match=r"a\.jsonl:1.*'id' must be a string"):
        load_annotations(path, manifest)


@pytest.mark.parametrize("entity", ["context", ["text"], 4, None])
def test_load_annotations_rejects_entity_that_is_not_an_object(tmp_path, entity):
    manifest = _manifest(tmp_path)
    path = write_jsonl(tmp_path / "a.jsonl", [{"id": "s1", "entities": [entity]}])
    with pytest.raises(AnnotationError, match=r"a\.jsonl:1.*entity must be an object"):
        load_annotations(path, manifest)


# One malformed record each, with the whole message it must raise. Where a
# record breaks two rules, the message shows which check comes first.
_PAIR = {"id": "s1", "reference": "a", "hypothesis": "a"}


@pytest.mark.parametrize("record, message", [
    ({"reference": "a", "hypothesis": "a"}, "missing required field 'id'"),
    ({"id": "s1", "hypothesis": "a"}, "missing required field 'reference'"),
    ({"id": "s1", "reference": "a"}, "missing required field 'hypothesis'"),
    ({}, "missing required field 'id'"),
    ({"id": 7, "reference": ""}, "missing required field 'hypothesis'"),
    ({**_PAIR, "id": 7}, "field 'id' must be a non-empty string"),
    ({**_PAIR, "id": ""}, "field 'id' must be a non-empty string"),
    ({**_PAIR, "id": True, "reference": 1, "hypothesis": 2}, "field 'id' must be a non-empty string"),
    ({**_PAIR, "reference": ["a"]}, "field 'reference' must be a non-empty string"),
    ({**_PAIR, "reference": ""}, "field 'reference' must be a non-empty string"),
    ({**_PAIR, "reference": "", "hypothesis": None}, "field 'reference' must be a non-empty string"),
    ({**_PAIR, "hypothesis": None}, "field 'hypothesis' must be a string"),
    ({**_PAIR, "hypothesis": 1.0}, "field 'hypothesis' must be a string"),
    ({**_PAIR, "accent": 5}, "field 'accent' must be a string when present"),
    ({**_PAIR, "domain": ["x"]}, "field 'domain' must be a string when present"),
    ({**_PAIR, "model": True}, "field 'model' must be a string when present"),
    ({**_PAIR, "model": 1, "accent": False}, "field 'accent' must be a string when present"),
    ({**_PAIR, "hypothesis": 0, "accent": 5}, "field 'hypothesis' must be a string"),
])
def test_malformed_manifest_record_messages(tmp_path, record, message):
    path = write_jsonl(tmp_path / "m.jsonl", [record])
    with pytest.raises(ManifestError) as info:
        load_manifest(path)
    assert str(info.value) == f"{path}:1: {message}"


_ENTITY = {"text": "digoxin", "category": "MED", "begin": 4, "end": 11}
_KNOWN = ("ANA, ANATOMY, COND, MED, MEDICAL_CONDITION, MEDICATION, PHI, "
          "PROTECTED_HEALTH_INFORMATION, TEST_TREATMENT_PROCEDURE, TTP")


def _without(key):
    return {k: v for k, v in _ENTITY.items() if k != key}


@pytest.mark.parametrize("record, message", [
    ({"entities": []}, "missing required field 'id'"),
    ({"id": "s1"}, "missing required field 'entities'"),
    ({"id": "ghost"}, "missing required field 'entities'"),
    ({"id": 7}, "field 'id' must be a string, got int"),
    ({"id": 7, "entities": []}, "field 'id' must be a string, got int"),
    ({"id": None, "entities": []}, "field 'id' must be a string, got NoneType"),
    ({"id": "s1", "entities": {}}, "'entities' must be a list"),
    ({"id": "s1", "entities": None}, "'entities' must be a list"),
    ({"id": "s1", "entities": [_without("text")]}, "missing required field 'text'"),
    ({"id": "s1", "entities": [_without("category")]}, "missing required field 'category'"),
    ({"id": "s1", "entities": [_without("begin")]}, "missing required field 'begin'"),
    ({"id": "s1", "entities": [_without("end")]}, "missing required field 'end'"),
    ({"id": "s1", "entities": [{}]}, "missing required field 'text'"),
    ({"id": "s1", "entities": [{**_without("end"), "text": 7}]}, "missing required field 'end'"),
    ({"id": "s1", "entities": [{**_ENTITY, "begin": True}]}, "entity offsets must be integers"),
    ({"id": "s1", "entities": [{**_ENTITY, "end": True}]}, "entity offsets must be integers"),
    ({"id": "s1", "entities": [{**_ENTITY, "begin": 4.0}]}, "entity offsets must be integers"),
    ({"id": "s1", "entities": [{**_ENTITY, "begin": 1.0}]}, "entity offsets must be integers"),
    ({"id": "s1", "entities": [{**_ENTITY, "end": "11"}]}, "entity offsets must be integers"),
    ({"id": "s1", "entities": [{**_ENTITY, "text": 7}]}, "entity 'text' and 'category' must be strings"),
    ({"id": "s1", "entities": [{**_ENTITY, "category": None}]},
     "entity 'text' and 'category' must be strings"),
    ({"id": "s1", "entities": [{**_ENTITY, "text": None, "begin": True}]},
     "entity 'text' and 'category' must be strings"),
    ({"id": "s1", "entities": [{**_ENTITY, "category": "DOSAGE_FORM"}]},
     f"unknown category 'DOSAGE_FORM' for id 's1' (known: {_KNOWN})"),
    ({"id": "s1", "entities": [{**_ENTITY, "category": "med"}]},
     f"unknown category 'med' for id 's1' (known: {_KNOWN})"),
    ({"id": "s1", "entities": [{**_ENTITY, "category": "DOSAGE_FORM", "begin": True}]},
     "entity offsets must be integers"),
    ({"id": "s1", "entities": [{**_ENTITY, "category": "DOSAGE_FORM", "end": 99}]},
     f"unknown category 'DOSAGE_FORM' for id 's1' (known: {_KNOWN})"),
    ({"id": "s1", "entities": [{**_ENTITY, "end": 99}]}, "entity offsets [4, 99) out of range for id 's1'"),
    ({"id": "s1", "entities": [{**_ENTITY, "begin": -1}]},
     "entity offsets [-1, 11) out of range for id 's1'"),
    ({"id": "s1", "entities": [{**_ENTITY, "begin": 11}]},
     "entity offsets [11, 11) out of range for id 's1'"),
    ({"id": "s1", "entities": [{**_ENTITY, "begin": 0, "end": 7}]},
     "offset mismatch for id 's1': reference[0:7] is 'the dig' but annotation says 'digoxin'"),
    ({"id": "s1", "entities": [{**_ENTITY, "begin": 0, "end": 7, "score": 2}]},
     "offset mismatch for id 's1': reference[0:7] is 'the dig' but annotation says 'digoxin'"),
    ({"id": "s2", "entities": [{"text": ",,", "category": "PHI", "begin": 2, "end": 4}]},
     "entity ',,' for id 's2' normalizes to nothing"),
    ({"id": "s2", "entities": [{"text": ",,", "category": "PHI", "begin": 2, "end": 4, "score": 2}]},
     "entity ',,' for id 's2' normalizes to nothing"),
    ({"id": "s1", "entities": [{**_ENTITY, "score": True}]}, "entity score must be a number in [0, 1]"),
    ({"id": "s1", "entities": [{**_ENTITY, "score": 1.5}]}, "entity score must be a number in [0, 1]"),
    ({"id": "s1", "entities": [{**_ENTITY, "score": math.nan}]}, "entity score must be a number in [0, 1]"),
    ({"id": "s1", "entities": [{**_ENTITY, "score": -0.0001}]}, "entity score must be a number in [0, 1]"),
    ({"id": "s1", "entities": [{**_ENTITY, "score": "0.5"}]}, "entity score must be a number in [0, 1]"),
    ({"id": "s1", "entities": ["context"]}, "each entity must be an object, got str"),
    ({"id": "s1", "entities": [_ENTITY, None]}, "each entity must be an object, got NoneType"),
    ({"id": "s1", "entities": [[_ENTITY]]}, "each entity must be an object, got list"),
])
def test_malformed_annotation_record_messages(tmp_path, record, message):
    manifest = [TranscriptPair("s1", "the digoxin level", "x"), TranscriptPair("s2", "a ,, b", "x")]
    path = write_jsonl(tmp_path / "a.jsonl", [record])
    with pytest.raises(AnnotationError) as info:
        load_annotations(path, manifest)
    assert str(info.value) == f"{path}:1: {message}"


def test_an_unknown_id_is_skipped_before_its_entities_are_read(tmp_path):
    manifest = [TranscriptPair("s1", "the digoxin level", "x")]
    path = write_jsonl(tmp_path / "a.jsonl", [{"id": "ghost", "entities": "not a list"},
                                              {"id": "ghost", "entities": [{"text": 7}]}])
    assert load_annotations(path, manifest) == {}


@pytest.mark.parametrize("score", [None, 0, 1, 0.5, 1.0])
def test_an_entity_score_in_range_is_accepted_and_ignored(tmp_path, score):
    manifest = [TranscriptPair("s1", "the digoxin level", "x")]
    path = write_jsonl(tmp_path / "a.jsonl", [{"id": "s1", "entities": [{**_ENTITY, "score": score}]}])
    [entity] = load_annotations(path, manifest)["s1"].entities
    assert (entity.text, entity.begin, entity.end) == ("digoxin", 4, 11)


def _evaluated(tmp_path, n=8):
    pairs, annotations = synthetic_corpus(n, seed=5, tokens_per_sample=12)
    cfg = RunConfig(group_by=("model",))
    corpus, samples, groups = evaluate_corpus(pairs, annotations, cfg)
    return cfg, corpus, samples, groups


def test_json_report_formats_rates_to_four_decimals(tmp_path):
    pairs, annotations = load_golden()
    corpus, samples, _ = evaluate_corpus(pairs, annotations, RunConfig())
    path = tmp_path / "r.json"
    write_report(corpus, samples, "json", path, RunConfig())
    text = path.read_text()
    assert '"rate": 1.3333' in text          # t2r1 medical WER of 4/3
    assert '"threshold": 0.5000' in text
    doc = json.loads(text)
    assert doc["corpus"]["samples"] == 6
    assert doc["corpus"]["skipped_zero_entity"] == 0


def test_json_report_null_rate_for_zero_denominator(tmp_path):
    corpus, samples, _ = evaluate_corpus(*load_golden(), RunConfig())
    t1_empty = [s for s in samples if s.sample_id == "t1_empty"]
    write_report(corpus, t1_empty, "json", tmp_path / "r.json", RunConfig())
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["per_sample"][0]["mwer"]["rate"] == 1.0
    pairs, annotations = load_golden()
    no_entities = {pid: a for pid, a in annotations.items() if pid != "t2r1"}
    corpus, samples, _ = evaluate_corpus(pairs, no_entities, RunConfig())
    write_report(corpus, samples, "json", tmp_path / "r2.json", RunConfig())
    doc = json.loads((tmp_path / "r2.json").read_text())
    row = next(s for s in doc["per_sample"] if s["id"] == "t2r1")
    assert row["mwer"]["rate"] is None
    assert doc["corpus"]["skipped_zero_entity"] == 1


def test_csv_report_has_sample_rows_and_summary(tmp_path):
    cfg, corpus, samples, _ = _evaluated(tmp_path, n=4)
    path = tmp_path / "r.csv"
    write_report(corpus, samples, "csv", path, cfg)
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
        write_report(corpus, samples, "yaml", tmp_path / "r.yaml", RunConfig())


def test_identical_inputs_write_identical_bytes(tmp_path):
    cfg, corpus, samples, groups = _evaluated(tmp_path)
    for fmt in ("json", "csv", "table"):
        a, b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        write_report(corpus, samples, fmt, a, cfg, groups=groups)
        write_report(corpus, samples, fmt, b, cfg, groups=groups)
        assert a.read_bytes() == b.read_bytes()


def _traced_peak(write, *args) -> int:
    """The tracemalloc peak while write(*args) runs, above what was traced before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("output", ["per-sample-json", "per-sample-csv", "align"])
def test_writing_the_output_holds_no_copy_of_it(tmp_path, output):
    # the paper's shape: 2000 samples of 30 tokens with 3 entities each
    pairs, annotations = synthetic_corpus(2000, seed=31)
    cfg = RunConfig()
    path = tmp_path / "out"
    if output == "align":
        peak = _traced_peak(write_output, align_corpus(pairs, annotations, cfg), path)
    else:
        corpus, samples, _ = evaluate_corpus(pairs, annotations, cfg)
        peak = _traced_peak(write_report, corpus, samples, output.rsplit("-", 1)[1], path, cfg)
    size = path.stat().st_size
    # the csv report is about a sixth of the json one
    small = output == "per-sample-csv"
    assert size > (10 ** 5 if small else 10 ** 6)
    assert peak < size / (10 if small else 100), f"{peak} bytes traced while writing {size}"


# Small counts give NaN (zero denominator) and whole-number rates often.
_count = st.one_of(st.integers(0, 3), st.integers(0, 10**9))
# quotes, backslashes, commas, control, line-separator and astral characters
_text = st.text(st.one_of(st.sampled_from('"\\,\x00\x1f\x7f\r\n\t\u2028\U0001F600'), st.characters()),
                min_size=1)
_edit_counts = st.builds(EditCounts, *[_count] * 5)
_recall = st.dictionaries(st.sampled_from(list(EntityCategory)), st.builds(RecallCount, _count, _count))
_sample_metrics = st.builds(SampleMetrics, _text, _edit_counts, _edit_counts, _edit_counts, _recall)
_rate = st.one_of(st.just(math.nan), st.floats(0, 10))
# Built by hand, so macro_recall may lack a category that recall has, or
# name one that recall lacks.
_corpus_metrics = st.builds(
    CorpusMetrics, _edit_counts, _edit_counts, _edit_counts, _recall, _count, _count, _count,
    _rate, _rate, _rate, st.dictionaries(st.sampled_from(list(EntityCategory)), _rate))
_config = st.builds(RunConfig, threshold=st.floats(0.01, 1), max_ngram=st.integers(1, 9),
                    normalization=st.sampled_from(NORMALIZATION_MODES))


@given(_sample_metrics)
def test_per_sample_row_template_matches_the_generic_rendering(sample):
    report = reference_report_json(aggregate([]), [sample], RunConfig(), None)
    assert report.endswith(f'  "per_sample": [\n{_sample_json(sample)}\n  ]\n}}\n')


@settings(max_examples=100)
@given(st.lists(_sample_metrics, max_size=4), st.one_of(st.none(), _corpus_metrics),
       st.one_of(st.none(), st.dictionaries(_text, _corpus_metrics, max_size=3)),
       _config)
def test_render_json_matches_the_generic_rendering(samples, corpus, groups, config):
    corpus = aggregate(samples) if corpus is None else corpus
    for per_sample in (samples, [], None):
        text = "".join(render_json(corpus, per_sample, config, groups))
        assert text == reference_report_json(corpus, per_sample, config, groups)
        doc = json.loads(text)
        assert [row["id"] for row in doc.get("per_sample", [])] == [s.sample_id for s in per_sample or []]
        assert list(doc.get("groups", {})) == sorted(groups or {})


@given(st.lists(_sample_metrics, max_size=4))
@example([SampleMetrics(i, EditCounts(), EditCounts(), EditCounts(), {})
          for i in ("a\x00b", "c\rd", "e\nf", "g,h", 'i"j', "\r\n")])
def test_csv_reader_gives_back_each_id(samples):
    if sys.version_info < (3, 11):  # the csv reader rejects NUL before 3.11
        samples = [s._replace(sample_id=s.sample_id.replace("\x00", "")) for s in samples]
    rows = list(csv.reader(io.StringIO("".join(render_csv(aggregate(samples), samples)), newline="")))
    assert [row[0] for row in rows] == ["id", *(s.sample_id for s in samples), "corpus"]
    assert {len(row) for row in rows} == {len(rows[0])}


def test_a_category_missing_from_macro_recall_renders_null():
    recall = {EntityCategory.MED: RecallCount(1, 2), EntityCategory.PHI: RecallCount(0, 1)}
    corpus = aggregate([])._replace(recall=recall, macro_recall={EntityCategory.MED: 0.5})
    doc = json.loads("".join(render_json(corpus, None, RunConfig(), {"g": corpus})))
    for block in (doc["corpus"], doc["groups"]["g"]):
        assert block["recall"]["MED"]["macro_rate"] == 0.5
        assert block["recall"]["PHI"] == {"recalled": 0, "total": 1, "rate": 0.0, "macro_rate": None}


def _imported_modules(path):
    imported = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module in (None, "medwer"):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module)
    return [name.split(".")[-1] for name in imported]


def test_the_oracles_import_nothing_from_the_modules_they_check():
    # medwer/__init__ loads every module, so sys.modules cannot show this
    package = _imported_modules(Path(medwer.__file__).with_name("_oracles.py"))
    tests = _imported_modules(Path(__file__).with_name("oracles.py"))
    checked = ("align", "corpus", "fuzzy", "metrics", "runner", "textnorm")
    assert "align" in tests  # for the category names, which it checks nothing about
    assert [name for name in package if name in checked] == []
    assert [name for name in tests if name in checked[1:]] == []


def test_every_package_oracle_serves_selfcheck_or_the_benchmark():
    # the package ships reference_sample's call tree, for selfcheck and
    # scripts/regen_expected.py, and what perfbench/verify.py imports;
    # references that only tests use belong in tests/oracles.py
    tree = ast.parse(Path(medwer.__file__).with_name("_oracles.py").read_text(encoding="utf-8"))
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, ast.Assign):
            defined.update((target.id, node) for target in node.targets)
    verify = ast.parse((Path(__file__).parents[1] / "perfbench" / "verify.py").read_text(encoding="utf-8"))
    benchmark = {alias.name for node in ast.walk(verify)
                 if isinstance(node, ast.ImportFrom) and node.module == "medwer._oracles" for alias in node.names}
    assert benchmark and benchmark <= defined.keys()
    reached, pending = set(), ["reference_sample", *benchmark]
    while pending:
        name = pending.pop()
        if name in defined and name not in reached:
            reached.add(name)
            pending += [node.id for node in ast.walk(defined[name]) if isinstance(node, ast.Name)]
    assert sorted(defined.keys() - reached) == []
