import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import annotated_sample
from medwer.align import EntityCategory, med_text_align
from medwer.fixtures import load_golden
from medwer.metrics import (CorpusMetrics, EditCounts, RecallCount, SampleMetrics,
                            aggregate, edit_distance, entity_recall, medical_cer,
                            medical_wer, wer)
from medwer.textnorm import tokenize

tokens = st.lists(st.sampled_from("abc"), max_size=6)


def _aligned(sample_id):
    pairs, annotations = load_golden()
    pair = next(p for p in pairs if p.id == sample_id)
    return med_text_align(list(annotations[sample_id].entities), pair.hypothesis), pair


def test_edit_counts_rate_and_errors():
    counts = EditCounts(substitutions=1, insertions=2, deletions=3, hits=4, ref_len=8)
    assert counts.errors == 6
    assert counts.rate == 0.75
    assert math.isnan(EditCounts().rate)


def test_edit_counts_addition():
    total = EditCounts(1, 0, 1, 2, 4) + EditCounts(0, 2, 0, 3, 3)
    assert total == EditCounts(1, 2, 1, 5, 7)


def test_edit_distance_identity():
    assert edit_distance(["a", "b"], ["a", "b"]) == EditCounts(hits=2, ref_len=2)


def test_edit_distance_table_row_one_words():
    counts = edit_distance("quinidine disopyramide digoxin".split(),
                           "quinidan disopiramid dikod sin".split())
    assert (counts.substitutions, counts.insertions, counts.deletions) == (3, 1, 0)
    assert counts.rate == pytest.approx(4 / 3)


def test_edit_distance_empty_hypothesis():
    counts = edit_distance(["a", "b", "c"], [])
    assert counts == EditCounts(deletions=3, ref_len=3)
    assert counts.rate == 1.0


def test_edit_distance_empty_reference():
    counts = edit_distance([], ["a"])
    assert counts.insertions == 1 and counts.ref_len == 0
    assert math.isnan(counts.rate)


def test_backtrace_split_is_deterministic():
    # both cost-2 decompositions exist; the fixed preference picks S=2
    assert edit_distance(["a", "b"], ["b", "a"]) == EditCounts(substitutions=2, ref_len=2)


def test_wer_identical_transcripts():
    text = "lungs clear but dim scattered rhonchi nonproductive cough."
    assert wer(text, text).rate == 0.0


def test_wer_normalizes_both_sides():
    assert wer("lungs clear but dim", "last clear but deems").rate == 0.5
    assert wer("Lungs, CLEAR", "lungs clear").rate == 0.0


def test_wer_empty_hypothesis():
    assert wer("a", "").rate == 1.0


def test_wer_raw_mode():
    assert wer("Cough", "cough", mode="raw").rate == 1.0
    assert wer("Cough", "cough").rate == 0.0


@given(st.text(alphabet="aAb ,.", max_size=20), st.text(alphabet="aAb ,.", max_size=20),
       st.sampled_from(["standard", "raw"]))
def test_wer_takes_either_side_pretokenized(reference, hypothesis, mode):
    want = wer(reference, hypothesis, mode)
    assert wer(tokenize(reference, mode), hypothesis, mode) == want
    assert wer(reference, tokenize(hypothesis, mode), mode) == want


def test_medical_wer_table_row_one():
    aligned, _ = _aligned("t2r1")
    counts = medical_wer(aligned)
    assert (counts.errors, counts.ref_len) == (4, 3)
    assert counts.rate == pytest.approx(4 / 3)


def test_medical_wer_all_exact_is_zero():
    aligned, _ = _aligned("t1_verbatim")
    assert medical_wer(aligned).errors == 0


def test_medical_wer_nothing_matched_is_all_deletions():
    aligned, _ = _aligned("t1_empty")
    counts = medical_wer(aligned)
    assert counts.deletions == counts.ref_len == 4
    assert counts.rate == 1.0


def test_medical_cer_table_row_one():
    aligned, _ = _aligned("t2r1")
    counts = medical_cer(aligned)
    assert (counts.errors, counts.ref_len) == (8, 30)
    assert counts.rate == pytest.approx(8 / 30)


def test_medical_cer_identity_and_empty():
    aligned, _ = _aligned("t1_verbatim")
    assert medical_cer(aligned).errors == 0
    aligned, _ = _aligned("t1_empty")
    assert medical_cer(aligned).rate == 1.0


def test_entity_recall_table_row_two():
    aligned, _ = _aligned("t2r2")
    recall = entity_recall(aligned)
    assert recall == {
        EntityCategory.MED: RecallCount(0, 1),
        EntityCategory.COND: RecallCount(1, 2),
        EntityCategory.TTP: RecallCount(0, 1),
    }


def test_entity_recall_all_exact():
    aligned, _ = _aligned("t1_verbatim")
    assert all(rc.recalled == rc.total for rc in entity_recall(aligned).values())


def test_entity_recall_empty():
    assert entity_recall([]) == {}


def _sample(sid, wer_counts, mwer_counts=None, recall=None):
    mwer_counts = mwer_counts or EditCounts()
    return SampleMetrics(sid, wer_counts, mwer_counts, mwer_counts, recall or {})


def test_aggregate_micro_and_macro_rates():
    a = _sample("a", EditCounts(substitutions=1, hits=1, ref_len=2))
    b = _sample("b", EditCounts(hits=2, ref_len=2))
    corpus = aggregate([a, b])
    assert corpus.wer.rate == 0.25
    assert corpus.macro_wer == 0.25
    assert corpus.samples == 2


def test_aggregate_single_sample_equals_sample():
    counts = EditCounts(substitutions=2, hits=3, ref_len=5)
    corpus = aggregate([_sample("a", counts, counts)])
    assert corpus.wer == counts
    assert corpus.mwer == counts


def test_aggregate_recall_micro_vs_macro():
    a = _sample("a", EditCounts(hits=1, ref_len=1), recall={EntityCategory.MED: RecallCount(1, 2)})
    b = _sample("b", EditCounts(hits=1, ref_len=1), recall={EntityCategory.MED: RecallCount(3, 4)})
    corpus = aggregate([a, b])
    assert corpus.recall[EntityCategory.MED] == RecallCount(4, 6)
    assert corpus.recall[EntityCategory.MED].rate == pytest.approx(4 / 6)
    assert corpus.macro_recall[EntityCategory.MED] == pytest.approx(0.625)


def test_aggregate_skips_zero_denominator_samples():
    empty = _sample("zero", EditCounts(), EditCounts())
    real = _sample("real", EditCounts(substitutions=1, hits=0, ref_len=1),
                   EditCounts(substitutions=1, hits=0, ref_len=1))
    corpus = aggregate([empty, real])
    assert corpus.skipped_zero_word == 1
    assert corpus.skipped_zero_entity == 1
    assert corpus.wer.ref_len == 1
    assert corpus.macro_wer == 1.0


def test_aggregate_empty_input():
    corpus = aggregate([])
    assert corpus.samples == 0
    assert corpus.wer == EditCounts()
    assert math.isnan(corpus.macro_wer)


def _corpus_equal(x: CorpusMetrics, y: CorpusMetrics) -> bool:
    def feq(a, b):
        return (math.isnan(a) and math.isnan(b)) or a == b
    return (x.wer == y.wer and x.mwer == y.mwer and x.mcer == y.mcer
            and x.recall == y.recall and x.samples == y.samples
            and x.skipped_zero_entity == y.skipped_zero_entity
            and x.skipped_zero_word == y.skipped_zero_word
            and feq(x.macro_wer, y.macro_wer) and feq(x.macro_mwer, y.macro_mwer)
            and feq(x.macro_mcer, y.macro_mcer)
            and x.macro_recall.keys() == y.macro_recall.keys()
            and all(feq(x.macro_recall[k], y.macro_recall[k]) for k in x.macro_recall))


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 4)), max_size=8),
       st.randoms())
def test_aggregate_is_order_independent(specs, rnd):
    samples = []
    for n, (subs, hits, recalled) in enumerate(specs):
        counts = EditCounts(substitutions=subs, hits=hits, ref_len=subs + hits)
        recall = {EntityCategory.MED: RecallCount(min(recalled, 4), 4)}
        samples.append(SampleMetrics(f"s{n}", counts, counts, counts, recall))
    shuffled = list(samples)
    rnd.shuffle(shuffled)
    assert _corpus_equal(aggregate(samples), aggregate(shuffled))


@given(tokens, tokens)
def test_distance_symmetric_in_total_cost(a, b):
    forward = edit_distance(a, b)
    backward = edit_distance(b, a)
    assert forward.errors == backward.errors
    assert forward.hits + forward.substitutions + forward.deletions == len(a)
    assert backward.ref_len == len(b)


@given(tokens, tokens, tokens)
def test_distance_triangle_inequality(a, b, c):
    assert edit_distance(a, c).errors <= edit_distance(a, b).errors + edit_distance(b, c).errors


@given(tokens, tokens)
def test_distance_invariant_under_renaming(a, b):
    mapping = {"a": "xx", "b": "yy", "c": "zz"}
    renamed = edit_distance([mapping[t] for t in a], [mapping[t] for t in b])
    assert renamed == edit_distance(a, b)


@given(annotated_sample())
def test_zero_mwer_iff_zero_mcer(sample):
    _, entities, hypothesis = sample
    aligned = med_text_align(entities, hypothesis)
    assert (medical_wer(aligned).errors == 0) == (medical_cer(aligned).errors == 0)


@given(annotated_sample())
def test_all_exact_implies_zero_medical_error(sample):
    _, entities, hypothesis = sample
    aligned = med_text_align(entities, hypothesis)
    if aligned and all(ae.exact for ae in aligned):
        assert medical_wer(aligned).errors == 0
        assert medical_cer(aligned).errors == 0
