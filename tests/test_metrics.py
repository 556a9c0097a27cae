import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import annotated_sample
from medwer._oracles import all_alignments_distance, dp_distance, reference_edit_counts
from medwer.align import EntityCategory, med_text_align
from medwer.fixtures import load_golden, synthetic_corpus
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


def test_corpus_counts_are_column_sums():
    corpus = aggregate([SampleMetrics("a", EditCounts(1, 0, 1, 2, 4), EditCounts(), EditCounts(), {}),
                        SampleMetrics("b", EditCounts(0, 2, 0, 3, 3), EditCounts(), EditCounts(), {})])
    assert corpus.wer == (1, 2, 1, 5, 7)


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


# Two- and three-letter alphabets force cost ties between S and D+I; the
# others are non-ASCII, astral code points included.
ALPHABETS = ("ab", "abc", "éü", "ßя字", "😀😁")


@st.composite
def edit_pairs(draw, max_len):
    """(ref, hyp) as word lists or plain strings around a shared prefix and
    suffix, each side up to max_len elements between them."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    words = draw(st.booleans())
    element = st.text(alphabet, min_size=1, max_size=2) if words else st.sampled_from(alphabet)

    def part(limit):
        size = draw(st.integers(0, limit))
        return draw(st.lists(element, min_size=size, max_size=size))

    prefix, suffix = part(max_len // 8), part(max_len // 8)
    ref, hyp = prefix + part(max_len) + suffix, prefix + part(max_len) + suffix
    return (ref, hyp) if words else ("".join(ref), "".join(hyp))


def _assert_counts_match_reference(ref, hyp):
    counts = edit_distance(ref, hyp)
    split = (counts.substitutions, counts.insertions, counts.deletions, counts.hits)
    assert split == reference_edit_counts(ref, hyp)
    assert counts.ref_len == len(ref)


@settings(max_examples=500, deadline=None)
@given(edit_pairs(max_len=12))
def test_edit_distance_matches_full_table_reference(pair):
    _assert_counts_match_reference(*pair)


@settings(max_examples=120, deadline=None)
@given(edit_pairs(max_len=300))
def test_edit_distance_matches_full_table_reference_across_word_boundaries(pair):
    # up to ~370 elements a side: bit vectors of one, two and several 64-bit words
    _assert_counts_match_reference(*pair)


@pytest.mark.parametrize("ref,hyp", [("", ""), ("", "abc"), ("abc", ""), ("a" * 64, "a" * 65),
                                     ("ab" * 64, "ba" * 64), ("a" * 129, "b" * 128),
                                     # runs of 100+ deletions or insertions inside the
                                     # backtrace, across 64-bit word boundaries
                                     ("x" + "ab" * 70 + "y", "xy"), ("xy", "x" + "ab" * 70 + "y"),
                                     ("a" * 100 + "b" * 100, "ab"), ("ab", "a" * 100 + "b" * 100)])
def test_edit_distance_matches_full_table_reference_at_edges(ref, hyp):
    _assert_counts_match_reference(ref, hyp)
    _assert_counts_match_reference(list(ref), list(hyp))


def test_edit_distance_matches_full_table_reference_on_a_long_consultation():
    pairs, _ = synthetic_corpus(1, seed=2, tokens_per_sample=2000, entities_per_sample=100)
    ref, hyp = tokenize(pairs[0].reference), tokenize(pairs[0].hypothesis)
    assert len(ref) == 2000 and len(hyp) >= 2000
    _assert_counts_match_reference(ref.words, hyp.words)


def test_wer_peak_memory_is_bounded_for_ten_thousand_words():
    # the full (n+1) x (m+1) table of Python ints would take several GB here
    pairs, _ = synthetic_corpus(1, seed=3, tokens_per_sample=10_000, entities_per_sample=300)
    reference, hypothesis = pairs[0].reference, pairs[0].hypothesis
    tracemalloc.start()
    try:
        counts = wer(reference, hypothesis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert counts.ref_len == 10_000
    assert counts.hits + counts.substitutions + counts.deletions == counts.ref_len
    assert wer(hypothesis, reference).errors == counts.errors


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


@st.composite
def edit_counts(draw):
    """Counts whose ref_len may be 0, with insertions on either side of that."""
    subs, ins, dels, hits = (draw(st.integers(0, 3)) for _ in range(4))
    return EditCounts(subs, ins, dels, hits, subs + dels + hits)


@st.composite
def sample_metrics(draw, n):
    cats = draw(st.permutations(list(EntityCategory)))
    recall = {}
    for cat in cats[:draw(st.integers(0, len(cats)))]:
        total = draw(st.integers(0, 3))
        recall[cat] = RecallCount(draw(st.integers(0, total)), total)
    return SampleMetrics(f"s{n}", draw(edit_counts()), draw(edit_counts()), draw(edit_counts()), recall)


def _summed(counts, cls):
    return cls(*(sum(getattr(c, name) for c in counts) for name in cls._fields))


def _macro(rates):
    return math.fsum(rates) / len(rates) if rates else math.nan


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8).flatmap(lambda k: st.tuples(*(sample_metrics(n) for n in range(k)))))
def test_aggregate_equals_a_field_by_field_recomputation(samples):
    samples = list(samples)
    corpus = aggregate(samples)
    with_words = [s for s in samples if s.wer.ref_len != 0]
    # M-CER is counted for exactly the samples that count for M-WER
    with_entities = [s for s in samples if s.mwer.ref_len != 0]
    recall, macro_recall = {}, {}
    for cat in EntityCategory:
        counted = [s.recall[cat] for s in samples if cat in s.recall and s.recall[cat].total != 0]
        if counted:
            recall[cat] = _summed(counted, RecallCount)
            macro_recall[cat] = _macro([rc.recalled / rc.total for rc in counted])
    expected = CorpusMetrics(
        wer=_summed([s.wer for s in with_words], EditCounts),
        mwer=_summed([s.mwer for s in with_entities], EditCounts),
        mcer=_summed([s.mcer for s in with_entities], EditCounts),
        recall=recall,
        samples=len(samples),
        skipped_zero_entity=sum(s.mwer.ref_len == 0 for s in samples),
        skipped_zero_word=sum(s.wer.ref_len == 0 for s in samples),
        macro_wer=_macro([s.wer.errors / s.wer.ref_len for s in with_words]),
        macro_mwer=_macro([s.mwer.errors / s.mwer.ref_len for s in with_entities]),
        # a drawn M-CER may have ref_len 0 beside a nonzero M-WER: its rate is NaN
        macro_mcer=_macro([s.mcer.rate for s in with_entities]),
        macro_recall=macro_recall,
    )
    assert _corpus_equal(corpus, expected)
    assert list(corpus.recall) == list(recall)
    assert list(corpus.macro_recall) == list(macro_recall)


@given(tokens, tokens)
def test_distance_oracles_and_edit_distance_equal_the_all_alignments_minimum(a, b):
    want = all_alignments_distance(a, b)
    subs, ins, dels, _ = reference_edit_counts(a, b)
    assert dp_distance(a, b) == subs + ins + dels == edit_distance(a, b).errors == want


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
