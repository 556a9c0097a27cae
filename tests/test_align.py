import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import annotated_sample
from medwer._oracles import oracle_align, reference_normalize
from medwer.align import (EntityAnnotation, EntityCategory, ground_truth_sequence,
                          med_text_align, recovered_sequence, shared_span_count)
from medwer.fixtures import load_golden
from medwer.fuzzy import similarity_ratio
from medwer.textnorm import normalize, tokenize


def _entity(text, begin, category=EntityCategory.MED):
    return EntityAnnotation(text, category, begin, begin + len(text))


def _golden(sample_id):
    pairs, annotations = load_golden()
    pair = next(p for p in pairs if p.id == sample_id)
    return pair, list(annotations[sample_id].entities)


def test_table_row_one_alignment():
    pair, entities = _golden("t2r1")
    aligned = med_text_align(entities, pair.hypothesis)
    assert [ae.candidate.normalized for ae in aligned] == ["quinidan", "disopiramid", "dikod sin"]
    assert all(ae.score >= 0.5 for ae in aligned)
    assert [ae.exact for ae in aligned] == [False, False, False]


def test_table_row_two_alignment():
    pair, entities = _golden("t2r2")
    aligned = med_text_align(entities, pair.hypothesis)
    assert [ae.candidate.normalized for ae in aligned] == [
        "ketami", "anagesic propatis", "paralysis", "mozul relaxition"]
    assert [ae.exact for ae in aligned] == [False, False, True, False]


def test_verbatim_entity_scores_one():
    aligned = med_text_align([_entity("paralysis", 0)], "they observed paralysis on exam")
    assert aligned[0].score == 1.0
    assert aligned[0].exact


def test_empty_hypothesis_leaves_everything_unmatched():
    entities = [_entity("digoxin", 0), _entity("warfarin", 8)]
    aligned = med_text_align(entities, "")
    assert all(ae.candidate is None and ae.score == 0.0 and not ae.exact for ae in aligned)


def test_threshold_one_keeps_only_exact_matches():
    pair, entities = _golden("t2r2")
    aligned = med_text_align(entities, pair.hypothesis, threshold=1.0)
    assert [ae.candidate.normalized if ae.candidate else None for ae in aligned] == [
        None, None, "paralysis", None]


def test_unigram_only_matches_at_exactly_the_cutoff():
    pair, entities = _golden("t2r1")
    digoxin = [e for e in entities if e.text == "digoxin"]
    aligned = med_text_align(digoxin, pair.hypothesis, max_n=1)
    assert aligned[0].candidate.normalized == "dikod"
    assert aligned[0].score == 0.5


def test_tie_breaks_prefer_fewer_tokens():
    # "b" and "b ab" both score 2/3 against "bb"; the unigram wins
    aligned = med_text_align([_entity("bb", 0)], "aa b ab aa")
    assert aligned[0].candidate.normalized == "b"
    assert aligned[0].candidate.length_tokens == 1


def test_tie_breaks_prefer_earlier_start():
    # "aba", "bba", and "aba bba" all score 0.5 against "b aaa"
    aligned = med_text_align([_entity("b aaa", 0)], "aba bba")
    assert aligned[0].candidate.normalized == "aba"
    assert aligned[0].candidate.start_token == 0


def test_candidates_may_be_reused_across_entities():
    entities = [_entity("digoxin", 0), _entity("digoxin", 8)]
    aligned = med_text_align(entities, "the digoxin level")
    assert [ae.candidate.normalized for ae in aligned] == ["digoxin", "digoxin"]
    assert shared_span_count(aligned) == 2


def test_matching_is_case_and_punctuation_insensitive_by_default():
    aligned = med_text_align([_entity("Lungs Clear", 0)], "lungs , clear . noted")
    assert aligned[0].exact
    assert aligned[0].candidate.surface == "lungs clear"


def test_raw_mode_is_case_sensitive():
    aligned = med_text_align([_entity("Cough", 0)], "cough", mode="raw")
    assert aligned[0].candidate is not None
    assert not aligned[0].exact


def test_rejects_unsorted_entities():
    entities = [_entity("b", 5), _entity("a", 0)]
    with pytest.raises(ValueError):
        med_text_align(entities, "a b")


def test_rejects_bad_threshold_and_max_n():
    with pytest.raises(ValueError):
        med_text_align([], "x", threshold=0.0)
    with pytest.raises(ValueError):
        med_text_align([], "x", threshold=1.5)
    with pytest.raises(ValueError):
        med_text_align([], "x", max_n=0)


def test_recovered_sequence_table_row_one():
    pair, entities = _golden("t2r1")
    aligned = med_text_align(entities, pair.hypothesis)
    assert recovered_sequence(aligned) == "quinidan disopiramid dikod sin"
    assert ground_truth_sequence(aligned) == "quinidine disopyramide digoxin"


def test_recovered_sequence_skips_unmatched_without_doubling_spaces():
    pair, entities = _golden("t1_aws")
    aligned = med_text_align(entities, pair.hypothesis)
    assert recovered_sequence(aligned) == "last clear rhonchi"


def test_recovered_sequence_empty_when_nothing_matched():
    entities = [_entity("digoxin", 0)]
    aligned = med_text_align(entities, "")
    assert recovered_sequence(aligned) == ""


@given(annotated_sample())
def test_verbatim_entities_all_exact(sample):
    reference, entities, _ = sample
    aligned = med_text_align(entities, reference)
    assert all(ae.exact for ae in aligned)
    assert recovered_sequence(aligned) == ground_truth_sequence(aligned)


@given(annotated_sample())
def test_threshold_monotonicity(sample):
    reference, entities, hypothesis = sample
    low = med_text_align(entities, hypothesis, threshold=0.5)
    high = med_text_align(entities, hypothesis, threshold=0.7)
    for lo, hi in zip(low, high):
        if hi.candidate is not None:
            assert lo.candidate is not None


@given(annotated_sample())
def test_max_n_monotonicity(sample):
    _, entities, hypothesis = sample
    narrow = med_text_align(entities, hypothesis, max_n=1)
    wide = med_text_align(entities, hypothesis, max_n=3)
    for n, w in zip(narrow, wide):
        assert w.score >= n.score


@given(annotated_sample())
def test_deterministic(sample):
    _, entities, hypothesis = sample
    assert med_text_align(entities, hypothesis) == med_text_align(entities, hypothesis)


@given(annotated_sample())
def test_scores_are_reproducible(sample):
    _, entities, hypothesis = sample
    for ae in med_text_align(entities, hypothesis):
        if ae.candidate is not None:
            assert ae.score == similarity_ratio(normalize(ae.entity.text), ae.candidate.normalized)
            assert ae.score >= 0.5
        else:
            assert ae.score == 0.0


# Few words, so hypotheses repeat them (the dedup tie-break); mixed case,
# non-ASCII letters, flanked and unflanked punctuation, punctuation-only tokens.
_hyp_word = st.one_of(
    st.sampled_from(["dikod", "sin", "Sin", "a", "ab", "ba", "b", "ab.", "a-b", "-", ",", "...",
                     "ñu", "Ñu", "ÉTÉ", "straße", "İ", "x'y", "'", "—"]),
    st.text(alphabet="abñÉ-'.,", min_size=1, max_size=4),
)


@st.composite
def _alignment_case(draw):
    words = draw(st.lists(_hyp_word, max_size=14))
    hypothesis = " ".join(words)
    texts = draw(st.lists(st.one_of(
        st.integers(0, max(0, len(words) - 1)).flatmap(
            lambda i: st.integers(1, 3).map(lambda n: " ".join(words[i:i + n]))),
        st.lists(_hyp_word, min_size=1, max_size=3).map(" ".join),
    ), max_size=4))
    entities = [_entity(text or "x", 100 * i) for i, text in enumerate(texts)]
    threshold = draw(st.one_of(st.sampled_from([0.5, 2 / 3, 1.0]), st.floats(0.05, 1.0)))
    return (entities, hypothesis, threshold, draw(st.integers(1, 4)),
            draw(st.sampled_from(["standard", "raw"])))


@settings(max_examples=300, deadline=None)
@given(_alignment_case())
# "b" and "ab b" both score 2/3 against "bb"; the unigram wins although it starts later
@example(([_entity("bb", 0)], "ab b", 0.5, 2, "standard"))
def test_matches_every_candidate_oracle(case):
    entities, hypothesis, threshold, max_n, mode = case
    aligned = med_text_align(entities, hypothesis, threshold, max_n, mode)
    assert aligned == med_text_align(entities, tokenize(hypothesis, mode), threshold, max_n, mode)
    for ae in aligned:
        want = oracle_align(ae.entity.text, hypothesis, threshold, max_n, mode)
        if want is None:
            assert (ae.candidate, ae.score, ae.exact) == (None, 0.0, False)
            continue
        got = ae.candidate
        assert (got.start_token, got.length_tokens, got.surface, got.normalized, ae.score) == want
        assert ae.exact == (want.normalized == reference_normalize(ae.entity.text, mode))
