import random
import unicodedata
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import annotated_sample
from medwer import align
from medwer._oracles import oracle_align, reference_normalize
from medwer.align import (EntityAnnotation, EntityCategory, ground_truth_sequence,
                          med_text_align, recovered_sequence, shared_span_count)
from medwer.fixtures import load_golden
from medwer.fuzzy import similarity_ratio
from medwer.textnorm import ngrams, normalize, tokenize


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


def test_a_decomposed_entity_matches_its_composed_form_exactly():
    text = "Sjögren syndrome"
    aligned = med_text_align([_entity(unicodedata.normalize("NFD", text), 0)], f"signs of {text} noted")
    assert (aligned[0].score, aligned[0].exact) == (1.0, True)


def test_scores_through_the_module_level_similarity_ratio(monkeypatch):
    # profilers rebind align.similarity_ratio to count the full ratio calls
    calls = []

    def counted(entity, candidate):
        calls.append((entity, candidate))
        return similarity_ratio(entity, candidate)

    monkeypatch.setattr(align, "similarity_ratio", counted)
    aligned = med_text_align([_entity("quinidine", 0)], "take quinidan daily")
    assert aligned[0].candidate.normalized == "quinidan"
    assert ("quinidine", "quinidan") in calls


def test_builds_candidates_through_the_module_level_ngrams(monkeypatch):
    # profilers rebind align.ngrams to count and time the candidate strings
    calls = []

    def counted(seq, max_n):
        calls.append((seq.words, max_n))
        return ngrams(seq, max_n)

    monkeypatch.setattr(align, "ngrams", counted)
    med_text_align([], "take quinidan daily")
    med_text_align([_entity("quinidine", 0)], "take quinidan daily", max_n=2)
    med_text_align([_entity("daily", 0)], tokenize("take quinidan daily"))
    assert calls == [(["take", "quinidan", "daily"], 3), (["take", "quinidan", "daily"], 2),
                     (["take", "quinidan", "daily"], 3)]


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


@pytest.mark.parametrize("mode,want", [("standard", "digoxin mr o'brien"),
                                       ("raw", "Digoxin, Mr. O'Brien")])
def test_ground_truth_sequence_uses_the_alignment_mode(mode, want):
    entities = [_entity("Digoxin,", 0), _entity("Mr. O'Brien", 9, EntityCategory.PHI)]
    aligned = med_text_align(entities, "digoxin mr obrien", mode=mode)
    assert [ae.target for ae in aligned] == [normalize(e.text, mode) for e in entities]
    assert ground_truth_sequence(aligned) == want


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
# a recurring target reuses its first result
@example(([_entity("sni", 0), _entity("dikod", 100), _entity("sni", 200)], "sin dikod a", 0.5, 3,
          "standard"))
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


# Candidates and targets of hundreds of code points: a character that occurs
# more than 255 times must be counted in full, not capped at a byte.
@pytest.mark.parametrize("entity_text, hypothesis", [
    ("a" * 300, "a" * 299 + "b " + "a" * 40 + " b"),
    ("a" * 280 + "b", "a" * 300 + " " + "ab" * 140 + " b" * 3),
    ("ab" * 10, "a" * 256 + " " + "ab" * 9 + " b" * 20),
    ("xy" * 130, "y" * 200 + "x" * 150 + " " + "yx" * 120 + " xy"),
], ids=["a300", "a280b", "ab10", "xy130"])
def test_long_strings_match_the_oracle(entity_text, hypothesis):
    _assert_matches_oracle(entity_text, hypothesis)


def _assert_matches_oracle(entity_text, hypothesis, max_n=3):
    for threshold in (0.5, 0.9):
        [ae] = med_text_align([_entity(entity_text, 0)], hypothesis, threshold, max_n)
        want = oracle_align(entity_text, hypothesis, threshold, max_n)
        got = None if ae.candidate is None else (ae.candidate.start_token, ae.candidate.length_tokens,
                                                 ae.candidate.surface, ae.candidate.normalized, ae.score)
        assert got == want


def _words(alphabet, count, length, seed):
    """count distinct words of the given length over alphabet."""
    rng = random.Random(seed)
    words: dict[str, None] = {}
    while len(words) < count:
        words["".join(rng.choice(alphabet) for _ in range(length))] = None
    return list(words)


# Length groups of many strings, with repeated characters, in ASCII, in
# non-ASCII and past 255 code points.
@pytest.mark.parametrize("words, entity_text", [
    (_words("abc", 12, 6, seed=1), "abccab"),
    (_words("ñéüa", 12, 6, seed=2), "ñéñüaé"),
    (["a" * (130 + i) + "b" * (130 - i) for i in range(10)], "a" * 133 + "c" + "b" * 126),
], ids=["ascii", "non-ascii", "long"])
def test_large_length_groups_match_the_oracle(words, entity_text):
    assert sum(len(w) == len(entity_text) for w in set(words)) >= 10
    _assert_matches_oracle(entity_text, " ".join(words), max_n=1 if len(entity_text) > 255 else 3)


@pytest.mark.parametrize("clen", [6, 256])
@pytest.mark.parametrize("size", [1, 9])
def test_overlaps_count_the_multiset_intersection(size, clen, monkeypatch):
    # one length group, so every candidate is bounded against the threshold
    # before anything is scored; the bound it is pushed with is 2*overlap/total
    strings = _words("abñ", size, clen, seed=size)
    first = {s: (1, i) for i, s in enumerate(strings)}
    for target in (strings[0], "a" * clen, "ab" + "ñ" * (clen - 3), "b", "ñaab"):
        pushed = {}
        monkeypatch.setattr(align, "heappush", lambda heap, item: pushed.setdefault(item[1], -item[0]))
        align._closest(target, first, {clen: list(first)}, 1e-9)
        got = {s: round(b * (len(target) + clen) / 2) for s, b in pushed.items()}
        want = {s: n for s in strings if (n := sum((Counter(target) & Counter(s)).values()))}
        assert got == want


@settings(max_examples=200, deadline=None)
@given(st.text("abñ", min_size=1, max_size=12), st.lists(st.text("abñ", min_size=1, max_size=12), max_size=8),
       st.sampled_from([0.5, 0.7, 0.9]))
def test_only_candidates_past_the_character_bound_are_scored(target, words, threshold):
    # the character bound counts the multiset intersection, repeated characters capped
    calls = []
    original = align.similarity_ratio
    align.similarity_ratio = lambda a, b: calls.append((a, b)) or original(a, b)
    try:
        med_text_align([_entity(target, 0)], " ".join(words), threshold, max_n=2)
    finally:
        align.similarity_ratio = original
    for a, b in calls:
        assert 2.0 * sum((Counter(a) & Counter(b)).values()) / (len(a) + len(b)) >= threshold


def _zipf_sample(tokens, entities, seed=5):
    """A hypothesis of tokens words drawn from 8000 random words with weight
    1/(rank+1), and entity texts that are random 1-3-token spans of it with
    the last letter changed to q when the span is longer than 3 characters,
    each followed by its letters shuffled: that anagram keeps the span's
    character bound but not its ratio, so the first candidate scored need
    not be the best."""
    rng = random.Random(seed)
    vocab = ["".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(2, 11)))
             for _ in range(8000)]
    words = rng.choices(vocab, weights=[1 / (rank + 1) for rank in range(len(vocab))], k=tokens)
    texts = []
    for _ in range(entities):
        start = rng.randrange(tokens - 2)
        text = " ".join(words[start:start + rng.randint(1, 3)])
        texts.append(text[:-1] + "q" if len(text) > 3 else text)
        texts.append("".join(rng.sample(text, len(text))))
    return " ".join(words), texts


def test_closest_equals_a_brute_force_maximum_at_realistic_scale():
    hypothesis, texts = _zipf_sample(2000, 5)
    first = ngrams(tokenize(hypothesis))
    assert len(first) > 4000
    groups = {}
    for cand in first:
        groups.setdefault(len(cand), []).append(cand)
    scanned = 0
    for target in texts:
        scores = {cand: similarity_ratio(target, cand) for cand in first}
        for threshold in (0.3, 0.5, 0.7, 0.9):
            passing = [(-score, *first[cand], cand) for cand, score in scores.items() if score >= threshold]
            want = (min(passing)[-1], -min(passing)[0]) if passing else (None, 0.0)
            assert align._closest(target, first, groups, threshold) == want
        scanned += target not in first
    assert scanned >= 8
