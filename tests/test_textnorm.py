import pytest
from hypothesis import given
from hypothesis import strategies as st

from medwer._oracles import reference_normalize_chunk
from medwer.textnorm import _normalize_chunk, ngrams, normalize, tokenize

messy = st.text(alphabet="aAbB xyZ-'.,;!?\t\n", max_size=40)


def test_boundary_punctuation_stripped():
    assert normalize("unlike quinidine,") == "unlike quinidine"


def test_empty():
    assert normalize("") == ""


def test_internal_punctuation_kept_when_flanked():
    assert normalize("Non-Productive  COUGH.") == "non-productive cough"
    assert normalize("it's u.s.a.") == "it's u.s.a"
    assert normalize("(cough)") == "cough"


def test_unflanked_internal_punctuation_dropped():
    assert normalize("a--b '' -x x-") == "ab x x"


def test_digits_kept():
    # the slash is punctuation and not in the flanked keep-set
    assert normalize("Dose 2.5 mg, BP 120/80!") == "dose 2.5 mg bp 12080"


def test_whitespace_collapsed():
    assert normalize(" a \t b\n\nc ") == "a b c"


def test_punctuation_only_chunks_vanish():
    assert normalize("lungs , clear .") == "lungs clear"


def test_raw_mode_keeps_surfaces():
    assert normalize("Lungs , CLEAR.", mode="raw") == "Lungs , CLEAR."
    assert normalize(" A  b ", mode="raw") == "A b"


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        normalize("x", mode="aggressive")
    with pytest.raises(ValueError):
        tokenize("x", mode="none")


@given(messy)
def test_normalize_idempotent(text):
    once = normalize(text)
    assert normalize(once) == once


@given(messy)
def test_tokenize_spans_cover_surfaces(text):
    seq = tokenize(text)
    previous_end = -1
    for token in seq.tokens:
        assert token.begin < token.end
        assert text[token.begin:token.end] == token.surface
        assert token.begin > previous_end
        previous_end = token.end
        assert token.normalized


@given(messy)
def test_tokenize_after_normalize_is_stable(text):
    assert tokenize(normalize(text)).normalized_words() == tokenize(text).normalized_words()


def test_tokenize_examples():
    assert tokenize("lungs clear but dim").normalized_words() == ["lungs", "clear", "but", "dim"]
    assert len(tokenize("a")) == 1
    assert len(tokenize("dikod sin in pesion")) == 4
    # punctuation-only tokens are dropped, spans still index the original
    seq = tokenize("lungs , clear .")
    assert seq.normalized_words() == ["lungs", "clear"]
    assert [t.surface for t in seq.tokens] == ["lungs", "clear"]
    assert seq.tokens[1].begin == 8


def test_ngrams_small_exhaustive():
    seq = tokenize("a b")
    assert [c.normalized for c in ngrams(seq, 3)] == ["a", "b", "a b"]


def test_ngrams_bigram_enumeration():
    seq = tokenize("dikod sin in")
    assert [c.normalized for c in ngrams(seq, 2)] == ["dikod", "sin", "in", "dikod sin", "sin in"]


def test_ngrams_empty_sequence():
    assert ngrams(tokenize(""), 3) == []


def test_ngrams_rejects_bad_max_n():
    with pytest.raises(ValueError):
        ngrams(tokenize("a"), 0)


@given(messy, st.integers(1, 4))
def test_ngram_count_formula(text, max_n):
    seq = tokenize(text)
    count = len(seq)
    expected = sum(count - k + 1 for k in range(1, min(max_n, count) + 1))
    assert len(ngrams(seq, max_n)) == expected


@given(messy, st.integers(1, 4))
def test_ngram_reconstruction(text, max_n):
    seq = tokenize(text)
    for span in ngrams(seq, max_n):
        window = seq.tokens[span.start_token:span.start_token + span.length_tokens]
        assert span.normalized == " ".join(t.normalized for t in window)
        assert span.surface == " ".join(t.surface for t in window)


@given(st.text())
def test_normalize_chunk_matches_reference(text):
    assert _normalize_chunk(text) == reference_normalize_chunk(text)
