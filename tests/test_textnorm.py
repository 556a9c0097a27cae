import unicodedata

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from medwer._oracles import oracle_candidates, reference_normalize_chunk, reference_tokens
from medwer.textnorm import _normalize_chunk, ngrams, normalize, tokenize

messy = st.text(alphabet="aAbB xyZ-'.,;!?\t\n", max_size=40)
# Whitespace that str.split() splits on besides space, tab and newline (the
# \x1c-\x1f separators, NEL, LINE SEPARATOR, IDEOGRAPHIC SPACE), and chunks
# that are punctuation only, between arbitrary chunks.
_SEPARATORS = ["\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u3000", " "]
_PUNCTUATION_ONLY = [",", "...", "--", "'", "(!)", "-.-"]
_chunk = st.one_of(st.text(max_size=6), st.sampled_from(_PUNCTUATION_ONLY))
unicode_text = st.one_of(
    st.text(),
    st.lists(st.tuples(_chunk, st.sampled_from(_SEPARATORS)), max_size=10)
    .map(lambda parts: "".join(chunk + sep for chunk, sep in parts)),
)


def test_boundary_punctuation_stripped():
    assert normalize("unlike quinidine,") == "unlike quinidine"


def test_empty():
    assert normalize("") == ""


def test_internal_punctuation_kept_when_flanked():
    assert normalize("Non-Productive  COUGH.") == "non-productive cough"
    assert normalize("it's u.s.a.") == "it's u.s.a"
    assert normalize("(cough)") == "cough"


@pytest.mark.parametrize("text, expected", [
    ("\u0130-x", "i\u0307-x"),  # "İ" lowercases to "i" and a combining dot above
    # a Yoruba vowel with a dot below and a grave, which has no precomposed form
    ("o\u0323\u0300-o\u0323\u0300", "\u1ecd\u0300-\u1ecd\u0300"),
    ("\u0958-x", "\u0915\u093c-x"),  # NFC leaves "क़" as a base and a nukta
], ids=["dotted-I", "yoruba", "nukta"])
def test_a_combining_mark_belongs_to_the_letter_before_it(text, expected):
    assert normalize(text) == expected


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
    # the surfaces are whitespace-free chunks of the text, in order, and
    # what lies between them normalizes to nothing
    seq = tokenize(text)
    assert len(seq.surfaces) == len(seq.words) == len(seq)
    position = 0
    for surface, word in zip(seq.surfaces, seq.words):
        assert surface and not any(ch.isspace() for ch in surface)
        begin = text.index(surface, position)
        assert not text[begin - 1:begin].strip() and not normalize(text[position:begin])
        position = begin + len(surface)
        assert not text[position:position + 1].strip()
        assert word
    assert not normalize(text[position:])


@given(messy)
def test_tokenize_after_normalize_is_stable(text):
    assert tokenize(normalize(text)).words == tokenize(text).words


@given(unicode_text, st.sampled_from(["standard", "raw"]))
def test_tokenize_matches_reference(text, mode):
    seq = tokenize(text, mode)
    pairs = reference_tokens(text, mode)
    assert seq.surfaces == [surface for surface, _ in pairs]
    assert seq.words == [word for _, word in pairs]


@given(unicode_text, st.sampled_from(["standard", "raw"]))
def test_normalize_joins_the_tokenized_words(text, mode):
    assert normalize(text, mode) == " ".join(tokenize(text, mode).words)


def test_tokenize_examples():
    assert tokenize("lungs clear but dim").words == ["lungs", "clear", "but", "dim"]
    assert len(tokenize("a")) == 1
    assert len(tokenize("dikod sin in pesion")) == 4
    # punctuation-only tokens are dropped from both lists
    seq = tokenize("lungs , clear .")
    assert seq.words == ["lungs", "clear"]
    assert seq.surfaces == ["lungs", "clear"]
    seq = tokenize("Lungs,\u3000CLEAR\x85.", "raw")
    assert seq.words == seq.surfaces == ["Lungs,", "CLEAR", "."]


def test_ngrams_small_exhaustive():
    seq = tokenize("a b")
    assert ngrams(seq, 3) == {"a": (1, 0), "b": (1, 1), "a b": (2, 0)}


def test_ngrams_bigram_enumeration():
    # a repeated n-gram keeps its first start
    seq = tokenize("dikod sin in sin in")
    assert list(ngrams(seq, 2).items()) == [
        ("dikod", (1, 0)), ("sin", (1, 1)), ("in", (1, 2)),
        ("dikod sin", (2, 0)), ("sin in", (2, 1)), ("in sin", (2, 2))]


def test_ngrams_empty_sequence():
    assert ngrams(tokenize(""), 3) == {}


def test_ngrams_rejects_bad_max_n():
    with pytest.raises(ValueError):
        ngrams(tokenize("a"), 0)


@given(messy, st.integers(1, 4), st.sampled_from(["standard", "raw"]))
def test_ngrams_keep_the_first_occurrence_of_each_oracle_string(text, max_n, mode):
    first = {}
    for start, n, _, normalized in oracle_candidates(text, max_n, mode):
        first.setdefault(normalized, (n, start))
    assert list(ngrams(tokenize(text, mode), max_n).items()) == list(first.items())


@given(messy, st.integers(1, 4))
def test_ngram_reconstruction(text, max_n):
    seq = tokenize(text)
    for normalized, (n, start) in ngrams(seq, max_n).items():
        assert normalized == " ".join(seq.words[start:start + n])


@given(st.text())
@example("\u0130-x")
@example("a\u0301\u0300'b")
@example("\u0301-b")
@example(".\u0301-b")
def test_normalize_chunk_matches_reference(text):
    assert _normalize_chunk(text) == reference_normalize_chunk(text)


def test_canonically_equal_chunks_normalize_alike():
    # without NFC, a decomposed "é" would stay two code points
    assert normalize(unicodedata.normalize("NFD", "Café-au-lait")) == "café-au-lait"


@given(st.text())
def test_normalize_chunk_ignores_the_canonical_form(text):
    nfd, nfc = (unicodedata.normalize(form, text) for form in ("NFD", "NFC"))
    assert _normalize_chunk(nfd) == _normalize_chunk(nfc)


def test_normalization_follows_the_interpreters_unicode_database():
    # U+061D ARABIC END OF TEXT MARK: unassigned in Unicode 13.0 (Python
    # 3.10), so kept; punctuation (Po) from 14.0 on (Python 3.11+), so dropped
    unicode = tuple(map(int, unicodedata.unidata_version.split(".")))
    assert _normalize_chunk("a\u061db") == ("a\u061db" if unicode < (14,) else "ab")
