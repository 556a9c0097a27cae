"""Text normalization, tokenization, and n-gram candidate generation.

Two normalization policies are supported. "standard" puts each chunk in
Unicode's composed form (NFC), lowercases, collapses whitespace runs to
single spaces, and strips punctuation, keeping hyphen, apostrophe, and
period only when flanked by alphanumerics on both sides, a combining mark
counting as part of the letter before it (so "non-productive" stays one
word while a trailing comma never blocks a match). NFC comes first, so
canonically equal texts, such as a decomposed and a precomposed "é",
normalize alike. "raw" leaves token surfaces untouched and only splits on
whitespace. Normalization follows the running interpreter's Unicode
database.

A token is a chunk of str.split() whose normalized form is not empty; a
sequence keeps the chunks and their normalized forms as two parallel lists.
ngrams is the one candidate generator: it maps each distinct normalized
n-gram of a sequence to where it first occurs, which is all the aligner
needs to score a string once and rebuild its span.
"""

import unicodedata
from dataclasses import dataclass
from typing import NamedTuple

NORMALIZATION_MODES = ("standard", "raw")

DEFAULT_MAX_NGRAM = 3

_KEEP_FLANKED = frozenset("-'.")


# A dataclass, not a tuple: its len() is the token count, which perfbench/traced.py reads.
@dataclass(frozen=True)
class TokenSequence:
    """The tokens of one text: surfaces[i] is a whitespace-delimited chunk
    and words[i] its normalized form (the chunk itself in raw mode)."""

    surfaces: list[str]
    words: list[str]

    def __len__(self) -> int:
        return len(self.words)


class CandidateSpan(NamedTuple):
    """A contiguous run of tokens, with surfaces and normalized forms
    joined by single spaces."""

    start_token: int
    length_tokens: int
    surface: str
    normalized: str


def _check_mode(mode: str) -> None:
    if mode not in NORMALIZATION_MODES:
        raise ValueError(f"unknown normalization mode {mode!r}; expected one of {NORMALIZATION_MODES}")


def _normalize_chunk(chunk: str) -> str:
    """Normalize one whitespace-free chunk: compose it (NFC), lowercase it
    and drop punctuation.

    A punctuation character survives only if it is a hyphen, apostrophe, or
    period with alphanumeric neighbours on both sides. A combining mark (M*)
    belongs to the letter before it, so the left neighbour is the nearest
    character that is not a mark.
    """
    # ASCII text is already in NFC.
    low = (chunk if chunk.isascii() else unicodedata.normalize("NFC", chunk)).lower()
    # No code point is both alphanumeric and in a P* category, so an
    # all-alphanumeric chunk has nothing to drop.
    if low.isalnum():
        return low
    n = len(low)
    out = []
    for i, ch in enumerate(low):
        if unicodedata.category(ch).startswith("P"):
            if ch in _KEEP_FLANKED and 0 < i < n - 1 and low[i + 1].isalnum():
                left = i - 1
                while left and not low[left].isalnum() and unicodedata.category(low[left])[0] == "M":
                    left -= 1
                if low[left].isalnum():
                    out.append(ch)
        else:
            out.append(ch)
    return "".join(out)


def _split(text: str, mode: str) -> tuple[list[str], list[str]]:
    """The chunks of text.split() whose normalized form is not empty, and
    those forms."""
    _check_mode(mode)
    chunks = text.split()
    if mode == "raw":
        return chunks, chunks
    words = list(map(_normalize_chunk, chunks))
    if "" in words:
        chunks = [chunk for chunk, word in zip(chunks, words) if word]
        words = [word for word in words if word]
    return chunks, words


def normalize(text: str, mode: str = "standard") -> str:
    """Normalize free text: the words of tokenize(text, mode) joined by
    single spaces. Total on any input; empty in, empty out.

    Whitespace runs collapse to single spaces in both modes; chunks that
    normalize to nothing (pure punctuation) disappear entirely.
    """
    return " ".join(_split(text, mode)[1])


def tokenize(text: str, mode: str = "standard") -> TokenSequence:
    """Split on whitespace and normalize each chunk.

    Chunks whose normalized form is empty are omitted.
    """
    return TokenSequence(*_split(text, mode))


def ngrams(seq: TokenSequence, max_n: int = DEFAULT_MAX_NGRAM) -> dict[str, tuple[int, int]]:
    """Each distinct normalized n-gram, n = 1..min(max_n, token count), mapped
    to its first (length_tokens, start_token): the fewest tokens, then the
    earliest start.

    Keys run unigrams first, then bigrams, and so on, each group in start
    order. Empty sequence gives an empty dict.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    words = seq.words
    first: dict[str, tuple[int, int]] = {}
    grams = words
    for n in range(1, min(max_n, len(words)) + 1):
        if n > 1:
            grams = [f"{gram} {word}" for gram, word in zip(grams, words[n - 1:])]
        for start, gram in enumerate(grams):
            if gram not in first:
                first[gram] = (n, start)
    return first
