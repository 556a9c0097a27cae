"""Text normalization, tokenization, and n-gram candidate generation.

Two normalization policies are supported. "standard" lowercases, collapses
whitespace runs to single spaces, and strips punctuation, keeping hyphen,
apostrophe, and period only when flanked by alphanumerics on both sides
(so "non-productive" stays one word while a trailing comma never blocks a
match). "raw" leaves token surfaces untouched and only splits on whitespace.

Token spans always index code points of the original text, before any
normalization.
"""

import re
import unicodedata
from dataclasses import dataclass

NORMALIZATION_MODES = ("standard", "raw")

DEFAULT_MAX_NGRAM = 3

_TOKEN_RE = re.compile(r"\S+")
_KEEP_FLANKED = frozenset("-'.")


@dataclass(frozen=True)
class Token:
    """One whitespace-delimited token with its half-open [begin, end) span."""

    surface: str
    normalized: str
    begin: int
    end: int


@dataclass(frozen=True)
class TokenSequence:
    source: str
    tokens: tuple[Token, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    def normalized_words(self) -> list[str]:
        return [t.normalized for t in self.tokens]


@dataclass(frozen=True)
class CandidateSpan:
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
    """Normalize one whitespace-free chunk: lowercase and drop punctuation.

    A punctuation character survives only if it is a hyphen, apostrophe, or
    period with alphanumeric neighbours on both sides.
    """
    low = chunk.lower()
    # No code point is both alphanumeric and in a P* category, so an
    # all-alphanumeric chunk has nothing to drop.
    if low.isalnum():
        return low
    n = len(low)
    out = []
    for i, ch in enumerate(low):
        if unicodedata.category(ch).startswith("P"):
            if ch in _KEEP_FLANKED and 0 < i < n - 1 and low[i - 1].isalnum() and low[i + 1].isalnum():
                out.append(ch)
        else:
            out.append(ch)
    return "".join(out)


def normalize(text: str, mode: str = "standard") -> str:
    """Normalize free text. Total on any input; empty in, empty out.

    Whitespace runs collapse to single spaces in both modes; chunks that
    normalize to nothing (pure punctuation) disappear entirely.
    """
    _check_mode(mode)
    if mode == "raw":
        return " ".join(text.split())
    return " ".join(c for c in (_normalize_chunk(ch) for ch in text.split()) if c)


def tokenize(text: str, mode: str = "standard") -> TokenSequence:
    """Split on whitespace; spans point into the original text.

    Tokens whose normalized form is empty are omitted.
    """
    _check_mode(mode)
    raw = mode == "raw"
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        surface = m.group()
        norm = surface if raw else _normalize_chunk(surface)
        if norm:
            tokens.append(Token(surface, norm, m.start(), m.end()))
    return TokenSequence(text, tuple(tokens))


def ngrams(seq: TokenSequence, max_n: int = DEFAULT_MAX_NGRAM) -> list[CandidateSpan]:
    """All contiguous n-grams for n = 1..min(max_n, token count).

    Listed unigrams first, then bigrams, and so on, each group in start
    order. Empty sequence gives an empty list.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    toks = seq.tokens
    count = len(toks)
    spans = []
    for n in range(1, min(max_n, count) + 1):
        for start in range(count - n + 1):
            window = toks[start:start + n]
            spans.append(CandidateSpan(
                start_token=start,
                length_tokens=n,
                surface=" ".join(t.surface for t in window),
                normalized=" ".join(t.normalized for t in window),
            ))
    return spans
