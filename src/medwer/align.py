"""MedTextAlign: align ground-truth medical entities to hypothesis n-grams.

Every unigram, bigram, ... up to max_n-gram of the hypothesis is a candidate.
Each entity is scored against every candidate with the gestalt similarity
ratio and takes the best candidate at or above the cutoff threshold; ties go
to the higher score, then fewer tokens, then the earlier start. Candidates
may be reused across entities; no mutual-exclusion is enforced.

The search runs over the distinct normalized candidate strings of the
sample, each kept with its first (token count, start). Deduplication keeps
the tie-break: equal strings score equally, and since a normalized token
never contains a space, equal strings also have equal token counts, so the
earliest start is the one that wins among them. An entity whose normalized
text is one of those strings takes it with score 1.0 by lookup: only an
identical string scores 1.0. Every other entity scans the candidates
grouped by length, in decreasing order of the length bound
2*min(t, c)/(t + c) on the ratio, and stops at the first group whose bound
is below the threshold or the best score found so far; inside a group a
character-count bound screens each candidate before the full ratio. Both
bounds are true upper bounds (difflib's real_quick_ratio and quick_ratio),
so the scan order and the early stop change no result.
"""

from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .fuzzy import similarity_ratio
from .textnorm import DEFAULT_MAX_NGRAM, CandidateSpan, TokenSequence, normalize, tokenize
# The aligner builds distinct candidate strings instead of calling ngrams;
# perfbench/traced.py rebinds align.ngrams, so the name stays importable here.
from .textnorm import ngrams  # noqa: F401

DEFAULT_THRESHOLD = 0.5


class EntityCategory(str, Enum):
    """The five clinical entity categories."""

    MED = "MED"    # medication
    COND = "COND"  # medical condition
    ANA = "ANA"    # anatomy
    TTP = "TTP"    # test, treatment, procedure
    PHI = "PHI"    # protected health information

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class EntityAnnotation:
    """One ground-truth entity with [begin, end) offsets into the reference."""

    text: str
    category: EntityCategory
    begin: int
    end: int
    score: float | None = None


@dataclass(frozen=True)
class AlignedEntity:
    """Alignment result for one entity.

    candidate is None when nothing reached the threshold; then score is 0.
    exact means the normalized candidate equals the normalized entity text.
    """

    entity: EntityAnnotation
    candidate: CandidateSpan | None
    score: float
    exact: bool


def med_text_align(entities: list[EntityAnnotation], hypothesis: str | TokenSequence,
                   threshold: float = DEFAULT_THRESHOLD,
                   max_n: int = DEFAULT_MAX_NGRAM,
                   mode: str = "standard") -> list[AlignedEntity]:
    """Align each entity to its closest hypothesis n-gram.

    entities must be sorted by begin offset; output order equals input order.
    Matching operates on normalized strings on both sides. hypothesis is
    either the text or its TokenSequence, tokenized under the same mode.
    """
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    for prev, cur in zip(entities, entities[1:]):
        if cur.begin < prev.begin:
            raise ValueError("entities must be sorted by begin offset")

    seq = hypothesis if isinstance(hypothesis, TokenSequence) else tokenize(hypothesis, mode)
    tokens = seq.tokens
    first = _distinct_ngrams([t.normalized for t in tokens], max_n)
    by_length: dict[int, list[str]] = {}
    for text in first:
        by_length.setdefault(len(text), []).append(text)
    counters: dict[str, Counter] = {}

    aligned = []
    for entity in entities:
        target = normalize(entity.text, mode)
        if target in first:
            best, score = target, 1.0
        else:
            best, score = _closest(target, by_length, first, counters, threshold)
        if best is None:
            aligned.append(AlignedEntity(entity, None, 0.0, False))
            continue
        length, start = first[best]
        surface = " ".join(t.surface for t in tokens[start:start + length])
        aligned.append(AlignedEntity(entity, CandidateSpan(start, length, surface, best),
                                     score, best == target))
    return aligned


def _distinct_ngrams(words: list[str], max_n: int) -> dict[str, tuple[int, int]]:
    """Each distinct n-gram string, n <= max_n, mapped to its first
    (length_tokens, start_token): the fewest tokens, then the earliest start."""
    first: dict[str, tuple[int, int]] = {}
    grams = words
    for n in range(1, min(max_n, len(words)) + 1):
        if n > 1:
            grams = [f"{gram} {word}" for gram, word in zip(grams, words[n - 1:])]
        for start, gram in enumerate(grams):
            if gram not in first:
                first[gram] = (n, start)
    return first


def _closest(target: str, by_length: dict[int, list[str]], first: dict[str, tuple[int, int]],
             counters: dict[str, Counter], threshold: float) -> tuple[str | None, float]:
    """The best-keyed candidate string scoring at least threshold, and its score.

    Upper bounds on the ratio let most candidates be rejected without
    running the full block decomposition. Both bounds share the ratio's
    denominator, so the comparisons are exact, and every comparison is
    strict, so a candidate that could tie the best is always scored.
    """
    tlen = len(target)
    tcounter = Counter(target)
    best: str | None = None
    best_key: tuple | None = None
    best_score = 0.0
    bounds = sorted(((2.0 * min(tlen, clen) / (tlen + clen), clen) for clen in by_length),
                    reverse=True)
    for bound, clen in bounds:
        if bound < threshold or bound < best_score:
            break
        total = tlen + clen
        for cand in by_length[clen]:
            ccounter = counters.get(cand)
            if ccounter is None:
                ccounter = counters[cand] = Counter(cand)
            overlap = sum(min(n, ccounter[ch]) for ch, n in tcounter.items() if ch in ccounter)
            char_bound = 2.0 * overlap / total
            if char_bound < threshold or char_bound < best_score:
                continue
            score = similarity_ratio(target, cand)
            if score < threshold:
                continue
            key = (-score, *first[cand])
            if best_key is None or key < best_key:
                best, best_key, best_score = cand, key, score
    return best, best_score


def recovered_sequence(aligned: list[AlignedEntity]) -> str:
    """Normalized candidates joined by single spaces, in entity order.

    Unmatched entities contribute nothing, and never a doubled separator.
    """
    return " ".join(ae.candidate.normalized for ae in aligned
                    if ae.candidate is not None and ae.candidate.normalized)


def ground_truth_sequence(aligned: list[AlignedEntity], mode: str = "standard") -> str:
    """Normalized entity texts joined by single spaces, in entity order."""
    parts = (normalize(ae.entity.text, mode) for ae in aligned)
    return " ".join(p for p in parts if p)


def shared_span_count(aligned: list[AlignedEntity]) -> int:
    """How many entities landed on a hypothesis span also used by another.

    Candidate reuse is allowed by design; this makes its extent auditable.
    """
    spans = Counter((ae.candidate.start_token, ae.candidate.length_tokens)
                    for ae in aligned if ae.candidate is not None)
    return sum(n for n in spans.values() if n > 1)
