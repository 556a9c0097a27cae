"""MedTextAlign: align ground-truth medical entities to hypothesis n-grams.

Every unigram, bigram, ... up to max_n-gram of the hypothesis is a candidate.
Each entity is scored against every candidate with the gestalt similarity
ratio and takes the best candidate at or above the cutoff threshold; ties go
to the higher score, then fewer tokens, then the earlier start. Candidates
may be reused across entities; no mutual-exclusion is enforced.

The search runs over textnorm.ngrams of the hypothesis: the distinct
normalized candidate strings of the sample, each kept with its first
(token count, start). Deduplication keeps the tie-break: equal strings
score equally, and since a normalized token never contains a space, equal
strings also have equal token counts, so the earliest start is the one
that wins among them. An entity whose normalized text is one of those
strings takes it with score 1.0 by lookup: only an identical string scores
1.0. Every other entity scans the candidates grouped by length, in the
order of one sorted list of (length bound, length) pairs, highest bound
first and the longer length on a tie, where the length bound
2*min(t, c)/(t + c) caps the ratio of a target of length t and a
candidate of length c. The scan stops at the first group whose bound is
below the threshold or the best score found so far. Inside a group the
character-count bound 2*overlap/(t + c), with overlap the size of the
multiset intersection of the two strings' characters, screens each
candidate; it is counted string by string, from the target's characters
that occur once and the counts of those that repeat. Those that pass are
scored with the full ratio highest bound first. Both bounds are true upper
bounds (difflib's real_quick_ratio and quick_ratio), so the scan order and
the early stop change no result. A target that recurs in a sample reuses
its first result.
"""

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from typing import NamedTuple

from .fuzzy import similarity_ratio
from .textnorm import DEFAULT_MAX_NGRAM, CandidateSpan, TokenSequence, ngrams, normalize, tokenize

DEFAULT_THRESHOLD = 0.5


class EntityCategory(str, Enum):
    """The five clinical entity categories."""

    MED = "MED"    # medication
    COND = "COND"  # medical condition
    ANA = "ANA"    # anatomy
    TTP = "TTP"    # test, treatment, procedure
    PHI = "PHI"    # protected health information


CATEGORIES = tuple(EntityCategory)  # report order; a tuple iterates faster than the enum


# A dataclass, not a tuple: perfbench/corpora.py copies it with dataclasses.replace.
@dataclass(frozen=True)
class EntityAnnotation:
    """One ground-truth entity with [begin, end) offsets into the reference."""

    text: str
    category: EntityCategory
    begin: int
    end: int


class AlignedEntity(NamedTuple):
    """Alignment result for one entity.

    candidate is None when nothing reached the threshold; then score is 0.
    target is the normalized entity text the candidates were scored against;
    exact means the normalized candidate equals it.
    """

    entity: EntityAnnotation
    candidate: CandidateSpan | None
    score: float
    exact: bool
    target: str


def med_text_align(entities: Sequence[EntityAnnotation], hypothesis: str | TokenSequence,
                   threshold: float = DEFAULT_THRESHOLD,
                   max_n: int = DEFAULT_MAX_NGRAM,
                   mode: str = "standard") -> list[AlignedEntity]:
    """Align each entity to its closest hypothesis n-gram.

    entities is any sequence sorted by begin offset; output order equals input
    order. Matching operates on normalized strings on both sides. hypothesis
    is either the text or its TokenSequence, tokenized under the same mode.
    """
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    for prev, cur in zip(entities, entities[1:]):
        if cur.begin < prev.begin:
            raise ValueError("entities must be sorted by begin offset")

    seq = hypothesis if isinstance(hypothesis, TokenSequence) else tokenize(hypothesis, mode)
    first = ngrams(seq, max_n)
    groups: dict[int, list[str]] | None = None  # built for the first entity not matched exactly
    found: dict[str, tuple[str | None, float]] = {}

    aligned = []
    for entity in entities:
        target = normalize(entity.text, mode)
        if target in first:
            best, score = target, 1.0
        elif target in found:
            best, score = found[target]
        else:
            if groups is None:
                groups = {}
                for cand in first:
                    clen = len(cand)
                    if clen in groups:
                        groups[clen].append(cand)
                    else:
                        groups[clen] = [cand]
            best, score = found[target] = _closest(target, first, groups, threshold)
        if best is None:
            aligned.append(AlignedEntity(entity, None, 0.0, False, target))
            continue
        length, start = first[best]
        surface = " ".join(seq.surfaces[start:start + length])
        aligned.append(AlignedEntity(entity, CandidateSpan(start, length, surface, best),
                                     score, best == target, target))
    return aligned


def _closest(target: str, first: dict[str, tuple[int, int]], groups: dict[int, list[str]],
             threshold: float) -> tuple[str | None, float]:
    """The best-keyed candidate string scoring at least threshold, and its score.

    first maps each candidate string to its (token count, start) and groups
    holds the same strings by length. The groups are visited in the order of
    sorted((length bound, length), reverse=True), then the sentinel (-1.0, 0).
    Upper bounds on the ratio let most candidates be rejected without
    running the full block decomposition. Both bounds share the ratio's
    denominator, so the comparisons are exact, and every comparison is
    strict, so a candidate that could tie the best is always scored.
    Candidates that pass the character-count bound wait in a heap and are
    scored highest bound first, so the best score rises as early as it can.
    """
    tlen = len(target)
    single = set(target)
    repeated: list[tuple[str, int]] = []  # (character, count) of those that occur more than once
    if len(single) < tlen:
        repeated = [(ch, n) for ch in single if (n := target.count(ch)) > 1]
        single.difference_update([ch for ch, _ in repeated])
    # the length bound 2*min(t, c)/(t + c); min() costs a call per length
    order = sorted([(2.0 * (clen if clen < tlen else tlen) / (tlen + clen), clen) for clen in groups],
                   reverse=True)
    order.append((-1.0, 0))
    best: str | None = None
    best_key: tuple | None = None
    best_score = 0.0
    pending: list[tuple[float, str]] = []  # (-character bound, candidate)
    for bound, clen in order:
        # A candidate's character bound never exceeds its length bound, so a
        # pending candidate at or above this group's bound outranks the
        # group and every group after it; the final -1.0 drains the heap.
        while pending and -pending[0][0] >= bound:
            neg_bound, cand = heappop(pending)
            if -neg_bound < best_score:
                pending.clear()
                break
            score = similarity_ratio(target, cand)
            if score < threshold:
                continue
            key = (-score, *first[cand])
            if best_key is None or key < best_key:
                best, best_key, best_score = cand, key, score
        floor = best_score if best_score > threshold else threshold
        if bound < floor:
            break
        total = tlen + clen
        for cand in groups[clen]:
            # the size of the multiset intersection of the two strings' characters
            overlap = len(single.intersection(cand))
            for ch, n in repeated:
                count = cand.count(ch)
                overlap += count if count < n else n  # min() costs a call per character
            char_bound = 2.0 * overlap / total
            if char_bound >= floor:
                heappush(pending, (-char_bound, cand))
    return best, best_score


def recovered_sequence(aligned: list[AlignedEntity]) -> str:
    """Normalized candidates joined by single spaces, in entity order.

    Unmatched entities contribute nothing, and never a doubled separator.
    """
    return " ".join(ae.candidate.normalized for ae in aligned
                    if ae.candidate is not None and ae.candidate.normalized)


def ground_truth_sequence(aligned: list[AlignedEntity]) -> str:
    """Normalized entity texts joined by single spaces, in entity order,
    under the mode the entities were aligned with."""
    return " ".join(ae.target for ae in aligned if ae.target)


def shared_span_count(aligned: list[AlignedEntity]) -> int:
    """How many entities landed on a hypothesis span also used by another.

    Candidate reuse is allowed by design; this makes its extent auditable.
    """
    spans = Counter((ae.candidate.start_token, ae.candidate.length_tokens)
                    for ae in aligned if ae.candidate is not None)
    return sum(n for n in spans.values() if n > 1)
