"""Edit-distance engine and the evaluation metrics.

WER is word-level Levenshtein over whole transcripts. Medical WER and
medical CER compare the concatenation of ground-truth entity strings against
the concatenation of their aligned counterparts, at word and character level
respectively. Recall counts exact matches per entity category.

Corpus aggregation is micro (summed counts, rates derived from the sums);
macro means over per-sample rates are reported alongside, clearly labelled.
Samples with an empty reference side are excluded from the corresponding
metric and reported as skipped.
"""

import math
from dataclasses import dataclass, field
from typing import Sequence

from .align import AlignedEntity, EntityCategory, ground_truth_sequence, recovered_sequence
from .textnorm import TokenSequence, tokenize


@dataclass(frozen=True)
class EditCounts:
    """Raw edit operations of one comparison. hits + S + D == ref_len."""

    substitutions: int = 0
    insertions: int = 0
    deletions: int = 0
    hits: int = 0
    ref_len: int = 0

    @property
    def errors(self) -> int:
        return self.substitutions + self.insertions + self.deletions

    @property
    def rate(self) -> float:
        """(S+I+D)/ref_len, unclamped (may exceed 1); NaN when ref_len is 0."""
        if self.ref_len == 0:
            return math.nan
        return self.errors / self.ref_len

    def __add__(self, other: "EditCounts") -> "EditCounts":
        return EditCounts(
            self.substitutions + other.substitutions,
            self.insertions + other.insertions,
            self.deletions + other.deletions,
            self.hits + other.hits,
            self.ref_len + other.ref_len,
        )


@dataclass(frozen=True)
class RecallCount:
    recalled: int = 0
    total: int = 0

    @property
    def rate(self) -> float:
        if self.total == 0:
            return math.nan
        return self.recalled / self.total

    def __add__(self, other: "RecallCount") -> "RecallCount":
        return RecallCount(self.recalled + other.recalled, self.total + other.total)


@dataclass
class SampleMetrics:
    sample_id: str
    wer: EditCounts
    mwer: EditCounts
    mcer: EditCounts
    recall: dict[EntityCategory, RecallCount]


@dataclass
class CorpusMetrics:
    """Micro-summed counts plus macro means across samples."""

    wer: EditCounts = field(default_factory=EditCounts)
    mwer: EditCounts = field(default_factory=EditCounts)
    mcer: EditCounts = field(default_factory=EditCounts)
    recall: dict[EntityCategory, RecallCount] = field(default_factory=dict)
    samples: int = 0
    skipped_zero_entity: int = 0
    skipped_zero_word: int = 0
    macro_wer: float = math.nan
    macro_mwer: float = math.nan
    macro_mcer: float = math.nan
    macro_recall: dict[EntityCategory, float] = field(default_factory=dict)


def edit_distance(ref: Sequence, hyp: Sequence) -> EditCounts:
    """Unit-cost Levenshtein counts with a deterministic S/I/D split.

    The total cost is alignment-independent; the split is fixed by walking
    the backtrace from the end and preferring match, then substitution, then
    deletion, then insertion among cost-equal steps.
    """
    ref_len = len(ref)
    n, m = len(ref), len(hyp)
    # A trailing match is always on the preferred backtrace, so equal
    # suffixes can be consumed up front.
    hits = 0
    while n > 0 and m > 0 and ref[n - 1] == hyp[m - 1]:
        n -= 1
        m -= 1
        hits += 1
    if n == 0 and m == 0:
        return EditCounts(hits=hits, ref_len=ref_len)

    rows = [list(range(m + 1))]
    for i in range(1, n + 1):
        prev = rows[i - 1]
        row = [i] * (m + 1)
        ri = ref[i - 1]
        for j in range(1, m + 1):
            if ri == hyp[j - 1]:
                row[j] = prev[j - 1]
            else:
                best = prev[j - 1]
                if prev[j] < best:
                    best = prev[j]
                if row[j - 1] < best:
                    best = row[j - 1]
                row[j] = best + 1
        rows.append(row)

    subs = ins = dels = 0
    i, j = n, m
    while i > 0 or j > 0:
        cur = rows[i][j]
        if i > 0 and j > 0 and ref[i - 1] == hyp[j - 1] and rows[i - 1][j - 1] == cur:
            hits += 1
            i -= 1
            j -= 1
        elif i > 0 and j > 0 and rows[i - 1][j - 1] + 1 == cur:
            subs += 1
            i -= 1
            j -= 1
        elif i > 0 and rows[i - 1][j] + 1 == cur:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return EditCounts(subs, ins, dels, hits, ref_len)


def wer(reference: str | TokenSequence, hypothesis: str | TokenSequence,
        mode: str = "standard") -> EditCounts:
    """Word error rate counts over normalized word tokens of both transcripts.

    Either side may be passed already tokenized, under the same mode.
    """
    ref = reference if isinstance(reference, TokenSequence) else tokenize(reference, mode)
    hyp = hypothesis if isinstance(hypothesis, TokenSequence) else tokenize(hypothesis, mode)
    return edit_distance(ref.normalized_words(), hyp.normalized_words())


def medical_wer(aligned: list[AlignedEntity], mode: str = "standard") -> EditCounts:
    """Word-level error counts between the concatenated ground-truth entities
    and the concatenated recovered entities of one sample.

    Unmatched entities surface as deletions. Zero entities give a zero-denominator
    record that aggregation skips.
    """
    return edit_distance(ground_truth_sequence(aligned, mode).split(),
                         recovered_sequence(aligned).split())


def medical_cer(aligned: list[AlignedEntity], mode: str = "standard") -> EditCounts:
    """Character-level analogue of medical_wer, separator spaces included.

    Measures how badly matched entities are misspelled rather than merely
    whether they differ.
    """
    return edit_distance(ground_truth_sequence(aligned, mode), recovered_sequence(aligned))


def entity_recall(aligned: list[AlignedEntity]) -> dict[EntityCategory, RecallCount]:
    """Exact-match counts per category; categories absent from the sample are omitted."""
    out: dict[EntityCategory, RecallCount] = {}
    for ae in aligned:
        cat = ae.entity.category
        prev = out.get(cat, RecallCount())
        out[cat] = RecallCount(prev.recalled + (1 if ae.exact else 0), prev.total + 1)
    return {cat: out[cat] for cat in EntityCategory if cat in out}


def _mean(values: list[float]) -> float:
    # fsum is exactly rounded, so the result is independent of summation order
    if not values:
        return math.nan
    return math.fsum(values) / len(values)


def aggregate(samples: list[SampleMetrics]) -> CorpusMetrics:
    """Micro-sum counts across samples and derive macro means.

    Order-independent: counts are integer sums and macro means use exact
    summation, so any partition or permutation of samples reduces to the
    same result.
    """
    wer_sum = EditCounts()
    mwer_sum = EditCounts()
    mcer_sum = EditCounts()
    recall_sum: dict[EntityCategory, RecallCount] = {}
    wer_rates: list[float] = []
    mwer_rates: list[float] = []
    mcer_rates: list[float] = []
    recall_rates: dict[EntityCategory, list[float]] = {}
    zero_word = zero_entity = 0

    for s in samples:
        if s.wer.ref_len > 0:
            wer_sum += s.wer
            wer_rates.append(s.wer.rate)
        else:
            zero_word += 1
        if s.mwer.ref_len > 0:
            mwer_sum += s.mwer
            mcer_sum += s.mcer
            mwer_rates.append(s.mwer.rate)
            mcer_rates.append(s.mcer.rate)
        else:
            zero_entity += 1
        for cat, rc in s.recall.items():
            if rc.total > 0:
                recall_sum[cat] = recall_sum.get(cat, RecallCount()) + rc
                recall_rates.setdefault(cat, []).append(rc.rate)

    return CorpusMetrics(
        wer=wer_sum,
        mwer=mwer_sum,
        mcer=mcer_sum,
        recall={cat: recall_sum[cat] for cat in EntityCategory if cat in recall_sum},
        samples=len(samples),
        skipped_zero_entity=zero_entity,
        skipped_zero_word=zero_word,
        macro_wer=_mean(wer_rates),
        macro_mwer=_mean(mwer_rates),
        macro_mcer=_mean(mcer_rates),
        macro_recall={cat: _mean(recall_rates[cat]) for cat in EntityCategory if cat in recall_rates},
    )
