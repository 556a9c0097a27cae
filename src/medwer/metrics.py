"""Edit-distance engine and the evaluation metrics.

WER is word-level Levenshtein over whole transcripts. Medical WER and
medical CER compare the concatenation of ground-truth entity strings against
the concatenation of their aligned counterparts, at word and character level
respectively. Recall counts exact matches per entity category.

The records are tuples with named fields, so `+` concatenates them rather
than adding counts: corpus counts are the column sums that `aggregate`
takes. Corpus aggregation is micro (summed counts, rates derived from the
sums); macro means over per-sample rates are reported alongside, clearly
labelled. Samples with an empty reference side are excluded from the
corresponding metric and reported as skipped.
"""

import math
from typing import NamedTuple, Sequence

from .align import CATEGORIES, AlignedEntity, EntityCategory, ground_truth_sequence, recovered_sequence
from .textnorm import TokenSequence, tokenize


class EditCounts(NamedTuple):
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


class RecallCount(NamedTuple):
    recalled: int = 0
    total: int = 0

    @property
    def rate(self) -> float:
        if self.total == 0:
            return math.nan
        return self.recalled / self.total


class SampleMetrics(NamedTuple):
    sample_id: str
    wer: EditCounts
    mwer: EditCounts
    mcer: EditCounts
    recall: dict[EntityCategory, RecallCount]


class CorpusMetrics(NamedTuple):
    """Micro-summed counts plus macro means across samples."""

    wer: EditCounts
    mwer: EditCounts
    mcer: EditCounts
    recall: dict[EntityCategory, RecallCount]
    samples: int
    skipped_zero_entity: int
    skipped_zero_word: int
    macro_wer: float
    macro_mwer: float
    macro_mcer: float
    macro_recall: dict[EntityCategory, float]


def edit_distance(ref: Sequence, hyp: Sequence) -> EditCounts:
    """Unit-cost Levenshtein counts with a deterministic S/I/D split.

    The total cost is alignment-independent; the split is fixed by walking
    the backtrace from the end and preferring match, then substitution, then
    deletion, then insertion among cost-equal steps.

    The table D[i][j] (i over ref, j over hyp) is computed a column at a time
    with the bit-vector recurrence of Myers (1999) in Hyyro's (2001) form for
    global distance. Bit i-1 of VP_j is set when D[i][j] - D[i-1][j] == +1,
    and of VN_j when it is -1. Each column follows from the previous one in a
    constant number of operations on n-bit ints, using the mask of the
    positions of hyp[j-1] in ref; the horizontal delta into row 0 is always
    +1 because D[0][j] == j. Any cell can be read back exactly as
    D[i][j] = j + popcount(VP_j & (2^i - 1)) - popcount(VN_j & (2^i - 1)),
    and each vertical step D[i][j] - D[i-1][j] is one bit of VP_j and VN_j.
    The backtrace carries the current cell. A match is tested first: it
    makes D[i][j] == D[i-1][j-1], so the diagonal step needs no popcount.
    Otherwise each step reads its diagonal neighbour from column j-1 with one
    popcount pair, and a deletion or an insertion leaves cur - 1, so it makes
    the same choices, and yields the same split, as a walk over the full
    table.

    Shared ends are consumed first. A trailing match is always on the
    preferred backtrace. Stripping a shared prefix of length p preserves
    every cell with i, j >= p, so the walks over both tables make the same
    choices until they reach row p or column p. From there the counts are
    forced in both problems: at cell (p, j), ref[:p] is a prefix of hyp[:j]
    at distance j - p, and since S + I + D == j - p == I - D, the rest is p
    hits and j - p insertions; at (i, p) it is p hits and i - p deletions.
    Elements must be hashable. Memory is the m+1 column pairs, about
    2*m*n/8 bytes, instead of (n+1)*(m+1) ints.
    """
    ref_len = len(ref)
    n, m = len(ref), len(hyp)
    hits = 0
    while n > 0 and m > 0 and ref[n - 1] == hyp[m - 1]:
        n -= 1
        m -= 1
        hits += 1
    start = 0
    while start < n and start < m and ref[start] == hyp[start]:
        start += 1
    if n == start or m == start:
        return EditCounts(0, m - start, n - start, hits + start, ref_len)
    if start:
        ref, hyp = ref[start:n], hyp[start:m]
        n -= start
        m -= start
        hits += start

    mask = (1 << n) - 1
    peq: dict = {}
    for i in range(n):
        peq[ref[i]] = peq.get(ref[i], 0) | (1 << i)
    vp, vn = mask, 0
    vps, vns = [vp], [vn]
    for j in range(m):
        eq = peq.get(hyp[j], 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | (mask & ~(xh | vp))
        hn = vp & xh
        # a bit shifted past row n drops out of vn = hp & xv, but not out of
        # vp = hn | ..., so only hn is cut back to n bits
        hp = (hp << 1) | 1
        hn = (hn << 1) & mask
        vp = hn | (mask & ~(xv | hp))
        vn = hp & xv
        vps.append(vp)
        vns.append(vn)

    # One step per iteration from cur = D[i][j], reading diag = D[i-1][j-1]
    # from column j-1; once i or j is 0, only deletions or insertions remain.
    subs = ins = dels = 0
    i, j = n, m
    cur = m + vps[m].bit_count() - vns[m].bit_count()
    while i > 0 and j > 0:
        if ref[i - 1] == hyp[j - 1]:
            hits += 1
            i -= 1
            j -= 1
            continue
        low = (1 << (i - 1)) - 1
        diag = j - 1 + (vps[j - 1] & low).bit_count() - (vns[j - 1] & low).bit_count()
        if diag + 1 == cur:
            subs += 1
        else:
            cur -= 1
            if vps[j] >> (i - 1) & 1:  # D[i-1][j] == cur - 1
                dels += 1
                i -= 1
            else:
                ins += 1
                j -= 1
            continue
        cur = diag
        i -= 1
        j -= 1
    return EditCounts(subs, ins + j, dels + i, hits, ref_len)


def wer(reference: str | TokenSequence, hypothesis: str | TokenSequence,
        mode: str = "standard") -> EditCounts:
    """Word error rate counts over normalized word tokens of both transcripts.

    Either side may be passed already tokenized, under the same mode.
    """
    ref = reference if isinstance(reference, TokenSequence) else tokenize(reference, mode)
    hyp = hypothesis if isinstance(hypothesis, TokenSequence) else tokenize(hypothesis, mode)
    return edit_distance(ref.words, hyp.words)


def medical_wer(aligned: list[AlignedEntity]) -> EditCounts:
    """Word-level error counts between the concatenated ground-truth entities
    and the concatenated recovered entities of one sample.

    Unmatched entities surface as deletions. Zero entities give a zero-denominator
    record that aggregation skips.
    """
    return edit_distance(ground_truth_sequence(aligned).split(),
                         recovered_sequence(aligned).split())


def medical_cer(aligned: list[AlignedEntity]) -> EditCounts:
    """Character-level analogue of medical_wer, separator spaces included.

    Measures how badly matched entities are misspelled rather than merely
    whether they differ.
    """
    return edit_distance(ground_truth_sequence(aligned), recovered_sequence(aligned))


def entity_recall(aligned: list[AlignedEntity]) -> dict[EntityCategory, RecallCount]:
    """Exact-match counts per category; categories absent from the sample are omitted."""
    out: dict[EntityCategory, RecallCount] = {}
    for ae in aligned:
        cat = ae.entity.category
        prev = out.get(cat, RecallCount())
        out[cat] = RecallCount(prev.recalled + (1 if ae.exact else 0), prev.total + 1)
    return {cat: out[cat] for cat in CATEGORIES if cat in out}


def _mean(values: list[float]) -> float:
    # fsum is exactly rounded, so the result is independent of summation order
    if not values:
        return math.nan
    return math.fsum(values) / len(values)


def aggregate(samples: list[SampleMetrics]) -> CorpusMetrics:
    """Micro-sum counts across samples and derive macro means.

    Order-independent: counts are integer column sums and macro means use
    exact summation, so any partition or permutation of samples reduces to
    the same result. An empty list gives the zero record.
    """
    worded = [s for s in samples if s.wer.ref_len > 0]
    entitied = [s for s in samples if s.mwer.ref_len > 0]  # M-CER follows M-WER
    recall: dict[EntityCategory, list[RecallCount]] = {cat: [] for cat in CATEGORIES}
    for s in samples:
        for cat, rc in s.recall.items():
            if rc.total > 0:
                recall[cat].append(rc)
    return CorpusMetrics(
        wer=EditCounts(*map(sum, zip(*(s.wer for s in worded)))),
        mwer=EditCounts(*map(sum, zip(*(s.mwer for s in entitied)))),
        mcer=EditCounts(*map(sum, zip(*(s.mcer for s in entitied)))),
        recall={cat: RecallCount(*map(sum, zip(*counted))) for cat, counted in recall.items() if counted},
        samples=len(samples),
        skipped_zero_entity=len(samples) - len(entitied),
        skipped_zero_word=len(samples) - len(worded),
        macro_wer=_mean([s.wer.rate for s in worded]),
        macro_mwer=_mean([s.mwer.rate for s in entitied]),
        macro_mcer=_mean([s.mcer.rate for s in entitied]),
        macro_recall={cat: _mean([rc.rate for rc in counted]) for cat, counted in recall.items() if counted},
    )
