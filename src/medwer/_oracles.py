"""Naive reference implementations for cross-checking the fast paths.

Nothing here shares code with the production modules. reference_sample
aligns and scores one sample from first principles: an exhaustive-table
longest-block search for the similarity ratio, a full-table backtrace for
edit distance, a character loop for normalization, and an every-candidate
scan for the alignment. It is the one reference pipeline: the
expected.json entries that scripts/regen_expected.py writes and that
run_selfcheck compares are fixtures.golden_entry on its result, and the
end-to-end test of evaluate_corpus rests on it too. dp_distance, a two-row
Levenshtein distance, is here for the benchmark's output check. The
references that only tests use live with the tests.
"""

import unicodedata
from typing import NamedTuple


def naive_longest_block(a, b, alo, ahi, blo, bhi):
    """Longest common contiguous block via the full O(n*m) table.

    Returns (length, a_start, b_start); ties prefer the smallest a_start,
    then the smallest b_start. length 0 means no common character.
    """
    best = (0, alo, blo)
    prev = [0] * (bhi - blo + 1)
    for i in range(alo, ahi):
        cur = [0] * (bhi - blo + 1)
        for j in range(blo, bhi):
            if a[i] == b[j]:
                k = prev[j - blo] + 1
                cur[j - blo + 1] = k
                cand = (k, i - k + 1, j - k + 1)
                if cand[0] > best[0] or (cand[0] == best[0] and (cand[1], cand[2]) < (best[1], best[2])):
                    best = cand
        prev = cur
    return best


def naive_matching_blocks(a, b, alo=0, ahi=None, blo=0, bhi=None):
    """Recursive block decomposition; returns [(a_start, b_start, length), ...]."""
    if ahi is None:
        ahi = len(a)
    if bhi is None:
        bhi = len(b)
    k, i, j = naive_longest_block(a, b, alo, ahi, blo, bhi)
    if k == 0:
        return []
    return (naive_matching_blocks(a, b, alo, i, blo, j)
            + [(i, j, k)]
            + naive_matching_blocks(a, b, i + k, ahi, j + k, bhi))


def naive_match_total(a, b):
    return sum(k for _, _, k in naive_matching_blocks(a, b))


def naive_similarity(a, b):
    total = len(a) + len(b)
    if total == 0:
        return 1.0
    return 2 * naive_match_total(a, b) / total


def dp_distance(ref, hyp):
    """Two-row Levenshtein distance, no backtrace; any sequence length."""
    prev = list(range(len(hyp) + 1))
    for i in range(1, len(ref) + 1):
        cur = [i] + [0] * len(hyp)
        ri = ref[i - 1]
        for j in range(1, len(hyp) + 1):
            cur[j] = min(prev[j - 1] + (ri != hyp[j - 1]), prev[j] + 1, cur[j - 1] + 1)
        prev = cur
    return prev[-1]


def reference_edit_counts(ref, hyp):
    """(substitutions, insertions, deletions, hits) from the full DP table.

    The backtrace walks from the end and prefers match, then substitution,
    then deletion, then insertion among cost-equal steps. Keeps all
    (n+1)*(m+1) cells, so it is for short inputs and single large checks.
    """
    n, m = len(ref), len(hyp)
    # A trailing match is always on the preferred backtrace, so equal
    # suffixes can be consumed up front.
    hits = 0
    while n > 0 and m > 0 and ref[n - 1] == hyp[m - 1]:
        n -= 1
        m -= 1
        hits += 1
    if n == 0 and m == 0:
        return 0, 0, 0, hits

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
    return subs, ins, dels, hits


def reference_normalize_chunk(chunk):
    """Compose one whitespace-free chunk (NFC), lowercase it and drop its
    punctuation, keeping a hyphen, apostrophe or period only between two
    alphanumerics, where the one before is the last character before it that
    is not a combining mark."""
    low = unicodedata.normalize("NFC", chunk).lower()
    out = []
    for i, ch in enumerate(low):
        if not unicodedata.category(ch).startswith("P"):
            out.append(ch)
        elif ch in "-'." and low[i + 1:i + 2].isalnum():
            bases = [c for c in low[:i] if not unicodedata.category(c).startswith("M")]
            if bases and bases[-1].isalnum():
                out.append(ch)
    return "".join(out)


def reference_tokens(text, mode="standard"):
    """(surface, normalized) per whitespace-delimited chunk that keeps a
    non-empty normalized form."""
    pairs = [(c, c if mode == "raw" else reference_normalize_chunk(c)) for c in text.split()]
    return [(surface, norm) for surface, norm in pairs if norm]


def reference_normalize(text, mode="standard"):
    return " ".join(norm for _, norm in reference_tokens(text, mode))


def oracle_candidates(hypothesis, max_n=3, mode="standard"):
    """Every n-gram, n = 1..max_n, as (start, n, surface, normalized)."""
    tokens = reference_tokens(hypothesis, mode)
    for n in range(1, max_n + 1):
        for start in range(len(tokens) - n + 1):
            window = tokens[start:start + n]
            yield (start, n, " ".join(s for s, _ in window), " ".join(t for _, t in window))


class OracleMatch(NamedTuple):
    start_token: int
    length_tokens: int
    surface: str
    normalized: str
    score: float


def oracle_align(entity_text, hypothesis, threshold=0.5, max_n=3, mode="standard"):
    """The best candidate by (score desc, fewer tokens, earliest start),
    scored against every n-gram; None when none reaches the threshold."""
    target = reference_normalize(entity_text, mode)
    best = None
    for start, n, surface, cand in oracle_candidates(hypothesis, max_n, mode):
        score = naive_similarity(target, cand)
        if score < threshold:
            continue
        key = (-score, n, start)
        if best is None or key < best[0]:
            best = (key, OracleMatch(start, n, surface, cand, score))
    return None if best is None else best[1]


class ReferenceSample(NamedTuple):
    """One sample scored by the oracles; recall maps a category to (recalled, total)."""

    alignment: list  # oracle_align's OracleMatch or None, per entity
    exact: list
    wer: tuple  # (substitutions, insertions, deletions, hits, ref_len), as are mwer and mcer
    mwer: tuple
    mcer: tuple
    recall: dict


def reference_sample(reference, hypothesis, entities, threshold=0.5, max_n=3, mode="standard"):
    """Align every entity with oracle_align and score the sample with
    reference_edit_counts: WER over the normalized words, M-WER and M-CER
    over the joined non-empty entity texts and the joined matches, as words
    and as characters. Recall counts the matches equal to their entity."""
    targets = [reference_normalize(entity.text, mode) for entity in entities]
    alignment = [oracle_align(entity.text, hypothesis, threshold, max_n, mode) for entity in entities]
    exact = [match is not None and match.normalized == target for match, target in zip(alignment, targets)]
    truth = " ".join(target for target in targets if target)
    recovered = " ".join(match.normalized for match in alignment if match is not None)
    recall = {}
    for entity, hit in zip(entities, exact):
        recalled, total = recall.get(entity.category, (0, 0))
        recall[entity.category] = (recalled + hit, total + 1)

    def counts(ref, hyp):
        return (*reference_edit_counts(ref, hyp), len(ref))

    return ReferenceSample(alignment, exact,
                           counts(reference_normalize(reference, mode).split(),
                                  reference_normalize(hypothesis, mode).split()),
                           counts(truth.split(), recovered.split()), counts(truth, recovered), recall)
