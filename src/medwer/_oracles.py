"""Naive reference implementations for cross-checking the fast paths.

Nothing here shares code with the production modules. The self-check and the
test suite use these to regenerate derived expectations from first
principles: an exhaustive-table longest-block search for the similarity
ratio, an all-alignments recursion for edit distance, a character loop for
normalization, and an every-candidate scan for the alignment.
"""

import unicodedata
from fractions import Fraction
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


def naive_similarity_fraction(a, b) -> Fraction:
    total = len(a) + len(b)
    if total == 0:
        return Fraction(1)
    return Fraction(2 * naive_match_total(a, b), total)


def all_alignments_distance(ref, hyp):
    """Minimum unit cost over every alignment, by plain recursion.

    Exponential; intended for sequences of length <= ~8.
    """
    def walk(i, j):
        if i == len(ref):
            return len(hyp) - j
        if j == len(hyp):
            return len(ref) - i
        best = (0 if ref[i] == hyp[j] else 1) + walk(i + 1, j + 1)
        down = 1 + walk(i + 1, j)
        if down < best:
            best = down
        right = 1 + walk(i, j + 1)
        if right < best:
            best = right
        return best

    return walk(0, 0)


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


def lcs_substring_length(a, b):
    """Length of the longest common contiguous substring (DP table)."""
    best = 0
    prev = [0] * (len(b) + 1)
    for i in range(len(a)):
        cur = [0] * (len(b) + 1)
        for j in range(len(b)):
            if a[i] == b[j]:
                cur[j + 1] = prev[j] + 1
                if cur[j + 1] > best:
                    best = cur[j + 1]
        prev = cur
    return best


def lcs_subsequence_length(a, b):
    """Length of the longest common (not necessarily contiguous) subsequence."""
    prev = [0] * (len(b) + 1)
    for i in range(len(a)):
        cur = [0] * (len(b) + 1)
        for j in range(len(b)):
            cur[j + 1] = prev[j] + 1 if a[i] == b[j] else max(prev[j + 1], cur[j])
        prev = cur
    return prev[-1]


def reference_normalize_chunk(chunk):
    """Lowercase one whitespace-free chunk and drop its punctuation, keeping
    a hyphen, apostrophe or period only between two alphanumerics."""
    low = chunk.lower()
    out = []
    for i, ch in enumerate(low):
        if not unicodedata.category(ch).startswith("P"):
            out.append(ch)
        elif ch in "-'." and 0 < i < len(low) - 1 and low[i - 1].isalnum() and low[i + 1].isalnum():
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
