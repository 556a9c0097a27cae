"""Gestalt (Ratcliff-Obershelp) string similarity.

The ratio between two strings is 2*M/T, where M is the total length of the
match blocks found by recursively taking the longest common contiguous block
and repeating on the pieces to its left and right, and T is the combined
length of both strings. Scores fall in [0, 1], with 1 only for identical
strings. The API is `similarity_ratio` for the score and `match_total` for
its integer numerator half M.

No junk heuristic is ever applied: the score for a string pair depends on
nothing but the two strings, which keeps results reproducible regardless of
input length. Ties when picking a block are broken by longest first, then
smallest start in the first string, then smallest start in the second, so
the decomposition is deterministic. The chosen block splits the strings for
the recursion, so the tie-break can change M itself.
"""


def _index(b: str) -> dict:
    """Positions of each character of b, ascending."""
    b2j: dict = {}
    for j, ch in enumerate(b):
        b2j.setdefault(ch, []).append(j)
    return b2j


def _longest(a: str, alo: int, ahi: int, blo: int, bhi: int, b2j: dict) -> tuple[int, int, int]:
    """Longest common block within the given ranges; returns (a_start, b_start, length).

    Length 0 means no common character. b2j may index a superset of
    [blo, bhi); out-of-range positions are skipped.
    """
    besti, bestj, bestk = alo, blo, 0
    j2len: dict = {}
    for i in range(alo, ahi):
        newj2len: dict = {}
        positions = b2j.get(a[i])
        if positions:
            get = j2len.get
            for j in positions:
                if j < blo:
                    continue
                if j >= bhi:
                    break
                k = newj2len[j] = get(j - 1, 0) + 1
                if k > bestk:
                    besti, bestj, bestk = i - k + 1, j - k + 1, k
        j2len = newj2len
    return besti, bestj, bestk


def match_total(a: str, b: str) -> int:
    """Total matched length M; the integer numerator half of the ratio."""
    b2j = _index(b)
    total = 0
    stack = [(0, len(a), 0, len(b))]
    while stack:
        alo, ahi, blo, bhi = stack.pop()
        i, j, k = _longest(a, alo, ahi, blo, bhi, b2j)
        if k:
            total += k
            stack.append((alo, i, blo, j))
            stack.append((i + k, ahi, j + k, bhi))
    return total


def similarity_ratio(entity: str, candidate: str) -> float:
    """Similarity in [0, 1]; both arguments should already be normalized.

    Argument order is fixed as (ground-truth entity, candidate). Two empty
    strings count as a perfect match; empty against non-empty scores 0.
    """
    total = len(entity) + len(candidate)
    if total == 0:
        return 1.0
    return 2.0 * match_total(entity, candidate) / total
