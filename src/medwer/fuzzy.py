"""Gestalt (Ratcliff-Obershelp) string similarity.

The ratio of two strings is 2*M/T: T is their combined length and M the
total length of the blocks found by taking the longest common contiguous
block and recursing on the pieces to its left and right. Ties go to the
longest block, then the smallest start in the first string, then the
smallest in the second; the chosen block splits the strings, so the
tie-break can change M. Two empty strings score 1.

difflib.SequenceMatcher with autojunk=False is this algorithm. The flag
matters: by default, in a second string of 200 or more characters, each
character that fills more than 1% of it is left out of the block search,
so scores would depend on the strings' lengths. The tests hold this to the
independent reference `_oracles.naive_similarity`.
"""

from difflib import SequenceMatcher


def similarity_ratio(entity: str, candidate: str) -> float:
    """Similarity in [0, 1] of two normalized strings, 1 only when they are
    equal. The order is (ground-truth entity, candidate): the tie-break can
    score the swapped pair differently."""
    return SequenceMatcher(None, entity, candidate, autojunk=False).ratio()
