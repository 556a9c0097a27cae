import pytest
from hypothesis import example, given

from helpers import short_string
from medwer._oracles import naive_match_total, naive_similarity
from medwer.fuzzy import similarity_ratio
from oracles import lcs_subsequence_length, lcs_substring_length


# Pairs whose total depends on the tie-break, because the chosen block
# splits the strings for the recursion. ("aa", "aba") gives 1 if ties pick
# a later start in either string; ("aaa", "aaba") gives 2 if they pick the
# last block of a given length instead of the first.
@pytest.mark.parametrize("a, b, total", [
    ("aa", "aba", 2),
    ("aaa", "aaba", 3),
])
def test_tie_break_steers_the_total(a, b, total):
    assert naive_match_total(a, b) == total
    assert similarity_ratio(a, b) == 2 * total / (len(a) + len(b))


def test_argument_order_is_entity_then_candidate():
    # the first block taken in each order splits the strings differently
    assert similarity_ratio("aba", "babba") == naive_similarity("aba", "babba") == 0.75
    assert similarity_ratio("babba", "aba") == naive_similarity("babba", "aba") == 0.5


def test_ratio_identity():
    assert similarity_ratio("abc", "abc") == 1.0


def test_ratio_quinidine_anchor():
    assert abs(similarity_ratio("quinidine", "quinidan") - 14 / 17) < 1e-15


def test_ratio_digoxin_anchor():
    assert similarity_ratio("digoxin", "dikod sin") == 0.625


def test_ratio_disjoint():
    assert similarity_ratio("abc", "xyz") == 0.0


def test_ratio_empty_conventions():
    assert similarity_ratio("", "") == 1.0
    assert similarity_ratio("", "abc") == 0.0
    assert similarity_ratio("abc", "") == 0.0


@given(short_string)
def test_ratio_self_is_one(s):
    assert similarity_ratio(s, s) == 1.0


@given(short_string, short_string)
def test_ratio_zero_iff_no_shared_character(a, b):
    ratio = similarity_ratio(a, b)
    if a and b:
        assert (ratio == 0.0) == (not set(a) & set(b))
    assert 0.0 <= ratio <= 1.0


@given(short_string, short_string)
def test_ratio_bounded_by_substring_and_subsequence(a, b):
    # rounding is monotone, so the bounds on M hold exactly for the ratio
    total = len(a) + len(b)
    if total == 0:
        return
    ratio = similarity_ratio(a, b)
    assert 2 * lcs_substring_length(a, b) / total <= ratio <= 2 * lcs_subsequence_length(a, b) / total


# "x" and "y" each fill half of the 240-character candidate, so difflib's
# default autojunk would leave both out of the block search and score 0.
@given(short_string, short_string)
@example("xy" * 130, "yx" * 120)
def test_matches_naive_oracle(a, b):
    assert similarity_ratio(a, b) == naive_similarity(a, b)


@given(short_string, short_string)
def test_appending_unmatched_character_lowers_ratio(a, b):
    # "z" is outside the generation alphabet, so it can never match
    before = similarity_ratio(a, b)
    after = similarity_ratio(a, b + "z")
    if before > 0:
        assert after < before
    else:
        assert after == 0.0
