import math
import random
import time
from collections import Counter

import pytest
import scipy.stats
from hypothesis import example, given, strategies as st

from sgqa.metrics import (
    AnswerScore,
    ConstantSeriesError,
    RougeScore,
    _overlap,
    _prf,
    answer_score,
    average_ranks,
    chain_tokenize,
    correlations,
    kendall_tau,
    normalize_answer,
    rouge_l,
    rouge_n,
    rouge_scores,
    spearman,
)


# --------------------------------------------------------------- normalization

@pytest.mark.parametrize("raw,expected", [
    ("Stange, Norway", "stange norway"),
    ("The Lake", "lake"),
    ("", ""),
    ("A  An   The", ""),
    ("U.S.A.", "usa"),
    ("it's", "its"),
    ("  spaced   out  ", "spaced out"),
])
def test_normalize_answer(raw, expected):
    assert normalize_answer(raw) == expected


def test_chain_tokenize_keeps_articles():
    assert chain_tokenize("The cat sat on a mat.") == ["the", "cat", "sat", "on", "a", "mat"]


# --------------------------------------------------------------- answer scores

def test_answer_score_stange_norway():
    score = answer_score("Stange, Norway", "Stange")
    assert score.em == 0
    assert score.precision == 0.5
    assert score.recall == 1.0
    assert abs(score.f1 - 2 / 3) < 1e-9


def test_answer_score_identity():
    score = answer_score("Stange", "Stange")
    assert score == AnswerScore(em=1.0, f1=1.0, precision=1.0, recall=1.0)


def test_answer_score_disjoint():
    score = answer_score("Paris", "Stange")
    assert score == AnswerScore(em=0.0, f1=0.0, precision=0.0, recall=0.0)


def test_answer_score_both_empty_after_normalization():
    score = answer_score("a an the", "the")
    assert score == AnswerScore(em=1.0, f1=1.0, precision=1.0, recall=1.0)


def test_answer_score_one_side_empty():
    assert answer_score("", "Stange").f1 == 0.0
    assert answer_score("Stange", "").f1 == 0.0


def test_answer_score_multiset_overlap():
    score = answer_score("cat cat", "cat")
    assert score.precision == 0.5 and score.recall == 1.0


def test_em_implies_perfect_scores():
    score = answer_score("March 15, 1912", "march 15 1912")
    assert score.em == 1.0
    assert score.precision == score.recall == score.f1 == 1.0


def test_token_permutation_gives_f1_one_but_em_zero():
    score = answer_score("obama barack", "barack obama")
    assert score.em == 0.0 and score.f1 == 1.0


@given(st.text(max_size=30), st.text(max_size=30))
def test_precision_recall_symmetry(a, b):
    assert answer_score(a, b).precision == answer_score(b, a).recall


@given(st.text(max_size=30), st.text(max_size=30))
def test_answer_scores_bounded(a, b):
    score = answer_score(a, b)
    for value in (score.em, score.f1, score.precision, score.recall):
        assert 0.0 <= value <= 1.0


# --------------------------------------------------------------- rouge

def test_rouge_n_identical():
    assert rouge_n("the quick fox", "the quick fox", 1) == 1.0
    assert rouge_n("the quick fox", "the quick fox", 2) == 1.0


def test_rouge_n_disjoint():
    assert rouge_n("a b c", "x y z", 1) == 0.0


def test_rouge_1_keeps_articles():
    # candidate "a b c" vs reference "a b d": overlap {a, b}
    assert abs(rouge_n("a b c", "a b d", 1) - 2 / 3) < 1e-12


def test_rouge_2_crafted():
    assert abs(rouge_n("a b c", "b c d", 2) - 0.5) < 1e-12


def test_rouge_n_invalid_n():
    with pytest.raises(ValueError):
        rouge_n("a", "a", 3)


def test_rouge_l_identical():
    assert rouge_l("the quick fox", "the quick fox") == 1.0


def test_rouge_l_crafted():
    # LCS("a x b", "a b") = 2; p = 2/3, r = 1, f = 0.8
    assert abs(rouge_l("a x b", "a b") - 0.8) < 1e-12


def test_rouge_l_empty_candidate():
    assert rouge_l("", "a b") == 0.0
    assert rouge_l("a b", "") == 0.0


def test_rouge_one_iff_equal_sequences():
    assert rouge_l("a b c", "a b c") == 1.0
    assert rouge_l("a b c", "a c b") < 1.0
    assert rouge_n("a b c", "c b a", 1) == 1.0  # same multiset
    assert rouge_n("a b c", "c b a", 2) < 1.0


def _brute_force_lcs(a, b):
    """Exponential-free but independent LCS: recursion with memo."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


def test_rouge_l_matches_brute_force_oracle():
    rng = random.Random(42)
    vocabulary = ["a", "b", "c", "d", "e"]
    for _ in range(200):
        cand = [rng.choice(vocabulary) for _ in range(rng.randint(1, 12))]
        ref = [rng.choice(vocabulary) for _ in range(rng.randint(1, 12))]
        lcs = _brute_force_lcs(tuple(cand), tuple(ref))
        expected = 0.0
        if lcs:
            p = lcs / len(cand)
            r = lcs / len(ref)
            expected = 2 * p * r / (p + r)
        assert rouge_l(" ".join(cand), " ".join(ref)) == expected


def _dp_lcs(a, b):
    """The quadratic LCS table, row by row."""
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            curr[j] = prev[j - 1] + 1 if x == y else max(prev[j], curr[j - 1])
        prev = curr
    return prev[-1]


def test_rouge_l_matches_dp_oracle_across_word_boundaries():
    # 65-300 tokens cross the 64-bit word boundary; 3 words repeat often.
    rng = random.Random(43)
    vocabulary = ["a", "b", "c"]
    for _ in range(40):
        cand = [rng.choice(vocabulary) for _ in range(rng.randint(65, 300))]
        ref = [rng.choice(vocabulary) for _ in range(rng.randint(65, 300))]
        lcs = _dp_lcs(cand, ref)
        p = lcs / len(cand)
        r = lcs / len(ref)
        assert rouge_l(" ".join(cand), " ".join(ref)) == 2 * p * r / (p + r)


def test_rouge_scores_equal_single_metrics():
    rng = random.Random(44)
    vocabulary = ["The", "cat", "sat,", "on", "a", "mat.", "!", "cat's", "x"]
    for _ in range(300):
        cand = " ".join(rng.choice(vocabulary) for _ in range(rng.randint(0, 30)))
        ref = " ".join(rng.choice(vocabulary) for _ in range(rng.randint(0, 30)))
        score = rouge_scores(cand, ref)
        assert score.rouge1 == rouge_n(cand, ref, 1)
        assert score.rouge2 == rouge_n(cand, ref, 2)
        assert score.rougeL == rouge_l(cand, ref)


# --------------------------------------------------------------- exact overlap
# The Counter forms that `_overlap` replaced, kept as the reference: every
# n-gram of both sides counted, and the minima summed over the shared ones.

def reference_overlap(a, b):
    return sum((Counter(a) & Counter(b)).values())


def reference_rouge_n(cand, ref, n):
    total_cand = len(cand) - n + 1
    total_ref = len(ref) - n + 1
    if total_cand <= 0 or total_ref <= 0:
        return 0.0
    cand_counts = Counter(cand) if n == 1 else Counter(zip(cand, cand[1:]))
    ref_counts = Counter(ref) if n == 1 else Counter(zip(ref, ref[1:]))
    overlap = sum(min(c, ref_counts[g]) for g, c in cand_counts.items() if g in ref_counts)
    return _prf(overlap, total_cand, total_ref)[2]


def reference_rouge_scores(candidate, reference):
    cand, ref = chain_tokenize(candidate), chain_tokenize(reference)
    return RougeScore(
        rouge1=reference_rouge_n(cand, ref, 1),
        rouge2=reference_rouge_n(cand, ref, 2),
        rougeL=rouge_l(candidate, reference),
    )


def reference_answer_score(prediction, gold):
    pred_text, gold_text = normalize_answer(prediction), normalize_answer(gold)
    pred_tokens, gold_tokens = pred_text.split(), gold_text.split()
    overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    precision, recall, f1 = _prf(overlap, len(pred_tokens), len(gold_tokens))
    return AnswerScore(
        em=float(pred_text == gold_text), f1=f1, precision=precision, recall=recall
    )


# A small alphabet makes repeats common on both sides; "Ünï" and "日本" are
# non-ASCII, and the cased, punctuated and article words exercise both
# normalizations.
TOKENS = st.lists(st.sampled_from(["a", "b", "c", "Ünï", "日本"]), max_size=12)
WORDS = ["a", "An", "the", "The", "cat", "cat.", "Cat", "sat,", "ünï", "Ünï!", "日本", "x"]
TEXTS = st.lists(st.sampled_from(WORDS), max_size=16).map(" ".join)


@given(TOKENS, TOKENS)
@example([], [])
@example([], ["a"])
@example(["a"], ["a"])
@example(["日本"], ["日本", "日本"])
@example(["a", "a", "b"], ["a", "a", "a", "b", "b"])
def test_overlap_equals_counter_intersection(a, b):
    assert _overlap(a, b) == reference_overlap(a, b)
    bigrams_a, bigrams_b = list(zip(a, a[1:])), list(zip(b, b[1:]))
    assert _overlap(bigrams_a, bigrams_b) == reference_overlap(bigrams_a, bigrams_b)


@given(TEXTS, TEXTS)
@example("", "")
@example("cat", "")
@example("cat", "cat")
@example("Ünï ünï 日本", "ünï 日本 日本 ünï")
@example("a cat a cat a cat", "a cat a cat")
def test_rouge_scores_equal_counter_reference(candidate, reference):
    assert rouge_scores(candidate, reference) == reference_rouge_scores(candidate, reference)
    for n in (1, 2):
        expected = reference_rouge_n(chain_tokenize(candidate), chain_tokenize(reference), n)
        assert rouge_n(candidate, reference, n) == expected


@given(TEXTS, TEXTS)
@example("", "")
@example("the", "cat")
@example("Cat", "cat.")
@example("日本 日本 Ünï", "ünï 日本 日本 日本")
@example("cat cat x", "cat x x cat")
def test_answer_score_equals_counter_reference(prediction, gold):
    assert answer_score(prediction, gold) == reference_answer_score(prediction, gold)


# --------------------------------------------------------------- correlations

def test_spearman_monotone():
    assert spearman([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)


def test_kendall_perfectly_concordant_and_discordant():
    assert kendall_tau([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)


def test_average_ranks_with_ties():
    assert average_ranks([10, 20, 20, 30]) == [1.0, 2.5, 2.5, 4.0]


def test_correlation_errors():
    with pytest.raises(ValueError):
        spearman([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        spearman([1], [1])
    with pytest.raises(ConstantSeriesError):
        spearman([1, 1, 1], [1, 2, 3])
    with pytest.raises(ConstantSeriesError):
        kendall_tau([1, 2, 3], [5, 5, 5])
    for xs, ys in [([1, math.nan, 3], [1, 2, 3]), ([1, 2, 3], [1, 2, math.nan])]:
        with pytest.raises(ValueError, match="NaN"):
            kendall_tau(xs, ys)
        with pytest.raises(ValueError, match="NaN"):
            spearman(xs, ys)


def test_correlations_against_scipy():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(2, 8)
        if rng.random() < 0.5:
            xs = [rng.random() for _ in range(n)]
            ys = [rng.random() for _ in range(n)]
        else:
            xs = [float(rng.randint(0, 3)) for _ in range(n)]
            ys = [float(rng.randint(0, 3)) for _ in range(n)]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            continue
        rho, _ = scipy.stats.spearmanr(xs, ys)
        tau, _ = scipy.stats.kendalltau(xs, ys, variant="b")
        assert spearman(xs, ys) == pytest.approx(rho, abs=1e-12)
        assert kendall_tau(xs, ys) == pytest.approx(tau, abs=1e-12)


def test_correlations_against_scipy_at_hotpotqa_size():
    rng = random.Random(8)
    n = 7405
    xs = [rng.randint(0, 3) / 3 for _ in range(n)]
    ys = [float(rng.randint(0, 3)) for _ in range(n)]
    rho, _ = scipy.stats.spearmanr(xs, ys)
    tau, _ = scipy.stats.kendalltau(xs, ys, variant="b")
    assert spearman(xs, ys) == pytest.approx(rho, abs=1e-12)
    assert kendall_tau(xs, ys) == pytest.approx(tau, abs=1e-12)


def test_kendall_tau_scales_to_20000_points():
    rng = random.Random(9)
    xs = [rng.random() for _ in range(20_000)]
    ys = [x + rng.random() for x in xs]
    start = time.perf_counter()
    kendall_tau(xs, ys)
    assert time.perf_counter() - start < 2.0


def test_rank_correlations_invariant_under_monotone_transform():
    xs = [0.2, 1.5, 0.9, 3.0, 2.2]
    ys = [5.0, 1.0, 4.0, 2.0, 3.0]
    transformed = [math.exp(x) for x in xs]
    assert spearman(xs, ys) == pytest.approx(spearman(transformed, ys), abs=1e-12)
    assert kendall_tau(xs, ys) == pytest.approx(kendall_tau(transformed, ys), abs=1e-12)


def test_correlations_result_fields():
    result = correlations([1, 2, 3, 4], [1, 3, 2, 4])
    assert result.n == 4
    assert -1.0 <= result.rho <= 1.0
    assert -1.0 <= result.tau <= 1.0
