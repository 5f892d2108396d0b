"""Answer, chain, and correlation metrics.

Answer scores follow the official SQuAD/HotpotQA scorer family: normalize
(lowercase, strip punctuation, drop articles, collapse whitespace), then
exact match plus multiset token precision/recall/F1. Chain ROUGE keeps
articles and stopwords because reasoning sentences are full prose; only
lowercasing and punctuation stripping apply there. Correlations are
Spearman rho (average ranks) and Kendall tau-b (tie-corrected).

The algorithms are exact, so every score equals its textbook definition bit
for bit:

- Kendall tau-b uses Knight's method (Knight 1966, JASA 61:436), O(n log n).
  Sorting the pairs by (x, y) leaves the discordant pairs as the inversions
  of the y sequence, counted with a Fenwick tree. Then
  C - D = n0 - ties_x - ties_y + ties_xy - 2 * D, the same integer the
  pairwise definition gives, divided by the same tie-corrected denominator.
- ROUGE-L takes the LCS length from the bit-parallel recurrence of Allison &
  Dix (1986) in Hyyro's form (2004): O(len(candidate) * len(reference) / w)
  word operations on Python ints, the same length as the quadratic DP.
- ROUGE-1/2 and answer F1 take the n-gram multiset overlap of Lin (2004):
  the sum over shared n-grams of the smaller count. `_overlap` intersects
  the two n-gram sets in C and counts n-grams only when both sides repeat
  one; otherwise each shared n-gram counts once. The overlap is an integer,
  so the scores are the floats a full count gives.
"""

from __future__ import annotations

import math
import re
import string
from collections import Counter
from dataclasses import dataclass

_ARTICLES = re.compile(r"\b(a|an|the)\b")
_DELETE_PUNCT = str.maketrans("", "", string.punctuation)


class ConstantSeriesError(ValueError):
    """Correlation is undefined: one of the series has zero rank variance."""


@dataclass(frozen=True)
class AnswerScore:
    em: float
    f1: float
    precision: float
    recall: float


@dataclass(frozen=True)
class RougeScore:
    rouge1: float
    rouge2: float
    rougeL: float


@dataclass(frozen=True)
class CorrelationResult:
    rho: float
    tau: float
    n: int


def normalize_answer(text: str) -> str:
    """Lowercase, strip punctuation, drop articles, collapse whitespace."""
    text = _ARTICLES.sub(" ", text.lower().translate(_DELETE_PUNCT))
    return " ".join(text.split())


def chain_tokenize(text: str) -> list[str]:
    """Tokenization for chain ROUGE: lowercase and strip punctuation but keep
    articles, since reasoning sentences are scored as prose."""
    return text.lower().translate(_DELETE_PUNCT).split()


def _prf(overlap: int, pred_len: int, gold_len: int) -> tuple[float, float, float]:
    if pred_len == 0 and gold_len == 0:
        return 1.0, 1.0, 1.0
    if overlap == 0 or pred_len == 0 or gold_len == 0:
        return 0.0, 0.0, 0.0
    precision = overlap / pred_len
    recall = overlap / gold_len
    return precision, recall, 2 * precision * recall / (precision + recall)


def answer_score(prediction: str, gold: str) -> AnswerScore:
    """EM plus multiset token precision/recall/F1 on normalized text."""
    pred_text = normalize_answer(prediction)
    gold_text = normalize_answer(gold)
    pred_tokens = pred_text.split()
    gold_tokens = gold_text.split()
    em = float(pred_text == gold_text)
    precision, recall, f1 = _prf(
        _overlap(pred_tokens, gold_tokens), len(pred_tokens), len(gold_tokens)
    )
    return AnswerScore(em=em, f1=f1, precision=precision, recall=recall)


def _overlap(a: list, b: list) -> int:
    """Size of the multiset intersection of `a` and `b`: the sum over shared
    items of the smaller of their two counts."""
    set_a = set(a)
    set_b = set(b)
    common = set_a & set_b
    if not common:
        return 0
    if len(set_a) == len(a) or len(set_b) == len(b):
        return len(common)  # one side has no repeats: each shared item counts once
    count_a = Counter(a)
    count_b = Counter(b)
    return sum(map(min, map(count_a.__getitem__, common), map(count_b.__getitem__, common)))


def _rouge_n_tokens(cand: list[str], ref: list[str], n: int) -> float:
    total_cand = len(cand) - n + 1
    total_ref = len(ref) - n + 1
    if total_cand <= 0 or total_ref <= 0:
        return 0.0
    if n == 2:
        cand = list(zip(cand, cand[1:]))
        ref = list(zip(ref, ref[1:]))
    return _prf(_overlap(cand, ref), total_cand, total_ref)[2]


def rouge_n(candidate: str, reference: str, n: int) -> float:
    """F-measure of n-gram multiset overlap (n in {1, 2})."""
    if n not in (1, 2):
        raise ValueError(f"rouge_n supports n in {{1, 2}}, got {n}")
    return _rouge_n_tokens(chain_tokenize(candidate), chain_tokenize(reference), n)


def _lcs_length(a: list[str], b: list[str]) -> int:
    """LCS length by the bit-parallel recurrence: bit j of `v` is 0 where the
    LCS of the prefix of `a` seen so far and b[:j + 1] grows by one."""
    masks: dict[str, int] = {}
    for j, token in enumerate(b):
        masks[token] = masks.get(token, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for token in a:
        mask = masks.get(token)
        if mask:
            u = v & mask
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def _rouge_l_tokens(cand: list[str], ref: list[str]) -> float:
    if not cand or not ref:
        return 0.0
    return _prf(_lcs_length(cand, ref), len(cand), len(ref))[2]


def rouge_l(candidate: str, reference: str) -> float:
    """LCS-based F-measure over token sequences."""
    return _rouge_l_tokens(chain_tokenize(candidate), chain_tokenize(reference))


def rouge_scores(candidate: str, reference: str) -> RougeScore:
    cand = chain_tokenize(candidate)
    ref = chain_tokenize(reference)
    return RougeScore(
        rouge1=_rouge_n_tokens(cand, ref, 1),
        rouge2=_rouge_n_tokens(cand, ref, 2),
        rougeL=_rouge_l_tokens(cand, ref),
    )


def _check_series(xs: list[float], ys: list[float]):
    if len(xs) != len(ys):
        raise ValueError(f"series length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError("correlation needs at least 2 points")
    if any(map(math.isnan, xs)) or any(map(math.isnan, ys)):
        raise ValueError("correlation is undefined for NaN values")


def average_ranks(xs: list[float]) -> list[float]:
    """1-based ranks; tied values share the average of their rank block."""
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    ranks = [0.0] * len(xs)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def _pearson(xs: list[float], ys: list[float]) -> float:
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        raise ConstantSeriesError("constant series: correlation undefined")
    return cov / math.sqrt(var_x * var_y)


def spearman(xs: list[float], ys: list[float]) -> float:
    """Pearson correlation of average-ranked data."""
    _check_series(xs, ys)
    return _pearson(average_ranks(xs), average_ranks(ys))


def _tied_pairs(values) -> int:
    return sum(c * (c - 1) // 2 for c in Counter(values).values())


def _inversions(ranks: list[int], size: int) -> int:
    """Pairs i < j with ranks[i] > ranks[j]; ranks lie in 1..size. A Fenwick
    tree counts the earlier ranks <= each rank in O(log size)."""
    tree = [0] * (size + 1)
    inversions = 0
    for seen, rank in enumerate(ranks):
        inversions += seen
        i = rank
        while i:
            inversions -= tree[i]
            i &= i - 1
        i = rank
        while i <= size:
            tree[i] += 1
            i += i & -i
    return inversions


def kendall_tau(xs: list[float], ys: list[float]) -> float:
    """Kendall tau-b: (concordant - discordant) / sqrt((n0-n1)(n0-n2))."""
    _check_series(xs, ys)
    n = len(xs)
    y_rank = {y: r for r, y in enumerate(sorted(set(ys)), start=1)}
    pairs = sorted(zip(xs, (y_rank[y] for y in ys)))
    discordant = _inversions([r for _, r in pairs], len(y_rank))
    n0 = n * (n - 1) // 2
    ties_x = _tied_pairs(xs)
    ties_y = _tied_pairs(ys)
    denom = math.sqrt((n0 - ties_x) * (n0 - ties_y))
    if denom == 0:
        raise ConstantSeriesError("constant series: correlation undefined")
    return (n0 - ties_x - ties_y + _tied_pairs(pairs) - 2 * discordant) / denom


def correlations(xs: list[float], ys: list[float]) -> CorrelationResult:
    return CorrelationResult(rho=spearman(xs, ys), tau=kendall_tau(xs, ys), n=len(xs))
