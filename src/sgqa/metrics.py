"""Answer, chain, and correlation metrics.

Answer scores follow the official SQuAD/HotpotQA scorer family: normalize
(lowercase, strip punctuation, drop articles, collapse whitespace), then
exact match plus multiset token precision/recall/F1. Chain ROUGE keeps
articles and stopwords because reasoning sentences are full prose; only
lowercasing and punctuation stripping apply there. Correlations are
Spearman rho (average ranks) and Kendall tau-b (tie-corrected).
"""

from __future__ import annotations

import math
import re
import string
from collections import Counter
from dataclasses import dataclass, fields

_ARTICLES = re.compile(r"\b(a|an|the)\b")
_PUNCT = set(string.punctuation)


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
    text = text.lower()
    text = "".join(ch for ch in text if ch not in _PUNCT)
    text = _ARTICLES.sub(" ", text)
    return " ".join(text.split())


def answer_tokens(text: str) -> list[str]:
    return normalize_answer(text).split()


def chain_tokenize(text: str) -> list[str]:
    """Tokenization for chain ROUGE: lowercase and strip punctuation but keep
    articles, since reasoning sentences are scored as prose."""
    text = text.lower()
    text = "".join(ch for ch in text if ch not in _PUNCT)
    return text.split()


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
    pred_tokens = answer_tokens(prediction)
    gold_tokens = answer_tokens(gold)
    em = float(normalize_answer(prediction) == normalize_answer(gold))
    overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    precision, recall, f1 = _prf(overlap, len(pred_tokens), len(gold_tokens))
    return AnswerScore(em=em, f1=f1, precision=precision, recall=recall)


def aggregate_scores(scores: list[AnswerScore] | list[RougeScore]):
    """Arithmetic field-wise mean of AnswerScores or of RougeScores;
    per-question EM values average to a rate."""
    if not scores:
        raise ValueError("cannot aggregate an empty score list")
    n = len(scores)
    return type(scores[0])(
        **{f.name: sum(getattr(s, f.name) for s in scores) / n for f in fields(scores[0])}
    )


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(candidate: str, reference: str, n: int) -> float:
    """F-measure of n-gram multiset overlap (n in {1, 2})."""
    if n not in (1, 2):
        raise ValueError(f"rouge_n supports n in {{1, 2}}, got {n}")
    cand = _ngrams(chain_tokenize(candidate), n)
    ref = _ngrams(chain_tokenize(reference), n)
    total_cand = sum(cand.values())
    total_ref = sum(ref.values())
    if total_cand == 0 or total_ref == 0:
        return 0.0
    overlap = sum((cand & ref).values())
    if overlap == 0:
        return 0.0
    precision = overlap / total_cand
    recall = overlap / total_ref
    return 2 * precision * recall / (precision + recall)


def _lcs_length(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            if x == y:
                curr[j] = prev[j - 1] + 1
            else:
                curr[j] = max(prev[j], curr[j - 1])
        prev = curr
    return prev[-1]


def rouge_l(candidate: str, reference: str) -> float:
    """LCS-based F-measure over token sequences."""
    cand = chain_tokenize(candidate)
    ref = chain_tokenize(reference)
    if not cand or not ref:
        return 0.0
    lcs = _lcs_length(cand, ref)
    if lcs == 0:
        return 0.0
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    return 2 * precision * recall / (precision + recall)


def rouge_scores(candidate: str, reference: str) -> RougeScore:
    return RougeScore(
        rouge1=rouge_n(candidate, reference, 1),
        rouge2=rouge_n(candidate, reference, 2),
        rougeL=rouge_l(candidate, reference),
    )


def _check_series(xs: list[float], ys: list[float]):
    if len(xs) != len(ys):
        raise ValueError(f"series length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError("correlation needs at least 2 points")


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


def kendall_tau(xs: list[float], ys: list[float]) -> float:
    """Kendall tau-b: (concordant - discordant) / sqrt((n0-n1)(n0-n2))."""
    _check_series(xs, ys)
    n = len(xs)
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            s = (xs[i] - xs[j]) * (ys[i] - ys[j])
            if s > 0:
                concordant += 1
            elif s < 0:
                discordant += 1
    n0 = n * (n - 1) // 2
    ties_x = sum(c * (c - 1) // 2 for c in Counter(xs).values())
    ties_y = sum(c * (c - 1) // 2 for c in Counter(ys).values())
    denom = math.sqrt((n0 - ties_x) * (n0 - ties_y))
    if denom == 0:
        raise ConstantSeriesError("constant series: correlation undefined")
    return (concordant - discordant) / denom


def correlations(xs: list[float], ys: list[float]) -> CorrelationResult:
    return CorrelationResult(rho=spearman(xs, ys), tau=kendall_tau(xs, ys), n=len(xs))
