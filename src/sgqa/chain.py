"""Parsing of CoT completions into reasoning chains and a final answer.

The expected chain is a run of short sentences ending in
"So the answer is: <answer>". Parsing is total on nonempty input: when the
answer pattern is missing it falls back to the text after the final colon of
the last sentence, then to the whole last sentence.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

ANSWER_PATTERN = re.compile(r"so the answer is:?\s*", re.IGNORECASE)

_SENTENCE_BOUNDARY = re.compile(r"(?<=\.)\s+")
_QUOTE_CHARS = "\"'`"


class EmptyCompletionError(ValueError):
    """The completion contained no text to parse."""


@dataclass(frozen=True)
class ReasoningChain:
    """Reasoning sentences (answer sentence excluded) plus the extracted answer."""

    sentences: tuple[str, ...]
    extracted_answer: str
    used_fallback: bool = False


def _clean_answer(text: str) -> str:
    """Strip surrounding whitespace, trailing period runs, and quotes."""
    text = text.strip()
    while text and text[-1] in ". \t":
        text = text[:-1].rstrip()
    return text.strip(_QUOTE_CHARS).strip()


def _split_sentences(text: str) -> list[tuple[int, str]]:
    """Sentences with their start offsets, split on '. ' boundaries."""
    parts = []
    start = 0
    for match in _SENTENCE_BOUNDARY.finditer(text):
        parts.append((start, text[start : match.start()]))
        start = match.end()
    parts.append((start, text[start:]))
    return [(offset, sentence) for offset, sentence in parts if sentence.strip()]


def parse_chain(completion: str) -> ReasoningChain:
    """Split a completion into reasoning sentences and extract the answer.

    The answer comes from the last "So the answer is:" occurrence; the
    extracted text is always a contiguous substring of the completion modulo
    stripped terminal punctuation and quotes.
    """
    text = completion.strip()
    if not text:
        raise EmptyCompletionError("empty completion")

    sentences = _split_sentences(text)
    matches = list(ANSWER_PATTERN.finditer(text))

    if matches:
        last = matches[-1]
        answer = _clean_answer(text[last.end() :])
        answer_idx = 0
        for i, (offset, sentence) in enumerate(sentences):
            if offset <= last.start() < offset + len(sentence):
                answer_idx = i
                break
        used_fallback = False
    else:
        answer_idx = len(sentences) - 1
        last_sentence = sentences[answer_idx][1]
        colon = last_sentence.rfind(":")
        if colon != -1:
            answer = _clean_answer(last_sentence[colon + 1 :])
        else:
            answer = _clean_answer(last_sentence)
        used_fallback = True

    reasoning = tuple(s for i, (_, s) in enumerate(sentences) if i != answer_idx)
    return ReasoningChain(
        sentences=reasoning,
        extracted_answer=answer,
        used_fallback=used_fallback,
    )
