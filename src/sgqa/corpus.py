"""Dataset loading for HotpotQA / 2WikiMultiHopQA style JSON files.

Both datasets ship as a JSON array of records with `_id`, `question`,
`answer`, `supporting_facts` ([title, sent_idx] pairs) and `context`
([title, [sentences]] pairs). 2Wiki records also carry an `evidences`
field, which nothing downstream reads, so both formats load the same way
and the field is ignored.

`load_dataset` costs little more than parsing the JSON, and holds the
records plus about one chunk of the file, never its whole text: it decodes
the top-level array one element at a time from 64 KiB reads and builds each
record before it decodes the next. It pauses the cyclic GC for the whole
load. JSON builds no reference cycles, so each collection the GC would make
there frees nothing and only rescans the objects just built; at
HotpotQA-dev size those collections were about a third of the load's CPU
time.

A `Paragraph` stores its text once, joined when it is built, and the length
of each sentence, not the sentence strings: the pipeline reads only the text.
On the benchmark's 7,405-record dataset (74,050 paragraphs, 370,250
sentences) that cuts the loaded records from 87.3 to 73.7 MiB (tracemalloc).
The join is also the loader's sentence-type check. Most stored texts are
over the small-object allocator's 512-byte limit, so they come from the C
heap, which keeps freed memory resident, as it does for 1 MiB read buffers;
the reads are 64 KiB. The benchmark's peak RSS, evaluating 7,405
predictions: 153.4 MB with sentence strings and 1 MiB reads, 139.4 MB with
stored text alone, 137.5 MB with both; for 500 questions over HTTP: 44.6,
45.3 and 40.4 MB.
"""

from __future__ import annotations

import codecs
import gc
import json
import logging
import random
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import accumulate, pairwise

logger = logging.getLogger(__name__)

FORMATS = ("hotpotqa", "2wiki")

DEFAULT_DEV_SIZE = 100
DEFAULT_TEST_SIZE = 500

_JSON_SPACE = " \t\n\r"
_CHUNK = 1 << 16  # bytes per read of a dataset file


class DatasetParseError(ValueError):
    """The dataset file is not UTF-8, not valid JSON or not a JSON array."""


class DatasetSchemaError(ValueError):
    """A record is missing or mistypes a required field."""

    def __init__(self, index: int | None, field_name: str, detail: str = ""):
        where = "top-level" if index is None else f"record {index}"
        msg = f"{where}: bad field '{field_name}'"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class SplitSizeError(ValueError):
    """Requested split sizes exceed the number of available records."""


@dataclass(frozen=True, slots=True, init=False)
class Paragraph:
    """A titled context paragraph, built as `Paragraph(title, sentences)`.

    It holds `text`, the in-order sentence concatenation, and the length of
    each sentence; `sentences` slices them back out of `text`. Two paragraphs
    are equal exactly when their titles and sentences are. A `Paragraph`
    built directly is not checked: `load_dataset` checks the title and
    sentences of every paragraph it builds.
    """

    title: str
    text: str
    sentence_lengths: tuple[int, ...]

    def __init__(self, title: str, sentences: Iterable[str]):
        if not isinstance(sentences, list):  # read a one-shot iterable once; a tuple is not copied
            sentences = tuple(sentences)
        _set_title(self, title)
        _set_text(self, "".join(sentences))
        _set_sentence_lengths(self, tuple(map(len, sentences)))

    @property
    def sentences(self) -> tuple[str, ...]:
        text = self.text
        return tuple(text[start:end]
                     for start, end in pairwise(accumulate(self.sentence_lengths, initial=0)))


# A frozen class's fields are set through their slots' own setters: the
# loader builds every paragraph, and object.__setattr__ costs a third more.
_set_title, _set_text, _set_sentence_lengths = (
    getattr(Paragraph, name).__set__ for name in ("title", "text", "sentence_lengths"))


@dataclass(frozen=True, slots=True)
class QuestionRecord:
    """One QA instance with its candidate paragraphs and supporting-fact titles."""

    id: str
    question: str
    gold_answer: str
    context: tuple[Paragraph, ...]
    supporting_titles: frozenset[str]


@dataclass(frozen=True)
class Split:
    dev: tuple[QuestionRecord, ...]
    test: tuple[QuestionRecord, ...]


def _require(raw: dict, index: int, field_name: str):
    if field_name not in raw:
        raise DatasetSchemaError(index, field_name, "missing")
    return raw[field_name]


def _parse_context(raw_context, index: int) -> tuple[Paragraph, ...]:
    if not isinstance(raw_context, list):
        raise DatasetSchemaError(index, "context", "expected a list")
    paragraphs = []
    for pos, item in enumerate(raw_context):
        try:
            title, sentences = item
        except (TypeError, ValueError):  # not a pair
            title = sentences = None
        if not isinstance(title, str) or not isinstance(sentences, list):
            raise DatasetSchemaError(
                index, "context", f"entry {pos} is not a [title, [sentences]] pair"
            )
        try:
            paragraph = Paragraph(title, sentences)  # its join rejects a non-string
        except TypeError:
            raise DatasetSchemaError(
                index, "context", f"entry {pos} has non-string sentences"
            ) from None
        if not title:
            raise DatasetSchemaError(
                index, "context", f"entry {pos}: paragraph title must be nonempty"
            )
        paragraphs.append(paragraph)
    return tuple(paragraphs)


def _parse_supporting_titles(raw_facts, index: int) -> frozenset[str]:
    if not isinstance(raw_facts, list):
        raise DatasetSchemaError(index, "supporting_facts", "expected a list")
    titles = []
    for pos, item in enumerate(raw_facts):
        if (not isinstance(item, list) or len(item) != 2 or not isinstance(item[0], str)
                or type(item[1]) is not int):
            raise DatasetSchemaError(
                index, "supporting_facts", f"entry {pos} is not a [title, sent_idx] pair"
            )
        titles.append(item[0])
    return frozenset(titles)


def load_dataset(path, format: str = "hotpotqa") -> list[QuestionRecord]:
    """Load a dataset file into typed records. Both FORMATS read the same
    fields; `format` is only checked to be one of them.

    Raises DatasetParseError on a file that is not UTF-8 or not JSON (with the
    byte offset) and DatasetSchemaError naming the record index and field on
    schema problems, including an `_id` repeated from an earlier record.

    The file is streamed: each record is built as soon as it is decoded. On
    the first fault of any kind the file is parsed again in one piece, which
    raises the error, so which fault is reported never depends on the stream.
    The cyclic GC is paused for the whole load, and turned back on only if it
    was on at entry.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown dataset format {format!r}; expected one of {FORMATS}")
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            return _stream_records(path)
        except ValueError:  # a fault; the one-shot parse below reports it
            pass
        return _build_records(_read_json(path), path)
    finally:
        if enabled:
            gc.enable()


def _stream_records(path) -> list[QuestionRecord]:
    """Build the records of a top-level JSON array one element at a time,
    holding about one chunk of text. Raises a ValueError on any fault, with
    no promise about which one: `load_dataset` then reports it."""
    decode = codecs.getincrementaldecoder("utf-8")().decode
    scan = json.JSONDecoder().raw_decode
    records: list[QuestionRecord] = []
    first_index: dict[str, int] = {}
    with open(path, "rb") as fh:
        buf, pos, eof = "", 0, False

        def fill(size):  # drop the consumed text and append `size` more bytes
            nonlocal buf, pos, eof
            data = fh.read(size)
            eof = not data
            buf = buf[pos:] + decode(data, final=eof)
            pos = 0

        def next_char():  # the next non-whitespace character, "" at EOF
            nonlocal pos
            while True:
                while pos < len(buf) and buf[pos] in _JSON_SPACE:
                    pos += 1
                if pos < len(buf) or eof:
                    return buf[pos:pos + 1]
                fill(_CHUNK)

        if next_char() != "[":
            raise ValueError("not a JSON array")
        pos += 1
        if next_char() == "]":
            pos += 1
        else:
            while True:
                size = _CHUNK
                while True:
                    try:
                        raw, end = scan(buf, pos)
                        break
                    except json.JSONDecodeError:
                        if eof:
                            raise
                    fill(size)  # the element is incomplete: read more, twice as much each time
                    size *= 2
                records.append(_build_record(raw, len(records), first_index))
                pos = end
                separator = next_char()
                pos += 1
                if separator == "]":
                    break
                if separator != ",":
                    raise ValueError("expected ',' or ']'")
                next_char()  # `scan` takes no leading whitespace
        if next_char():
            raise ValueError("extra data")
    return records


def _read_json(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetParseError(
            f"{path}: not UTF-8 at byte offset {exc.start}: {exc.reason}"
        ) from exc
    del raw  # the parse holds the text and its objects, not the bytes as well
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        offset = len(text[: exc.pos].encode("utf-8"))
        raise DatasetParseError(
            f"{path}: malformed JSON at byte offset {offset}: {exc.msg}"
        ) from exc


def _build_records(data, path) -> list[QuestionRecord]:
    if not isinstance(data, list):
        raise DatasetParseError(f"{path}: expected a top-level JSON array of records")
    first_index: dict[str, int] = {}
    return [_build_record(raw, index, first_index) for index, raw in enumerate(data)]


def _build_record(raw, index: int, first_index: dict[str, int]) -> QuestionRecord:
    """Check record `index` and build it; `first_index` maps each id seen so
    far to its record and gains this record's id."""
    if not isinstance(raw, dict):
        raise DatasetSchemaError(index, "<record>", "not a JSON object")
    record_id = _require(raw, index, "_id")
    if not isinstance(record_id, str) or not record_id:
        raise DatasetSchemaError(index, "_id", "must be a nonempty string")
    if first_index.setdefault(record_id, index) != index:
        raise DatasetSchemaError(
            index, "_id", f"{record_id!r} repeats record {first_index[record_id]}"
        )
    question = _require(raw, index, "question")
    answer = _require(raw, index, "answer")
    context = _parse_context(_require(raw, index, "context"), index)
    titles = _parse_supporting_titles(_require(raw, index, "supporting_facts"), index)
    if not isinstance(question, str) or not question:
        raise DatasetSchemaError(index, "question", "must be a nonempty string")
    if not isinstance(answer, str) or not answer:
        raise DatasetSchemaError(index, "answer", "must be a nonempty string")
    return QuestionRecord(
        id=record_id,
        question=question,
        gold_answer=answer,
        context=context,
        supporting_titles=titles,
    )


def gold_paragraphs(record: QuestionRecord) -> list[Paragraph]:
    """Context paragraphs whose title is a supporting-fact title, in context order.

    Supporting titles absent from the context are skipped with a warning;
    duplicate titles in the context yield every matching paragraph.
    """
    found_titles = {p.title for p in record.context}
    for title in sorted(record.supporting_titles - found_titles):
        logger.warning("question %s: supporting title %r not in context; skipped", record.id, title)
    return [p for p in record.context if p.title in record.supporting_titles]


def _deterministic_shuffle(items: list, seed: int) -> list:
    """Fisher-Yates shuffle driven by random.Random(seed).random().

    random() is the one primitive the random module guarantees stable across
    Python versions for a given seed, so splits reproduce everywhere.
    """
    rng = random.Random(seed)
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        items[i], items[j] = items[j], items[i]
    return items


def sample_splits(
    records: list[QuestionRecord],
    seed: int,
    dev_n: int = DEFAULT_DEV_SIZE,
    test_n: int = DEFAULT_TEST_SIZE,
) -> Split:
    """Deterministically sample disjoint dev/test subsets.

    Records are sorted by id before shuffling, so the result is a pure
    function of (record ids, seed, dev_n, test_n).
    """
    if dev_n < 0 or test_n < 0:
        raise SplitSizeError("split sizes must be non-negative")
    if dev_n + test_n > len(records):
        raise SplitSizeError(
            f"requested {dev_n}+{test_n} records but only {len(records)} available"
        )
    shuffled = _deterministic_shuffle(sorted(records, key=lambda r: r.id), seed)
    return Split(
        dev=tuple(shuffled[:dev_n]),
        test=tuple(shuffled[dev_n : dev_n + test_n]),
    )
