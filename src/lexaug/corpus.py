"""Corpus ingestion, word tokenization, and augment/vanilla branch splits.

Corpora are line-delimited JSON. Monolingual lines look like
``{"id"?: int, "lang": str, "script": str, "text": str}`` and parallel lines
like ``{"id"?: int, "src": {...}, "tgt": {...}}``. Records stream lazily, so
memory stays bounded regardless of corpus size.
"""

from __future__ import annotations

import enum
import hashlib
import json
import struct
import unicodedata
from dataclasses import dataclass
from typing import Callable, Iterator, Union

from .errors import CorpusFormatError

MAX_U64 = 2**64 - 1


def _check_id(value, kind: str) -> None:
    """Ids key the per-record generators: an unsigned 64-bit integer, not a
    bool or a float."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{kind} id must be an integer, got {type(value).__name__}")
    if not (0 <= value <= MAX_U64):
        raise ValueError(f"{kind} id {value} outside unsigned 64-bit range")


@dataclass(frozen=True)
class Record:
    """One monolingual sentence with language and script tags."""

    id: int
    lang: str
    script: str
    text: str

    def __post_init__(self):
        _check_id(self.id, "record")
        for name in ("lang", "script", "text"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string")
        if not self.lang or not self.script:
            raise ValueError("lang and script must be non-empty")
        if not self.text.strip():
            raise ValueError("text is empty after whitespace trim")


@dataclass(frozen=True)
class SentencePair:
    """An aligned sentence pair; the two sides must differ in language."""

    id: int
    src: Record
    tgt: Record

    def __post_init__(self):
        _check_id(self.id, "pair")
        if self.src.lang == self.tgt.lang:
            raise ValueError(f"src and tgt share language {self.src.lang!r}")


@dataclass(frozen=True)
class Token:
    """A word token with its character span into the source text."""

    surface: str
    char_start: int
    char_end: int


@dataclass(frozen=True)
class TokenizedSentence:
    text: str
    tokens: tuple[Token, ...]

    @property
    def n(self) -> int:
        return len(self.tokens)

    def surfaces(self) -> list[str]:
        return [t.surface for t in self.tokens]


_WORD_CHAR_CACHE: dict[str, bool] = {}


def tokenize(text: str) -> TokenizedSentence:
    """Split text into maximal runs of Unicode letters/marks/digits.

    Non-token characters are preserved through the recorded spans: slicing
    ``text`` at the char spans reproduces each surface exactly.
    """
    tokens: list[Token] = []
    run_start = -1
    for pos, ch in enumerate(text):
        is_word = _WORD_CHAR_CACHE.get(ch)
        if is_word is None:
            # Letters, combining marks, and numbers form tokens; everything
            # else (punctuation, symbols, whitespace) separates them.
            is_word = _WORD_CHAR_CACHE[ch] = unicodedata.category(ch)[0] in "LMN"
        if is_word:
            if run_start < 0:
                run_start = pos
        elif run_start >= 0:
            tokens.append(Token(text[run_start:pos], run_start, pos))
            run_start = -1
    if run_start >= 0:
        tokens.append(Token(text[run_start:], run_start, len(text)))
    return TokenizedSentence(text, tuple(tokens))


class Branch(enum.Enum):
    AUGMENT = "augment"
    VANILLA = "vanilla"


def keyed_u64(seed: int, record_id: int, domain: bytes) -> int:
    """Keyed blake2b hash of (seed, record_id) as an unsigned 64-bit integer.

    ``domain`` separates unrelated uses of the same pair (branch routing,
    per-record generators, stream mixing).
    """
    if not (0 <= seed <= MAX_U64):
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    if not (0 <= record_id <= MAX_U64):
        raise ValueError(f"record_id must be an unsigned 64-bit integer, got {record_id}")
    key = struct.pack("<QQ", seed, record_id)
    return int.from_bytes(hashlib.blake2b(key, digest_size=8, person=domain).digest(), "little")


def assign_branch(record_id: int, seed: int, fraction: float = 0.5) -> Branch:
    """Deterministically route a record to the augmented or vanilla branch.

    Pure function of its arguments: the same (record_id, seed, fraction)
    lands on the same branch regardless of iteration order, sharding, or
    worker count. ``fraction`` is the augmented share.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if keyed_u64(seed, record_id, b"branch") / 2**64 < fraction:
        return Branch.AUGMENT
    return Branch.VANILLA


def _require(obj: dict, field: str, line_no: int, path: str | None):
    if field not in obj:
        raise CorpusFormatError(f"missing field {field!r}", path, line_no)
    return obj[field]


def _record_from_obj(obj: dict, default_id: int, line_no: int, path: str | None) -> Record:
    rec_id = obj.get("id", default_id)
    try:
        return Record(
            id=rec_id,
            lang=_require(obj, "lang", line_no, path),
            script=_require(obj, "script", line_no, path),
            text=_require(obj, "text", line_no, path),
        )
    except (ValueError, TypeError) as exc:
        raise CorpusFormatError(str(exc), path, line_no) from exc


def _pair_from_obj(obj: dict, default_id: int, line_no: int, path: str | None) -> SentencePair:
    pair_id = obj.get("id", default_id)
    sides = {}
    for side in ("src", "tgt"):
        side_obj = _require(obj, side, line_no, path)
        if not isinstance(side_obj, dict):
            raise CorpusFormatError(f"{side!r} must be an object", path, line_no)
        sides[side] = _record_from_obj(side_obj, default_id, line_no, path)
    try:
        return SentencePair(id=pair_id, src=sides["src"], tgt=sides["tgt"])
    except (ValueError, TypeError) as exc:
        raise CorpusFormatError(str(exc), path, line_no) from exc


def load_corpus(
    path: str,
    kind: str = "mono",
    on_error: Callable[[CorpusFormatError], None] | None = None,
) -> Iterator[Union[Record, SentencePair]]:
    """Stream records from a JSONL corpus file in file order.

    Ids come from an explicit ``id`` field when present, otherwise from the
    0-based line index. A malformed line raises CorpusFormatError naming the
    (1-based) line; when ``on_error`` is given, it is called with that error
    instead and the line is skipped.
    """
    if kind not in ("mono", "parallel"):
        raise ValueError(f"kind must be 'mono' or 'parallel', got {kind!r}")
    with open(path, "r", encoding="utf-8") as handle:
        for index, line in enumerate(handle):
            if not line.strip():
                continue
            line_no = index + 1
            try:
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusFormatError(f"invalid JSON: {exc.msg}", path, line_no) from exc
                if not isinstance(obj, dict):
                    raise CorpusFormatError("line is not a JSON object", path, line_no)
                if kind == "mono":
                    yield _record_from_obj(obj, index, line_no, path)
                else:
                    yield _pair_from_obj(obj, index, line_no, path)
            except CorpusFormatError as exc:
                if on_error is None:
                    raise
                on_error(exc)
