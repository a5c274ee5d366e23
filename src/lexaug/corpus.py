"""Corpus ingestion, word tokenization, and augment/vanilla branch splits.

Corpora are line-delimited JSON. Monolingual lines look like
``{"id"?: int, "lang": str, "script": str, "text": str}`` and parallel lines
like ``{"id"?: int, "src": {...}, "tgt": {...}}``. Records stream lazily, so
memory stays bounded regardless of corpus size. Every input file is read
once, by ``read_chunks``, which checks and hashes the bytes as it reads them.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
import re
import struct
import unicodedata
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Union

from .errors import CorpusFormatError, FormatError

MAX_U64 = 2**64 - 1

# A language or script code. Codes are spliced into "<2...>" tags, so one may
# not hold whitespace, "<" or ">".
TAG_VALUE = r"[^<>\s]+"
_TAG_VALUE_RE = re.compile(TAG_VALUE)

# The literal control tokens, mutually distinct: the six task tokens (token
# pairs reuse "<2translation>"), then the mask token and the three hint
# delimiters. lexaug.augment names each one.
LITERALS = (
    "<2translation>", "<2mass>", "<2codeswitch>", "<2codeswitch_parallel>", "<2glowup_mono>", "<2glowup>",
    "<mask>", "<hint>", "<is>", "<endhints>",
)


class Task(enum.Enum):
    """The training tasks: the first six in the order of their task tokens in
    ``LITERALS``; token pairs reuse the first token."""

    TRANSLATION = "translation"
    MASS = "mass"
    CODESWITCH_MONO = "codeswitch_mono"
    CODESWITCH_PARALLEL = "codeswitch_parallel"
    GLOWUP_MONO = "glowup_mono"
    GLOWUP_PARALLEL = "glowup_parallel"
    TOKEN_PAIR = "token_pair"


# Augmentation choices for both the mono and the parallel data.
AUG_CHOICES = ("none", "codeswitch", "glowup")

_LITERAL_PATTERN = "|".join(re.escape(lit) for lit in sorted(LITERALS, key=len, reverse=True))
# What corpus text and lexicon terms may not hold: a control token, or a
# language or script tag, an open family ("<2en>", "<2Latn>", ...).
_COLLISION_RE = re.compile(f"{_LITERAL_PATTERN}|<2{TAG_VALUE}>")
# A lone surrogate code point, which a JSON "\ud800" escape can give and
# UTF-8 cannot encode.
_SURROGATE_RE = re.compile("[\ud800-\udfff]")


def _check_no_surrogate(name: str, value: str) -> None:
    found = not value.isascii() and _SURROGATE_RE.search(value)
    if found:
        raise ValueError(f"{name} holds the lone surrogate U+{ord(found[0]):04X}, which UTF-8 cannot encode")


# Only a valid value is remembered: a call that raises leaves no entry.
@functools.lru_cache(maxsize=1024)
def check_tag_value(name: str, value: str) -> None:
    if not _TAG_VALUE_RE.fullmatch(value):
        raise ValueError(f"{name} must be non-empty with no whitespace, '<' or '>', got {value!r}")
    _check_no_surrogate(name, value)


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
        check_tag_value("lang", self.lang)
        check_tag_value("script", self.script)
        if not self.text.strip():
            raise ValueError("text is empty after whitespace trim")
        _check_no_surrogate("text", self.text)


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


class Token(NamedTuple):
    """A word token with its character span into the source text."""

    surface: str
    char_start: int
    char_end: int


class TokenizedSentence(NamedTuple):
    text: str
    tokens: tuple[Token, ...]

    @property
    def n(self) -> int:
        return len(self.tokens)


class _WordTable(dict):
    """A ``str.translate`` table that keeps letters, marks and numbers and
    turns every other code point into a space. Each code point's entry is
    stored the first time it is seen; forked workers inherit the filled table."""

    __slots__ = ()

    def __missing__(self, code: int) -> int | str:
        value = self[code] = code if unicodedata.category(chr(code))[0] in "LMN" else " "
        return value


_WORD_TABLE = _WordTable()


def words(text: str) -> list[str]:
    """The surfaces of ``tokenize(text)``, without the tokens: word characters
    translate to themselves and no word character is whitespace, so the
    translated text split at whitespace is the words."""
    return text.translate(_WORD_TABLE).split()


def tokenize(text: str) -> TokenizedSentence:
    """Split text into maximal runs of Unicode letters/marks/digits.

    Non-token characters are preserved through the recorded spans: slicing
    ``text`` at the char spans reproduces each surface exactly.
    """
    tokens = []
    start = 0
    # Word characters translate to themselves, so each non-empty piece is
    # the text's own surface, and every piece is followed by one separator.
    for piece in text.translate(_WORD_TABLE).split(" "):
        if piece:
            end = start + len(piece)
            tokens.append(Token(piece, start, end))
            start = end + 1
        else:
            start += 1
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


# Bytes per read of an input file.
BLOCK = 1 << 16


def line_chunks(blocks: Iterable[bytes]) -> Iterator[bytes]:
    """The bytes of ``blocks`` in chunks that each end at a ``\\n`` (the
    last may not)."""
    head = bytearray()  # the start of a line that earlier blocks cut
    for block in blocks:
        cut = block.rfind(b"\n") + 1
        if not cut:
            head += block
            continue
        view = memoryview(block)  # saves a copy of each part
        chunk, head = b"".join((head, view[:cut])), bytearray(view[cut:])
        yield chunk
    if head:
        yield bytes(head)  # a last line that no "\n" ends


def read_chunks(
    path: str, blocks: Iterable[bytes], digests: dict[str, str] | None, lines: Callable[[], int]
) -> Iterator[tuple[bytes, str]]:
    """The chunks of the file at ``path`` that ``line_chunks(blocks)`` gives,
    with their UTF-8 text; no UTF-8 sequence is split between two decodes. A
    byte that does not decode raises FormatError naming its line and offset;
    ``lines()`` gives the number of lines in the chunks already yielded.
    After the last chunk, ``digests[path]`` (if given) is the SHA-256 of the
    bytes read."""
    digest = hashlib.sha256()
    for chunk in line_chunks(blocks):
        digest.update(chunk)
        try:
            text = chunk.decode("utf-8")
        except UnicodeDecodeError as exc:
            offset = exc.start - chunk.rfind(b"\n", 0, exc.start) - 1
            raise FormatError(f"not valid UTF-8: byte {chunk[exc.start]:#04x} at offset {offset} ({exc.reason})",
                              path, lines() + chunk.count(b"\n", 0, exc.start) + 1) from None
        yield chunk, text
    if digests is not None:
        digests[path] = digest.hexdigest()


def read_lines(path: str, digests: dict[str, str] | None = None) -> Iterator[str]:
    """The lines of the file at ``path``, read once by ``read_chunks``: split
    at ``\\n``, each without one trailing ``\\r``, so a lone ``\\r`` stays in
    its line."""
    done = 0  # the lines of the chunks read so far
    with open(path, "rb", buffering=0) as file:
        blocks = iter(functools.partial(file.read, BLOCK), b"")
        for _, text in read_chunks(path, blocks, digests, lambda: done):
            if "\r" in text:  # rare, and cheaper to test for than to replace
                text = text.replace("\r\n", "\n")
            lines = text.split("\n")
            last = lines.pop()  # empty unless no "\n" ends the file
            done += len(lines)
            yield from lines
            if last:
                yield last.removesuffix("\r")


def read_text(path: str, digests: dict[str, str] | None = None) -> str:
    """The text of the file at ``path``, read once by ``read_chunks``."""
    texts: list[str] = []
    with open(path, "rb", buffering=0) as file:
        blocks = iter(functools.partial(file.read, BLOCK), b"")
        for _, text in read_chunks(path, blocks, digests, lambda: sum(t.count("\n") for t in texts)):
            texts.append(text)
    return "".join(texts)


def load_corpus(
    path: str,
    kind: str = "mono",
    on_error: Callable[[CorpusFormatError], None] | None = None,
    digests: dict[str, str] | None = None,
) -> Iterator[Union[Record, SentencePair]]:
    """Stream records from a JSONL corpus file in file order, its lines read
    by ``read_lines`` (which puts the file's SHA-256 in ``digests``).

    Ids come from an explicit ``id`` field when present, otherwise from the
    0-based line index. A malformed line raises CorpusFormatError naming the
    (1-based) line; when ``on_error`` is given, it is called with that error
    instead and the line is skipped. A byte that is not UTF-8 raises
    FormatError, which ``on_error`` does not see.
    """
    if kind not in ("mono", "parallel"):
        raise ValueError(f"kind must be 'mono' or 'parallel', got {kind!r}")
    for index, line in enumerate(read_lines(path, digests)):
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
