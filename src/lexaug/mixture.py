"""Training-task weight schedules and deterministic stream interleaving.

The base schedule puts 40% weight on translation and 60% on span masking.
Enabling a monolingual augmentation splits the masking weight 30/30 between
augmented and vanilla data; a parallel augmentation splits the translation
weight 20/20 the same way. Adding the token-pair task gives it 5% and
shrinks everything else by the factor 0.95.

``interleave`` mixes task streams without a Python step per line: the task
draws come in blocks from ``Rng.block`` and pass through a chain of ``map``
calls to each task's stream. A stream file's first pass is read a chunk at a
time; only a stream that wraps is indexed, and its later passes read one
line per ``os.pread``, a batch of lines at a time.
"""

from __future__ import annotations

import math
import os
import stat
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate, chain, compress, repeat
from operator import add, mul, rshift
from typing import Iterator, Mapping, Sequence

from .corpus import AUG_CHOICES, BLOCK, Task, line_chunks, read_chunks
from .errors import FormatError, ScheduleError
from .sampling import DRAW_BLOCK, Rng, derive_rng

# Stable draw order for interleaving.
_TASK_ORDER = list(Task)


@dataclass(frozen=True)
class TaskWeights:
    """A validated probability distribution over training tasks."""

    weights: Mapping[Task, float]

    def __post_init__(self):
        for task, weight in self.weights.items():
            if not 0 <= weight < math.inf:
                raise ScheduleError(f"weight for {task.value} must be finite and non-negative, got {weight!r}")
        total = sum(self.weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ScheduleError(f"weights sum to {total!r}, expected 1.0")

    def get(self, task: Task) -> float:
        return self.weights.get(task, 0.0)

    def active_tasks(self) -> list[Task]:
        return [t for t in _TASK_ORDER if self.get(t) > 0.0]

    def to_json_obj(self) -> dict:
        return {task.value: weight for task, weight in self.weights.items()}

    @classmethod
    def from_json_obj(cls, obj) -> "TaskWeights":
        """Weights from a JSON object mapping task name to a number."""
        if not isinstance(obj, dict):
            raise ScheduleError(f"weights must be a JSON object, got {type(obj).__name__}")
        for name, weight in obj.items():
            if isinstance(weight, bool) or not isinstance(weight, (int, float)):
                raise ScheduleError(f"weight for {name} must be a number, got {weight!r}")
        return cls({task_named(name): float(weight) for name, weight in obj.items()})


def task_named(name: str) -> Task:
    """The task called ``name``; an unknown name raises a ScheduleError that
    lists the allowed ones, and its reader names where it was read."""
    try:
        return Task(name)
    except ValueError:
        allowed = ", ".join(t.value for t in Task)
        raise ScheduleError(f"unknown task {name!r}; allowed: {allowed}") from None


def build_schedule(
    mono_aug: str = "none",
    parallel_aug: str = "none",
    token_pairs: bool = False,
) -> TaskWeights:
    """Derive the task weights for a training configuration.

    Exact integer arithmetic in units of 1/200 internally, and one correctly
    rounded division per weight, so e.g. enabling token pairs on a
    codeswitch-mono schedule yields exactly {0.05, 0.38, 0.285, 0.285}.
    """
    for name, value in (("mono_aug", mono_aug), ("parallel_aug", parallel_aug)):
        if value not in AUG_CHOICES:
            raise ScheduleError(f"{name} must be one of {AUG_CHOICES}, got {value!r}")
    weights = {Task.TRANSLATION: 80, Task.MASS: 120}  # in units of 1/200
    if mono_aug != "none":
        weights[Task.MASS] = 60
        weights[Task(f"{mono_aug}_mono")] = 60
    if parallel_aug != "none":
        weights[Task.TRANSLATION] = 40
        weights[Task(f"{parallel_aug}_parallel")] = 40
    if token_pairs:
        weights = {task: value * 19 // 20 for task, value in weights.items()}
        weights[Task.TOKEN_PAIR] = 10
    return TaskWeights({task: value / 200 for task, value in weights.items()})


class StreamFile:
    """The kept lines of a stream file, read from disk.

    A line is kept unless it is blank (``str.strip()`` of its text is
    empty). Lines end at ``\n``, and one trailing ``\r`` is dropped; a lone
    ``\r`` inside a line stays in it. Opening the file scans it once with
    ``read_chunks``: the scan checks that the file is UTF-8, puts its
    SHA-256 in ``digests`` if given and finds whether the file keeps a line
    (``bool(stream)``), but indexes nothing. Iteration reads the kept lines
    again in file order, a chunk at a time. ``pick`` (the kept lines in any
    order) and ``len`` need each kept line's offset and length: 8 bytes per
    line if the size stamped at open is under 4 GiB, else 16. The first of
    them to run builds that index by one more scan, so a stream that a mix
    never wraps is never indexed. Every read is an ``os.pread``, so the file
    must be a regular file and must not change while it is open;
    ``check_unchanged`` tells whether it did.
    """

    def __init__(self, path: str, digests: dict[str, str] | None = None):
        self.path = path
        # O_NONBLOCK: opening a FIFO without a writer must not hang.
        self._fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        try:
            status = os.fstat(self._fd)
            if not stat.S_ISREG(status.st_mode):
                raise FormatError("not a regular file; stream lines are read by offset", path)
            self._stamp = (status.st_size, status.st_mtime_ns)
            start = 0  # the offset of the chunk
            self._keeps = False
            for chunk, _ in read_chunks(path, self._blocks(), digests, lambda: self._lines_before(start)):
                self._keeps = self._keeps or any(_kept_lines(chunk))
                start += len(chunk)
        except BaseException:
            os.close(self._fd)
            raise

    def __bool__(self) -> bool:
        return self._keeps

    def __len__(self) -> int:
        return len(self._index[0])

    def __iter__(self) -> Iterator[bytes]:
        """The kept lines in file order."""
        return chain.from_iterable(map(_kept_lines, line_chunks(self._blocks())))

    def pick(self, order: Sequence[int]) -> Iterator[bytes]:
        """The kept lines with the indices in ``order``, in that order."""
        batches = (order[at:at + _PICK_BATCH] for at in range(0, len(order), _PICK_BATCH))
        return chain.from_iterable(map(self._read, batches))

    def _read(self, order: Sequence[int]) -> list[bytes]:
        """The kept lines with the indices in ``order``, one ``os.pread``
        each. Only a batch with a short read reads its lines again, whole."""
        offsets, lengths = self._index
        starts, sizes = list(map(offsets.__getitem__, order)), list(map(lengths.__getitem__, order))
        lines = list(map(os.pread, repeat(self._fd), sizes, starts))
        if sum(map(len, lines)) < sum(sizes):
            lines = list(map(self._read_whole, sizes, starts))
        return lines

    def _read_whole(self, size: int, start: int) -> bytes:
        """The ``size`` bytes at offset ``start``, over as many reads as it takes."""
        data = b""
        while len(data) < size:
            if not (part := os.pread(self._fd, size - len(data), start + len(data))):
                raise FormatError("changed while it was read", self.path)  # cut short
            data += part
        return data

    @cached_property
    def _index(self) -> tuple[array, array]:
        """The start offset and the length of each kept line."""
        size = self._stamp[0]
        offsets, lengths = array(_cells(size)), array(_cells(size))
        start = 0  # the offset of the chunk
        for chunk in line_chunks(self._blocks()):
            kept_offsets, kept_lengths = _kept_lines(chunk, start)
            start += len(chunk)
            if start > size:  # grown past its stamp, so maybe past what a cell holds
                break
            offsets.extend(kept_offsets)
            lengths.extend(kept_lengths)
        # A change is found when the mix ends (check_unchanged), but one that
        # leaves no kept line must be found now: an empty pass never ends.
        if start > size or bool(offsets) != self._keeps:
            raise FormatError("changed while it was read", self.path)
        return offsets, lengths

    def _blocks(self) -> Iterator[bytes]:
        """The file from its start in blocks, read by ``os.pread``, so that
        two passes can read at once. A short read is not taken for the end."""
        at = 0
        while block := os.pread(self._fd, BLOCK, at):
            yield block
            at += len(block)

    def _lines_before(self, end: int) -> int:
        """The lines that end before offset ``end``. Only an error's line
        number needs them: counting every line in the open scan would cost
        about as much as hashing it."""
        lines = 0
        for block in self._blocks():
            if end <= 0:
                break
            lines += block.count(b"\n", 0, end)
            end -= len(block)
        return lines

    def check_unchanged(self) -> None:
        """Fail unless the file has the size and modification time it had
        when it was opened."""
        status = os.fstat(self._fd)
        if (status.st_size, status.st_mtime_ns) != self._stamp:
            raise FormatError("changed while it was read", self.path)

    def close(self) -> None:
        os.close(self._fd)

    def __enter__(self) -> "StreamFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# The lines that StreamFile.pick reads before it yields the first of them.
_PICK_BATCH = 64


def _cells(bound: int) -> str:
    """The array typecode for values no larger than ``bound``: 4-byte cells
    ("I"; CPython's C int has 32 bits) below 2^32, else 8-byte cells."""
    return "I" if bound < 1 << 32 else "q"


# The ASCII characters that str.strip() removes.
_ASCII_SPACE = bytes(c for c in range(128) if chr(c).isspace())


def _kept_lines(chunk: bytes, start: int | None = None) -> Iterator[bytes] | tuple[Iterator[int], Iterator[int]]:
    """The kept lines (see ``StreamFile``) of a chunk from ``line_chunks``;
    given the chunk's file offset ``start``, their offsets and lengths."""
    lines = chunk.split(b"\n")
    offsets = None if start is None else accumulate(map(add, map(len, lines), repeat(1)), initial=start)
    if b"\r" in chunk:
        lines = list(map(bytes.removesuffix, lines, repeat(b"\r")))
    # A line is blank if nothing is left of it past ASCII spaces, and kept if
    # what is left starts with an ASCII byte. Only a chunk with a line that
    # is neither is decoded, line by line; the open scan checked its UTF-8.
    keep = list(map(bytes.lstrip, lines, repeat(_ASCII_SPACE)))
    if max(keep) >= b"\x80":
        keep = [line.decode("utf-8", "surrogateescape").strip() for line in lines]
    if offsets is None:
        return compress(lines, keep)
    return compress(offsets, keep), compress(map(len, lines), keep)


def _cycle(stream: Sequence | StreamFile, rng: Rng) -> Iterator:
    """A stream's items without end: the first pass in order, then each
    pass in a fresh shuffle of the indices, held in 4-byte cells for fewer
    than 2^32 items, else in 8-byte cells. The stream's length is taken only
    when the first pass has ended."""
    pick = stream.pick if isinstance(stream, StreamFile) else partial(map, stream.__getitem__)

    def orders() -> Iterator[Sequence[int]]:
        n = len(stream)
        while True:
            order = array(_cells(n), range(n))
            rng.shuffle(order)
            yield order
            del order  # its pass has ended, so the next order does not sit beside it

    return chain(stream, chain.from_iterable(map(pick, orders())))


def interleave(streams: Mapping[Task, Sequence | StreamFile], weights: TaskWeights, seed: int) -> Iterator:
    """Sample tasks i.i.d. per the weight schedule and pull from each task's
    sequence in turn.

    The emitted sequence is a pure function of (weights, seed, stream
    contents); tasks with zero weight are never drawn. Every positively
    weighted task must have a non-empty stream.
    """
    active = weights.active_tasks()
    missing = [t.value for t in active if t not in streams]
    if missing:
        raise ScheduleError(f"weighted tasks without a stream: {', '.join(missing)}")
    for task in active:
        if not streams[task]:
            raise ScheduleError(f"stream for task {task.value!r} is empty")
    # The cumulative weights, and each task's endless stream, in task order.
    # A draw picks the first task whose cumulative weight exceeds it; one at
    # or past the last (by rounding) picks the last.
    bounds: list[float] = []
    cycles: list[Iterator] = []
    running = 0.0
    for index, task in enumerate(active):
        running += weights.get(task)
        bounds.append(running)
        cycles.append(_cycle(streams[task], derive_rng(seed, index, domain=b"mixcycle")))
    cycles.append(cycles[-1])
    rng = derive_rng(seed, 0, domain=b"mixdraws")
    draws = chain.from_iterable(iter(partial(rng.block, DRAW_BLOCK), None))
    # rng.random() * running for each draw, as the same two float products.
    points = map(mul, map(mul, map(rshift, draws, repeat(11)), repeat(2.0**-53)), repeat(running))
    return map(next, map(cycles.__getitem__, map(bisect_right, repeat(bounds), points)))
