"""Training-task weight schedules and deterministic stream interleaving.

The base schedule puts 40% weight on translation and 60% on span masking.
Enabling a monolingual augmentation splits the masking weight 30/30 between
augmented and vanilla data; a parallel augmentation splits the translation
weight 20/20 the same way. Adding the token-pair task gives it 5% and
shrinks everything else by the factor 0.95.

``interleave`` mixes task streams without a Python step per line: the task
draws come in blocks from ``Rng.block`` and pass through a chain of ``map``
calls to each task's stream; stream files are read in runs of lines, one
``os.pread`` per run.
"""

from __future__ import annotations

import math
import os
import stat
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, repeat
from operator import add, mul, rshift, sub
from typing import Iterator, Mapping, Sequence

from .augment import Task
from .corpus import BLOCK, read_chunks
from .errors import FormatError, ScheduleError
from .sampling import DRAW_BLOCK, Rng, derive_rng

# Augmentation choices for both the mono and the parallel data.
AUG_CHOICES = ("none", "codeswitch", "glowup")

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
        return cls({task_named(name, "weights file"): float(weight) for name, weight in obj.items()})


def task_named(name: str, where: str) -> Task:
    """The task called ``name``; ``where`` says where the name was read
    (a flag or a file), for the error an unknown name raises."""
    try:
        return Task(name)
    except ValueError:
        allowed = ", ".join(t.value for t in Task)
        raise ScheduleError(f"{where}: unknown task {name!r}; allowed: {allowed}") from None


def build_schedule(
    mono_aug: str = "none",
    parallel_aug: str = "none",
    token_pairs: bool = False,
) -> TaskWeights:
    """Derive the task weights for a training configuration.

    Exact rational arithmetic internally, so e.g. enabling token pairs on a
    codeswitch-mono schedule yields exactly {0.05, 0.38, 0.285, 0.285}.
    """
    for name, value in (("mono_aug", mono_aug), ("parallel_aug", parallel_aug)):
        if value not in AUG_CHOICES:
            raise ScheduleError(f"{name} must be one of {AUG_CHOICES}, got {value!r}")
    weights: dict[Task, Fraction] = {
        Task.TRANSLATION: Fraction(2, 5),
        Task.MASS: Fraction(3, 5),
    }
    if mono_aug != "none":
        weights[Task.MASS] = Fraction(3, 10)
        weights[Task(f"{mono_aug}_mono")] = Fraction(3, 10)
    if parallel_aug != "none":
        weights[Task.TRANSLATION] = Fraction(1, 5)
        weights[Task(f"{parallel_aug}_parallel")] = Fraction(1, 5)
    if token_pairs:
        weights = {task: value * Fraction(19, 20) for task, value in weights.items()}
        weights[Task.TOKEN_PAIR] = Fraction(1, 20)
    return TaskWeights({task: float(value) for task, value in weights.items()})


class StreamFile:
    """The kept lines of a stream file, read from disk by offset.

    One scan by ``read_chunks`` checks that the file is UTF-8, puts its
    SHA-256 in ``digests`` if given, and indexes each line that is not blank
    (``str.strip()`` of its text is empty): 16 bytes per line, its start
    offset and its length. Lines end at ``\n``, and one trailing ``\r`` is
    dropped; a lone ``\r`` inside a line stays in it. Iteration gives the
    lines in file order and ``pick`` in any order, as bytes read with
    ``os.pread``, so the file must be a regular file and must not change
    while it is open; ``check_unchanged`` tells whether it did.
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
            self._offsets, self._lengths = _index_lines(self._fd, path, digests)
        except BaseException:
            os.close(self._fd)
            raise

    def __len__(self) -> int:
        return len(self._offsets)

    def __iter__(self) -> Iterator[bytes]:
        """The kept lines in file order, read in runs of lines that span at
        most ``BLOCK`` bytes (or one longer line): on the perfbench ``mix``
        workload (2 cores, Python 3.11) a first pass of one ``os.pread`` per
        line cost about 8% more CPU time."""
        return chain.from_iterable(map(self._read_run, self._runs()))

    def _runs(self) -> Iterator[tuple[int, int]]:
        """(first, end) index ranges of the runs that ``__iter__`` reads."""
        offsets, lengths = self._offsets, self._lengths
        first = 0
        while first < len(offsets):
            limit = offsets[first] + BLOCK
            end = bisect_left(offsets, limit, first + 1)
            if end - 1 > first and offsets[end - 1] + lengths[end - 1] > limit:
                end -= 1
            yield first, end
            first = end

    def _read_run(self, run: tuple[int, int]) -> Iterator[bytes]:
        """The lines of one run, cut from one read."""
        first, end = run
        offsets, lengths = self._offsets[first:end], self._lengths[first:end]
        base = offsets[0]
        block = os.pread(self._fd, offsets[-1] + lengths[-1] - base, base)
        starts = array("q", map(sub, offsets, repeat(base)))
        return map(block.__getitem__, map(slice, starts, map(add, starts, lengths)))

    def pick(self, order: Sequence[int]) -> Iterator[bytes]:
        """The kept lines with the indices in ``order``, in that order."""
        return map(os.pread, repeat(self._fd), map(self._lengths.__getitem__, order),
                   map(self._offsets.__getitem__, order))

    def check_unchanged(self) -> None:
        """Fail unless the file has the size and modification time it had
        when it was indexed."""
        status = os.fstat(self._fd)
        if (status.st_size, status.st_mtime_ns) != self._stamp:
            raise FormatError("changed while it was read", self.path)

    def close(self) -> None:
        os.close(self._fd)

    def __enter__(self) -> "StreamFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _index_lines(fd: int, path: str, digests: dict[str, str] | None) -> tuple[array, array]:
    """Start offsets and lengths of the file's kept lines (see
    ``StreamFile``), from the chunks ``read_chunks`` reads from ``fd``."""
    offsets, lengths = array("q"), array("q")
    blank = 0  # the lines read so far that are not kept
    start = 0  # the file offset of the chunk
    for chunk, _ in read_chunks(path, partial(os.read, fd), digests, lambda: len(offsets) + blank):
        if not chunk.endswith(b"\n"):
            chunk = chunk + b"\n"  # ends a last line that has none
        pos = 0
        while (end := chunk.find(b"\n", pos)) >= 0:
            # A line that starts with a printable ASCII byte is not blank.
            if 32 < chunk[pos] < 127 or chunk[pos:end].decode("utf-8").strip():
                offsets.append(start + pos)
                lengths.append(end - pos - (chunk[end - 1] == 13))  # 13: "\r"
            else:
                blank += 1
            pos = end + 1
        start += len(chunk)
    return offsets, lengths


def _cycle(stream: Sequence | StreamFile, rng: Rng) -> Iterator:
    """A stream's items without end: the first pass in order, then each
    pass in a fresh shuffle of the indices."""
    pick = stream.pick if isinstance(stream, StreamFile) else partial(map, stream.__getitem__)
    n = len(stream)

    def orders() -> Iterator[Sequence[int]]:
        while True:
            order = array("q", range(n))
            rng.shuffle(order)
            yield order

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
        if len(streams[task]) == 0:
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
