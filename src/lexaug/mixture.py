"""Training-task weight schedules and deterministic stream interleaving.

The base schedule puts 40% weight on translation and 60% on span masking.
Enabling a monolingual augmentation splits the masking weight 30/30 between
augmented and vanilla data; a parallel augmentation splits the translation
weight 20/20 the same way. Adding the token-pair task gives it 5% and
shrinks everything else by the factor 0.95.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .augment import Task
from .errors import ScheduleError
from .sampling import Rng, derive_rng

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


class _StreamCycler:
    """Cycle a task's sequence with a fresh shuffle per epoch (the first pass
    keeps the original order)."""

    def __init__(self, task: Task, stream: Sequence, rng: Rng):
        if len(stream) == 0:
            raise ScheduleError(f"stream for task {task.value!r} is empty")
        self._rng = rng
        self._items = list(stream)
        self._current = iter(self._items)

    def next(self):
        try:
            return next(self._current)
        except StopIteration:
            epoch = list(self._items)
            self._rng.shuffle(epoch)
            self._current = iter(epoch)
            return next(self._current)


def interleave(streams: Mapping[Task, Sequence], weights: TaskWeights, seed: int) -> Iterator:
    """Sample tasks i.i.d. per the weight schedule and pull from each task's
    sequence in turn.

    The emitted sequence is a pure function of (weights, seed, stream
    contents); tasks with zero weight are never drawn. Every positively
    weighted task must have a stream.
    """
    active = weights.active_tasks()
    missing = [t.value for t in active if t not in streams]
    if missing:
        raise ScheduleError(f"weighted tasks without a stream: {', '.join(missing)}")
    cyclers = {
        task: _StreamCycler(task, streams[task], derive_rng(seed, index, domain=b"mixcycle"))
        for index, task in enumerate(active)
    }
    cumulative: list[tuple[float, Task]] = []
    running = 0.0
    for task in active:
        running += weights.get(task)
        cumulative.append((running, task))
    rng = derive_rng(seed, 0, domain=b"mixdraws")

    def generate() -> Iterator:
        while True:
            u = rng.random() * running
            for bound, task in cumulative:
                if u < bound:
                    yield cyclers[task].next()
                    break
            else:
                yield cyclers[active[-1]].next()

    return generate()
