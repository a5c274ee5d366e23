"""Seedable, order-independent randomness and token-selection strategies.

Every record gets its own generator derived from (run seed, record id), so
records can be processed by any number of workers in any order and still
produce byte-identical output. The generator is splitmix64: a counter-based
64-bit mixer with a fixed, documented output stream on every platform.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence, TypeVar

from .corpus import keyed_u64
from .errors import NoCandidateError

_MASK64 = 2**64 - 1
_GOLDEN = 0x9E3779B97F4A7C15

T = TypeVar("T")


class Rng:
    """splitmix64 stream over a 64-bit key.

    Each draw advances an internal counter by a fixed odd constant and mixes
    it; the stream is a pure function of the construction key.
    """

    __slots__ = ("_state",)

    def __init__(self, key: int):
        self._state = key & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_uint64() >> 11) * (2.0**-53)

    def randrange(self, n: int) -> int:
        """Unbiased uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError(f"randrange needs n >= 1, got {n}")
        if n == 1:
            return 0
        bits = (n - 1).bit_length()
        while True:
            value = self.next_uint64() >> (64 - bits)
            if value < n:
                return value

    def choice(self, seq: Sequence[T]) -> T:
        if not seq:
            raise IndexError("choice from empty sequence")
        return seq[self.randrange(len(seq))]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


def derive_rng(seed: int, record_id: int, domain: bytes = b"record") -> Rng:
    """Per-record generator, independent across (seed, record_id) pairs.

    The key is a keyed hash of the arguments, so neighbouring record ids do
    not produce correlated streams. ``domain`` separates unrelated uses of
    the same (seed, id) pair (e.g. record augmentation vs. stream mixing).
    """
    return Rng(keyed_u64(seed, record_id, domain))


class SelectionMode(enum.Enum):
    BINOMIAL_ADJUSTED = "binomial"
    UNIFORM_COUNT = "uniform"


@dataclass(frozen=True)
class SelectionParams:
    """How many translatable tokens to pick per sentence.

    ``p_tr`` is the desired swap fraction over the whole sentence (default
    0.4). BINOMIAL_ADJUSTED keeps each translatable token independently with
    probability min(n * p_tr / k, 1), compensating for tokens without
    dictionary coverage; UNIFORM_COUNT draws the number of picks uniformly
    from {0..k}.
    """

    p_tr: float = 0.4
    mode: SelectionMode = SelectionMode.BINOMIAL_ADJUSTED

    def __post_init__(self):
        if not 0.0 <= self.p_tr <= 1.0:
            raise ValueError(f"p_tr must be in [0, 1], got {self.p_tr}")


def adjusted_probability(n: int, k: int, p_tr: float) -> float:
    """Per-token keep probability min(n * p_tr / k, 1) for k translatable of n."""
    if k <= 0:
        return 0.0
    return min(n * p_tr / k, 1.0)


def select_binomial_adjusted(
    translatable: Iterable[int], n: int, params: SelectionParams, rng: Rng
) -> set[int]:
    """Keep each translatable index independently with the adjusted probability.

    With full coverage (k == n) this reduces to plain Bernoulli(p_tr) per
    token; with sparse coverage the probability is scaled up (clamped at 1)
    so the expected swapped fraction of the sentence stays near p_tr.
    """
    indices = sorted(set(translatable))
    if not indices:
        return set()
    if n < 0:
        raise ValueError(f"token count n must be >= 0, got {n}")
    if indices[0] < 0 or indices[-1] >= n:
        raise ValueError("translatable indices fall outside range(n)")
    p = adjusted_probability(n, len(indices), params.p_tr)
    return {i for i in indices if rng.random() < p}


def select_uniform_count(translatable: Iterable[int], rng: Rng) -> set[int]:
    """Draw m uniformly from {0..k}, then a uniform m-subset of the indices.

    Subset choice goes through a seeded shuffle of the sorted indices, so the
    result depends only on the index set and the rng state, not on the
    caller's iteration order.
    """
    indices = sorted(set(translatable))
    k = len(indices)
    m = rng.randrange(k + 1)
    if m == 0:
        return set()
    rng.shuffle(indices)
    return set(indices[:m])


def choose_translation(candidates: Sequence[T], rng: Rng) -> T:
    """Uniform choice among candidate entries. An empty pool raises
    NoCandidateError so the caller can skip the token."""
    if not candidates:
        raise NoCandidateError("no translation candidate")
    return candidates[rng.randrange(len(candidates))]
