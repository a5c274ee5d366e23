"""Seedable, order-independent randomness and token-selection strategies.

Every record gets its own generator derived from (run seed, record id), so
records can be processed by any number of workers in any order and still
produce byte-identical output. The generator is splitmix64: a counter-based
64-bit mixer with a fixed, documented output stream on every platform.
Because draw k is a pure function of the state plus k steps, ``Rng.block``
computes many draws at once on the lanes of one Python int, and a long
``Rng.shuffle`` (like ``mixture.interleave``) takes its draws from blocks:
the same draws, in the same order, as one call per draw.
"""

from __future__ import annotations

import enum
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, MutableSequence, Sequence, TypeVar

from .corpus import keyed_u64
from .errors import NoCandidateError

_MASK64 = 2**64 - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Draws per block for long shuffles and for ``mixture.interleave``: past
# this size a draw costs no less, and the ints grow.
DRAW_BLOCK = 1024
# Shorter sequences shuffle draw by draw, where a block costs more than the
# draws it replaces (one sentence's spans in ``select_uniform_count``).
_SHUFFLE_BLOCKS_FROM = 16

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

    def block(self, n: int) -> array:
        """The next ``n`` draws of ``next_uint64``, as an ``array("Q")``."""
        if n < 0:
            raise ValueError(f"block needs n >= 0, got {n}")
        draws = _block(self._state, n)
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return draws

    def shuffle(self, items: MutableSequence) -> None:
        """In-place Fisher-Yates shuffle: for i from the last index down to
        1, swap item i with item ``randrange(i + 1)``. A long sequence takes
        its draws from blocks, with randrange's rejection rule, and leaves
        the state after the last draw it used, as the draw-by-draw loop
        does."""
        i = len(items) - 1
        if i < _SHUFFLE_BLOCKS_FROM - 1:
            for i in range(i, 0, -1):
                j = self.randrange(i + 1)
                items[i], items[j] = items[j], items[i]
            return
        start, used = self._state, 0
        while i:
            # No block much longer than the draws still needed (about i).
            for z in _block((start + used * _GOLDEN) & _MASK64, min(1 << i.bit_length(), DRAW_BLOCK)):
                used += 1
                j = z >> (64 - i.bit_length())
                if j <= i:
                    items[i], items[j] = items[j], items[i]
                    i -= 1
                    if not i:
                        break
        self._state = (start + used * _GOLDEN) & _MASK64


@lru_cache(maxsize=16)
def _lanes(n: int) -> tuple[int, int, int]:
    """Constants for ``n`` 128-bit lanes of one int: 1 in each lane, the
    64-bit mask in each lane, and ``(k + 1) * _GOLDEN`` mod 2**64 in lane k."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * n, "little")
    steps = b"".join((k * _GOLDEN & _MASK64).to_bytes(16, "little") for k in range(1, n + 1))
    return ones, ones * _MASK64, int.from_bytes(steps, "little")


def _block(state: int, n: int) -> array:
    """Draws 1 to ``n`` of the splitmix64 stream at ``state``. Lane k of one
    int holds the k-th: a 64-bit value in 128 bits, so that a 64-bit multiply
    never carries into the next lane."""
    ones, mask, steps = _lanes(n)
    z = (state * ones + steps) & mask
    # A right shift moves lane k + 1's low bits into the top of lane k; the
    # mask clears them before the multiply would carry them into lane k + 1.
    z = ((z ^ ((z >> 30) & mask)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ ((z >> 27) & mask)) * 0x94D049BB133111EB) & mask
    # The last shift's stray bits stay in each lane's top half, dropped here.
    draws = array("Q", (z ^ (z >> 31)).to_bytes(16 * n, "little"))[::2]
    if sys.byteorder == "big":
        draws.byteswap()
    return draws


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
