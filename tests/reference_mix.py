# Draw-by-draw reference versions of Rng.shuffle and mixture.interleave,
# used as oracles by the tests: one next_uint64 call per draw, one Python
# step per line. The package takes the same draws from blocks; its output
# must equal these, draw for draw.

from array import array
from bisect import bisect_right
from functools import partial
from itertools import chain

from lexaug.sampling import derive_rng


def reference_shuffle(rng, items) -> None:
    """In-place Fisher-Yates shuffle, one ``randrange`` per index."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]


def reference_interleave(streams, weights, seed):
    """The items ``mixture.interleave`` gives for lists, one draw at a time."""
    bounds, nexts = [], []
    running = 0.0
    for index, task in enumerate(weights.active_tasks()):
        running += weights.get(task)
        bounds.append(running)
        nexts.append(_reference_cycle(streams[task], derive_rng(seed, index, domain=b"mixcycle")).__next__)
    nexts.append(nexts[-1])
    rng = derive_rng(seed, 0, domain=b"mixdraws")
    while True:
        yield nexts[bisect_right(bounds, rng.random() * running)]()


def _reference_cycle(items, rng):
    def orders():
        while True:
            order = array("q", range(len(items)))
            reference_shuffle(rng, order)
            yield order

    return chain(items, chain.from_iterable(map(partial(map, items.__getitem__), orders())))
