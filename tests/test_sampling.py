from array import array
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexaug import sampling
from lexaug.errors import NoCandidateError
from lexaug.lexicon import LexEntry, Lexicon
from lexaug.sampling import (
    Rng,
    SelectionMode,
    SelectionParams,
    adjusted_probability,
    choose_translation,
    derive_rng,
    select_binomial_adjusted,
    select_uniform_count,
)

from reference_mix import reference_shuffle


class TestRng:
    def test_same_key_same_stream(self):
        a = derive_rng(7, 42)
        b = derive_rng(7, 42)
        assert [a.random() for _ in range(100)] == [b.random() for _ in range(100)]

    def test_neighbouring_ids_diverge(self):
        a = derive_rng(7, 42)
        b = derive_rng(7, 43)
        assert [a.random() for _ in range(100)] != [b.random() for _ in range(100)]

    def test_no_first_draw_collisions_across_ids(self):
        firsts = {derive_rng(7, i).next_uint64() for i in range(10_000)}
        assert len(firsts) == 10_000

    def test_domain_separation(self):
        assert derive_rng(7, 1).next_uint64() != derive_rng(7, 1, domain=b"mixdraws").next_uint64()

    def test_uniform_mean(self):
        rng = derive_rng(123, 0)
        n = 1_000_000
        total = sum(rng.random() for _ in range(n))
        assert abs(total / n - 0.5) < 0.002

    def test_randrange_bounds_and_coverage(self):
        rng = Rng(5)
        draws = [rng.randrange(7) for _ in range(5000)]
        assert set(draws) == set(range(7))

    def test_randrange_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Rng(1).randrange(0)

    def test_shuffle_is_permutation(self):
        rng = Rng(9)
        items = list(range(50))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items


_KEYS = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))
# Lengths on both sides of the switch from draw-by-draw to block shuffles,
# and long enough to cross DRAW_BLOCK-draw blocks.
_LENGTHS = st.one_of(st.integers(0, 2 * sampling._SHUFFLE_BLOCKS_FROM), st.integers(0, 3000))


class TestBlocks:
    """``block`` and the block shuffle against one ``next_uint64`` per draw."""

    @settings(max_examples=200, deadline=None)
    @given(key=_KEYS, n=st.one_of(st.integers(0, 40), st.integers(0, 2 * sampling.DRAW_BLOCK + 50)))
    @example(key=2**64 - 1, n=sampling.DRAW_BLOCK)
    def test_block_is_the_next_n_draws(self, key, n):
        by_block, by_draw = Rng(key), Rng(key)
        draws = by_block.block(n)
        assert draws.typecode == "Q"
        assert list(draws) == [by_draw.next_uint64() for _ in range(n)]
        assert by_block.next_uint64() == by_draw.next_uint64()

    def test_block_rejects_negative_size(self):
        with pytest.raises(ValueError):
            Rng(1).block(-1)

    @settings(max_examples=150, deadline=None)
    @given(key=_KEYS, n=_LENGTHS, kind=st.sampled_from([list, partial(array, "q")]))
    @example(key=0, n=sampling._SHUFFLE_BLOCKS_FROM - 1, kind=list)
    @example(key=2**64 - 1, n=sampling._SHUFFLE_BLOCKS_FROM, kind=list)
    @example(key=0, n=3000, kind=partial(array, "q"))
    def test_shuffle_takes_the_draw_by_draw_swaps(self, key, n, kind):
        items, expected = kind(range(n)), kind(range(n))
        rng, reference = Rng(key), Rng(key)
        rng.shuffle(items)
        reference_shuffle(reference, expected)
        assert items == expected
        assert rng.next_uint64() == reference.next_uint64()


class TestSelectionParams:
    def test_p_tr_validated(self):
        with pytest.raises(ValueError):
            SelectionParams(p_tr=1.5)

    def test_defaults(self):
        params = SelectionParams()
        assert params.p_tr == 0.4
        assert params.mode is SelectionMode.BINOMIAL_ADJUSTED


class TestBinomialAdjusted:
    def test_probability_clamps_to_one(self):
        # n=10, k=2, p_tr=0.4 -> 10*0.4/2 = 2.0, clamped to 1.0
        assert adjusted_probability(10, 2, 0.4) == 1.0
        params = SelectionParams(p_tr=0.4)
        rng = derive_rng(0, 0)
        for _ in range(50):
            assert select_binomial_adjusted([2, 7], 10, params, rng) == {2, 7}

    def test_expected_count(self):
        # n=10, k=8 -> adjusted p = 0.5, so E[selected] = 4
        params = SelectionParams(p_tr=0.4)
        rng = derive_rng(11, 0)
        trials = 100_000
        total = sum(
            len(select_binomial_adjusted(range(8), 10, params, rng)) for _ in range(trials)
        )
        assert abs(total / trials - 4.0) < 0.05

    def test_empty_translatable(self):
        assert select_binomial_adjusted([], 10, SelectionParams(), derive_rng(0, 0)) == set()

    def test_indices_validated(self):
        with pytest.raises(ValueError):
            select_binomial_adjusted([12], 10, SelectionParams(), derive_rng(0, 0))

    def test_expectation_never_exceeds_n_p_tr(self):
        # E[|selected|] = k * min(n p / k, 1) <= n * p
        for k in (1, 3, 5, 10):
            expected = k * adjusted_probability(10, k, 0.4)
            assert expected <= 10 * 0.4 + 1e-12


class TestUniformCount:
    def test_empty(self):
        assert select_uniform_count([], derive_rng(0, 0)) == set()

    def test_counts_uniform_over_k_plus_one(self):
        rng = derive_rng(21, 0)
        trials = 100_000
        counts = [0, 0, 0, 0]
        for _ in range(trials):
            counts[len(select_uniform_count([0, 1, 2], rng))] += 1
        for count in counts:
            assert abs(count / trials - 0.25) < 0.01

    def test_single_index_half_the_time(self):
        rng = derive_rng(22, 0)
        trials = 100_000
        hits = sum(bool(select_uniform_count([5], rng)) for _ in range(trials))
        assert abs(hits / trials - 0.5) < 0.01

    def test_subsets_are_valid(self):
        rng = derive_rng(23, 0)
        for _ in range(200):
            chosen = select_uniform_count([3, 9, 12, 30], rng)
            assert chosen <= {3, 9, 12, 30}


def _entries():
    return [
        LexEntry("cat", "gato", "en", "es", "Latn"),
        LexEntry("cat", "chat", "en", "fr", "Latn"),
        LexEntry("cat", "katze", "en", "de", "Latn"),
        LexEntry("cat", "kot", "en", "pl", "Latn"),
    ]


class TestChooseTranslation:
    def test_single_candidate(self):
        entry = _entries()[0]
        assert choose_translation([entry], derive_rng(0, 0)) is entry

    def test_uniform_over_candidates(self):
        rng = derive_rng(31, 0)
        entries = _entries()
        trials = 100_000
        counts = {e.tgt_lang: 0 for e in entries}
        for _ in range(trials):
            counts[choose_translation(entries, rng).tgt_lang] += 1
        for count in counts.values():
            assert abs(count / trials - 0.25) < 0.01

    def test_empty_after_filter(self):
        pool = Lexicon([("panlex", _entries())]).lookup_key("cat", "en", tgt_filter="zu")
        with pytest.raises(NoCandidateError):
            choose_translation(pool, derive_rng(0, 0))
