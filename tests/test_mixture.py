import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexaug.augment import Task
from lexaug.errors import ScheduleError
from lexaug.mixture import TaskWeights, build_schedule, interleave


class TestBuildSchedule:
    def test_base_schedule(self):
        weights = build_schedule()
        assert weights.weights == {Task.TRANSLATION: 0.40, Task.MASS: 0.60}

    def test_mono_codeswitch_splits_mass(self):
        weights = build_schedule(mono_aug="codeswitch")
        assert weights.weights == {
            Task.TRANSLATION: 0.40,
            Task.MASS: 0.30,
            Task.CODESWITCH_MONO: 0.30,
        }

    def test_token_pairs_shrink(self):
        weights = build_schedule(mono_aug="codeswitch", token_pairs=True)
        assert weights.weights == {
            Task.TOKEN_PAIR: 0.05,
            Task.TRANSLATION: 0.38,
            Task.MASS: 0.285,
            Task.CODESWITCH_MONO: 0.285,
        }

    def test_parallel_glowup_splits_translation(self):
        weights = build_schedule(parallel_aug="glowup")
        assert weights.weights == {
            Task.TRANSLATION: 0.20,
            Task.GLOWUP_PARALLEL: 0.20,
            Task.MASS: 0.60,
        }

    def test_all_combinations_sum_to_one(self):
        for mono, parallel, pairs in itertools.product(
            ("none", "codeswitch", "glowup"), ("none", "codeswitch", "glowup"), (False, True)
        ):
            weights = build_schedule(mono, parallel, pairs)
            assert abs(sum(weights.weights.values()) - 1.0) < 1e-9

    def test_shrink_is_exactly_095(self):
        for mono, parallel in itertools.product(
            ("none", "codeswitch", "glowup"), ("none", "codeswitch", "glowup")
        ):
            base = build_schedule(mono, parallel, token_pairs=False)
            shrunk = build_schedule(mono, parallel, token_pairs=True)
            assert shrunk.get(Task.TOKEN_PAIR) == 0.05
            for task, weight in base.weights.items():
                assert abs(shrunk.get(task) - weight * 0.95) < 1e-15

    def test_bad_flag_rejected(self):
        with pytest.raises(ScheduleError):
            build_schedule(mono_aug="both")

    def test_json_roundtrip(self):
        weights = build_schedule(mono_aug="glowup", token_pairs=True)
        assert TaskWeights.from_json_obj(weights.to_json_obj()) == weights


class TestTaskWeights:
    def test_must_sum_to_one(self):
        with pytest.raises(ScheduleError):
            TaskWeights({Task.TRANSLATION: 0.5, Task.MASS: 0.4})

    def test_negative_rejected(self):
        with pytest.raises(ScheduleError):
            TaskWeights({Task.TRANSLATION: 1.2, Task.MASS: -0.2})

    @pytest.mark.parametrize(
        "obj",
        [[1], {"mass": [1]}, {"mass": float("nan")}, {"mass": float("inf")}, {"mass": True, "translation": 0},
         {"mass": "1"}, {"mass": None}],
        ids=["list", "list-weight", "nan", "inf", "bool", "string", "null"],
    )
    def test_from_json_obj_rejects_non_weights(self, obj):
        with pytest.raises(ScheduleError):
            TaskWeights.from_json_obj(obj)

    def test_zero_weight_not_active(self):
        weights = TaskWeights({Task.TRANSLATION: 1.0, Task.MASS: 0.0})
        assert weights.active_tasks() == [Task.TRANSLATION]


class TestInterleave:
    def test_single_stream_passthrough(self):
        weights = TaskWeights({Task.TRANSLATION: 1.0})
        stream = ["a", "b", "c", "d"]
        mixed = interleave({Task.TRANSLATION: stream}, weights, seed=1)
        assert list(itertools.islice(mixed, 4)) == stream

    def test_finite_streams_cycle(self):
        weights = TaskWeights({Task.TRANSLATION: 1.0})
        mixed = interleave({Task.TRANSLATION: ["a", "b"]}, weights, seed=1)
        drawn = list(itertools.islice(mixed, 10))
        assert len(drawn) == 10
        assert set(drawn) == {"a", "b"}

    def test_cycling_reshuffles_deterministically(self):
        weights = TaskWeights({Task.TRANSLATION: 1.0})
        first = list(itertools.islice(interleave({Task.TRANSLATION: list(range(8))}, weights, 3), 40))
        second = list(itertools.islice(interleave({Task.TRANSLATION: list(range(8))}, weights, 3), 40))
        assert first == second
        # Later epochs really are shuffled relative to the first.
        assert first[8:16] != first[:8]

    def test_missing_stream_is_an_error(self):
        weights = build_schedule()
        with pytest.raises(ScheduleError, match="mass"):
            interleave({Task.TRANSLATION: ["x"]}, weights, seed=0)

    def test_zero_weight_task_never_emitted(self):
        weights = TaskWeights({Task.TRANSLATION: 1.0, Task.MASS: 0.0})
        mixed = interleave(
            {Task.TRANSLATION: ["t"], Task.MASS: ["m"]}, weights, seed=5
        )
        assert set(itertools.islice(mixed, 500)) == {"t"}

    def test_deterministic_for_seed(self):
        weights = build_schedule(mono_aug="codeswitch")
        streams = {
            Task.TRANSLATION: ["t1", "t2"],
            Task.MASS: ["m1", "m2"],
            Task.CODESWITCH_MONO: ["c1", "c2"],
        }
        a = list(itertools.islice(interleave(streams, weights, 11), 1000))
        b = list(itertools.islice(interleave(streams, weights, 11), 1000))
        assert a == b
        c = list(itertools.islice(interleave(streams, weights, 12), 1000))
        assert a != c

    def test_empirical_shares_match_weights(self):
        weights = build_schedule()
        streams = {Task.TRANSLATION: ["t"], Task.MASS: ["m"]}
        drawn = list(itertools.islice(interleave(streams, weights, 7), 100_000))
        share_t = drawn.count("t") / len(drawn)
        assert abs(share_t - 0.4) < 0.01


@st.composite
def _mix_inputs(draw):
    """Positive integer shares for a non-empty subset of tasks (normalised to
    weights), a seed, and a non-empty list of items per weighted task."""
    tasks = draw(st.lists(st.sampled_from(list(Task)), min_size=1, max_size=4, unique=True))
    shares = [draw(st.integers(1, 10)) for _ in tasks]
    weights = TaskWeights({t: k / sum(shares) for t, k in zip(tasks, shares)})
    streams = {t: draw(st.lists(st.integers(), min_size=1, max_size=6)) for t in tasks}
    return weights, draw(st.integers(0, 2**64 - 1)), streams


class TestInterleaveProperties:
    @settings(max_examples=100, deadline=None)
    @given(_mix_inputs())
    def test_pure_function_of_weights_seed_and_contents(self, inputs):
        weights, seed, streams = inputs
        # Long enough that lists cycle and reshuffle: equal inputs, equal prefixes.
        long = 4 * max(len(items) for items in streams.values()) + 10
        first = interleave({t: list(v) for t, v in streams.items()}, weights, seed)
        second = interleave({t: tuple(v) for t, v in streams.items()}, weights, seed)
        assert list(itertools.islice(first, long)) == list(itertools.islice(second, long))
