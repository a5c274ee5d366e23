import contextlib
import hashlib
import io
import itertools
import os
import tracemalloc
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lexaug import corpus, mixture
from lexaug.augment import Task
from lexaug.corpus import read_lines, read_text
from lexaug.errors import FormatError, ScheduleError
from lexaug.mixture import StreamFile, TaskWeights, build_schedule, interleave
from lexaug.sampling import DRAW_BLOCK, derive_rng

from reference_mix import reference_interleave


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
def _mix_inputs(draw, max_items=6):
    """Positive integer shares for a non-empty subset of tasks (normalised to
    weights), a seed, and a non-empty list of items per weighted task."""
    tasks = draw(st.lists(st.sampled_from(list(Task)), min_size=1, max_size=4, unique=True))
    shares = [draw(st.integers(1, 10)) for _ in tasks]
    weights = TaskWeights({t: k / sum(shares) for t, k in zip(tasks, shares)})
    streams = {t: draw(st.lists(st.integers(), min_size=1, max_size=max_items)) for t in tasks}
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

    @settings(max_examples=40, deadline=None)
    @given(_mix_inputs(max_items=40))
    def test_draws_as_the_draw_by_draw_reference(self, inputs):
        # More draws than one block; streams of up to 40 items reshuffle
        # from short blocks.
        weights, seed, streams = inputs
        n = 3 * DRAW_BLOCK
        mixed = interleave(streams, weights, seed)
        assert list(itertools.islice(mixed, n)) == list(itertools.islice(reference_interleave(streams, weights, seed), n))


# Line text with every character the line rules treat specially: "\r",
# ASCII and Unicode whitespace (U+3000, U+0085, U+2028, U+00A0, "\x1c",
# which bytes.strip keeps), and multi-byte UTF-8.
_line_text = st.text(alphabet=["a", "{", "\u00e9", "\u732b", " ", "\t", "\r", "\x0b", "\x1c",
                               "\u3000", "\u0085", "\u2028", "\u00a0"], max_size=8)


def _reference_lines(data: bytes) -> list[bytes]:
    """The lines of ``data`` by the line rules: split at "\n", a final empty
    piece dropped, and one trailing "\r" dropped from each line."""
    pieces = data.split(b"\n")
    if pieces[-1] == b"":
        pieces.pop()
    return [piece.removesuffix(b"\r") for piece in pieces]


def _reference_utf8_error(data: bytes) -> str | None:
    """The error text for the first line of ``data`` that is not UTF-8, each
    line decoded on its own; None if every line decodes."""
    for line_no, line in enumerate(io.BytesIO(data), 1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            return f"line {line_no}: not valid UTF-8: byte {line[exc.start]:#04x} at offset {exc.start} ({exc.reason})"
    return None


@contextlib.contextmanager
def _blocks_of(size: int):
    """Reads of ``size`` bytes, so that blocks cut lines and UTF-8
    sequences, and stream runs of at most ``size`` bytes."""
    with mock.patch.object(corpus, "BLOCK", size), mock.patch.object(mixture, "BLOCK", size):
        yield


class TestStreamFile:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(_line_text, max_size=10), end=st.sampled_from(["", "\n", "\r\n", "\r"]),
           block=st.integers(1, 24))
    def test_keeps_the_lines_the_text_reader_keeps(self, tmp_path, lines, end, block):
        path = tmp_path / "stream.jsonl"
        data = ("\n".join(lines) + end).encode("utf-8")
        path.write_bytes(data)
        expected = _reference_lines(data)
        kept = [line for line in expected if line.decode("utf-8").strip()]
        digests: dict[str, str] = {}
        with _blocks_of(block):
            assert list(read_lines(str(path), digests)) == [line.decode("utf-8") for line in expected]
            assert digests == {str(path): hashlib.sha256(data).hexdigest()}
            assert read_text(str(path)) == data.decode("utf-8")
            digests.clear()
            with StreamFile(str(path), digests) as stream:
                assert digests == {str(path): hashlib.sha256(data).hexdigest()}
                assert len(stream) == len(kept)
                assert list(stream) == kept
                assert list(stream.pick(range(len(stream)))) == kept
                assert list(stream.pick(range(len(stream))[::-1])) == kept[::-1]

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(_line_text, min_size=1, max_size=10), end=st.sampled_from(["", "\n", "\r\n"]),
           bad=st.sampled_from([b"\x80", b"\xc3", b"\xe7\x8c", b"\xed\xa0\x80", b"\xff"]),
           where=st.floats(0, 1), block=st.integers(1, 24))
    def test_a_bad_byte_is_named_as_a_per_line_decode_names_it(self, tmp_path, lines, end, bad, where, block):
        good = ("\n".join(lines) + end).encode("utf-8")
        cut = round(where * len(good))
        data = good[:cut] + bad + good[cut:]
        path = tmp_path / "stream.jsonl"
        path.write_bytes(data)
        expected = _reference_utf8_error(data)
        assert expected is not None
        readers = [lambda: list(read_lines(str(path))), lambda: read_text(str(path)),
                   lambda: StreamFile(str(path)).close()]
        with _blocks_of(block):
            for read in readers:
                with pytest.raises(FormatError) as caught:
                    read()
                assert str(caught.value) == f"{path}:{expected}"

    def test_lines_longer_than_a_block(self, tmp_path):
        lines = [b"x" * 5000, b"", "\u732b".encode() * 3000, b"\x1c", b"y" * 70000]
        path = tmp_path / "stream.jsonl"
        path.write_bytes(b"\r\n".join(lines))
        with StreamFile(str(path)) as stream:
            assert list(stream) == [lines[0], lines[2], lines[4]]

    def test_a_short_read_is_not_the_end(self, tmp_path):
        data = "".join(f'{{"n": {i}, "t": "猫"}}\r\n\n' for i in range(200)).encode()
        path = tmp_path / "stream.jsonl"
        path.write_bytes(data)
        pread = os.pread
        sizes = itertools.cycle([1, 7, 64, 3])  # each read returns at most this many bytes

        def short_pread(fd, size, offset):
            return pread(fd, min(size, next(sizes)), offset)

        digests: dict[str, str] = {}
        kept = [line for line in _reference_lines(data) if line]
        # The open scan, the first pass and the index read in blocks; pick
        # reads each line with one os.pread, and a batch with a short one again.
        with mock.patch.object(os, "pread", short_pread):
            stream = StreamFile(str(path), digests)
            assert digests == {str(path): hashlib.sha256(data).hexdigest()}
            assert list(stream) == kept
            assert len(stream) == len(kept)
            with stream:
                assert list(stream.pick(range(len(stream)))) == kept
                assert list(stream.pick(range(len(stream))[::-1])) == kept[::-1]
        path.write_bytes(data + b'{"n": "\xff"}\n')
        with mock.patch.object(os, "pread", short_pread), pytest.raises(FormatError) as caught:
            StreamFile(str(path))
        assert str(caught.value) == f"{path}:line 401: not valid UTF-8: byte 0xff at offset 7 (invalid start byte)"

    def test_a_line_cut_by_the_end_of_the_file_fails_its_pick(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_bytes(b"".join(b'{"n": %d}\n' % i for i in range(100)))
        with StreamFile(str(path)) as stream:
            assert len(stream) == 100
            with open(path, "r+b") as handle:
                handle.truncate(path.stat().st_size - 3)
            lines = stream.pick(range(100))
            assert list(itertools.islice(lines, 64)) == [b'{"n": %d}' % i for i in range(64)]
            # The last batch holds the cut line: none of it is given.
            with pytest.raises(FormatError, match="stream.jsonl: changed while it was read"):
                next(lines)

    @pytest.mark.parametrize("size, cells", [(2**32 - 1, "I"), (2**32, "q")])
    def test_an_index_takes_4_byte_cells_under_4_gib(self, tmp_path, size, cells):
        path = tmp_path / "stream.jsonl"
        path.write_bytes(b'{"n": 0}\n\n{"n": 1}\n')
        with StreamFile(str(path)) as stream:
            stream._stamp = (size, stream._stamp[1])  # the size it was opened at
            offsets, lengths = stream._index
            assert (offsets.typecode, lengths.typecode) == (cells, cells)
            assert (list(offsets), list(lengths)) == ([0, 10], [8, 8])
            assert list(stream.pick([1, 0])) == [b'{"n": 1}', b'{"n": 0}']

    def test_an_order_takes_4_byte_cells_under_2_to_the_32_lines(self):
        assert (mixture._cells(2**32 - 1), mixture._cells(2**32)) == ("I", "q")
        cycle = mixture._cycle([b"a", b"b", b"c"], derive_rng(1, 0))
        assert sorted(itertools.islice(cycle, 3, 6)) == [b"a", b"b", b"c"]

    @pytest.mark.parametrize("stamp", [-1, 0])
    def test_growth_past_the_stamp_fails_the_index(self, tmp_path, monkeypatch, stamp):
        """Grown past the size it was opened at, a file could hold offsets
        that its cells do not (here 1-byte cells and offsets past 255): its
        index fails as any change does, before a cell is filled."""
        monkeypatch.setattr(mixture, "_cells", lambda bound: "B")
        path = tmp_path / "stream.jsonl"
        path.write_bytes(b'{"n": 0}\n' * 40)
        with StreamFile(str(path)) as stream:
            if stamp:
                stream._stamp = (stream._stamp[0] + stamp, stream._stamp[1])
            else:
                with open(path, "ab") as handle:
                    handle.write(b'{"n": 1}\n')
            with pytest.raises(FormatError, match="stream.jsonl: changed while it was read"):
                len(stream)

    def test_bytes_per_line_of_an_index_and_an_order(self, tmp_path):
        """A stream under 4 GiB indexes each kept line in two 4-byte cells and
        reshuffles it in one more."""
        path = tmp_path / "stream.jsonl"
        path.write_bytes(b"".join(b'{"n": %d}\n' % i for i in range(40_000)))
        with StreamFile(str(path)) as stream:
            cycle = mixture._cycle(stream, derive_rng(1, 0))
            assert sum(1 for _ in itertools.islice(cycle, 40_000)) == 40_000  # the first pass
            derive_rng(2, 0).shuffle(list(range(40_000)))  # caches the draw constants
            tracemalloc.start()
            try:
                next(cycle)  # indexes the stream and shuffles its first order
                traced = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                assert sum(1 for _ in itertools.islice(cycle, 40_000)) == 40_000  # into the second reshuffle
                peak = tracemalloc.get_traced_memory()[1] - traced
            finally:
                tracemalloc.stop()
        # 12.4 bytes per line on Python 3.11 (the cells, their arrays'
        # spare room and a batch of lines), against 24.7 with 8-byte cells.
        # The second reshuffle peaks 1.2 bytes per line above that, against
        # 4.0 when its order is built while the first is still held.
        assert traced / 40_000 < 13
        assert peak / 40_000 < 2

    def test_invalid_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_bytes(b'{"n": 0}\n{"n": "\xff"}\n')
        with pytest.raises(FormatError, match=r"stream.jsonl:line 2: not valid UTF-8: byte 0xff"):
            StreamFile(str(path))

    def test_fifo_is_refused_without_waiting_for_a_writer(self, tmp_path):
        fifo = tmp_path / "stream.fifo"
        os.mkfifo(fifo)
        with pytest.raises(FormatError, match="stream.fifo: not a regular file"):
            StreamFile(str(fifo))

    def test_a_change_is_detected(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_bytes(b'{"n": 0}\n')
        with StreamFile(str(path)) as stream:
            stream.check_unchanged()
            with open(path, "ab") as handle:
                handle.write(b'{"n": 1}\n')
            with pytest.raises(FormatError, match="stream.jsonl: changed while it was read"):
                stream.check_unchanged()

    def test_interleave_draws_the_same_lines_as_from_a_list(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_bytes(b"".join(b'{"n": %d}\r\n\n' % i for i in range(7)))
        weights = build_schedule()
        lines = [b'{"n": %d}' % i for i in range(7)]
        with StreamFile(str(path)) as stream:
            from_file = interleave({Task.TRANSLATION: stream, Task.MASS: stream}, weights, 9)
            from_list = interleave({Task.TRANSLATION: lines, Task.MASS: lines}, weights, 9)
            assert list(itertools.islice(from_file, 100)) == list(itertools.islice(from_list, 100))
