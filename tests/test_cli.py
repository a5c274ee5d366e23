import hashlib
import json
import os
import re
import stat
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import pytest

import lexaug
from lexaug import analysis, cli
from lexaug.cli import main
from lexaug.errors import LexAugError
from lexaug.mixture import StreamFile, interleave

from conftest import write_jsonl


def _lexicon_file(tmp_path, name="panlex.tsv"):
    path = tmp_path / name
    path.write_text(
        "en\tes\tLatn\tcat\tgato\n"
        "en\tfr\tLatn\tcat\tchat\n"
        "en\tes\tLatn\tdog\tperro\n"
        "en\tes\tLatn\tkitten\tgatito\n",
        encoding="utf-8",
    )
    return str(path)


def _mono_file(tmp_path, n=20):
    return write_jsonl(
        tmp_path / "mono.jsonl",
        [
            {"lang": "en", "script": "Latn", "text": f"the cat saw dog number {i}"}
            for i in range(n)
        ],
    )


_AUGMENT = ["augment", "--task", "codeswitch-mono", "--lexicon", "{lex}", "--seed", "1", "--fraction", "1.0"]
_ROW = {"lang": "xx", "direction": "en_to_xx", "source": "a", "hypothesis": "a", "reference": "a"}


class TestAugmentCommand:
    def test_two_runs_are_byte_identical(self, tmp_path):
        corpus = _mono_file(tmp_path)
        lexicon = _lexicon_file(tmp_path)
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            code = main(
                [
                    "augment",
                    "--task", "codeswitch-mono",
                    "--corpus", corpus,
                    "--lexicon", lexicon,
                    "--seed", "7",
                    "--out", str(out),
                ]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_jobs_do_not_change_bytes(self, tmp_path):
        corpus = _mono_file(tmp_path, n=150)
        lexicon = _lexicon_file(tmp_path)
        outputs = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.jsonl"
            code = main(
                [
                    "augment",
                    "--task", "codeswitch-mono",
                    "--corpus", corpus,
                    "--lexicon", lexicon,
                    "--seed", "11",
                    "--jobs", jobs,
                    "--out", str(out),
                ]
            )
            assert code == 0
            outputs[jobs] = out.read_bytes()
        assert outputs["1"] == outputs["2"]

    def test_fraction_routes_records(self, tmp_path):
        corpus = _mono_file(tmp_path, n=50)
        lexicon = _lexicon_file(tmp_path)
        out = tmp_path / "all.jsonl"
        main(
            [
                "augment",
                "--task", "codeswitch-mono",
                "--corpus", corpus,
                "--lexicon", lexicon,
                "--seed", "3",
                "--fraction", "1.0",
                "--out", str(out),
            ]
        )
        lines = out.read_text().splitlines()
        assert len(lines) == 50
        example = json.loads(lines[0])
        assert example["task"] == "codeswitch_mono"
        assert example["source"].startswith("<2codeswitch> <2en> <2Latn> ")

    def test_manifest_written_with_digests(self, tmp_path):
        corpus = _mono_file(tmp_path)
        lexicon = _lexicon_file(tmp_path)
        out = tmp_path / "out.jsonl"
        main(
            [
                "augment",
                "--task", "codeswitch-mono",
                "--corpus", corpus,
                "--lexicon", lexicon,
                "--seed", "7",
                "--out", str(out),
            ]
        )
        manifest = json.loads((tmp_path / "out.jsonl.manifest.json").read_text())
        assert manifest["subcommand"] == "augment"
        assert manifest["config"]["seed"] == 7
        assert manifest["config"]["p_tr"] == 0.4
        expected = hashlib.sha256(out.read_bytes()).hexdigest()
        assert manifest["outputs"][str(out)] == expected
        assert corpus in manifest["inputs"]

    def test_explicit_manifest_path(self, tmp_path):
        corpus = _mono_file(tmp_path)
        lexicon = _lexicon_file(tmp_path)
        manifest_path = tmp_path / "run.manifest.json"
        code = main(
            [
                "augment",
                "--task", "codeswitch-mono",
                "--corpus", corpus,
                "--lexicon", lexicon,
                "--seed", "7",
                "--out", str(tmp_path / "out.jsonl"),
                "--manifest", str(manifest_path),
            ]
        )
        assert code == 0
        assert json.loads(manifest_path.read_text())["subcommand"] == "augment"

    def test_stdout_mode(self, tmp_path, capsys):
        corpus = _mono_file(tmp_path, n=5)
        lexicon = _lexicon_file(tmp_path)
        code = main(
            [
                "augment",
                "--task", "codeswitch-mono",
                "--corpus", corpus,
                "--lexicon", lexicon,
                "--seed", "7",
                "--fraction", "1.0",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert json.loads(lines[0])["task"] == "codeswitch_mono"

    def test_missing_seed_fails(self, tmp_path, capsys):
        corpus = _mono_file(tmp_path)
        lexicon = _lexicon_file(tmp_path)
        code = main(
            ["augment", "--task", "codeswitch-mono", "--corpus", corpus, "--lexicon", lexicon]
        )
        assert code == 1
        assert "--seed" in capsys.readouterr().err

    def test_config_file_supplies_values_flags_override(self, tmp_path):
        corpus = _mono_file(tmp_path)
        lexicon = _lexicon_file(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 7, "p_tr": 0.9, "fraction": 1.0}))
        out = tmp_path / "out.jsonl"
        code = main(
            [
                "augment",
                "--task", "codeswitch-mono",
                "--corpus", corpus,
                "--lexicon", lexicon,
                "--config", str(config),
                "--p-tr", "0.2",
                "--out", str(out),
            ]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "out.jsonl.manifest.json").read_text())
        assert manifest["config"]["seed"] == 7  # from config file
        assert manifest["config"]["p_tr"] == 0.2  # flag wins
        assert manifest["config"]["fraction"] == 1.0

    def test_abort_mode_fails_on_malformed_line(self, tmp_path, capsys):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text('{"lang": "en", "script": "Latn", "text": "ok"}\nnot json\n')
        lexicon = _lexicon_file(tmp_path)
        code = main(
            [
                "augment",
                "--task", "codeswitch-mono",
                "--corpus", str(corpus),
                "--lexicon", lexicon,
                "--seed", "1",
                "--fraction", "1.0",
                "--out", str(tmp_path / "x.jsonl"),
            ]
        )
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_skip_mode_continues_with_warning(self, tmp_path, capsys):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text(
            '{"lang": "en", "script": "Latn", "text": "ok here"}\n'
            "not json\n"
            '{"lang": "en", "script": "Latn", "text": "also fine"}\n'
        )
        lexicon = _lexicon_file(tmp_path)
        out = tmp_path / "x.jsonl"
        code = main(
            [
                "augment",
                "--task", "codeswitch-mono",
                "--corpus", str(corpus),
                "--lexicon", lexicon,
                "--seed", "1",
                "--fraction", "1.0",
                "--on-error", "skip",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 2
        assert "skipped" in capsys.readouterr().err

    def test_skip_mode_counts_bad_pair_ids(self, tmp_path, capsys):
        good = {"src": {"lang": "en", "script": "Latn", "text": "the cat"}, "tgt": {"lang": "es", "script": "Latn", "text": "el gato"}}
        corpus = write_jsonl(tmp_path / "p.jsonl", [good, {"id": 3.0, **good}, {"id": True, **good}, good])
        out = tmp_path / "p.out.jsonl"
        args = ["augment", "--task", "codeswitch-parallel", "--corpus", corpus, "--lexicon", _lexicon_file(tmp_path),
                "--seed", "1", "--fraction", "1.0", "--out", str(out)]
        assert main(args + ["--on-error", "skip"]) == 0
        assert [json.loads(line)["origin_id"] for line in out.read_text().splitlines()] == [0, 3]
        assert capsys.readouterr().err.count("pair id must be an integer") == 2
        assert json.loads((tmp_path / "p.out.jsonl.manifest.json").read_text())["config"]["skipped_records"] == 2
        assert main(args + ["--on-error", "abort"]) == 1
        assert "line 2: pair id must be an integer, got float" in capsys.readouterr().err

    def test_lang_with_whitespace_is_a_bad_line(self, tmp_path, capsys):
        good = {"lang": "en", "script": "Latn", "text": "the cat"}
        corpus = write_jsonl(tmp_path / "m.jsonl", [good, {**good, "lang": "e n"}, good])
        out = tmp_path / "x.jsonl"
        args = ["augment", "--task", "codeswitch-mono", "--corpus", corpus, "--lexicon", _lexicon_file(tmp_path),
                "--seed", "1", "--fraction", "1.0", "--out", str(out)]
        assert main(args) == 1
        assert f"error: {corpus}:line 2: lang must be non-empty with no whitespace" in capsys.readouterr().err
        assert main(args + ["--on-error", "skip"]) == 0
        assert [json.loads(line)["origin_id"] for line in out.read_text().splitlines()] == [0, 2]
        assert json.loads((tmp_path / "x.jsonl.manifest.json").read_text())["config"]["skipped_records"] == 1

    def test_parallel_task_reads_pairs(self, tmp_path, parallel_corpus_file):
        lexicon = _lexicon_file(tmp_path)
        out = tmp_path / "p.jsonl"
        code = main(
            [
                "augment",
                "--task", "glowup-parallel",
                "--corpus", parallel_corpus_file,
                "--lexicon", lexicon,
                "--seed", "5",
                "--fraction", "1.0",
                "--out", str(out),
            ]
        )
        assert code == 0
        examples = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(e["task"] == "glowup_parallel" for e in examples)
        assert all(e["source"].startswith("<2glowup> <2es> <2Latn> ") for e in examples)


class TestTokenPairsCommand:
    def test_renders_all_entries(self, tmp_path, capsys):
        lexicon = _lexicon_file(tmp_path)
        code = main(["token-pairs", "--lexicon", lexicon])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        first = json.loads(lines[0])
        assert first["source"] == "<2translation> <2es> <2Latn> cat"
        assert first["target"] == "gato"

    def test_langs_filter(self, tmp_path, capsys):
        lexicon = _lexicon_file(tmp_path)
        code = main(["token-pairs", "--lexicon", lexicon, "--langs", "fr"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["target"] == "chat"


class TestControlTokenInLexicon:
    """A lexicon term holding a control token or a tag fails the run with one
    error line naming the file line, and no output is written."""

    @pytest.mark.parametrize("line", ["en\tes\tLatn\tcat\t<mask> gato", "en\tes\tLatn\t<2es> cat\tgato"])
    @pytest.mark.parametrize("command", ["augment", "token-pairs"])
    def test_run_fails_naming_the_line(self, tmp_path, capsys, command, line):
        lexicon = tmp_path / "lex.tsv"
        lexicon.write_text(f"en\tes\tLatn\tdog\tperro\n{line}\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        args = [command, "--lexicon", str(lexicon), "--out", str(out)]
        if command == "augment":
            args += ["--task", "codeswitch-mono", "--corpus", _mono_file(tmp_path), "--seed", "1",
                     "--p-tr", "1", "--fraction", "1"]
        assert main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {lexicon}:line 2: lexicon term ")
        assert "contains reserved control token" in err[0]
        assert not out.exists()


class TestMixCommand:
    def test_schedule_printed(self, capsys):
        code = main(["mix", "--mono-aug", "codeswitch", "--token-pairs"])
        assert code == 0
        schedule = json.loads(capsys.readouterr().out)
        assert schedule == {
            "token_pair": 0.05,
            "translation": 0.38,
            "mass": 0.285,
            "codeswitch_mono": 0.285,
        }

    def test_interleaves_streams(self, tmp_path):
        t_stream = tmp_path / "t.jsonl"
        m_stream = tmp_path / "m.jsonl"
        t_stream.write_text("\n".join(f'{{"id": "t{i}"}}' for i in range(5)) + "\n")
        m_stream.write_text("\n".join(f'{{"id": "m{i}"}}' for i in range(5)) + "\n")
        out = tmp_path / "mixed.jsonl"
        code = main(
            [
                "mix",
                "--streams", f"translation={t_stream}",
                "--streams", f"mass={m_stream}",
                "--seed", "3",
                "--count", "200",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 200
        t_share = sum(1 for line in lines if '"t' in line) / 200
        assert 0.25 < t_share < 0.55

    def test_lone_carriage_return_does_not_split_a_line(self, tmp_path):
        stream = tmp_path / "t.jsonl"
        stream.write_bytes(b'{"task": "translation",\r "n": 0}\r\n')
        weights = tmp_path / "weights.json"
        weights.write_text('{"translation": 1}', encoding="utf-8")
        out = tmp_path / "mixed.jsonl"
        code = main(["mix", "--weights", str(weights), "--streams", f"translation={stream}",
                     "--seed", "1", "--count", "3", "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == b'{"task": "translation",\r "n": 0}\n' * 3

    @staticmethod
    def _one_stream_mix(tmp_path, stream, *extra):
        """Run ``mix`` with ``stream`` as the only (translation) stream."""
        weights = tmp_path / "weights.json"
        weights.write_text('{"translation": 1}', encoding="utf-8")
        return main(["mix", "--weights", str(weights), "--streams", f"translation={stream}", "--seed", "1", *extra])

    def test_memory_does_not_grow_with_stream_size(self, tmp_path):
        # Streams of 2k and 20k lines of about 400 bytes; --count covers both
        # so each is read through and reshuffled. Holding the lines would
        # cost over 400 bytes per extra line; an index costs 16 to 24.
        def traced_peak(n_lines):
            stream = tmp_path / f"stream-{n_lines}.jsonl"
            stream.write_text("".join(f'{{"n": {i}, "text": "{"x" * 380}"}}\n' for i in range(n_lines)))
            tracemalloc.start()
            try:
                assert self._one_stream_mix(tmp_path, stream, "--count", "21000", "--out", str(tmp_path / "out")) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = traced_peak(2_000), traced_peak(20_000)
        assert (large - small) / 18_000 < 64, (small, large)

    def test_stdout_gets_the_stream_bytes(self, tmp_path, capsysbinary):
        stream = tmp_path / "t.jsonl"
        stream.write_bytes('{"text": "caf\u00e9 \u732b"}\r\n'.encode())
        assert self._one_stream_mix(tmp_path, stream, "--count", "2") == 0
        assert capsysbinary.readouterr().out == '{"text": "caf\u00e9 \u732b"}\n'.encode() * 2

    def test_invalid_utf8_leaves_no_output(self, tmp_path, capsys):
        stream = tmp_path / "t.jsonl"
        stream.write_bytes(b'{"n": 0}\n{"n": "\xe9"}\n')
        out = tmp_path / "mixed.jsonl"
        assert self._one_stream_mix(tmp_path, stream, "--count", "3", "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {stream}:line 2: not valid UTF-8: byte 0xe9 at offset 7 (invalid continuation byte)\n"
        assert not list(tmp_path.glob("mixed.jsonl*"))

    def test_blank_stream_is_empty(self, tmp_path, capsys):
        stream = tmp_path / "t.jsonl"
        stream.write_bytes("\r\n \t\n\u3000\n\x1c".encode())
        assert self._one_stream_mix(tmp_path, stream, "--count", "3") == 1
        assert capsys.readouterr().err == "error: stream for task 'translation' is empty\n"

    def test_fifo_stream_is_one_error_line(self, tmp_path, capsys):
        fifo = tmp_path / "t.fifo"
        os.mkfifo(fifo)
        assert self._one_stream_mix(tmp_path, fifo, "--count", "3") == 1
        assert capsys.readouterr().err == f"error: {fifo}: not a regular file; stream lines are read by offset\n"

    def test_platform_without_pread_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        stream = tmp_path / "t.jsonl"
        stream.write_bytes(b'{"n": 0}\n')
        monkeypatch.delattr(os, "pread")
        assert self._one_stream_mix(tmp_path, stream, "--count", "3") == 1
        assert capsys.readouterr().err == "error: mix --streams reads stream lines with os.pread, which this platform lacks\n"

    def test_stdin_stream_is_one_error_line(self, tmp_path):
        weights = tmp_path / "weights.json"
        weights.write_text('{"translation": 1}', encoding="utf-8")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "lexaug.cli", "mix", "--weights", str(weights),
             "--streams", "translation=/dev/stdin", "--seed", "1", "--count", "2"],
            input=b'{"n": 0}\n', capture_output=True, env=env, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr == b"error: /dev/stdin: not a regular file; stream lines are read by offset\n"

    def test_stream_changed_during_the_run_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        stream = tmp_path / "t.jsonl"
        stream.write_bytes(b'{"n": 0}\n{"n": 1}\n')

        def appending(streams, weights, seed):
            mixed = interleave(streams, weights, seed)
            yield next(mixed)
            with open(stream, "ab") as handle:
                handle.write(b'{"n": 2}\n')
            yield from mixed

        monkeypatch.setattr(cli, "interleave", appending)
        out = tmp_path / "mixed.jsonl"
        assert self._one_stream_mix(tmp_path, stream, "--count", "5", "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {stream}: changed while it was read\n"
        assert not out.exists() and not list(tmp_path.glob("mixed.jsonl*"))

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd to count open files")
    def test_every_stream_is_closed(self, tmp_path, capsys):
        good = tmp_path / "good.jsonl"
        good.write_bytes(b'{"n": 0}\n')
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"n": "\xff"}\n')
        blank = tmp_path / "blank.jsonl"
        blank.write_bytes(b"\n")
        fifo = tmp_path / "t.fifo"
        os.mkfifo(fifo)
        before = len(os.listdir("/proc/self/fd"))
        runs = [
            (["--streams", f"translation={good}", "--streams", f"mass={good}"], 0),
            (["--streams", f"translation={good}", "--streams", f"mass={blank}"], 1),
            (["--streams", f"translation={good}", "--streams", f"mass={bad}"], 1),
            (["--streams", f"translation={good}", "--streams", f"mass={fifo}"], 1),
            (["--streams", f"translation={good}"], 1),  # no mass stream
        ]
        for streams, code in runs:
            assert main(["mix", *streams, "--seed", "1", "--count", "4", "--out", str(tmp_path / "out")]) == code
            assert len(os.listdir("/proc/self/fd")) == before, streams

    def test_manifest_digests_the_bytes_that_were_read(self, tmp_path, monkeypatch):
        # The path is replaced after the scan; the open stream still reads
        # the old file, so the run succeeds and mixes only the old lines.
        stream = tmp_path / "t.jsonl"
        read = b'{"n": 0}\n{"n": 1}\n'
        stream.write_bytes(read)
        replacement = tmp_path / "replacement.jsonl"
        replacement.write_bytes(b'{"n": 2}\n')
        check = StreamFile.check_unchanged

        def replaced_then_checked(self):
            os.replace(replacement, self.path)
            check(self)

        monkeypatch.setattr(StreamFile, "check_unchanged", replaced_then_checked)
        out = tmp_path / "mixed.jsonl"
        assert self._one_stream_mix(tmp_path, stream, "--count", "4", "--out", str(out)) == 0
        assert set(out.read_bytes().splitlines()) == set(read.splitlines())
        manifest = json.loads((tmp_path / "mixed.jsonl.manifest.json").read_text())
        assert manifest["inputs"][str(stream)] == hashlib.sha256(read).hexdigest()

    def test_streams_require_seed(self, tmp_path, capsys):
        stream = tmp_path / "t.jsonl"
        stream.write_text('{"id": 1}\n')
        code = main(["mix", "--streams", f"translation={stream}", "--count", "5"])
        assert code == 1
        assert "--seed" in capsys.readouterr().err


class TestScoreCommand:
    def test_identical_files_score_100(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("the cat sat\na dog barked\n")
        ref.write_text("the cat sat\na dog barked\n")
        code = main(["score", "--hyp", str(hyp), "--ref", str(ref)])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["score"] == 100.0
        assert result["pairs"] == 2

    def test_sentence_scores(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("cat sat\n")
        ref.write_text("cat sit\n")
        code = main(["score", "--hyp", str(hyp), "--ref", str(ref), "--sentence"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["sentence_scores"] == [pytest.approx(37.7778)]

    def test_lone_carriage_return_does_not_split_a_line(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_bytes(b"a\rb\nc\n")
        ref.write_bytes(b"a b\nc\n")
        assert main(["score", "--hyp", str(hyp), "--ref", str(ref), "--sentence"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["pairs"] == 2
        assert result["sentence_scores"] == [100.0, 100.0]

    def test_crlf_scores_as_lf(self, tmp_path, capsys):
        text = "the cat sat\na dog barked\nnothing\n"
        (tmp_path / "ref.txt").write_bytes(b"the cat sits\na dog barks\nnothing here\n")
        results = []
        for name, newline in (("lf.txt", "\n"), ("crlf.txt", "\r\n")):
            (tmp_path / name).write_bytes(text.replace("\n", newline).encode())
            assert main(["score", "--hyp", str(tmp_path / name), "--ref", str(tmp_path / "ref.txt"), "--sentence"]) == 0
            results.append(capsys.readouterr().out)
        assert results[0] == results[1]
        assert json.loads(results[0])["pairs"] == 3

    def test_length_mismatch(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("one\ntwo\n")
        ref.write_text("one\n")
        assert main(["score", "--hyp", str(hyp), "--ref", str(ref)]) == 1
        assert "differ in length" in capsys.readouterr().err


def _eval_rows_file(tmp_path):
    return write_jsonl(
        tmp_path / "rows.jsonl",
        [
            {
                "lang": "xx",
                "direction": "en_to_xx",
                "source": "The kitten lies",
                "hypothesis": "kitten lie on floor",
                "reference": "The kitten lies",
            },
            {
                "lang": "xx",
                "direction": "en_to_xx",
                "source": "A Puma eats hot chip",
                "hypothesis": "Crocodile charge they phone",
                "reference": "A Puma eats hot chip",
            },
        ],
    )


class TestDiagnoseCommand:
    def test_table_and_json_report(self, tmp_path, capsys):
        rows = _eval_rows_file(tmp_path)
        out = tmp_path / "report.json"
        code = main(["diagnose", "--rows", rows, "--out", str(out)])
        assert code == 0
        assert "repetition" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["total"] == 2

    def test_lone_carriage_return_does_not_split_a_row(self, tmp_path, capsys):
        rows = tmp_path / "rows.jsonl"
        rows.write_bytes(b'{"lang": "xx",\r "direction": "en_to_xx", "source": "a", "hypothesis": "a",'
                         b' "reference": "a"}\r\n')
        out = tmp_path / "report.json"
        assert main(["diagnose", "--rows", str(rows), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["total"] == 1


class TestHitRateCommand:
    def test_kitten_puma(self, tmp_path, capsys):
        rows = _eval_rows_file(tmp_path)
        tokens = tmp_path / "tokens.txt"
        tokens.write_text("kitten\npuma\n")
        code = main(["hit-rate", "--rows", rows, "--tokens", str(tokens)])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["rate"] == 0.5
        assert result["rows_with_token"] == 2


class TestRegressCommand:
    def test_report(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        lines = ["lang,delta_chrf,n_panlex,n_gatitos,n_mono,class"]
        for i in range(10):
            panlex, gatitos, mono = 100 * i, 40 * i * i, 500 * ((i * 7) % 13)
            delta = 0.01 * panlex + 0.03 * gatitos + 0.0001 * mono + 1.0
            lines.append(f"l{i},{delta},{panlex},{gatitos},{mono},URL")
        table.write_text("\n".join(lines) + "\n")
        code = main(["regress", "--table", str(table)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["coefficients"]["n_gatitos"] == pytest.approx(0.03, abs=1e-6)
        assert report["n_rows"] == 10
        assert sorted(report) == ["coefficients", "intercept", "n_rows", "per_class", "r_squared", "residual_se"]
        assert report["per_class"] == {"URL": {"langs": 10, "mean_delta_chrf": pytest.approx(39.975)}}

    def test_four_class_hand_fixture(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text(
            "lang,delta_chrf,n_panlex,n_gatitos,n_mono,class\n"
            "u1,7.0,10,5,100,URL\nu2,1.0,20,6,200,URL\nl1,2.0,0,0,0,LRL\nm1,-1.0,0,0,0,MRL\nh1,0.5,0,0,0,HRL\n"
        )
        assert main(["regress", "--table", str(table)]) == 0
        captured = capsys.readouterr()
        # Two URL rows are too few to fit; the per-class table is still reported.
        assert "warning: no fit: need at least 5 URL rows, got 2" in captured.err
        assert json.loads(captured.out) == {
            "per_class": {
                "HRL": {"langs": 1, "mean_delta_chrf": 0.5},
                "LRL": {"langs": 1, "mean_delta_chrf": 2.0},
                "MRL": {"langs": 1, "mean_delta_chrf": -1.0},
                "URL": {"langs": 2, "mean_delta_chrf": 4.0},
            }
        }

    def test_only_fit_errors_name_the_table(self, tmp_path, capsys, monkeypatch):
        # A ValueError from inside the fit is a fault of the program, not of
        # the table, so it is not reported against the table's path.
        table = tmp_path / "table.csv"
        table.write_text(_TABLE + "".join(f"u{i},{i},{i},{i * i},{7 * i % 5},URL\n" for i in range(6)))

        def broken(rows):
            raise ValueError("broken fit")

        monkeypatch.setattr(analysis, "regress_delta_chrf", broken)
        assert main(["regress", "--table", str(table)]) == 1
        assert capsys.readouterr().err == "error: broken fit\n"


_NUMPY_PROBE = """
import sys
from lexaug.cli import build_parser, main
lexicon, mono, rows, tokens, table, out = sys.argv[1:]
commands = [
    ["augment", "--task", "codeswitch-mono", "--corpus", mono, "--lexicon", lexicon, "--seed", "1",
     "--out", out + "/augment.jsonl"],
    ["token-pairs", "--lexicon", lexicon, "--out", out + "/pairs.jsonl"],
    ["mix", "--streams", "mass=" + mono, "--streams", "translation=" + mono, "--seed", "1", "--count", "5",
     "--out", out + "/mix.jsonl"],
    ["score", "--hyp", tokens, "--ref", tokens, "--out", out + "/score.json"],
    ["diagnose", "--rows", rows, "--out", out + "/diagnose.json"],
    ["hit-rate", "--rows", rows, "--tokens", tokens, "--out", out + "/hit-rate.json"],
    ["regress", "--table", table, "--out", out + "/regress.json"],
    ["lexicon-stats", "--lexicon", lexicon, "--out", out + "/lexicon-stats.json"],
]
assert {argv[0] for argv in commands} == set(build_parser()._subparsers._group_actions[0].choices)
for argv in commands:
    assert main(argv) == 0, argv
print("numpy imported:", "numpy" in sys.modules)
"""


def _python(*args: str) -> str:
    """The stdout of ``python *args`` with the checkout's src on the path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_no_command_imports_numpy(tmp_path):
    rows = write_jsonl(tmp_path / "rows.jsonl", [_ROW, {**_ROW, "hypothesis": "b"}])
    tokens = tmp_path / "tokens.txt"
    tokens.write_text("a\nthe cat sat\n")
    lines = ["lang,delta_chrf,n_panlex,n_gatitos,n_mono,class"]
    lines += [f"l{i},{i * 0.5 + (i % 3)},{100 * i},{7 * i * i},{(i * 7) % 13},URL" for i in range(8)]
    table = tmp_path / "table.csv"
    table.write_text("\n".join(lines) + "\n")
    args = [_lexicon_file(tmp_path), _mono_file(tmp_path), rows, tokens, table, tmp_path]
    assert _python("-c", _NUMPY_PROBE, *map(str, args)).splitlines()[-1] == "numpy imported: False"
    assert json.loads((tmp_path / "regress.json").read_text())["n_rows"] == 8


# Modules only some runs need: each must load when that run starts, not when
# the CLI is imported.
_DEFERRED = {"importlib.metadata", "multiprocessing", "lexaug.analysis"}

_IMPORT_PROBE = """
import json, sys
from lexaug import cli
at_import = sorted(sys.modules)
table, hyp, out = sys.argv[1:]
cli.BATCH_SIZE = 1  # two lines make two batches, so --jobs 2 starts a pool
assert cli.main(["regress", "--table", table, "--out", out + "/regress.json"]) == 0
assert cli.main(["score", "--hyp", hyp, "--ref", hyp, "--jobs", "2", "--out", out + "/score.json"]) == 0
print(json.dumps({"at_import": at_import, "after_runs": sorted(sys.modules)}))
"""


def test_cli_import_defers_what_only_some_runs_use(tmp_path):
    table = tmp_path / "table.csv"
    table.write_text(_TABLE + "".join(f"u{i},{i * 0.5 + i % 3},{100 * i},{7 * i * i},{7 * i % 13},URL\n" for i in range(8)))
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("the cat sat\na dog\n")
    # Site .pth files may import modules of their own, so compare with an
    # interpreter that imports nothing.
    bare = set(_python("-c", "import sys; print(*sys.modules, sep='\\n')").split())
    probe = json.loads(_python("-c", _IMPORT_PROBE, str(table), str(hyp), str(tmp_path)))
    at_import = set(probe["at_import"]) - bare
    assert "lexaug.cli" in at_import
    assert _DEFERRED & at_import == set()
    # regress and a pooled score still find what they import.
    assert {"lexaug.analysis", "multiprocessing"} <= set(probe["after_runs"])
    assert json.loads((tmp_path / "regress.json").read_text())["n_rows"] == 8
    assert json.loads((tmp_path / "score.json").read_text())["pairs"] == 2


def _pyproject_version() -> str:
    """``version`` in pyproject.toml's ``[project]`` table, read without
    tomllib, which Python 3.10 lacks."""
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    (version,) = re.findall(r'^version\s*=\s*"([^"]+)"\s*$', project, re.MULTILINE)
    return version


class TestVersion:
    def test_version_flag_prints_the_package_version(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == f"lexaug {lexaug.__version__}\n"
        assert lexaug.__version__ == _pyproject_version()

    def test_manifest_records_the_package_version(self, tmp_path):
        out = tmp_path / "stats.json"
        assert main(["lexicon-stats", "--lexicon", _lexicon_file(tmp_path), "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "stats.json.manifest.json").read_text())
        assert manifest["version"] == lexaug.__version__ == _pyproject_version()


class TestLexiconStatsCommand:
    def test_counts(self, tmp_path, capsys):
        lexicon = _lexicon_file(tmp_path)
        code = main(["lexicon-stats", "--lexicon", lexicon, "--lang", "es"])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 4
        assert stats["pair_counts"]["en-es"] == 3
        assert stats["per_source"] == {"panlex": 3}

    def test_multiple_lexica_merge(self, tmp_path, capsys):
        first = _lexicon_file(tmp_path, "panlex.tsv")
        second = tmp_path / "gatitos.tsv"
        second.write_text("en\tes\tLatn\tcat\tgato\nen\tes\tLatn\tbird\tpajaro\n")
        code = main(["lexicon-stats", "--lexicon", first, "--lexicon", str(second)])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 5  # one duplicate collapsed


class TestConfigListSettings:
    """Repeatable settings may be one string or a list in a config file."""

    def test_lexicon_string(self, tmp_path):
        lexicon = _lexicon_file(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lexicon": lexicon, "seed": 7, "fraction": 1.0}))
        out = tmp_path / "out.jsonl"
        code = main(
            ["augment", "--task", "codeswitch-mono", "--corpus", _mono_file(tmp_path),
             "--config", str(config), "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "out.jsonl.manifest.json").read_text())
        assert lexicon in manifest["inputs"]
        assert manifest["config"]["lexicon"] == [lexicon]

    def test_streams_string(self, tmp_path):
        stream = tmp_path / "t.jsonl"
        stream.write_text('{"id": 1}\n{"id": 2}\n')
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps({"translation": 1.0}))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"streams": f"translation={stream}", "seed": 3, "count": 4}))
        out = tmp_path / "mixed.jsonl"
        code = main(["mix", "--weights", str(weights), "--config", str(config), "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 4

    def test_langs_list(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"langs": ["fr"]}))
        code = main(["token-pairs", "--lexicon", _lexicon_file(tmp_path), "--config", str(config)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [json.loads(line)["target"] for line in lines] == ["chat"]

    def test_non_string_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lexicon": [1, 2]}))
        assert main(["lexicon-stats", "--config", str(config)]) == 1
        assert "list of strings" in capsys.readouterr().err


class TestAtomicOutput:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_run_leaves_no_output_or_manifest(self, tmp_path, capsys, jobs):
        texts = [f"the cat saw dog number {i}" for i in range(2000)]
        texts[1500] = "the cat saw a <mask> here"
        corpus = write_jsonl(
            tmp_path / "mono.jsonl", [{"lang": "en", "script": "Latn", "text": t} for t in texts]
        )
        out = tmp_path / "out.jsonl"
        code = main(
            ["augment", "--task", "codeswitch-mono", "--corpus", corpus,
             "--lexicon", _lexicon_file(tmp_path), "--seed", "1", "--fraction", "1.0",
             "--on-error", "abort", "--jobs", jobs, "--out", str(out)]
        )
        assert code == 1
        assert "<mask>" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mono.jsonl", "panlex.tsv"]


class TestEmitLines:
    @pytest.mark.parametrize("n", [0, 1, 3, 4, 7])
    def test_one_write_per_batch(self, monkeypatch, n):
        monkeypatch.setattr(cli, "BATCH_SIZE", 3)
        writes = []
        monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=writes.append))
        cli._emit_lines((f"line {i}" for i in range(n)), None)
        assert writes == ["".join(f"line {i}\n" for i in range(k, min(k + 3, n))) for k in range(0, n, 3)]


class TestOutputIsNotARegularFile:
    """An existing --out or manifest path that is not a regular file fails
    before anything is read or written; the output would replace it."""

    @pytest.mark.parametrize("flag", ["--out", "--manifest"])
    def test_fifo_is_one_error_line_and_stays_a_fifo(self, tmp_path, capsys, flag):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        assert main(["mix", "--mono-aug", "codeswitch", flag, str(fifo)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {flag} {fifo} is not a regular file, and an output would replace it; write to stdout to stream"]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)


class TestOutputNamesAnInput:
    """An --out or --manifest that is one of the run's input files fails
    before anything is read or written, and leaves the input as it was."""

    def _run(self, tmp_path, argv):
        for name, text in (("hyp.txt", "the cat sat\n"), ("ref.txt", "the cat sits\n"), ("t.jsonl", '{"id": "t0"}\n')):
            (tmp_path / name).write_text(text)
        files = {"lex": _lexicon_file(tmp_path), "mono": _mono_file(tmp_path), "tmp": str(tmp_path),
                 "hyp": str(tmp_path / "hyp.txt"), "ref": str(tmp_path / "ref.txt"), "t": str(tmp_path / "t.jsonl")}
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        code = main([arg.format(**files) for arg in argv])
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        return code, files, before, after

    @pytest.mark.parametrize(
        "argv,flag,out,path",
        [
            pytest.param(["score", "--hyp", "{hyp}", "--ref", "{ref}", "--out", "{hyp}"], "--out", "{hyp}", "{hyp}",
                         id="score-out-hyp"),
            pytest.param(["score", "--hyp", "{hyp}", "--ref", "{ref}", "--out", "{tmp}/s.json", "--manifest", "{ref}"],
                         "--manifest", "{ref}", "{ref}", id="score-manifest-ref"),
            pytest.param(_AUGMENT + ["--corpus", "{mono}", "--out", "{mono}"], "--out", "{mono}", "{mono}",
                         id="augment-out-corpus"),
            pytest.param(_AUGMENT + ["--corpus", "{mono}", "--out", "{tmp}/./panlex.tsv"], "--out",
                         "{tmp}/./panlex.tsv", "{lex}", id="augment-out-lexicon"),
            pytest.param(["mix", "--streams", "translation={t}", "--streams", "mass={mono}", "--seed", "1",
                          "--count", "4", "--out", "{t}"], "--out", "{t}", "{t}", id="mix-out-stream"),
        ],
    )
    def test_one_error_line_and_inputs_unchanged(self, tmp_path, capsys, argv, flag, out, path):
        code, files, before, after = self._run(tmp_path, argv)
        assert code == 1
        out, path = out.format(**files), path.format(**files)
        assert capsys.readouterr().err.splitlines() == [
            f"error: {flag} {out} is the input file {path}; an output may not replace an input"]
        assert after == before

    def test_symlinked_output_is_the_same_file(self, tmp_path, capsys):
        (tmp_path / "link.jsonl").symlink_to(tmp_path / "mono.jsonl")
        code, files, before, after = self._run(tmp_path, _AUGMENT + ["--corpus", "{mono}", "--out", "{tmp}/link.jsonl"])
        assert code == 1
        assert "is the input file" in capsys.readouterr().err
        assert after == before

    def test_manifest_may_not_replace_the_output(self, tmp_path, capsys):
        code, files, before, after = self._run(
            tmp_path, ["score", "--hyp", "{hyp}", "--ref", "{ref}", "--out", "{tmp}/s.json", "--manifest", "{tmp}/s.json"])
        assert code == 1
        out = f"{tmp_path}/s.json"
        assert capsys.readouterr().err.splitlines() == [f"error: --manifest {out} is the --out file {out}"]
        assert after == before

    def test_distinct_output_runs(self, tmp_path, capsys):
        code, files, before, after = self._run(
            tmp_path, ["score", "--hyp", "{hyp}", "--ref", "{ref}", "--out", "{tmp}/hyp.txt.json"])
        assert code == 0
        assert {name: after[name] for name in before} == before


class TestSurrogateText:
    """A lone surrogate escape in corpus JSON is a bad line: it names the
    file and line, and --on-error skip skips and counts it."""

    def _corpus(self, tmp_path, task):
        # json.dumps writes each surrogate as an escape, "\ud800".
        if task == "codeswitch-mono":
            objs = [{"lang": "en", "script": "Latn", "text": t} for t in ("the cat", "a \ud800 cat", "the dog")]
        else:
            objs = [{"src": {"lang": "en", "script": "Latn", "text": "the cat"},
                     "tgt": {"lang": "es", "script": "Latn", "text": t}} for t in ("el gato", "x \udc00", "y")]
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
        assert "\\ud" in path.read_text()
        return str(path)

    @pytest.mark.parametrize("task", ["codeswitch-mono", "glowup-parallel"])
    def test_skip_counts_the_line(self, tmp_path, capsys, task):
        corpus = self._corpus(tmp_path, task)
        out = tmp_path / "out.jsonl"
        code = main(["augment", "--task", task, "--corpus", corpus, "--lexicon", _lexicon_file(tmp_path),
                     "--seed", "1", "--fraction", "1.0", "--on-error", "skip", "--out", str(out)])
        assert code == 0
        assert [json.loads(line)["origin_id"] for line in out.read_text().splitlines()] == [0, 2]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"warning: skipped {corpus}:line 2: text holds the lone surrogate U+D")
        manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
        assert manifest["config"]["skipped_records"] == 1

    def test_abort_names_the_line(self, tmp_path, capsys):
        corpus = self._corpus(tmp_path, "codeswitch-mono")
        code = main(["augment", "--task", "codeswitch-mono", "--corpus", corpus, "--lexicon",
                     _lexicon_file(tmp_path), "--seed", "1", "--fraction", "1.0", "--out", str(tmp_path / "o.jsonl")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {corpus}:line 2: text holds the lone surrogate U+D800, which UTF-8 cannot encode"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "panlex.tsv"]


class TestScoringPool:
    """score, diagnose and hit-rate give the same bytes and the same errors
    at every --jobs, whether the batches run here or in a pool."""

    @pytest.fixture(autouse=True)
    def small_batches(self, monkeypatch):
        monkeypatch.setattr(cli, "BATCH_SIZE", 3)

    def _rows(self, tmp_path, bad_line=None):
        rows = [{**_ROW, "hypothesis": f"a cat {i}", "reference": f"the cat {i % 4}", "source": f"a cat {i}"}
                for i in range(20)]
        lines = [json.dumps(row) for row in rows]
        lines[5] = ""
        if bad_line:
            lines[bad_line - 1] = json.dumps({**_ROW, "reference": ""})
        path = tmp_path / "rows.jsonl"
        path.write_text("\n".join(lines) + "\n")
        (tmp_path / "tokens.txt").write_text("cat\n")
        return str(path)

    COMMANDS = {
        "diagnose": ["diagnose", "--rows", "{rows}"],
        "hit-rate": ["hit-rate", "--rows", "{rows}", "--tokens", "{tokens}"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_bad_row_in_a_late_batch_is_the_same_error(self, tmp_path, capsys, command):
        rows = self._rows(tmp_path, bad_line=17)
        errors = []
        for jobs in ("1", "2"):
            argv = [arg.format(rows=rows, tokens=tmp_path / "tokens.txt") for arg in self.COMMANDS[command]]
            assert main([*argv, "--jobs", jobs, "--out", str(tmp_path / "out.json")]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            errors.append(err)
            assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.jsonl", "tokens.txt"]
        assert errors[0] == errors[1] == f"error: {rows}:line 17: reference must be non-empty\n"

    def test_first_bad_row_wins(self, tmp_path, capsys):
        rows = self._rows(tmp_path, bad_line=17)
        lines = (tmp_path / "rows.jsonl").read_text().splitlines()
        lines[1] = "[1]"
        (tmp_path / "rows.jsonl").write_text("\n".join(lines) + "\n")
        for jobs in ("1", "2"):
            assert main(["diagnose", "--rows", rows, "--jobs", jobs]) == 1
            assert capsys.readouterr().err == f"error: {rows}:line 2: eval row is not a JSON object\n"

    @pytest.mark.parametrize("command", sorted(COMMANDS) + ["score"])
    def test_jobs_do_not_change_bytes(self, tmp_path, capsys, command):
        rows = self._rows(tmp_path)
        hyp, ref = tmp_path / "hyp.txt", tmp_path / "ref.txt"
        hyp.write_text("".join(f"a cat {i}\n" for i in range(20)))
        ref.write_text("".join(f"the cat {i % 4}\n" for i in range(20)))
        argv = self.COMMANDS.get(command, ["score", "--hyp", str(hyp), "--ref", str(ref), "--sentence"])
        outputs = []
        for jobs in ("1", "2", "3"):
            out = tmp_path / f"{command}{jobs}.json"
            assert main([*(a.format(rows=rows, tokens=tmp_path / "tokens.txt") for a in argv), "--jobs", jobs,
                         "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_default_is_every_usable_core(self):
        for command in ("score", "diagnose", "hit-rate"):
            assert cli.build_parser().parse_args([command]).jobs == len(os.sched_getaffinity(0))
        assert cli.build_parser().parse_args(["augment"]).jobs == 1

    def test_without_fork_default_is_one_and_more_is_an_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_FORK", False)
        assert cli.build_parser().parse_args(["score"]).jobs == 1
        rows = self._rows(tmp_path)
        assert main(["diagnose", "--rows", rows, "--out", str(tmp_path / "out.json")]) == 0
        assert main(["diagnose", "--rows", rows, "--jobs", "2", "--out", str(tmp_path / "two.json")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: --jobs 2 forks worker processes, which this platform cannot"]
        assert not (tmp_path / "two.json").exists()


class TestMapBatches:
    @pytest.fixture(autouse=True)
    def small_batches(self, monkeypatch):
        monkeypatch.setattr(cli, "BATCH_SIZE", 2)

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
    def test_results_in_batch_order(self, jobs, n):
        results = list(cli._map_batches(lambda batch: batch, range(n), jobs))
        assert results == [list(range(i, min(i + 2, n))) for i in range(0, n, 2)]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("n,workers", [(2, False), (3, True)])
    def test_one_batch_runs_here(self, jobs, n, workers):
        results = list(cli._map_batches(lambda batch: (os.getpid(), batch), range(n), jobs))
        assert [batch for _, batch in results] == [[0, 1], [2]][: len(results)]
        assert any(pid != os.getpid() for pid, _ in results) == (workers and jobs > 1)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("fail_at", [1, 2, 5])
    def test_read_error_comes_after_earlier_results(self, jobs, fail_at):
        def items():
            for i in range(8):
                if i == fail_at:
                    raise LexAugError(f"bad item {i}")
                yield i

        results = cli._map_batches(lambda batch: batch, items(), jobs)
        seen = []
        with pytest.raises(LexAugError, match=f"bad item {fail_at}"):
            for batch in results:
                seen.append(batch)
        assert seen == [[0, 1], [2, 3], [4, 5]][: fail_at // 2]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batch_error_beats_a_later_read_error(self, jobs):
        def items():
            yield from range(3)
            raise LexAugError("bad read")

        def run(batch):
            if 0 in batch:
                raise LexAugError("bad batch")
            return batch

        with pytest.raises(LexAugError, match="bad batch"):
            list(cli._map_batches(run, items(), jobs))


class TestRecordErrors:
    """A record that its task cannot augment is skipped and counted under
    --on-error skip, and names its id when it aborts the run."""

    CASES = [
        pytest.param("codeswitch-mono", "the cat saw a <mask> here", "SentinelCollisionError", id="sentinel"),
        pytest.param("glowup-mono", "?!", "EmptyInputError", id="no-token"),
    ]

    def _run(self, tmp_path, task, bad_text, on_error, jobs):
        texts = [f"the cat saw dog number {i}" for i in range(600)]
        texts[400] = bad_text
        corpus = write_jsonl(
            tmp_path / "mono.jsonl", [{"lang": "en", "script": "Latn", "text": t} for t in texts]
        )
        out = tmp_path / f"out{jobs}.jsonl"
        code = main(
            ["augment", "--task", task, "--corpus", corpus, "--lexicon", _lexicon_file(tmp_path),
             "--seed", "1", "--fraction", "1.0", "--on-error", on_error, "--jobs", jobs,
             "--out", str(out)]
        )
        return code, out

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("task,bad_text,error", CASES)
    def test_skip_drops_and_counts_the_record(self, tmp_path, capsys, task, bad_text, error, jobs):
        code, out = self._run(tmp_path, task, bad_text, "skip", jobs)
        assert code == 0
        ids = [json.loads(line)["origin_id"] for line in out.read_text().splitlines()]
        assert ids == [i for i in range(600) if i != 400]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"warning: skipped record 400: {error}: ")
        manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
        assert manifest["config"]["skipped_records"] == 1

    @pytest.mark.parametrize("task,bad_text,error", CASES)
    def test_skip_output_and_warnings_do_not_depend_on_jobs(self, tmp_path, capsys, task, bad_text, error):
        results = []
        for jobs in ("1", "2"):
            code, out = self._run(tmp_path, task, bad_text, "skip", jobs)
            assert code == 0
            results.append((out.read_bytes(), capsys.readouterr().err))
        assert results[0] == results[1]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("task,bad_text,error", CASES)
    def test_abort_names_the_record(self, tmp_path, capsys, task, bad_text, error, jobs):
        code, out = self._run(tmp_path, task, bad_text, "abort", jobs)
        assert code == 1
        assert f"error: record 400: {error}: " in capsys.readouterr().err
        assert not out.exists()

    def test_lone_carriage_return_keeps_record_ids(self, tmp_path, capsys):
        # Line 1 ends in "\r \n"; the <mask> record is on line 2, so its id is 1.
        corpus = tmp_path / "mono.jsonl"
        corpus.write_bytes(b'{"lang": "en", "script": "Latn", "text": "the cat"}\r \n'
                           b'{"lang": "en", "script": "Latn", "text": "the cat saw a <mask> here"}\n')
        code = main(["augment", "--task", "codeswitch-mono", "--corpus", str(corpus),
                     "--lexicon", _lexicon_file(tmp_path), "--seed", "1", "--fraction", "1.0"])
        assert code == 1
        assert "error: record 1: SentinelCollisionError: " in capsys.readouterr().err


class TestConfigKeys:
    def test_unknown_keys_rejected(self, tmp_path, capsys):
        lexicon = ["--lexicon", _lexicon_file(tmp_path)]
        augment = ["augment", "--task", "codeswitch-mono", "--corpus", _mono_file(tmp_path), "--seed", "1", *lexicon]
        (tmp_path / "hyp.txt").write_text("a cat\n", encoding="utf-8")
        score = ["score", "--hyp", str(tmp_path / "hyp.txt"), "--ref", str(tmp_path / "hyp.txt")]
        cases = [
            (augment, {"p-tr": 0.9, "seeed": 3}, "['p-tr', 'seeed']"),
            (augment, {"sentinels": {"mask_token": "<blank>"}}, "['sentinels']"),
            (["token-pairs", *lexicon], {"sentinels": {"mask_token": "<blank>"}}, "['sentinels']"),
            (score, {"metric": "chrf"}, "['metric']"),
        ]
        config = tmp_path / "config.json"
        out = tmp_path / "out.jsonl"
        for argv, keys, unknown in cases:
            config.write_text(json.dumps(keys))
            code = main(argv + ["--config", str(config), "--out", str(out)])
            assert code == 1
            err = capsys.readouterr().err
            assert f"unknown config keys {unknown}" in err
            assert not out.exists()

    def test_bad_on_error_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"on_error": "ignore"}))
        out = tmp_path / "out.jsonl"
        code = main(
            ["augment", "--task", "codeswitch-mono", "--corpus", _mono_file(tmp_path),
             "--lexicon", _lexicon_file(tmp_path), "--seed", "1", "--config", str(config),
             "--out", str(out)]
        )
        assert code == 1
        assert f"{config}: on_error must be one of ['abort', 'skip'], got 'ignore'" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_from_config(self, tmp_path):
        manifest = tmp_path / "run.manifest.json"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"manifest": str(manifest)}))
        out = tmp_path / "stats.json"
        code = main(
            ["lexicon-stats", "--lexicon", _lexicon_file(tmp_path), "--config", str(config),
             "--out", str(out)]
        )
        assert code == 0
        assert json.loads(manifest.read_text())["subcommand"] == "lexicon-stats"
        assert not (tmp_path / "stats.json.manifest.json").exists()


_CONFIG_CASES = [
    pytest.param("augment", {"p_tr": [1]}, "p_tr must be a number in [0, 1], got [1]", id="p_tr-list"),
    pytest.param("augment", {"jobs": 0.5}, "jobs must be an integer >= 1, got 0.5", id="jobs-fraction"),
    pytest.param("augment", {"jobs": 0}, "jobs must be an integer >= 1, got 0", id="jobs-zero"),
    pytest.param("score", {"jobs": 0}, "jobs must be an integer >= 1, got 0", id="score-jobs-zero"),
    pytest.param("diagnose", {"jobs": 1.5}, "jobs must be an integer >= 1, got 1.5", id="diagnose-jobs-fraction"),
    pytest.param("augment", {"seed": True}, "seed must be an integer in [0, 18446744073709551615], got True", id="seed-bool"),
    pytest.param("augment", {"seed": "x"}, "seed must be an integer in [0, 18446744073709551615], got 'x'", id="seed-text"),
    pytest.param("augment", {"sampling": "gauss"}, "sampling must be one of ['binomial', 'uniform'], got 'gauss'",
                 id="sampling-choice"),
    pytest.param("augment", {"task": "nope"}, "task must be one of ['codeswitch-mono', ", id="task-choice"),
    pytest.param("augment", {"lexicon": [1, 2]}, "lexicon must be a string or a list of strings, got [1, 2]",
                 id="lexicon-numbers"),
    pytest.param("augment", {"corpus": 5}, "corpus must be a string, got 5", id="corpus-number"),
    pytest.param("mix", {"token_pairs": "false"}, "token_pairs must be true or false, got 'false'",
                 id="token_pairs-text"),
    pytest.param("mix", {"count": -1}, "count must be an integer >= 0, got -1", id="count-negative"),
    pytest.param("score", {"sentence": 1}, "sentence must be true or false, got 1", id="sentence-number"),
    pytest.param("augment", {"seed": -1}, "seed must be an integer in [0, 18446744073709551615], got -1",
                 id="seed-negative"),
    pytest.param("mix", {"seed": 2**64}, "seed must be an integer in [0, 18446744073709551615], got 18446744073709551616",
                 id="mix-seed-too-large"),
    pytest.param("augment", {"p_tr": -0.1}, "p_tr must be a number in [0, 1], got -0.1", id="p_tr-negative"),
    pytest.param("augment", {"fraction": 3}, "fraction must be a number in [0, 1], got 3", id="fraction-above-one"),
    pytest.param("augment", {"mask_fraction": 9}, "mask_fraction must be a number in [0, 1], got 9",
                 id="mask_fraction-above-one"),
]


class TestConfigValues:
    """A config value is checked as its flag's would be; flags beat it."""

    @pytest.mark.parametrize("subcommand,values,message", _CONFIG_CASES)
    def test_malformed_value_is_one_error_line(self, tmp_path, capsys, subcommand, values, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        out = tmp_path / "out.json"
        code = main([subcommand, "--config", str(config), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {config}: {message}"), err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["augment", "--jobs", "0"], "argument --jobs: must be an integer >= 1"),
            (["augment", "--jobs", "-3"], "argument --jobs: must be an integer >= 1"),
            (["score", "--jobs", "0"], "argument --jobs: must be an integer >= 1"),
            (["hit-rate", "--jobs", "x"], "argument --jobs: must be an integer >= 1"),
            (["mix", "--count", "-1"], "argument --count: must be an integer >= 0"),
            (["augment", "--seed", "-1"], "argument --seed: must be an integer in [0, 18446744073709551615]"),
            (["mix", "--seed", str(2**64)], "argument --seed: must be an integer in [0, 18446744073709551615]"),
            (["augment", "--p-tr", "1.5"], "argument --p-tr: must be a number in [0, 1]"),
            (["augment", "--fraction", "3"], "argument --fraction: must be a number in [0, 1]"),
            (["augment", "--fraction", "nan"], "argument --fraction: must be a number in [0, 1]"),
            (["augment", "--mask-fraction", "9"], "argument --mask-fraction: must be a number in [0, 1]"),
        ],
        ids=["jobs-zero", "jobs-negative", "score-jobs-zero", "hit-rate-jobs-text", "count-negative", "seed-negative",
             "mix-seed-too-large", "p_tr-above-one",
             "fraction-above-one", "fraction-nan", "mask_fraction-above-one"],
    )
    def test_counts_out_of_range_are_usage_errors(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_lexicon_flag_replaces_config_list(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lexicon": [str(tmp_path / "missing.tsv"), str(tmp_path / "gone.tsv")]}))
        lexicon = _lexicon_file(tmp_path)
        out = tmp_path / "stats.json"
        code = main(["lexicon-stats", "--config", str(config), "--lexicon", lexicon, "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["entries"] == 4
        assert json.loads((tmp_path / "stats.json.manifest.json").read_text())["config"]["lexicon"] == [lexicon]

    def test_no_token_pairs_flag_beats_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"token_pairs": True, "mono_aug": "codeswitch"}))
        assert main(["mix", "--config", str(config)]) == 0
        assert "token_pair" in json.loads(capsys.readouterr().out)
        assert main(["mix", "--config", str(config), "--no-token-pairs"]) == 0
        assert json.loads(capsys.readouterr().out) == {"translation": 0.4, "mass": 0.3, "codeswitch_mono": 0.3}

    def test_no_sentence_flag_beats_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sentence": True}))
        (tmp_path / "hyp.txt").write_text("a cat\n", encoding="utf-8")
        (tmp_path / "ref.txt").write_text("the cat\n", encoding="utf-8")
        argv = ["score", "--hyp", str(tmp_path / "hyp.txt"), "--ref", str(tmp_path / "ref.txt"), "--config", str(config)]
        assert main(argv) == 0
        assert "sentence_scores" in json.loads(capsys.readouterr().out)
        assert main(argv + ["--no-sentence"]) == 0
        assert "sentence_scores" not in json.loads(capsys.readouterr().out)

    def test_string_value_is_read_as_flag_text(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": "7", "p_tr": "0.25", "fraction": 1}))
        out = tmp_path / "out.jsonl"
        code = main(["augment", "--task", "codeswitch-mono", "--corpus", _mono_file(tmp_path),
                     "--lexicon", _lexicon_file(tmp_path), "--config", str(config), "--out", str(out)])
        assert code == 0
        effective = json.loads((tmp_path / "out.jsonl.manifest.json").read_text())["config"]
        assert (effective["seed"], effective["p_tr"], effective["fraction"]) == (7, 0.25, 1.0)
        assert type(effective["seed"]) is int and type(effective["fraction"]) is float

    def test_repeated_langs_filter_like_a_comma_list(self, tmp_path, capsys):
        lexicon = tmp_path / "multi.tsv"
        lexicon.write_text(
            "de\tes\tLatn\thund\tperro\nfr\tbm\tLatn\tchat\tjakuma\n"
            "en\tes\tLatn\tcat\tgato\nde\tlus\tLatn\tkatze\tui\n",
            encoding="utf-8",
        )
        outputs = []
        for langs in (["--langs", "en", "--langs", "fr"], ["--langs", "en,fr"]):
            assert main(["token-pairs", "--lexicon", str(lexicon)] + langs) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert [json.loads(line)["target"] for line in outputs[0].splitlines()] == ["jakuma", "gato"]


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["frobnicate"])
        assert exc_info.value.code == 2

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = main(["lexicon-stats", "--lexicon", str(tmp_path / "nope.tsv")])
        assert code == 1
        assert "error" in capsys.readouterr().err


_TABLE = "lang,delta_chrf,n_panlex,n_gatitos,n_mono,class\n"


@pytest.mark.parametrize(
    "argv,suffix,content,message",
    [
        pytest.param(_AUGMENT + ["--corpus", "{mono}", "--config", "{bad}"], ".json", '{"sentinels": "x"}',
                     "{bad}: unknown config keys ['sentinels']", id="sentinels-string"),
        pytest.param(_AUGMENT + ["--corpus", "{mono}", "--config", "{bad}"], ".json", '{"sentinels": {"bogus": 1}}',
                     "{bad}: unknown config keys ['sentinels']", id="sentinels-unknown-field"),
        pytest.param(["token-pairs", "--lexicon", "{lex}", "--config", "{bad}"], ".json",
                     '{"sentinels": {"lang_tag_template": "<{script}>"}}',
                     "{bad}: unknown config keys ['sentinels']", id="sentinels-template"),
        pytest.param(["token-pairs", "--lexicon", "{lex}", "--config", "{bad}"], ".json",
                     '{"sentinels": {"lang_tag_template": "{lang}"}}',
                     "{bad}: unknown config keys ['sentinels']", id="sentinels-bare-tag"),
        pytest.param(["token-pairs", "--lexicon", "{lex}", "--config", "{bad}"], ".json",
                     '{"sentinels": {"task_tokens": {"token_pair": "<2pair>"}}}',
                     "{bad}: unknown config keys ['sentinels']", id="sentinels-token-pair"),
        pytest.param(_AUGMENT + ["--corpus", "{bad}"], ".jsonl", '{"lang": "e n", "script": "Latn", "text": "a cat"}\n',
                     "{bad}:line 1: lang must be non-empty with no whitespace", id="lang-with-space"),
        pytest.param(["token-pairs", "--lexicon", "{bad}"], ".tsv", "en\tes\tLa tn\tcat\tgato\n",
                     "{bad}:line 1: tgt_script must be non-empty with no whitespace", id="script-with-space"),
        pytest.param(["diagnose", "--rows", "{bad}"], ".jsonl", "[1]\n",
                     "{bad}:line 1: eval row is not a JSON object", id="row-not-object"),
        pytest.param(["diagnose", "--rows", "{bad}"], ".jsonl", json.dumps({**_ROW, "hypothesis": 1}),
                     "{bad}:line 1: hypothesis must be a string, got int", id="hypothesis-not-string"),
        pytest.param(["hit-rate", "--rows", "{bad}", "--tokens", "{bad}"], ".jsonl", json.dumps({**_ROW, "lang": None}),
                     "{bad}:line 1: lang must be a string, got NoneType", id="lang-not-string"),
        pytest.param(["mix", "--weights", "{bad}"], ".json", "[1]", "weights must be a JSON object, got list",
                     id="weights-list"),
        pytest.param(["mix", "--weights", "{bad}"], ".json", '{"mass": [1]}', "weight for mass must be a number, got [1]",
                     id="weight-list"),
        pytest.param(["mix", "--weights", "{bad}"], ".json", '{"mass": NaN}',
                     "weight for mass must be finite and non-negative, got nan", id="weight-nan"),
        pytest.param(["mix", "--weights", "{bad}"], ".json", '{"mass": true, "translation": 0}',
                     "weight for mass must be a number, got True", id="weight-bool"),
        pytest.param(["mix", "--weights", "{bad}"], ".json", '{"bogus": 1}',
                     "weights file: unknown task 'bogus'; allowed: translation, mass, codeswitch_mono,", id="weights-unknown-task"),
        pytest.param(["mix", "--streams", "bogus={bad}", "--seed", "1", "--count", "1"], ".jsonl", "{}\n",
                     "--streams: unknown task 'bogus'; allowed: translation, mass, codeswitch_mono,", id="streams-unknown-task"),
        pytest.param(["mix", "--streams", "mass={bad}", "--streams", "mass={mono}", "--streams", "translation={bad}",
                      "--seed", "1", "--count", "6"], ".jsonl", "{}\n",
                     "--streams: task 'mass' given twice ({bad}, {mono})", id="streams-task-twice"),
        pytest.param(["augment", "--config", "{bad}"], ".json", '{"seed": 1,}',
                     "{bad}: invalid JSON: Expecting property name enclosed in double quotes", id="config-invalid-json"),
        pytest.param(["mix", "--weights", "{bad}"], ".json", '{"mass": 1', "{bad}: invalid JSON: Expecting", id="weights-invalid-json"),
        pytest.param(["regress", "--table", "{bad}"], ".csv", _TABLE + "u1,1.0\n",
                     "{bad}:line 2: row has fewer than 6 fields", id="short-row"),
        pytest.param(["regress", "--table", "{bad}"], ".csv", _TABLE + "u1,1.0,x,1,1,URL\n",
                     "{bad}:line 2: invalid literal for int()", id="non-numeric-count"),
        pytest.param(["regress", "--table", "{bad}"], ".csv", _TABLE + "u1,1,1,1,1,URL\nu2,1,1,1,1,URL\nu1,2,1,1,1,URL\n",
                     "{bad}:line 4: language 'u1' is also on line 2", id="duplicate-lang"),
        pytest.param(["regress", "--table", "{bad}"], ".csv", _TABLE + "u1,nan,1,1,1,URL\n",
                     "{bad}:line 2: delta_chrf must be finite, got nan", id="delta-nan"),
        pytest.param(["regress", "--table", "{bad}"], ".csv", _TABLE + "u1,1,1,1,1,URL\nh1,inf,1,1,1,HRL\n",
                     "{bad}:line 3: delta_chrf must be finite, got inf", id="delta-inf"),
        pytest.param(["regress", "--table", "{bad}"], ".csv", _TABLE + "u1,-Infinity,1,1,1,URL\n",
                     "{bad}:line 2: delta_chrf must be finite, got -inf", id="delta-minus-inf"),
        pytest.param(["regress", "--table", "{bad}"], ".csv",
                     _TABLE + "".join(f"u{i},{(-1) ** i}e308,{3 * i},{i * i},{7 * i % 5},URL\n" for i in range(8)),
                     "{bad}: a fitted coefficient or the residual variance is too large for a float", id="fit-overflow"),
        pytest.param(["regress", "--table", "{bad}"], ".csv",
                     _TABLE + "".join(f"u{i},{i % 3},{i},{2 * i},{i * i},URL\n" for i in range(6)),
                     "{bad}: predictor 'n_panlex' is linearly dependent on the other predictors", id="fit-dependent"),
        pytest.param(["hit-rate", "--rows", "{bad}", "--tokens", "{bad}"], ".txt", "\n \t\n\n",
                     "{bad}: names no token: every line is blank", id="tokens-all-blank"),
        pytest.param(["diagnose", "--rows", "{bad}"], ".jsonl", "", "{bad}: holds no eval row", id="rows-empty"),
        pytest.param(["hit-rate", "--rows", "{bad}", "--tokens", "{lex}"], ".jsonl", "", "{bad}: holds no eval row",
                     id="hit-rate-rows-empty"),
        pytest.param(["hit-rate", "--rows", "{bad}", "--tokens", "{lex}"], ".jsonl", "\n \t\n\u3000\n",
                     "{bad}: holds no eval row", id="hit-rate-rows-blank"),
        pytest.param(["token-pairs", "--lexicon", "{bad}", "--langs", " , "], ".tsv", "en\tes\tLatn\tcat\tgato\n",
                     "--langs names no language, got ' , '", id="langs-names-none"),
        pytest.param(["score", "--hyp", "{lex}", "--ref", "{bad}"], ".txt", "a\nb\n\nd\n",
                     "{bad}:line 3: reference is empty", id="empty-reference"),
        # Content given as bytes is written as is; a bad byte aborts even under --on-error skip.
        pytest.param(_AUGMENT + ["--corpus", "{bad}", "--on-error", "skip"], ".jsonl",
                     b'{"lang": "en", "script": "Latn", "text": "a cat"}\n{"lang": "en", "text": "\xff"}\n',
                     "{bad}:line 2: not valid UTF-8: byte 0xff", id="corpus-not-utf8"),
        pytest.param(["token-pairs", "--lexicon", "{bad}"], ".tsv", b"en\tes\tLatn\tcat\tgato\nen\tes\tLatn\tdog\tp\xe9rro\n",
                     "{bad}:line 2: not valid UTF-8: byte 0xe9", id="lexicon-not-utf8"),
        pytest.param(["augment", "--config", "{bad}"], ".json", b'{"seed": "\xff"}',
                     "{bad}:line 1: not valid UTF-8: byte 0xff", id="config-not-utf8"),
        pytest.param(["score", "--hyp", "{lex}", "--ref", "{bad}"], ".txt", b"a\nb\n\xffc\nd\n",
                     "{bad}:line 3: not valid UTF-8: byte 0xff", id="reference-not-utf8"),
        pytest.param(["regress", "--table", "{bad}"], ".csv", _TABLE.encode() + b"u\xff,1,1,1,1,URL\n",
                     "{bad}:line 2: not valid UTF-8: byte 0xff", id="table-not-utf8"),
    ],
)
def test_malformed_input_is_one_error_line(tmp_path, capsys, argv, suffix, content, message):
    bad = tmp_path / f"bad{suffix}"
    if isinstance(content, bytes):
        bad.write_bytes(content)
    else:
        bad.write_text(content, encoding="utf-8")
    files = {"bad": str(bad), "lex": _lexicon_file(tmp_path), "mono": _mono_file(tmp_path)}
    assert main([arg.format(**files) for arg in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message.format(**files)}"), err


class TestInputsReadOnce:
    """Each input is read once, and the manifest's digests are of the bytes
    that were read and written: the manifest opens no other file."""

    @pytest.mark.parametrize("argv", [
        pytest.param(_AUGMENT + ["--corpus", "{pipe}", "--out", "{tmp}/out.jsonl"], id="augment-corpus"),
        pytest.param(["score", "--hyp", "{pipe}", "--ref", "{mono}", "--out", "{tmp}/out.jsonl"], id="score-hyp"),
    ])
    def test_piped_input_digest_is_of_the_bytes_read(self, tmp_path, argv):
        data = Path(_mono_file(tmp_path)).read_bytes()
        assert len(data) < 1 << 16  # the write below cannot block
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, data)
            os.close(write_end)
            files = {"pipe": f"/dev/fd/{read_end}", "mono": _mono_file(tmp_path), "lex": _lexicon_file(tmp_path),
                     "tmp": str(tmp_path)}
            assert main([arg.format(**files) for arg in argv]) == 0
        finally:
            os.close(read_end)
        manifest = json.loads((tmp_path / "out.jsonl.manifest.json").read_text())
        assert manifest["inputs"][files["pipe"]] == hashlib.sha256(data).hexdigest()
        assert manifest["outputs"] == {f"{tmp_path}/out.jsonl": hashlib.sha256((tmp_path / "out.jsonl").read_bytes()).hexdigest()}

    @pytest.fixture
    def opened(self, monkeypatch):
        """Every file opened since the last ``clear``, by path, with the file
        objects ``open`` gave (None for ``os.open``)."""
        opened: dict[str, list] = {}
        real_open, real_os_open = open, os.open

        def counting_open(path, *args, **kwargs):
            handle = real_open(path, *args, **kwargs)
            opened.setdefault(str(path), []).append(handle)
            return handle

        def counting_os_open(path, *args, **kwargs):
            opened.setdefault(str(path), []).append(None)
            return real_os_open(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        monkeypatch.setattr(os, "open", counting_os_open)
        return opened

    @pytest.mark.parametrize("argv", [
        pytest.param(_AUGMENT + ["--corpus", "{mono}", "--lexicon", "{lex2}"], id="augment"),
        pytest.param(["token-pairs", "--lexicon", "{lex}"], id="token-pairs"),
        pytest.param(["lexicon-stats", "--lexicon", "{lex}", "--lexicon", "{lex2}"], id="lexicon-stats"),
        pytest.param(["mix", "--streams", "translation={mono}", "--streams", "mass={rows}", "--seed", "1",
                      "--count", "9"], id="mix"),
        pytest.param(["score", "--hyp", "{mono}", "--ref", "{mono}"], id="score"),
        pytest.param(["diagnose", "--rows", "{rows}"], id="diagnose"),
        pytest.param(["hit-rate", "--rows", "{rows}", "--tokens", "{lex}"], id="hit-rate"),
        pytest.param(["regress", "--table", "{table}"], id="regress"),
    ])
    def test_each_file_is_opened_once(self, tmp_path, opened, argv):
        rows = write_jsonl(tmp_path / "rows.jsonl", [_ROW] * 3)
        table = tmp_path / "table.csv"
        table.write_text(_TABLE)
        files = {"mono": _mono_file(tmp_path), "lex": _lexicon_file(tmp_path), "lex2": _lexicon_file(tmp_path, "b.tsv"),
                 "rows": rows, "table": str(table)}
        out = tmp_path / "out"
        opened.clear()
        assert main([arg.format(**files) for arg in argv] + ["--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "out.manifest.json").read_text())
        inputs = set(manifest["inputs"])
        assert inputs and inputs <= set(files.values())
        tmp = f".{os.getpid()}.tmp"
        # "score --hyp X --ref X" reads X once per flag.
        assert {path: len(handles) for path, handles in opened.items()} == {
            **{path: 1 + (argv[0] == "score") for path in inputs}, f"{out}{tmp}": 1, f"{out}.manifest.json{tmp}": 1}
        assert manifest["outputs"] == {str(out): hashlib.sha256(out.read_bytes()).hexdigest()}
        for path in inputs:
            assert manifest["inputs"][path] == hashlib.sha256(Path(path).read_bytes()).hexdigest()

    @pytest.mark.parametrize("argv", [
        # The first record fails its task with batches of the corpus read ahead.
        pytest.param(_AUGMENT + ["--corpus", "{long}"], id="augment-task-fails"),
        pytest.param(_AUGMENT + ["--corpus", "{bad_line}"], id="augment-line-fails"),
        pytest.param(["score", "--hyp", "{long}", "--ref", "{lex}"], id="score-lengths-differ"),
    ])
    def test_an_aborted_run_closes_its_inputs(self, tmp_path, opened, argv):
        texts = ["a <mask> cat"] + [f"the cat saw dog number {i}" for i in range(3000)]
        long = write_jsonl(tmp_path / "long.jsonl", [{"lang": "en", "script": "Latn", "text": t} for t in texts])
        assert os.path.getsize(long) > 1 << 17
        bad_line = tmp_path / "bad.jsonl"
        bad_line.write_text(Path(long).read_text().replace("number 1000}", "number 1000", 1))
        files = {"long": long, "bad_line": str(bad_line), "lex": _lexicon_file(tmp_path)}
        opened.clear()
        assert main([arg.format(**files) for arg in argv] + ["--out", str(tmp_path / "out")]) == 1
        assert opened and all(handle.closed for handles in opened.values() for handle in handles if handle)
