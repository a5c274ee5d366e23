"""Tests of the benchmark itself: tiny smoke runs, the failure accounting,
the tracer's self-time arithmetic and the generator's determinism.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run
import tracer
import workloads

RUN = str(Path(run.__file__).resolve())
NAMES = sorted(workloads.WORKLOADS)


def _bench(*args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc, proc.stdout.strip().splitlines()


def test_smoke_every_workload_end_to_end():
    proc, lines = _bench("--workload", "all", "--seed", "3", "--seconds", "0", "--size", "tiny", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {f"{w}.{m}" for w in NAMES for m in run.END_TO_END}
    assert set(result["metrics"]) == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_repeat_for_the_same_seed():
    counts = []
    for _ in range(2):
        proc, lines = _bench("--workload", "all", "--seed", "4", "--seconds", "0", "--size", "tiny", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(lines[-1])
        assert set(result["metrics"]) == {f"{w}.{m}" for w in NAMES for m in run.PER_LAYER}
        counts.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] in ("count", "B")})
    assert counts[0] == counts[1]
    assert counts[0]["codeswitch-mono.corpus.tokenize_calls"] > 0
    assert counts[0]["glowup-phrase.lexicon.has_term_calls"] > 0
    assert counts[0]["mix.mixture.reshuffles"] > 0
    assert counts[0]["score.metrics.ngrams"] > 0


def _corrupt_middle_line(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").split("\n")
    middle = len(lines) // 2
    lines[middle] = lines[middle][: len(lines[middle]) // 2]
    path.write_text("\n".join(lines), encoding="utf-8")


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_output_line_counts_as_failure(name, tmp_path):
    workload = workloads.WORKLOADS[name](tmp_path, 5, "tiny")
    runner = run.Runner(workload, tmp_path)
    runner.run("full")
    assert (runner.attempted, runner.failed) == (len(workload.commands("full")), 0), runner.errors
    cmd = workload.commands("full")[0]
    _corrupt_middle_line(cmd.out)
    log = tmp_path / "command0.log"
    runner.account(cmd, 0, ("full", 0), log)  # against the verified digest
    fresh = run.Runner(workload, tmp_path)
    fresh.account(cmd, 0, ("full", 0), log)  # through the full check
    fresh.account(cmd, 1, ("full", 1), log)  # a non-zero exit
    assert runner.failed == 1 and fresh.failed == 2
    assert fresh.attempted == 2


def test_run_without_program_fails_without_result(tmp_path):
    shutil.copytree(Path(RUN).parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mix", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", NAMES)
def test_generator_same_seed_same_bytes(name, tmp_path):
    def snapshot(seed, sub):
        gen.generate(name, seed, tmp_path / sub, "tiny")
        return {p.name: p.read_bytes() for p in sorted((tmp_path / sub).iterdir())}

    first = snapshot(8, "a")
    assert first == snapshot(8, "b")
    assert first != snapshot(9, "c")


def test_self_time_subtracts_child_spans(tmp_path):
    t = tracer.Tracer()

    def leaf():
        return sum(range(20_000))

    traced_leaf = t.wrap("leaf", leaf)
    traced_outer = t.wrap("outer", lambda: [traced_leaf() for _ in range(3)])
    traced_outer()
    traced_outer()
    t.save(str(tmp_path / "spans"))
    spans = tracer.summarize(str(tmp_path / "spans"))["spans"]
    assert spans["leaf"]["calls"] == 6 and spans["outer"]["calls"] == 2
    assert spans["leaf"]["self_s"] == pytest.approx(spans["leaf"]["s"])
    assert spans["outer"]["self_s"] == pytest.approx(spans["outer"]["s"] - spans["leaf"]["s"])
    assert 0 < spans["outer"]["self_s"] < spans["outer"]["s"]
