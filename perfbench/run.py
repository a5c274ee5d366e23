"""lexaug benchmark: end-to-end metrics of the CLI, and per-layer metrics
from a traced run, over seeded synthetic inputs.

Run from the root of a lexaug checkout:

    python3 perfbench/run.py --workload codeswitch-mono --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

It prints one line per metric, then, as its last line, a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. It exits 1 when an
output check fails, and 1 without printing a result when no lexaug source
tree is found. Metric definitions and the reason for each workload are in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".bench_work"
MIN_REPS = 3  # full passes per run, however long they take
SETUP_REPS = 3  # set-up passes per run
COMMAND_TIMEOUT = 150  # seconds before a command is killed (and counted as failed)
if not (SRC / "lexaug" / "cli.py").is_file() or not (TESTS / "reference_chrf.py").is_file():
    sys.exit("perfbench: no lexaug checkout around perfbench/ (src/lexaug or tests/reference_chrf.py missing)")
# The checks use the library and the test suite's reference chrf scorer.
sys.path[1:1] = [str(SRC), str(TESTS)]

import gen  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Runs like the installed ``lexaug`` console script, then records the peak
# RSS of this process image and of its reaped pool workers. The wait4 figure
# cannot be used for that: at exec the kernel counts the parent's RSS too.
ENTRY = """
import os, resource, sys
from lexaug.cli import main
try:
    code = main()
finally:
    with open("/proc/self/status") as status:
        own = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open(os.environ["PERFBENCH_PEAK_RSS"], "w") as out:
        out.write(str(max(own, workers)))
sys.exit(code)
"""

END_TO_END = {
    "records_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "cpu_s": "s",
    "ok_frac": "frac",
}
PER_LAYER = {
    "corpus.tokenize_s": "s",
    "corpus.tokenize_calls": "count",
    "corpus.parse_s": "s",
    "corpus.records": "count",
    "corpus.branch_s": "s",
    "corpus.augment_frac": "frac",
    "lexicon.load_s": "s",
    "lexicon.entries": "count",
    "lexicon.has_term_calls": "count",
    "lexicon.has_term_hit_frac": "frac",
    "lexicon.lookup_s": "s",
    "augment.find_translatable_s": "s",
    "augment.spans_per_record": "count",
    "augment.no_span_frac": "frac",
    "augment.task_self_s": "s",
    "augment.ensure_clean_s": "s",
    "augment.hints_per_record": "count",
    "sampling.rng_s": "s",
    "sampling.select_s": "s",
    "sampling.choose_s": "s",
    "sampling.swap_frac": "frac",
    "cli.serialize_s": "s",
    "cli.write_s": "s",
    "cli.out_bytes": "B",
    "cli.manifest_s": "s",
    "cli.self_s": "s",
    "cli.jobs_speedup": "ratio",
    "mixture.read_s": "s",
    "mixture.interleave_s": "s",
    "mixture.reshuffles": "count",
    "metrics.corpus_chrf_s": "s",
    "metrics.sentence_chrf_s": "s",
    "metrics.ngrams": "count",
    "metrics.diagnose_s": "s",
    "metrics.hit_rate_s": "s",
    "trace.overhead_frac": "frac",
}
# Per-layer metrics that are inclusive seconds of one span name.
SPAN_SECONDS = {
    "corpus.tokenize_s": "corpus.tokenize",
    "corpus.parse_s": "corpus.parse",
    "corpus.branch_s": "corpus.branch",
    "lexicon.load_s": "lexicon.load",
    "lexicon.lookup_s": "lexicon.lookup",
    "augment.find_translatable_s": "augment.find_translatable",
    "augment.ensure_clean_s": "augment.ensure_clean",
    "sampling.rng_s": "sampling.rng",
    "sampling.select_s": "sampling.select",
    "sampling.choose_s": "sampling.choose",
    "cli.serialize_s": "cli.serialize",
    "cli.write_s": "cli.write",
    "cli.manifest_s": "cli.manifest",
    "mixture.read_s": "mixture.read",
    "mixture.interleave_s": "mixture.interleave",
    "metrics.corpus_chrf_s": "metrics.corpus_chrf",
    "metrics.sentence_chrf_s": "metrics.sentence_chrf",
    "metrics.diagnose_s": "metrics.diagnose",
    "metrics.hit_rate_s": "metrics.hit_rate",
}


@dataclass
class Rep:
    """One timed pass of a workload's command sequence."""

    wall: float
    cpu: float  # user + system seconds of every process, pool workers included
    rss_mb: float  # largest RSS of any one of those processes (untraced passes)
    layers: dict | None = None  # traced passes: summed span figures and counters


def _median(values) -> float:
    return statistics.median(values)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _peak_rss_kib(path: Path) -> int:
    """Peak RSS a command recorded (0 if it did not get that far)."""
    try:
        return int(path.read_text())
    except (OSError, ValueError):
        return 0


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    """Runs command sequences as subprocesses, times them and checks every
    output. A command fails when it exits non-zero or its output fails the
    check; the first passing output of each (variant, command) is checked in
    full and later ones must match its SHA-256."""

    def __init__(self, workload, work: Path):
        self.wl = workload
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.verified: dict[tuple, str] = {}
        self.passes = 0
        self.untraced_names: list[str] = []  # trace targets this package version lacks
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))

    def account(self, cmd, code: int, key: tuple, log: Path) -> None:
        self.attempted += 1
        try:
            if code != 0:
                tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
                raise workloads.CheckError(f"exit code {code}: {' | '.join(tail)}")
            digest = _digest(cmd.out)
            if key in self.verified:
                if digest != self.verified[key]:
                    raise workloads.CheckError("output bytes differ from the first verified output")
            else:
                cmd.check(cmd.out)
                self.verified[key] = digest
        except (workloads.CheckError, OSError) as exc:
            self.failed += 1
            self.errors.append(f"{self.wl.name}: {cmd.label}: {exc}")
        except (ValueError, KeyError, TypeError) as exc:  # output of the wrong shape
            self.failed += 1
            self.errors.append(f"{self.wl.name}: {cmd.label}: malformed output: {exc!r}")

    def run(self, variant: str, jobs: int | None = None, traced: bool = False) -> Rep:
        """``jobs`` overrides the workload's --jobs (the check key ignores it,
        so --jobs N output must match the --jobs 1 bytes)."""
        cmds = self.wl.commands(variant, jobs)
        results = []
        started = time.perf_counter()
        for i, cmd in enumerate(cmds):
            if traced:
                argv = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(self.work / f"spans{i}"), "--", *cmd.args]
            else:
                argv = [sys.executable, "-c", ENTRY, *cmd.args]
            env = dict(self.env, PERFBENCH_PEAK_RSS=str(self.work / f"rss{i}"))
            with open(self.work / f"command{i}.log", "wb") as sink:
                proc = subprocess.Popen(argv, stdout=sink, stderr=subprocess.STDOUT, env=env)
                killer = threading.Timer(COMMAND_TIMEOUT, proc.kill)
                killer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    killer.cancel()
                proc.returncode = os.waitstatus_to_exitcode(status)
            results.append((proc.returncode, usage))
        wall = time.perf_counter() - started
        for i, (cmd, (code, _)) in enumerate(zip(cmds, results)):
            self.account(cmd, code, (variant, i), self.work / f"command{i}.log")
        rep = Rep(
            wall=wall,
            cpu=sum(u.ru_utime + u.ru_stime for _, u in results),
            rss_mb=max(_peak_rss_kib(self.work / f"rss{i}") for i in range(len(cmds))) / 1024,
        )
        if traced:
            try:
                rep.layers = _merge([tracer.summarize(str(self.work / f"spans{i}")) for i in range(len(cmds))])
            except OSError as exc:
                self.errors.append(f"{self.wl.name}: traced pass wrote no spans: {exc}")
                rep.layers = _merge([])
        return rep

    def measure(self, seconds: float) -> dict:
        """End-to-end metrics, tracing off: medians over full passes, and
        over set-up passes interleaved with the first of them. No pass starts
        that would likely end past ``seconds``."""
        if self.wl.jobs and self.wl.jobs > 1:
            self.run("full", jobs=1)  # the reference the pool's bytes must match
        self.run("setup")  # warm-up: byte-compiles the package, fills the page cache
        setup, full = [], []
        started = time.perf_counter()
        while True:
            round_started = time.perf_counter()
            if len(setup) < SETUP_REPS:
                setup.append(self.run("setup"))
            full.append(self.run("full"))
            now = time.perf_counter()
            if len(full) >= MIN_REPS and now - started + (now - round_started) > seconds:
                break
        self.passes = len(full)
        return {
            "records_per_s": _median(self.wl.records / r.wall for r in full),
            "setup_s": _median(r.wall for r in setup),
            "peak_rss_mb": _median(r.rss_mb for r in full),
            "cpu_s": _median(r.cpu for r in full),
            "ok_frac": 1.0 - self.failed / self.attempted,
        }

    def trace(self, seconds: float) -> dict:
        """Per-layer metrics from traced passes at --jobs 1, alternating with
        untraced passes (at --jobs 1, and at the workload's --jobs for a pool)."""
        pool = bool(self.wl.jobs and self.wl.jobs > 1)
        untraced, pooled, traced = [], [], []
        started = time.perf_counter()
        while len(traced) < 2 or time.perf_counter() - started < seconds:
            untraced.append(self.run("full", jobs=1))
            if pool:
                pooled.append(self.run("full"))
            traced.append(self.run("full", jobs=1, traced=True))
        self.passes = len(traced)
        self.untraced_names = traced[0].layers["missing"]
        counts = [r.layers["counts"] for r in traced]
        if any(c != counts[0] for c in counts):
            self.errors.append(f"{self.wl.name}: traced counts differ between passes of one seed")
        metrics = {
            name: _median(r.layers["spans"].get(span, {}).get("s", 0.0) for r in traced)
            for name, span in SPAN_SECONDS.items()
        }
        metrics.update(_count_metrics(traced[0].layers))
        metrics["augment.task_self_s"] = _median(_self_seconds(r.layers, "augment.task") for r in traced)
        metrics["cli.self_s"] = _median(
            _self_seconds(r.layers, "cli.main") + _self_seconds(r.layers, "cli.command") for r in traced)
        rps = _median(self.wl.records / r.wall for r in untraced)
        metrics["cli.jobs_speedup"] = _median(self.wl.records / r.wall for r in pooled) / rps if pool else 0.0
        metrics["cli.out_bytes"] = sum(cmd.out.stat().st_size for cmd in self.wl.commands("full"))
        metrics["trace.overhead_frac"] = 1.0 - _median(self.wl.records / r.wall for r in traced) / rps
        return metrics


def _merge(summaries: list[dict]) -> dict:
    """Sum span figures and counters over the commands of one pass."""
    spans: dict[str, dict] = {}
    counts: dict[str, float] = {}
    missing: set[str] = set()
    for summary in summaries:
        missing.update(summary["missing"])
        for name, figures in summary["spans"].items():
            total = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key, value in figures.items():
                total[key] += value
        for key, value in summary["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return {"spans": spans, "counts": counts, "missing": sorted(missing)}


def _self_seconds(layers: dict, span: str) -> float:
    return layers["spans"].get(span, {}).get("self_s", 0.0)


def _count_metrics(layers: dict) -> dict:
    spans, counts = layers["spans"], layers["counts"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def c(key):
        return counts.get(key, 0)

    return {
        "corpus.tokenize_calls": calls("corpus.tokenize"),
        "corpus.records": c("corpus.records"),
        "corpus.augment_frac": _ratio(c("corpus.branch_augment"), calls("corpus.branch")),
        "lexicon.entries": c("lexicon.entries"),
        "lexicon.has_term_calls": calls("lexicon.has_term"),
        "lexicon.has_term_hit_frac": _ratio(c("lexicon.has_term_hits"), calls("lexicon.has_term")),
        "augment.spans_per_record": _ratio(c("augment.spans"), calls("augment.find_translatable")),
        "augment.no_span_frac": _ratio(c("augment.no_span"), calls("augment.find_translatable")),
        "augment.hints_per_record": _ratio(c("augment.hints"), c("augment.prompts")),
        "sampling.swap_frac": _ratio(c("sampling.swap_frac_sum"), c("sampling.swap_records")),
        "mixture.reshuffles": c("mixture.reshuffles"),
        "metrics.ngrams": c("metrics.ngrams"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> tuple[Runner, dict]:
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[name](work, seed, size)
        runner = Runner(workload, work)
        metrics = runner.trace(seconds) if trace else runner.measure(seconds)
        return runner, metrics
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lexaug end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(gen.SIZES), default="full",
                        help="input size; 'tiny' is for smoke tests")
    args = parser.parse_args(argv)

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    attempted = failed = 0
    errors: list[str] = []
    report: dict[str, dict] = {}
    for name in names:
        runner, metrics = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
        attempted += runner.attempted
        failed += runner.failed
        errors += runner.errors
        print(f"# {name}: medians of {runner.passes} passes; {runner.attempted} command runs, {runner.failed} failed "
              f"(failed_frac {_ratio(runner.failed, runner.attempted):.4f})")
        if runner.untraced_names:
            print(f"# {name}: not traced, absent from the package: {', '.join(runner.untraced_names)}")
        for metric in units:
            value = metrics[metric]
            print(f"{name:16} {metric:30} {value:>16.6g} {units[metric]}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            report[key] = {"value": value, "unit": units[metric]}
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
