"""The four benchmark workloads: their lexaug command sequences and the
checks their outputs must pass.

Each workload generates its inputs once (outside any timed region) and then
hands out command sequences in two variants: ``full`` at the stated input
size, and ``setup``, the same sequence on a one-record input, whose wall time
is the set-up cost. A check raises CheckError; it never edits an output.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
from lexaug.augment import Task, TrainingExample, validate_example
from lexaug.corpus import Branch, assign_branch
from lexaug.metrics import EvalRow, diagnose_corpus, token_hit_rate
from lexaug.mixture import build_schedule
from reference_chrf import reference_corpus_chrf, reference_sentence_chrf

# augment's defaults, restated so the checks route records the same way.
FRACTION = 0.5
CHRF_TOLERANCE = 1e-4


class CheckError(Exception):
    """An output broke a property the benchmark checks."""


@dataclass(frozen=True)
class Command:
    label: str
    args: list[str]  # lexaug arguments, without the program name
    out: Path  # the file the command writes with --out
    check: Callable[[Path], None]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _lines(path: Path) -> list[str]:
    """Lines split on "\n" only, as the CLI's file iteration splits them."""
    text = path.read_text(encoding="utf-8")
    return text.split("\n")[:-1] if text.endswith("\n") else text.split("\n")


def _load_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise CheckError(f"{path.name} is not JSON: {exc}") from None


class Workload:
    name = ""
    jobs: int | None = None  # --jobs passed to augment; None: no pool

    def __init__(self, work: Path, seed: int, size: str):
        self.seed = seed
        self.inp = work / "in"
        self.out = work / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.info = gen.generate(self.name, seed, self.inp, size)
        self.records = self.info["records"]
        self._write_setup_inputs()

    def _write_setup_inputs(self) -> None:
        raise NotImplementedError

    def commands(self, variant: str, jobs: int | None = None) -> list[Command]:
        raise NotImplementedError


# --- augment ------------------------------------------------------------


def _augment_rows(path: Path, seed: int) -> list[tuple[int, dict]]:
    """(record id, parsed line) of every corpus line augment routes to AUGMENT."""
    rows = []
    for index, line in enumerate(_lines(path)):
        if assign_branch(index, seed, FRACTION) is Branch.AUGMENT:
            rows.append((index, json.loads(line)))
    return rows


def _check_augment(out: Path, task: Task, expected: list[tuple[int, dict]], target_ok) -> None:
    """Every line is a valid example of ``task``; origin ids are exactly the
    AUGMENT-routed record ids in increasing order; targets are unchanged."""
    lines = _lines(out)
    if len(lines) != len(expected):
        raise CheckError(f"{len(lines)} examples for {len(expected)} AUGMENT-routed records")
    for number, (line, (record_id, record)) in enumerate(zip(lines, expected), 1):
        try:
            example = TrainingExample.from_json_obj(json.loads(line))
            validate_example(example)
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckError(f"line {number}: invalid example: {exc}") from None
        if example.task is not task:
            raise CheckError(f"line {number}: task {example.task.value}, expected {task.value}")
        if example.origin_id != record_id:
            raise CheckError(f"line {number}: origin_id {example.origin_id}, expected {record_id}")
        if not target_ok(example, record):
            raise CheckError(f"line {number}: target or target language changed")


def _mono_target_ok(example: TrainingExample, record: dict) -> bool:
    return example.target_text == record["text"] and example.tgt_lang == record["lang"]


def _glowup_mono_target_ok(example: TrainingExample, record: dict) -> bool:
    """The target is the prompted sentence: the original text, optionally
    preceded by a ``<hint> ... <endhints>`` block."""
    target, text = example.target_text, record["text"]
    if example.tgt_lang != record["lang"]:
        return False
    if target == text:
        return True
    prompt = target[: -len(text) - 1]
    return target.endswith(" " + text) and prompt.startswith("<hint> ") and prompt.endswith(" <endhints>")


def _parallel_target_ok(example: TrainingExample, record: dict) -> bool:
    tgt = record["tgt"]
    return example.target_text == tgt["text"] and example.tgt_lang == tgt["lang"]


class _AugmentWorkload(Workload):
    # (corpus key in gen's info, --task flag, task, target check)
    steps: tuple = ()

    def _write_setup_inputs(self) -> None:
        self.expected = {}
        for key, _, _, _ in self.steps:
            corpus = self.inp / self.info[key]
            rows = _augment_rows(corpus, self.seed)
            self.expected[("full", key)] = rows
            # One record, chosen among those routed to AUGMENT so the set-up
            # run writes one example. Its id keeps the routing unchanged.
            record_id, record = rows[0]
            setup = self.inp / f"setup-{self.info[key]}"
            setup.write_text(json.dumps(dict(record, id=record_id), ensure_ascii=False) + "\n", encoding="utf-8")
            self.expected[("setup", key)] = [(record_id, record)]

    def commands(self, variant: str, jobs: int | None = None) -> list[Command]:
        lexicon = str(self.inp / self.info["lexicon"])
        cmds = []
        for key, flag, task, target_ok in self.steps:
            corpus = self.inp / (self.info[key] if variant == "full" else f"setup-{self.info[key]}")
            out = self.out / f"{variant}-{flag}.jsonl"
            expected = self.expected[(variant, key)]
            cmds.append(Command(
                label=f"augment --task {flag}",
                args=["augment", "--task", flag, "--corpus", str(corpus), "--lexicon", lexicon,
                      "--seed", str(self.seed), "--jobs", str(jobs or self.jobs), "--out", str(out)],
                out=out,
                check=lambda path, task=task, expected=expected, ok=target_ok: _check_augment(path, task, expected, ok),
            ))
        return cmds


class CodeswitchMono(_AugmentWorkload):
    name = "codeswitch-mono"
    jobs = 1
    steps = (("mono", "codeswitch-mono", Task.CODESWITCH_MONO, _mono_target_ok),)


class GlowupPhrase(_AugmentWorkload):
    name = "glowup-phrase"
    steps = (
        ("mono", "glowup-mono", Task.GLOWUP_MONO, _glowup_mono_target_ok),
        ("parallel", "glowup-parallel", Task.GLOWUP_PARALLEL, _parallel_target_ok),
    )

    def __init__(self, work: Path, seed: int, size: str):
        self.jobs = nproc()
        super().__init__(work, seed, size)


# --- mix ------------------------------------------------------------------


class Mix(Workload):
    name = "mix"
    SCHEDULE = {"mono_aug": "codeswitch", "parallel_aug": "glowup", "token_pairs": True}

    def _write_setup_inputs(self) -> None:
        # The set-up run reads the same streams and writes one example.
        self._origin: dict[str, str] | None = None

    def _line_tasks(self) -> dict[str, str]:
        if self._origin is None:
            self._origin = {}
            for task, name in self.info["streams"].items():
                for line in _lines(self.inp / name):
                    self._origin[line] = task
        return self._origin

    def _check(self, out: Path, count: int) -> None:
        lines = _lines(out)
        if len(lines) != count:
            raise CheckError(f"{len(lines)} lines, expected --count {count}")
        origin = self._line_tasks()
        drawn = dict.fromkeys(self.info["streams"], 0)
        for number, line in enumerate(lines, 1):
            if line not in origin:
                raise CheckError(f"line {number} is in no input stream")
            drawn[origin[line]] += 1
        if count < 1000:
            return
        weights = build_schedule(**self.SCHEDULE).to_json_obj()
        for task, n in drawn.items():
            w = weights[task]
            if abs(n / count - w) > max(0.01, 5 * math.sqrt(w * (1 - w) / count)):
                raise CheckError(f"task {task} has share {n / count:.4f}, schedule says {w:.4f}")

    def commands(self, variant: str, jobs: int | None = None) -> list[Command]:
        count = self.info["count"] if variant == "full" else 1
        out = self.out / f"{variant}-mix.jsonl"
        args = ["mix", "--mono-aug", "codeswitch", "--parallel-aug", "glowup", "--token-pairs"]
        for task, name in self.info["streams"].items():
            args += ["--streams", f"{task}={self.inp / name}"]
        args += ["--seed", str(self.seed), "--count", str(count), "--out", str(out)]
        return [Command("mix", args, out, lambda path: self._check(path, count))]


# --- score ----------------------------------------------------------------


class Score(Workload):
    name = "score"

    def _write_setup_inputs(self) -> None:
        for key in ("rows", "hyp", "ref"):
            first = _lines(self.inp / self.info[key])[0]
            (self.inp / f"setup-{self.info[key]}").write_text(first + "\n", encoding="utf-8")
        self._expected: dict[str, dict] = {}

    def _inputs(self, variant: str) -> dict[str, Path]:
        prefix = "" if variant == "full" else "setup-"
        paths = {key: self.inp / (prefix + self.info[key]) for key in ("rows", "hyp", "ref")}
        paths["tokens"] = self.inp / self.info["tokens"]
        return paths

    def _library(self, variant: str) -> dict:
        """What the library returns on the same rows."""
        if variant not in self._expected:
            paths = self._inputs(variant)
            rows = [EvalRow.from_json_obj(json.loads(line)) for line in _lines(paths["rows"])]
            tokens = [t for t in _lines(paths["tokens"]) if t.strip()]
            self._expected[variant] = {
                "diagnose": diagnose_corpus(rows).to_json_obj(),
                "hit-rate": token_hit_rate(rows, tokens).to_json_obj(),
            }
        return self._expected[variant]

    def _check_score(self, out: Path, variant: str) -> None:
        paths = self._inputs(variant)
        hyps, refs = _lines(paths["hyp"]), _lines(paths["ref"])
        result = _load_json(out)
        if result.get("pairs") != len(refs):
            raise CheckError(f"pairs {result.get('pairs')}, expected {len(refs)}")
        reference = reference_corpus_chrf(hyps, refs)
        if not abs(result["score"] - reference) <= CHRF_TOLERANCE:
            raise CheckError(f"corpus chrf {result['score']} vs reference {reference:.6f}")
        sentence = result.get("sentence_scores", [])
        if len(sentence) != len(refs):
            raise CheckError(f"{len(sentence)} sentence scores for {len(refs)} pairs")
        for number, (score, h, r) in enumerate(zip(sentence, hyps, refs), 1):
            if not abs(score - reference_sentence_chrf(h, r)) <= CHRF_TOLERANCE:
                raise CheckError(f"sentence {number}: chrf {score} differs from the reference")

    def _check_equal(self, out: Path, variant: str, command: str) -> None:
        if _load_json(out) != self._library(variant)[command]:
            raise CheckError(f"{command} output differs from the library result on the same rows")

    def commands(self, variant: str, jobs: int | None = None) -> list[Command]:
        paths = self._inputs(variant)
        score_out = self.out / f"{variant}-score.json"
        diagnose_out = self.out / f"{variant}-diagnose.json"
        hit_out = self.out / f"{variant}-hit-rate.json"
        return [
            Command("score --sentence",
                    ["score", "--sentence", "--hyp", str(paths["hyp"]), "--ref", str(paths["ref"]),
                     "--out", str(score_out)],
                    score_out, lambda path: self._check_score(path, variant)),
            Command("diagnose", ["diagnose", "--rows", str(paths["rows"]), "--out", str(diagnose_out)],
                    diagnose_out, lambda path: self._check_equal(path, variant, "diagnose")),
            Command("hit-rate",
                    ["hit-rate", "--rows", str(paths["rows"]), "--tokens", str(paths["tokens"]),
                     "--out", str(hit_out)],
                    hit_out, lambda path: self._check_equal(path, variant, "hit-rate")),
        ]


WORKLOADS = {w.name: w for w in (CodeswitchMono, GlowupPhrase, Mix, Score)}
