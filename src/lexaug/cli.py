"""Command-line entry point.

Subcommands: augment, token-pairs, mix, score, diagnose, hit-rate, regress,
lexicon-stats. A JSON config file (flat keys mirroring the flags) can supply
any value; explicit flags override it. Data-producing runs write a manifest
(config echo plus input/output digests) next to the output so a run can be
reproduced exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
from dataclasses import dataclass
from importlib import metadata
from multiprocessing import get_context
from pathlib import Path
from typing import Iterable, Iterator

from . import analysis, metrics
from .augment import Task, augment_example, token_pair_examples
from .corpus import Branch, assign_branch, load_corpus
from .errors import InsufficientDataError, LexAugError, ScheduleError
from .lexicon import Lexicon, read_entries
from .mixture import AUG_CHOICES, TaskWeights, build_schedule, interleave
from .sampling import SelectionMode, SelectionParams, derive_rng

# --task values name the augmentation tasks, e.g. "glowup-mono" for Task.GLOWUP_MONO.
_TASK_FLAGS = {t.value.replace("_", "-"): t for t in Task if t.value.endswith(("_mono", "_parallel"))}


def _version() -> str:
    try:
        return metadata.version("lexaug")
    except metadata.PackageNotFoundError:
        return "unknown"


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _load_config(args) -> dict:
    """Settings from the ``--config`` file. Its keys are the subcommand's flag
    destinations (``p_tr`` for ``--p-tr``)."""
    if args.config is None:
        return {}
    with open(args.config, "r", encoding="utf-8") as handle:
        config = json.load(handle)
    if not isinstance(config, dict):
        raise LexAugError(f"{args.config}: config must be a JSON object")
    allowed = set(vars(args)) - {"config", "func", "subcommand"}
    unknown = sorted(set(config) - allowed)
    if unknown:
        raise LexAugError(f"{args.config}: unknown config keys {unknown}; allowed: {sorted(allowed)}")
    return config


def _setting(args, config: dict, key: str, default=None, required: bool = False):
    """Effective value for a setting: flag beats config file beats default."""
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key, default)
    if required and value is None:
        raise LexAugError(f"--{key.replace('_', '-')} is required (flag or config file)")
    return value


def _list_setting(args, config: dict, key: str, required: bool = False) -> list[str]:
    """A repeatable setting: the flag's values, or a config string or list."""
    value = _setting(args, config, key, default=[])
    values = [value] if isinstance(value, str) else value
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise LexAugError(f"{key} must be a string or a list of strings, got {value!r}")
    if required and not values:
        raise LexAugError(f"--{key.replace('_', '-')} is required (flag or config file)")
    return values


def _lexicon_spec(spec: str) -> tuple[str, str]:
    """(source name, path) of a ``[NAME=]PATH`` lexicon spec; the name
    defaults to the file's stem."""
    name, eq, path = spec.partition("=")
    return (name, path) if eq else (Path(spec).stem, spec)


def _load_lexica(specs: list[str]) -> Lexicon:
    """One Lexicon over every file's entries, in spec order: on a duplicate
    entry the first file wins, as with ``merge``."""
    return Lexicon(itertools.chain.from_iterable(
        read_entries(path, source_name=name) for name, path in map(_lexicon_spec, specs)
    ))


def _write_manifest(
    manifest_path: str,
    subcommand: str,
    config: dict,
    inputs: Iterable[str],
    outputs: Iterable[str],
) -> None:
    manifest = {
        "tool": "lexaug",
        "version": _version(),
        "subcommand": subcommand,
        "config": config,
        "inputs": {path: _sha256(path) for path in inputs},
        "outputs": {path: _sha256(path) for path in outputs},
    }
    _emit_lines([json.dumps(manifest, indent=2, sort_keys=True)], manifest_path)


def _finish_manifest(
    args, config: dict, subcommand: str, effective: dict, inputs: list, out_path: str | None
) -> None:
    """Write the manifest to ``--manifest``, else beside ``--out`` if set."""
    manifest_path = _setting(args, config, "manifest") or (out_path and out_path + ".manifest.json")
    if manifest_path:
        _write_manifest(manifest_path, subcommand, effective, inputs, [out_path] if out_path else [])


def _emit_lines(lines: Iterable[str], out_path: str | None) -> None:
    """Write lines to stdout, or to ``out_path`` only once all are written:
    they go to a temporary file beside it that then replaces it, and a
    failed run removes the temporary file and leaves no ``out_path``."""
    if out_path is None:
        for line in lines:
            sys.stdout.write(line + "\n")
        return
    tmp_path = f"{out_path}.{os.getpid()}.tmp"
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
        os.replace(tmp_path, out_path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
        raise


def _emit_json(obj, out_path: str | None) -> None:
    _emit_lines([json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2)], out_path)


# --- augment -----------------------------------------------------------


@dataclass(frozen=True)
class _AugmentJob:
    """Everything needed to turn a batch of records into output lines."""

    task: Task
    lexicon: Lexicon
    params: SelectionParams
    seed: int
    mask_fraction: float
    on_error: str

    def run(self, batch: list) -> tuple[list[str], list[str]]:
        """The batch's output lines, and one message per record whose
        augmentation failed. A failed record aborts the run unless
        ``on_error`` is ``"skip"``, which drops it."""
        out, failed = [], []
        for item in batch:
            rng = derive_rng(self.seed, item.id)
            try:
                example = augment_example(item, self.task, self.lexicon, self.params, rng, self.mask_fraction)
            except LexAugError as exc:
                message = f"record {item.id}: {type(exc).__name__}: {exc}"
                if self.on_error == "abort":
                    raise LexAugError(message) from exc
                failed.append(message)
                continue
            out.append(json.dumps(example.to_json_obj(), ensure_ascii=False, sort_keys=True))
        return out, failed


# A pool worker's job, set once by the pool initializer so the lexicon is
# not pickled with every batch.
_pool_job: _AugmentJob | None = None


def _set_pool_job(job: _AugmentJob) -> None:
    global _pool_job
    _pool_job = job


def _run_pool_batch(batch: list) -> tuple[list[str], list[str]]:
    return _pool_job.run(batch)


def _chunked(items: Iterable, size: int) -> Iterator[list]:
    iterator = iter(items)
    while True:
        chunk = list(itertools.islice(iterator, size))
        if not chunk:
            return
        yield chunk


def cmd_augment(args) -> int:
    config = _load_config(args)
    task_name = _setting(args, config, "task", required=True)
    if task_name not in _TASK_FLAGS:
        raise LexAugError(f"--task must be one of {sorted(_TASK_FLAGS)}, got {task_name!r}")
    task = _TASK_FLAGS[task_name]
    corpus_path = _setting(args, config, "corpus", required=True)
    lexicon_specs = _list_setting(args, config, "lexicon", required=True)
    seed = int(_setting(args, config, "seed", required=True))
    p_tr = float(_setting(args, config, "p_tr", 0.4))
    fraction = float(_setting(args, config, "fraction", 0.5))
    sampling = _setting(args, config, "sampling", "binomial")
    mask_fraction = float(_setting(args, config, "mask_fraction", 0.5))
    jobs = int(_setting(args, config, "jobs", 1))
    on_error = _setting(args, config, "on_error", "abort")
    if on_error not in ("abort", "skip"):
        raise LexAugError(f"--on-error must be 'abort' or 'skip', got {on_error!r}")
    out_path = _setting(args, config, "out")

    params = SelectionParams(p_tr=p_tr, mode=SelectionMode(sampling))
    job = _AugmentJob(task, _load_lexica(lexicon_specs), params, seed, mask_fraction, on_error)
    kind = "mono" if task_name.endswith("-mono") else "parallel"

    # Parse errors, then failed records: a pool reads the corpus ahead of its
    # results, so one list of both would interleave them by --jobs.
    skipped: list = []
    failed: list[str] = []
    records = load_corpus(corpus_path, kind=kind, on_error=skipped.append if on_error == "skip" else None)
    selected = (r for r in records if assign_branch(r.id, seed, fraction) is Branch.AUGMENT)

    def lines(results: Iterable[tuple[list[str], list[str]]]) -> Iterator[str]:
        for batch_lines, batch_failed in results:
            failed.extend(batch_failed)
            yield from batch_lines

    if jobs <= 1:
        _emit_lines(lines(map(job.run, _chunked(selected, 256))), out_path)
    else:
        ctx = get_context("fork")
        with ctx.Pool(processes=jobs, initializer=_set_pool_job, initargs=(job,)) as pool:
            _emit_lines(lines(pool.imap(_run_pool_batch, _chunked(selected, 256))), out_path)

    for message in [str(exc) for exc in skipped] + failed:
        print(f"warning: skipped {message}", file=sys.stderr)

    effective = {
        "task": task.value,
        "corpus": corpus_path,
        "lexicon": lexicon_specs,
        "seed": seed,
        "p_tr": p_tr,
        "fraction": fraction,
        "sampling": sampling,
        "mask_fraction": mask_fraction,
        "jobs": jobs,
        "on_error": on_error,
        "skipped_records": len(skipped) + len(failed),
    }
    inputs = [corpus_path] + [_lexicon_spec(s)[1] for s in lexicon_specs]
    _finish_manifest(args, config, "augment", effective, inputs, out_path)
    return 0


def cmd_token_pairs(args) -> int:
    config = _load_config(args)
    lexicon_specs = _list_setting(args, config, "lexicon", required=True)
    lang_specs = _list_setting(args, config, "langs")
    langs = ",".join(lang_specs) if lang_specs else None
    out_path = _setting(args, config, "out")
    lexicon = _load_lexica(lexicon_specs)
    lang_filter = [l.strip() for l in langs.split(",") if l.strip()] if langs else None
    lines = (
        json.dumps(e.to_json_obj(), ensure_ascii=False, sort_keys=True)
        for e in token_pair_examples(lexicon, lang_filter)
    )
    _emit_lines(lines, out_path)
    inputs = [_lexicon_spec(s)[1] for s in lexicon_specs]
    _finish_manifest(args, config, "token-pairs", {"lexicon": lexicon_specs, "langs": langs}, inputs, out_path)
    return 0


def cmd_mix(args) -> int:
    config = _load_config(args)
    weights_path = _setting(args, config, "weights")
    if weights_path:
        with open(weights_path, "r", encoding="utf-8") as handle:
            weights = TaskWeights.from_json_obj(json.load(handle))
    else:
        weights = build_schedule(
            mono_aug=_setting(args, config, "mono_aug", "none"),
            parallel_aug=_setting(args, config, "parallel_aug", "none"),
            token_pairs=bool(_setting(args, config, "token_pairs", False)),
        )
    stream_specs = _list_setting(args, config, "streams")
    out_path = _setting(args, config, "out")
    if not stream_specs:
        _emit_json(weights.to_json_obj(), out_path)
        _finish_manifest(args, config, "mix", {"weights": weights.to_json_obj()}, [], out_path)
        return 0

    seed = int(_setting(args, config, "seed", required=True))
    count = int(_setting(args, config, "count", required=True))
    streams: dict[Task, list[str]] = {}
    stream_paths = []
    for spec_str in stream_specs:
        name, eq, path = spec_str.partition("=")
        if not eq:
            raise ScheduleError(f"--streams entries look like task=path, got {spec_str!r}")
        task = Task(name.replace("-", "_"))
        with open(path, "r", encoding="utf-8") as handle:
            streams[task] = [line.rstrip("\n") for line in handle if line.strip()]
        stream_paths.append(path)
    mixed = interleave(streams, weights, seed)
    _emit_lines(itertools.islice(mixed, count), out_path)
    effective = {
        "weights": weights.to_json_obj(),
        "streams": stream_specs,
        "seed": seed,
        "count": count,
    }
    _finish_manifest(args, config, "mix", effective, stream_paths, out_path)
    return 0


def _read_lines(path: str) -> list[str]:
    """The file's lines without their ``\n`` or ``\r\n`` ends; a lone
    ``\r`` inside a line does not split it."""
    with open(path, "r", encoding="utf-8", newline="\n") as handle:
        return [line.removesuffix("\n").removesuffix("\r") for line in handle]


def cmd_score(args) -> int:
    config = _load_config(args)
    metric = _setting(args, config, "metric", "chrf")
    if metric != "chrf":
        raise LexAugError(f"unsupported metric {metric!r}")
    hyp_path = _setting(args, config, "hyp", required=True)
    ref_path = _setting(args, config, "ref", required=True)
    out_path = _setting(args, config, "out")
    hyps = _read_lines(hyp_path)
    refs = _read_lines(ref_path)
    if len(hyps) != len(refs):
        raise LexAugError(
            f"hypothesis and reference files differ in length: {len(hyps)} vs {len(refs)}"
        )
    if not hyps:
        raise LexAugError("input files are empty")
    score, sentence_scores = metrics.chrf_scores(zip(hyps, refs))
    result = {"metric": "chrf", "score": round(score, 4), "pairs": len(hyps)}
    if _setting(args, config, "sentence", False):
        result["sentence_scores"] = [round(s, 4) for s in sentence_scores]
    _emit_json(result, out_path)
    _finish_manifest(args, config, "score", {"metric": metric, "hyp": hyp_path, "ref": ref_path},
                     [hyp_path, ref_path], out_path)
    return 0


def _load_eval_rows(path: str) -> list[metrics.EvalRow]:
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for index, line in enumerate(handle):
            if not line.strip():
                continue
            try:
                rows.append(metrics.EvalRow.from_json_obj(json.loads(line)))
            except (KeyError, ValueError) as exc:
                raise LexAugError(f"{path}:line {index + 1}: {exc}") from exc
    return rows


def cmd_diagnose(args) -> int:
    config = _load_config(args)
    rows_path = _setting(args, config, "rows", required=True)
    out_path = _setting(args, config, "out")
    report = metrics.diagnose_corpus(_load_eval_rows(rows_path))
    print(report.format_table())
    if out_path:
        _emit_json(report.to_json_obj(), out_path)
    _finish_manifest(args, config, "diagnose", {"rows": rows_path}, [rows_path], out_path)
    return 0


def cmd_hit_rate(args) -> int:
    config = _load_config(args)
    rows_path = _setting(args, config, "rows", required=True)
    tokens_path = _setting(args, config, "tokens", required=True)
    out_path = _setting(args, config, "out")
    tokens = [line.strip() for line in _read_lines(tokens_path) if line.strip()]
    rows = _load_eval_rows(rows_path)
    result = metrics.token_hit_rate(rows, tokens)
    _emit_json(result.to_json_obj(), out_path)
    _finish_manifest(args, config, "hit-rate", {"rows": rows_path, "tokens": tokens_path},
                     [rows_path, tokens_path], out_path)
    return 0


def cmd_regress(args) -> int:
    config = _load_config(args)
    table_path = _setting(args, config, "table", required=True)
    out_path = _setting(args, config, "out")
    rows = analysis.load_lang_rows(table_path)
    try:
        result = analysis.regress_delta_chrf(rows).to_json_obj()
    except InsufficientDataError as exc:
        # Too few URL rows to fit; the per-class table needs no fit.
        print(f"warning: no fit: {exc}", file=sys.stderr)
        result = {"per_class": analysis.per_class_deltas(rows)}
    _emit_json(result, out_path)
    _finish_manifest(args, config, "regress", {"table": table_path}, [table_path], out_path)
    return 0


def cmd_lexicon_stats(args) -> int:
    config = _load_config(args)
    lexicon_specs = _list_setting(args, config, "lexicon", required=True)
    lang = _setting(args, config, "lang")
    out_path = _setting(args, config, "out")
    lexicon = _load_lexica(lexicon_specs)
    stats: dict = {
        "entries": len(lexicon),
        "languages": sorted(lexicon.languages()),
        "pair_counts": {
            f"{src}-{tgt}": count for (src, tgt), count in sorted(lexicon.pair_counts().items())
        },
    }
    if lang:
        stats["per_source"] = dict(sorted(lexicon.entry_counts(lang).items()))
        stats["lang"] = lang
    _emit_json(stats, out_path)
    inputs = [_lexicon_spec(s)[1] for s in lexicon_specs]
    _finish_manifest(args, config, "lexicon-stats", {"lexicon": lexicon_specs, "lang": lang}, inputs, out_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexaug",
        description="Lexicon-driven augmentation and evaluation for MT data pipelines.",
    )
    parser.add_argument("--version", action="version", version=f"lexaug {_version()}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--manifest", help="manifest path (default: OUT.manifest.json)")

    p = sub.add_parser("augment", help="render augmented training examples from a corpus")
    p.add_argument("--task", choices=sorted(_TASK_FLAGS))
    p.add_argument("--corpus")
    p.add_argument("--lexicon", action="append", metavar="[NAME=]PATH")
    p.add_argument("--seed", type=int)
    p.add_argument("--p-tr", dest="p_tr", type=float)
    p.add_argument("--fraction", type=float, help="share of records routed to augmentation")
    p.add_argument("--sampling", choices=[m.value for m in SelectionMode])
    p.add_argument("--mask-fraction", dest="mask_fraction", type=float)
    p.add_argument("--jobs", type=int)
    p.add_argument("--on-error", dest="on_error", choices=["abort", "skip"])
    common(p)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("token-pairs", help="render lexicon entries as tiny translation examples")
    p.add_argument("--lexicon", action="append", metavar="[NAME=]PATH")
    p.add_argument("--langs", help="comma-separated language filter")
    common(p)
    p.set_defaults(func=cmd_token_pairs)

    p = sub.add_parser("mix", help="build a task weight schedule and optionally interleave streams")
    p.add_argument("--mono-aug", dest="mono_aug", choices=AUG_CHOICES)
    p.add_argument("--parallel-aug", dest="parallel_aug", choices=AUG_CHOICES)
    p.add_argument("--token-pairs", dest="token_pairs", action=argparse.BooleanOptionalAction)
    p.add_argument("--weights", help="JSON file mapping task name to weight")
    p.add_argument("--streams", action="append", metavar="TASK=PATH")
    p.add_argument("--seed", type=int)
    p.add_argument("--count", type=int, help="number of mixed examples to emit")
    common(p)
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("score", help="chrf over line-aligned hypothesis/reference files")
    p.add_argument("--metric", choices=["chrf"])
    p.add_argument("--hyp")
    p.add_argument("--ref")
    p.add_argument("--sentence", action="store_true", default=None, help="include per-sentence scores")
    common(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("diagnose", help="null/copy/repetition error report over eval rows")
    p.add_argument("--rows", help="JSONL eval rows")
    common(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("hit-rate", help="watched-token hit rate over eval rows")
    p.add_argument("--rows", help="JSONL eval rows")
    p.add_argument("--tokens", help="watched tokens, one per line")
    common(p)
    p.set_defaults(func=cmd_hit_rate)

    p = sub.add_parser("regress", help="fit score deltas on lexicon entry counts (URL rows); mean delta per class")
    p.add_argument("--table", help="CSV: lang,delta_chrf,n_panlex,n_gatitos,n_mono,class")
    common(p)
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("lexicon-stats", help="entry counts per language pair and source")
    p.add_argument("--lexicon", action="append", metavar="[NAME=]PATH")
    p.add_argument("--lang", help="also report per-source counts for this language")
    common(p)
    p.set_defaults(func=cmd_lexicon_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LexAugError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
