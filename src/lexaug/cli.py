"""Command-line entry point.

Subcommands: augment, token-pairs, mix, score, diagnose, hit-rate, regress,
lexicon-stats. ``build_parser`` declares each setting once: flag, type, allowed
values and default. A JSON config file (``--config``; keys are the flags'
destinations, ``p_tr`` for ``--p-tr``) sets the flags' defaults, each value
checked and read as its flag's would be, so flags win and a repeatable flag
replaces the config file's list. Data-producing runs write a manifest (config
echo plus input/output digests) next to the output so a run can be reproduced
exactly; neither the output nor the manifest may replace an input. ``augment``,
``score``, ``diagnose`` and ``hit-rate`` run their records in batches, on
``--jobs`` forked workers, and take the results in input order
(``_map_batches``), so the worker count never changes the bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import stat
import sys
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

from . import __version__, metrics
from .augment import Task, augment_example, token_pair_examples
from .corpus import Branch, assign_branch, load_corpus, read_lines, read_text
from .errors import FitError, FormatError, InsufficientDataError, LexAugError, ScheduleError
from .lexicon import Lexicon, read_entries
from .mixture import AUG_CHOICES, StreamFile, TaskWeights, build_schedule, interleave, task_named
from .sampling import SelectionMode, SelectionParams, derive_rng

# --task values name the augmentation tasks, e.g. "glowup-mono" for Task.GLOWUP_MONO.
_TASK_FLAGS = {t.value.replace("_", "-"): t for t in Task if t.value.endswith(("_mono", "_parallel"))}


class _Repeatable(argparse._AppendAction):
    """``append``, except that the flag's values replace the default list
    (which a config file may set) instead of extending it."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is self.default:
            setattr(namespace, self.dest, None)
        super().__call__(parser, namespace, values, option_string)


def _number(kind: type, low: int | None = None, high: int | None = None):
    """A flag type: the text as a ``kind`` (``int`` or ``float``) of at least
    ``low`` and at most ``high``, where each bound is given."""
    expected = "an integer" if kind is int else "a number"
    if high is not None:
        expected += f" in [{low}, {high}]"
    elif low is not None:
        expected += f" >= {low}"

    def parse(text: str):
        try:
            value = kind(text)
            if (low is None or value >= low) and (high is None or value <= high):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {expected}")

    return parse


def _read_config(path: str, parser: argparse.ArgumentParser) -> dict:
    """The settings in the config file at ``path``, as the subcommand
    ``parser``'s flags would set them. Its keys are the flag destinations."""
    config = _read_json(path)
    if not isinstance(config, dict):
        raise LexAugError(f"{path}: config must be a JSON object")
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    unknown = sorted(set(config) - set(actions))
    if unknown:
        raise LexAugError(f"{path}: unknown config keys {unknown}; allowed: {sorted(actions)}")
    return {key: _config_value(path, key, value, actions[key]) for key, value in config.items()}


def _read_json(path: str):
    """The JSON value in the file at ``path``; a syntax error names the file."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise LexAugError(f"{path}: invalid JSON: {exc}") from None


def _config_value(path: str, key: str, value, action: argparse.Action):
    """A config value as its flag would set it: a boolean for a flag without a
    value, else a string read as the flag's text, a list of strings if it
    repeats, or a JSON number if it is numeric."""
    def bad(expected: str) -> LexAugError:
        return LexAugError(f"{path}: {key} must be {expected}, got {value!r}")

    if action.nargs == 0:
        if not isinstance(value, bool):
            raise bad("true or false")
        return value
    if isinstance(action, _Repeatable):
        values = [value] if isinstance(value, str) else value
        if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
            raise bad("a string or a list of strings")
        return values
    if action.type is None and not isinstance(value, str):
        raise bad("a string")
    try:
        # str() of a bool, list or null is no number, so only numbers pass.
        converted = action.type(str(value)) if action.type else value
    except argparse.ArgumentTypeError as exc:
        raise LexAugError(f"{path}: {key} {exc}, got {value!r}") from None
    if action.choices is not None and converted not in action.choices:
        raise bad(f"one of {list(action.choices)}")
    return converted


def _require(args, *keys: str) -> None:
    """Fail unless each setting in ``keys`` is set, by flag or config file."""
    for key in keys:
        if getattr(args, key) in (None, []):
            raise LexAugError(f"--{key.replace('_', '-')} is required (flag or config file)")


def _lexicon_spec(spec: str) -> tuple[str, str]:
    """(source name, path) of a ``[NAME=]PATH`` lexicon spec; the name
    defaults to the file's stem."""
    name, eq, path = spec.partition("=")
    return (name, path) if eq else (Path(spec).stem, spec)


def _load_lexica(specs: list[str], digests: dict[str, str] | None = None) -> Lexicon:
    """One Lexicon over every file's entries, in spec order: on a duplicate
    entry the first file's name is kept."""
    return Lexicon((name, read_entries(path, digests)) for name, path in map(_lexicon_spec, specs))


def _input_paths(args) -> list[str]:
    """The input files a manifest digests, in flag order: the corpus, the
    lexica, the streams, then each single-file flag."""
    lexica = [_lexicon_spec(spec)[1] for spec in getattr(args, "lexicon", None) or []]
    streams = [spec.partition("=")[2] for spec in getattr(args, "streams", None) or []]
    singles = [getattr(args, key, None) for key in ("hyp", "ref", "rows", "tokens", "table")]
    return [path for path in [getattr(args, "corpus", None), *lexica, *streams, *singles] if path]


def _manifest_path(args) -> str | None:
    """``--manifest``, else ``OUT.manifest.json`` if ``--out`` is set."""
    return args.manifest or (args.out and args.out + ".manifest.json")


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist
        return os.path.abspath(a) == os.path.abspath(b)


def _check_outputs(args) -> None:
    """Fail if ``--out`` or the manifest would replace a file the run reads
    or a path that is not a regular file (a FIFO or a device), or the
    manifest would replace ``--out``."""
    manifest = _manifest_path(args)
    reads = _input_paths(args) + [p for p in (getattr(args, "weights", None), args.config) if p]
    for flag, out in (("--out", args.out), ("--manifest", manifest)):
        if out and os.path.exists(out) and not stat.S_ISREG(os.stat(out).st_mode):
            raise LexAugError(f"{flag} {out} is not a regular file, and an output would replace it; "
                              "write to stdout to stream")
        for path in reads if out else ():
            if _same_file(out, path):
                raise LexAugError(f"{flag} {out} is the input file {path}; an output may not replace an input")
    if args.out and _same_file(manifest, args.out):
        raise LexAugError(f"--manifest {manifest} is the --out file {args.out}")


def _write_manifest(args, subcommand: str, config: dict, digests: Mapping[str, str]) -> None:
    """Write the manifest to ``--manifest``, else beside ``--out`` if set.
    Each input's and output's digest comes from ``digests``, where its reader
    or writer put the SHA-256 of the bytes it read or wrote, so no file but
    the manifest is opened."""
    manifest_path = _manifest_path(args)
    if not manifest_path:
        return
    manifest = {
        "tool": "lexaug",
        "version": __version__,
        "subcommand": subcommand,
        "config": config,
        "inputs": {path: digests[path] for path in _input_paths(args)},
        "outputs": {args.out: digests[args.out]} if args.out else {},
    }
    _emit_lines([json.dumps(manifest, indent=2, sort_keys=True)], manifest_path)


def _emit_lines(
    lines: Iterable[str] | Iterable[bytes],
    out_path: str | None,
    digests: dict[str, str] | None = None,
    binary: bool = False,
) -> None:
    """Write lines, each followed by a newline, to stdout, or to ``out_path``
    only once all are written: they go to a temporary file beside it that
    then replaces it, and a failed run removes the temporary file and leaves
    no ``out_path``. Lines are ``str``, written as UTF-8, or ``bytes`` written
    as they are if ``binary``. They are written joined, one ``write`` per
    BATCH_SIZE lines, and hashed as written: ``digests[out_path]``, unless
    ``digests`` is None, is the SHA-256 of the bytes written."""
    end = b"\n" if binary else "\n"
    lines = iter(lines)

    def chunks() -> Iterator[str] | Iterator[bytes]:
        while batch := list(itertools.islice(lines, BATCH_SIZE)):
            batch.append(end[:0])  # so that the join ends the last line too
            yield end.join(batch)

    if out_path is None:
        if binary:
            sys.stdout.flush()
        write = sys.stdout.buffer.write if binary else sys.stdout.write
        for chunk in chunks():
            write(chunk)
        return
    tmp_path = f"{out_path}.{os.getpid()}.tmp"
    digest = hashlib.sha256()
    try:
        with open(tmp_path, "wb") as handle:
            for chunk in chunks():
                data = chunk if binary else chunk.encode("utf-8")
                digest.update(data)
                handle.write(data)
        os.replace(tmp_path, out_path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
        raise
    if digests is not None:
        digests[out_path] = digest.hexdigest()


def _emit_json(obj, out_path: str | None, digests: dict[str, str]) -> None:
    _emit_lines([json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2)], out_path, digests)


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


# Items per batch that _map_batches hands to its ``run``.
BATCH_SIZE = 256
# Whether this platform can fork pool workers; --jobs N > 1 needs it.
# multiprocessing is imported only when a pool starts.
_FORK = hasattr(os, "fork")
# A pool worker's ``run``, set once by the pool initializer so that it (and
# the lexicon an augment job holds) is not pickled with every batch. Forked
# workers inherit the initializer's arguments unpickled, so ``run`` may be a
# closure.
_worker_run: Callable[[list], object] | None = None


def _start_worker(run: Callable[[list], object]) -> None:
    global _worker_run
    _worker_run = run


def _run_in_worker(batch: list):
    return _worker_run(batch)


def _map_batches(run: Callable[[list], object], items: Iterable, jobs: int) -> Iterator:
    """``run(batch)`` for each batch of up to BATCH_SIZE items, in batch
    order. A pool of ``jobs`` forked workers runs the batches when ``jobs`` >
    1 and the items make more than one batch; otherwise they run here. Either
    way an error in a batch, or in reading its items, is raised after the
    results of every batch before it."""
    items = iter(items)
    batches = iter(lambda: list(itertools.islice(items, BATCH_SIZE)), [])
    head: list[list] = []
    try:
        head.extend(itertools.islice(batches, 2))
    except Exception:
        yield from map(run, head)
        raise
    pooled = jobs > 1 and len(head) == 2
    # Through an iterator over ``head``, so the batches read ahead are freed
    # once they have run rather than at the end of the run.
    batches = itertools.chain(iter(head), batches)
    del head
    if not pooled:
        yield from map(run, batches)
        return
    import multiprocessing

    with multiprocessing.get_context("fork").Pool(processes=jobs, initializer=_start_worker, initargs=(run,)) as pool:
        yield from pool.imap(_run_in_worker, batches)


def cmd_augment(args) -> int:
    _require(args, "task", "corpus", "lexicon", "seed")
    task = _TASK_FLAGS[args.task]
    params = SelectionParams(p_tr=args.p_tr, mode=SelectionMode(args.sampling))
    digests: dict[str, str] = {}
    job = _AugmentJob(task, _load_lexica(args.lexicon, digests), params, args.seed, args.mask_fraction, args.on_error)
    kind = "mono" if args.task.endswith("-mono") else "parallel"

    # Parse errors, then failed records: a pool reads the corpus ahead of its
    # results, so one list of both would interleave them by --jobs.
    skipped: list = []
    failed: list[str] = []
    records = load_corpus(args.corpus, kind, skipped.append if args.on_error == "skip" else None, digests)
    selected = (r for r in records if assign_branch(r.id, args.seed, args.fraction) is Branch.AUGMENT)

    def lines(results: Iterable[tuple[list[str], list[str]]]) -> Iterator[str]:
        for batch_lines, batch_failed in results:
            failed.extend(batch_failed)
            yield from batch_lines

    _emit_lines(lines(_map_batches(job.run, selected, args.jobs)), args.out, digests)

    for message in [str(exc) for exc in skipped] + failed:
        print(f"warning: skipped {message}", file=sys.stderr)

    settings = ("corpus", "lexicon", "seed", "p_tr", "fraction", "sampling", "mask_fraction", "jobs", "on_error")
    effective = {key: getattr(args, key) for key in settings}
    effective.update(task=task.value, skipped_records=len(skipped) + len(failed))
    _write_manifest(args, "augment", effective, digests)
    return 0


def cmd_token_pairs(args) -> int:
    _require(args, "lexicon")
    langs = ",".join(args.langs) if args.langs else None
    lang_filter = [l.strip() for l in langs.split(",") if l.strip()] if langs else None
    if lang_filter == []:
        raise LexAugError(f"--langs names no language, got {langs!r}")
    digests: dict[str, str] = {}
    lexicon = _load_lexica(args.lexicon, digests)
    lines = (
        json.dumps(e.to_json_obj(), ensure_ascii=False, sort_keys=True)
        for e in token_pair_examples(lexicon, lang_filter)
    )
    _emit_lines(lines, args.out, digests)
    _write_manifest(args, "token-pairs", {"lexicon": args.lexicon, "langs": langs}, digests)
    return 0


def cmd_mix(args) -> int:
    if args.weights:
        weights = TaskWeights.from_json_obj(_read_json(args.weights))
    else:
        weights = build_schedule(args.mono_aug, args.parallel_aug, args.token_pairs)
    digests: dict[str, str] = {}
    if not args.streams:
        _emit_json(weights.to_json_obj(), args.out, digests)
        _write_manifest(args, "mix", {"weights": weights.to_json_obj()}, digests)
        return 0

    _require(args, "seed", "count")
    if not hasattr(os, "pread"):
        raise LexAugError("mix --streams reads stream lines with os.pread, which this platform lacks")
    stream_paths: dict[Task, str] = {}
    for spec_str in args.streams:
        name, eq, path = spec_str.partition("=")
        if not eq:
            raise ScheduleError(f"--streams entries look like task=path, got {spec_str!r}")
        task = task_named(name.replace("-", "_"), "--streams")
        if task in stream_paths:
            raise ScheduleError(f"--streams: task {task.value!r} given twice ({stream_paths[task]}, {path})")
        stream_paths[task] = path
    with contextlib.ExitStack() as opened:
        streams = {task: opened.enter_context(StreamFile(path, digests)) for task, path in stream_paths.items()}
        mixed = itertools.islice(interleave(streams, weights, args.seed), args.count)
        _emit_lines(itertools.chain(mixed, _unchanged(streams.values())), args.out, digests, binary=True)
    effective = {
        "weights": weights.to_json_obj(),
        "streams": args.streams,
        "seed": args.seed,
        "count": args.count,
    }
    _write_manifest(args, "mix", effective, digests)
    return 0


def _unchanged(streams: Iterable[StreamFile]) -> Iterator[bytes]:
    """No lines: chained after the mixed lines, it fails the run before its
    output is kept if a stream changed while they were read."""
    for stream in streams:
        stream.check_unchanged()
    yield from ()


def cmd_score(args) -> int:
    _require(args, "hyp", "ref")
    digests: dict[str, str] = {}
    hyps = list(read_lines(args.hyp, digests))
    refs = list(read_lines(args.ref, digests))
    if len(hyps) != len(refs):
        raise LexAugError(
            f"hypothesis and reference files differ in length: {len(hyps)} vs {len(refs)}"
        )
    if not hyps:
        raise LexAugError("input files are empty")
    if "" in refs:
        raise FormatError("reference is empty", args.ref, refs.index("") + 1)
    batches = _map_batches(lambda batch: list(metrics.chrf_statistics(batch)), zip(hyps, refs), args.jobs)
    score, sentence_scores = metrics.chrf_from_statistics(itertools.chain.from_iterable(batches))
    result = {"metric": "chrf", "score": round(score, 4), "pairs": len(hyps)}
    if args.sentence:
        result["sentence_scores"] = [round(s, 4) for s in sentence_scores]
    _emit_json(result, args.out, digests)
    _write_manifest(args, "score", {"hyp": args.hyp, "ref": args.ref}, digests)
    return 0


def _eval_rows(path: str, batch: list[tuple[int, str]]) -> list[metrics.EvalRow]:
    """The eval rows of a batch of numbered JSONL lines from ``path``."""
    rows = []
    for line_no, line in batch:
        try:
            rows.append(metrics.EvalRow.from_json_obj(json.loads(line)))
        except (KeyError, ValueError) as exc:
            raise LexAugError(f"{path}:line {line_no}: {exc}") from exc
    return rows


def _sum_eval_batches(
    path: str, run: Callable[[list[metrics.EvalRow]], tuple[int, ...]], jobs: int, digests: dict[str, str]
) -> list[int]:
    """The sums of ``run``'s counts over every batch of the eval rows in
    ``path``; the JSON is parsed where the batch runs. Blank lines are
    skipped, and a file without a row fails."""
    numbered = ((n, line) for n, line in enumerate(read_lines(path, digests), 1) if line.strip())
    counts = list(_map_batches(lambda batch: run(_eval_rows(path, batch)), numbered, jobs))
    if not counts:
        raise FormatError("holds no eval row", path)
    return [sum(column) for column in zip(*counts)]


def cmd_diagnose(args) -> int:
    _require(args, "rows")
    digests: dict[str, str] = {}
    counts = _sum_eval_batches(args.rows, lambda rows: astuple(metrics.diagnose_corpus(rows)), args.jobs, digests)
    report = metrics.ErrorReport(*counts)
    print(report.format_table())
    if args.out:
        _emit_json(report.to_json_obj(), args.out, digests)
    _write_manifest(args, "diagnose", {"rows": args.rows}, digests)
    return 0


def cmd_hit_rate(args) -> int:
    _require(args, "rows", "tokens")
    digests: dict[str, str] = {}
    tokens = [line.strip() for line in read_lines(args.tokens, digests) if line.strip()]
    if not tokens:
        raise FormatError("names no token: every line is blank", args.tokens)

    def hit_counts(rows: list[metrics.EvalRow]) -> tuple[int, int]:
        result = metrics.token_hit_rate(rows, tokens)
        return result.rows_with_token, result.hits

    result = metrics.HitRate.of(*_sum_eval_batches(args.rows, hit_counts, args.jobs, digests))
    _emit_json(result.to_json_obj(), args.out, digests)
    _write_manifest(args, "hit-rate", {"rows": args.rows, "tokens": args.tokens}, digests)
    return 0


def cmd_regress(args) -> int:
    from . import analysis  # only regress needs it

    _require(args, "table")
    digests: dict[str, str] = {}
    rows = analysis.load_lang_rows(args.table, digests)
    try:
        result = analysis.regress_delta_chrf(rows).to_json_obj()
    except InsufficientDataError as exc:
        # Too few URL rows to fit; the per-class table needs no fit.
        print(f"warning: no fit: {exc}", file=sys.stderr)
        result = {"per_class": analysis.per_class_deltas(rows)}
    except FitError as exc:
        # The fit failed on the table's values, so name the table.
        raise LexAugError(f"{args.table}: {exc}") from exc
    _emit_json(result, args.out, digests)
    _write_manifest(args, "regress", {"table": args.table}, digests)
    return 0


def cmd_lexicon_stats(args) -> int:
    _require(args, "lexicon")
    digests: dict[str, str] = {}
    lexicon = _load_lexica(args.lexicon, digests)
    stats: dict = {
        "entries": len(lexicon),
        "languages": sorted(lexicon.languages()),
        "pair_counts": {
            f"{src}-{tgt}": count for (src, tgt), count in sorted(lexicon.pair_counts().items())
        },
    }
    if args.lang:
        stats["per_source"] = dict(sorted(lexicon.entry_counts(args.lang).items()))
        stats["lang"] = args.lang
    _emit_json(stats, args.out, digests)
    _write_manifest(args, "lexicon-stats", {"lexicon": args.lexicon, "lang": args.lang}, digests)
    return 0


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexaug",
        description="Lexicon-driven augmentation and evaluation for MT data pipelines.",
    )
    parser.add_argument("--version", action="version", version=f"lexaug {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # Seeds key the per-record generators as unsigned 64-bit integers.
    seed = _number(int, 0, 2**64 - 1)
    share = _number(float, 0, 1)

    # Scoring workers hold one batch each, so they default to every usable
    # core; augment's workers each dirty their copy of the lexicon, so it
    # defaults to one.
    cores = _usable_cores() if _FORK else 1

    def jobs(p, default: int):
        p.add_argument("--jobs", type=_number(int, low=1), default=default,
                       help=f"worker processes (default: {default})")

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--manifest", help="manifest path (default: OUT.manifest.json)")

    p = sub.add_parser("augment", help="render augmented training examples from a corpus")
    p.add_argument("--task", choices=sorted(_TASK_FLAGS))
    p.add_argument("--corpus")
    p.add_argument("--lexicon", action=_Repeatable, metavar="[NAME=]PATH")
    p.add_argument("--seed", type=seed)
    p.add_argument("--p-tr", dest="p_tr", type=share, default=0.4)
    p.add_argument("--fraction", type=share, default=0.5, help="share of records routed to augmentation")
    p.add_argument("--sampling", choices=[m.value for m in SelectionMode], default="binomial")
    p.add_argument("--mask-fraction", dest="mask_fraction", type=share, default=0.5)
    jobs(p, 1)
    p.add_argument("--on-error", dest="on_error", choices=["abort", "skip"], default="abort")
    common(p)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("token-pairs", help="render lexicon entries as tiny translation examples")
    p.add_argument("--lexicon", action=_Repeatable, metavar="[NAME=]PATH")
    p.add_argument("--langs", action=_Repeatable, help="comma-separated language filter")
    common(p)
    p.set_defaults(func=cmd_token_pairs)

    p = sub.add_parser("mix", help="build a task weight schedule and optionally interleave streams")
    p.add_argument("--mono-aug", dest="mono_aug", choices=AUG_CHOICES, default="none")
    p.add_argument("--parallel-aug", dest="parallel_aug", choices=AUG_CHOICES, default="none")
    p.add_argument("--token-pairs", dest="token_pairs", action=argparse.BooleanOptionalAction, default=False)
    p.add_argument("--weights", help="JSON file mapping task name to weight")
    p.add_argument("--streams", action=_Repeatable, metavar="TASK=PATH")
    p.add_argument("--seed", type=seed)
    p.add_argument("--count", type=_number(int, low=0), help="number of mixed examples to emit")
    common(p)
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("score", help="chrf over line-aligned hypothesis/reference files")
    p.add_argument("--hyp")
    p.add_argument("--ref")
    p.add_argument("--sentence", action=argparse.BooleanOptionalAction, default=False,
                   help="include per-sentence scores")
    jobs(p, cores)
    common(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("diagnose", help="null/copy/repetition error report over eval rows")
    p.add_argument("--rows", help="JSONL eval rows")
    jobs(p, cores)
    common(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("hit-rate", help="watched-token hit rate over eval rows")
    p.add_argument("--rows", help="JSONL eval rows")
    p.add_argument("--tokens", help="watched tokens, one per line")
    jobs(p, cores)
    common(p)
    p.set_defaults(func=cmd_hit_rate)

    p = sub.add_parser("regress", help="fit score deltas on lexicon entry counts (URL rows); mean delta per class")
    p.add_argument("--table", help="CSV: lang,delta_chrf,n_panlex,n_gatitos,n_mono,class")
    common(p)
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("lexicon-stats", help="entry counts per language pair and source")
    p.add_argument("--lexicon", action=_Repeatable, metavar="[NAME=]PATH")
    p.add_argument("--lang", help="also report per-source counts for this language")
    common(p)
    p.set_defaults(func=cmd_lexicon_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # The config file's values become the subcommand's defaults, so a
            # second parse applies them below the flags.
            subparser = parser._subparsers._group_actions[0].choices[args.subcommand]
            subparser.set_defaults(**_read_config(args.config, subparser))
            args = parser.parse_args(argv)
        if getattr(args, "jobs", 1) > 1 and not _FORK:
            raise LexAugError(f"--jobs {args.jobs} forks worker processes, which this platform cannot")
        _check_outputs(args)
        return args.func(args)
    except (LexAugError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
