"""Command-line entry point.

Subcommands: augment, token-pairs, mix, score, diagnose, hit-rate, regress,
lexicon-stats. ``build_parser`` declares each setting once: flag, type, allowed
values and default. A JSON config file (``--config``; keys are the flags'
destinations, ``p_tr`` for ``--p-tr``) sets the flags' defaults, each value
checked and read as its flag's would be, so flags win and a repeatable flag
replaces the config file's list. ``main`` runs each ``cmd_*(args, digests)``,
which writes its output and returns what the run adds, then writes the
manifest next to the output (every setting, as a config file for the same run,
the run's results and input/output digests) so a run can be reproduced
exactly; neither the output nor the manifest may replace an input. Every output is bytes, written by ``_emit_lines``. ``augment``,
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
from dataclasses import astuple
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping

from . import __version__
from .corpus import AUG_CHOICES, Branch, Task, assign_branch, load_corpus, read_lines, read_text, words
from .errors import FitError, FormatError, InsufficientDataError, LexAugError, ScheduleError

# augment's tasks as flags. SelectionMode's values are spelled out, so that
# score does not import lexaug.sampling (a test pins them).
_TASKS = tuple(t.value.replace("_", "-") for t in Task if t.value.endswith(("_mono", "_parallel")))
_SAMPLING = ("binomial", "uniform")


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


def _read_config(path: str, parser: argparse.ArgumentParser, digests: dict[str, str]) -> dict:
    """The settings in the config file at ``path``, as the subcommand
    ``parser``'s flags would set them. Its keys are the flag destinations."""
    config = _read_json(path, digests)
    if not isinstance(config, dict):
        raise FormatError("config must be a JSON object", path)
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    unknown = sorted(set(config) - set(actions))
    if unknown:
        raise FormatError(f"unknown config keys {unknown}; allowed: {sorted(actions)}", path)
    return {key: _config_value(path, key, value, actions[key]) for key, value in config.items()}


def _read_json(path: str, digests: dict[str, str]):
    """The JSON value in the file at ``path``, read as ``read_text`` reads it
    (which puts its SHA-256 in ``digests``); a syntax error names the file."""
    try:
        return json.loads(read_text(path, digests))
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}", path) from None


def _config_value(path: str, key: str, value, action: argparse.Action):
    """A config value as its flag would set it: a boolean for a flag without a
    value, else a string read as the flag's text, a list of strings if it
    repeats, a JSON number if it is numeric, or None for null if it has no default."""
    def bad(expected: str) -> FormatError:
        return FormatError(f"{key} must be {expected}, got {value!r}", path)

    if value is None and action.default is None:
        return None
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
        raise FormatError(f"{key} {exc}, got {value!r}", path) from None
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


def _load_lexica(specs: list[str], digests: dict[str, str] | None = None):
    """One Lexicon over every file's entries, in spec order: on a duplicate
    entry the first file's name is kept."""
    from .lexicon import Lexicon, read_entries
    return Lexicon((name, read_entries(path, digests)) for name, path in map(_lexicon_spec, specs))


def _input_paths(args) -> list[str]:
    """The files a run reads, which its outputs may not replace: the corpus,
    the lexica, the streams, then each single-file flag."""
    lexica = [_lexicon_spec(spec)[1] for spec in getattr(args, "lexicon", None) or []]
    streams = [spec.partition("=")[2] for spec in getattr(args, "streams", None) or []]
    singles = [getattr(args, key, None) for key in ("hyp", "ref", "rows", "tokens", "table", "weights", "config")]
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
    or a path that is not a regular file (a FIFO or a device), would go in a
    directory that does not exist, or the manifest would replace ``--out``."""
    manifest = _manifest_path(args)
    reads = _input_paths(args)
    for flag, out in (("--out", args.out), ("--manifest", manifest)):
        if out and not os.path.isdir(os.path.dirname(out) or "."):
            raise LexAugError(f"{flag} {out}: no directory {os.path.dirname(out)}")
        if out and os.path.exists(out) and not stat.S_ISREG(os.stat(out).st_mode):
            raise LexAugError(f"{flag} {out} is not a regular file, and an output would replace it; "
                              "write to stdout to stream")
        for path in reads if out else ():
            if _same_file(out, path):
                raise LexAugError(f"{flag} {out} is the input file {path}; an output may not replace an input")
    if args.out and _same_file(manifest, args.out):
        raise LexAugError(f"--manifest {manifest} is the --out file {args.out}")


def _write_manifest(args, results: Mapping, digests: Mapping[str, str]) -> None:
    """Write the manifest to ``--manifest``, else beside ``--out`` if set.
    Its config is every setting of ``args.subcommand``, keyed by flag
    destination, so it is a config file for the same run, and its results
    are ``results``, what the run adds. Its inputs and output are the entries
    of ``digests``, where each reader or writer put the SHA-256 of the bytes
    it read or wrote, so no file but the manifest is opened."""
    if manifest_path := _manifest_path(args):
        _emit_json({
            "tool": "lexaug",
            "version": __version__,
            "subcommand": args.subcommand,
            "config": {k: v for k, v in vars(args).items() if k not in ("subcommand", "func", "config", "out", "manifest")},
            "results": results,
            "inputs": {path: digest for path, digest in digests.items() if path != args.out},
            "outputs": {args.out: digests[args.out]} if args.out else {},
        }, manifest_path)


def _staged(path: str) -> str:
    """The temporary file beside ``path`` that an output is written to."""
    return f"{path}.{os.getpid()}.tmp"


def _emit_lines(lines: Iterable[bytes], out_path: str | None, digests: dict[str, str] | None = None) -> None:
    """Write lines of bytes, each followed by ``b"\\n"``, to stdout, or to
    ``out_path`` by way of the file ``_staged(out_path)``, which a failed
    write removes. They are written joined, one ``write`` per BATCH_SIZE lines
    (to stdout's binary buffer, after a flush of its text layer), and hashed
    as written. Given ``digests``, the file is a run's output: its SHA-256
    goes in ``digests[out_path]``, and ``main`` moves it to ``out_path`` once
    the run has finished. Otherwise it replaces ``out_path`` at once."""
    lines = iter(lines)

    def chunks() -> Iterator[bytes]:
        while batch := list(itertools.islice(lines, BATCH_SIZE)):
            batch.append(b"")  # so that the join ends the last line too
            yield b"\n".join(batch)

    if out_path is None:
        sys.stdout.flush()
        for chunk in chunks():
            sys.stdout.buffer.write(chunk)
        return
    tmp_path = _staged(out_path)
    digest = hashlib.sha256()
    try:
        with open(tmp_path, "wb") as handle:
            for chunk in chunks():
                digest.update(chunk)
                handle.write(chunk)
        if digests is None:
            os.replace(tmp_path, out_path)
        else:
            digests[out_path] = digest.hexdigest()
    except BaseException:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
        raise


def _emit_json(obj, out_path: str | None, digests: dict[str, str] | None = None) -> None:
    _emit_lines([json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2).encode()], out_path, digests)


# --- augment -----------------------------------------------------------


# Items per batch that _map_batches hands to its ``run``.
BATCH_SIZE = 256
# Whether this platform can fork pool workers; --jobs N > 1 needs it.
_FORK = hasattr(os, "fork")


def _map_batches(run: Callable[[list], object], items: Iterable, jobs: int) -> Iterator:
    """``run(batch)`` for each batch of up to BATCH_SIZE items, in batch
    order. ``_pool`` runs the batches when ``jobs`` > 1 and the items make
    more than one batch; otherwise they run here. Either way an error in a
    batch, or in reading its items, is raised after the results of every
    batch before it."""
    items = iter(items)
    batches = iter(lambda: list(itertools.islice(items, BATCH_SIZE)), [])
    failed: list[Exception] = []  # an error in reading the items

    def read() -> list | None:
        try:
            return None if failed else next(batches, None)
        except Exception as exc:
            failed.append(exc)

    head = [batch for batch in (read(), read()) if batch is not None]
    pooled = jobs > 1 and len(head) == 2
    # Through an iterator over ``head``, so the batches read ahead are freed
    # once they have run rather than at the end of the run.
    batches_read = itertools.chain(iter(head), iter(read, None))
    del head
    yield from _pool(run, batches_read, jobs) if pooled else map(run, batches_read)
    if failed:
        raise failed[0]


def _pool(run: Callable[[list], object], batches: Iterator[list], jobs: int) -> Iterator:
    """``run(batch)`` for each batch, in batch order, on up to ``jobs``
    workers forked as batches arrive. Batch k goes to worker k mod ``jobs``,
    which holds at most that one batch, so no pipe fills both ways, and the
    next batch is read while the workers run. A dead worker fails the run at
    its batch, and no worker outlives the generator."""
    import pickle

    workers: list[tuple[int, BinaryIO, BinaryIO]] = []  # pid, batches to it, replies from it
    busy: list = []  # the workers that hold a batch, in batch order

    def send(worker: tuple[int, BinaryIO, BinaryIO], batch: list) -> None:
        with contextlib.suppress(BrokenPipeError):  # a dead worker fails the run at its reply
            pickle.dump(batch, worker[1])
            worker[1].flush()
        busy.append(worker)

    try:
        for batch in itertools.islice(batches, jobs):
            workers.append(_fork_worker(run, workers))
            send(workers[-1], batch)
        batch = next(batches, None)
        while busy:
            pid, _, replies = worker = busy.pop(0)
            try:
                ok, result = pickle.load(replies)
            except (EOFError, pickle.UnpicklingError):
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise LexAugError(f"a --jobs worker {how} before it returned its batch") from None
            if not ok:
                raise result
            if batch is not None:
                send(worker, batch)
                batch = next(batches, None)
            yield result
    finally:
        for pid, requests, replies in workers:
            with contextlib.suppress(BrokenPipeError):  # the batch a dead worker never read
                requests.close()
            replies.close()
            with contextlib.suppress(ChildProcessError):  # reaped when its death was reported
                os.waitpid(pid, 0)


def _fork_worker(run: Callable[[list], object], workers: list) -> tuple[int, BinaryIO, BinaryIO]:
    """Fork a worker that inherits ``run`` (and the lexicon it holds) and
    answers each batch it reads with ``(True, run(batch))`` or ``(False,
    exception)``; return its pid and the parent's ends of its two pipes."""
    import pickle

    (down_r, down_w), (up_r, up_w) = os.pipe(), os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (down_r, down_w, up_r, up_w):
            os.close(fd)
        raise
    if pid:
        os.close(down_r)
        os.close(up_w)
        # os.fdopen, not open: the benchmark's tracer replaces this module's open.
        return pid, os.fdopen(down_w, "wb"), os.fdopen(up_r, "rb")
    # The worker closes the earlier workers' pipes, and leaves by os._exit, so no
    # atexit handler, finalizer or stdio buffer inherited from the parent runs twice.
    try:
        for fd in (down_w, up_r, *(f.fileno() for _, *files in workers for f in files)):
            os.close(fd)
        requests, replies = os.fdopen(down_r, "rb"), os.fdopen(up_w, "wb")
        while True:
            try:
                batch = pickle.load(requests)
            except EOFError:
                os._exit(0)
            try:
                result = (True, run(batch))
            except Exception as exc:
                result = (False, exc)
            pickle.dump(result, replies)
            replies.flush()
    finally:
        os._exit(1)


def cmd_augment(args, digests: dict[str, str]) -> dict:
    from .augment import augment_example
    from .sampling import SelectionMode, SelectionParams, derive_rng
    _require(args, "task", "corpus", "lexicon", "seed")
    task = Task(args.task.replace("-", "_"))
    params = SelectionParams(p_tr=args.p_tr, mode=SelectionMode(args.sampling))
    lexicon = _load_lexica(args.lexicon, digests)
    kind = "mono" if args.task.endswith("-mono") else "parallel"

    def run(batch: list) -> tuple[list[bytes], list[str]]:
        """The batch's output lines, as UTF-8, and one message per record whose
        augmentation failed. A failed record aborts the run unless
        ``--on-error skip``, which drops it."""
        out, messages = [], []
        for item in batch:
            rng = derive_rng(args.seed, item.id)
            try:
                example = augment_example(item, task, lexicon, params, rng, args.mask_fraction)
            except LexAugError as exc:
                message = f"record {item.id}: {type(exc).__name__}: {exc}"
                if args.on_error == "abort":
                    raise LexAugError(message) from exc
                messages.append(message)
                continue
            out.append(json.dumps(example.to_json_obj(), ensure_ascii=False, sort_keys=True).encode())
        return out, messages

    # Parse errors, then failed records: a pool reads the corpus ahead of its
    # results, so one list of both would interleave them by --jobs.
    skipped: list = []
    failed: list[str] = []
    records = load_corpus(args.corpus, kind, skipped.append if args.on_error == "skip" else None, digests)
    selected = (r for r in records if assign_branch(r.id, args.seed, args.fraction) is Branch.AUGMENT)

    def lines(results: Iterable[tuple[list[bytes], list[str]]]) -> Iterator[bytes]:
        for batch_lines, batch_failed in results:
            failed.extend(batch_failed)
            yield from batch_lines

    _emit_lines(lines(_map_batches(run, selected, args.jobs)), args.out, digests)

    for message in [str(exc) for exc in skipped] + failed:
        print(f"warning: skipped {message}", file=sys.stderr)
    return {"skipped_records": len(skipped) + len(failed)}


def cmd_token_pairs(args, digests: dict[str, str]) -> None:
    from .augment import token_pair_examples
    _require(args, "lexicon")
    lang_filter = [lang.strip() for langs in args.langs or [] for lang in langs.split(",") if lang.strip()]
    if not lang_filter and any(args.langs or ()):  # --langs "" (given any number of times) is no filter
        raise LexAugError(f"--langs names no language, got {','.join(args.langs)!r}")
    lexicon = _load_lexica(args.lexicon, digests)
    lines = (
        json.dumps(e.to_json_obj(), ensure_ascii=False, sort_keys=True).encode()
        for e in token_pair_examples(lexicon, lang_filter or None)
    )
    _emit_lines(lines, args.out, digests)


def cmd_mix(args, digests: dict[str, str]) -> dict:
    from .mixture import StreamFile, TaskWeights, build_schedule, interleave, task_named
    if args.weights:
        if (args.mono_aug, args.parallel_aug, args.token_pairs) != ("none", "none", False):
            raise LexAugError("--weights gives every weight, so --mono-aug, --parallel-aug and --token-pairs "
                              "must keep their defaults (none, none, --no-token-pairs)")
        try:
            weights = TaskWeights.from_json_obj(_read_json(args.weights, digests))
        except ScheduleError as exc:
            raise FormatError(str(exc), args.weights) from None
    else:
        weights = build_schedule(args.mono_aug, args.parallel_aug, args.token_pairs)
    results = {"weights": weights.to_json_obj()}
    if not args.streams:
        _emit_json(results["weights"], args.out, digests)
        return results

    _require(args, "seed", "count")
    if not hasattr(os, "pread"):
        raise LexAugError("mix --streams reads stream lines with os.pread, which this platform lacks")
    stream_paths: dict = {}  # Task -> path
    for spec_str in args.streams:
        name, eq, path = spec_str.partition("=")
        if not eq:
            raise ScheduleError(f"--streams entries look like task=path, got {spec_str!r}")
        try:
            task = task_named(name.replace("-", "_"))
        except ScheduleError as exc:
            raise ScheduleError(f"--streams: {exc}") from None
        if task in stream_paths:
            raise ScheduleError(f"--streams: task {task.value!r} given twice ({stream_paths[task]}, {path})")
        if weights.get(task) <= 0:
            raise ScheduleError(f"--streams: task {task.value!r} has no weight in the schedule, so {path} is never read")
        stream_paths[task] = path
    with contextlib.ExitStack() as opened:
        streams = {task: opened.enter_context(StreamFile(path, digests)) for task, path in stream_paths.items()}
        _emit_lines(itertools.islice(interleave(streams, weights, args.seed), args.count), args.out, digests)
        for stream in streams.values():  # a stream that changed while it was read fails the run
            stream.check_unchanged()
    return results


def cmd_score(args, digests: dict[str, str]) -> None:
    """Corpus chrf, and with ``--sentence`` each pair's, of the ``--hyp`` and
    ``--ref`` lines. The pairs go to ``_map_batches`` as the two files are
    read, and each batch returns its pair count and summed statistics, so the
    run holds the batches in flight, not the files, and one score per pair
    (rounded where its batch runs) only with ``--sentence``. The first empty
    reference fails the run; so does a file that ends before the other, once
    the rest of the other is counted."""
    from . import metrics
    _require(args, "hyp", "ref")

    def pairs() -> Iterator[tuple[str, str]]:
        hyps, refs = read_lines(args.hyp, digests), read_lines(args.ref, digests)
        with contextlib.closing(hyps), contextlib.closing(refs):
            lines = itertools.zip_longest(hyps, refs)
            n = 0
            for n, (hyp, ref) in enumerate(lines, 1):
                if hyp is None or ref is None:
                    longer = n + sum(1 for _ in lines)
                    raise LexAugError("hypothesis and reference files differ in length: "
                                      f"{n - 1 if hyp is None else longer} vs {n - 1 if ref is None else longer}")
                if not ref:
                    raise FormatError("reference is empty", args.ref, n)
                yield hyp, ref
            if not n:
                raise LexAugError("input files are empty")

    def run(batch: list[tuple[str, str]]) -> tuple[int, list[int], list[float]]:
        """The batch's pair count, summed statistics and rounded sentence scores."""
        batch_count, batch_sums, batch_scores = metrics.chrf_sums(batch, args.sentence)
        return batch_count, batch_sums, [round(s, 4) for s in batch_scores]

    count, sums, sentence_scores = 0, [0] * (3 * metrics.CHRF_CHAR_ORDER), []
    for batch_count, batch_sums, batch_scores in _map_batches(run, pairs(), args.jobs):
        count += batch_count
        sums = [a + b for a, b in zip(sums, batch_sums)]
        sentence_scores += batch_scores
    result = {"metric": "chrf", "score": round(metrics.f_score(sums), 4), "pairs": count}
    if args.sentence:
        result["sentence_scores"] = sentence_scores
    _emit_json(result, args.out, digests)


def _eval_rows(path: str, batch: list[tuple[int, str]]) -> list[metrics.EvalRow]:
    """The eval rows of a batch of numbered JSONL lines from ``path``."""
    from . import metrics
    rows = []
    for line_no, line in batch:
        try:
            rows.append(metrics.EvalRow.from_json_obj(json.loads(line)))
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc.msg}", path, line_no) from exc
        except ValueError as exc:
            raise FormatError(str(exc), path, line_no) from exc
    return rows


def _eval_report(path: str, report: Callable[[list], object], jobs: int, digests: dict[str, str]):
    """``report`` of the eval rows in ``path``, a dataclass of counts: it runs
    where each batch runs (as does the JSON parse), and each field of the
    result is that field's sum over the batches' reports. Blank lines are
    skipped, and a file without a row fails."""
    numbered = ((n, line) for n, line in enumerate(read_lines(path, digests), 1) if line.strip())
    reports = list(_map_batches(lambda batch: report(_eval_rows(path, batch)), numbered, jobs))
    if not reports:
        raise FormatError("holds no eval row", path)
    return type(reports[0])(*map(sum, zip(*map(astuple, reports))))


def cmd_diagnose(args, digests: dict[str, str]) -> None:
    from . import metrics
    _require(args, "rows")
    report = _eval_report(args.rows, metrics.diagnose_corpus, args.jobs, digests)
    print(report.format_table())
    if args.out:
        _emit_json(report.to_json_obj(), args.out, digests)


def cmd_hit_rate(args, digests: dict[str, str]) -> None:
    from . import metrics
    _require(args, "rows", "tokens")
    numbered = [(n, line.strip()) for n, line in enumerate(read_lines(args.tokens, digests), 1) if line.strip()]
    if not numbered:
        raise FormatError("names no token: every line is blank", args.tokens)
    for line_no, token in numbered:
        if words(token) != [token]:  # a row's tokens are words, so no other token could match
            raise FormatError(f"a watched token must be one word token, got {token!r}", args.tokens, line_no)
    tokens = [token for _, token in numbered]
    result = _eval_report(args.rows, lambda rows: metrics.token_hit_rate(rows, tokens), args.jobs, digests)
    _emit_json(result.to_json_obj(), args.out, digests)


def cmd_regress(args, digests: dict[str, str]) -> None:
    from . import analysis  # only regress needs it

    _require(args, "table")
    rows = analysis.load_lang_rows(args.table, digests)
    try:
        result = analysis.regress_delta_chrf(rows).to_json_obj()
    except InsufficientDataError as exc:
        # Too few URL rows to fit; the per-class table needs no fit.
        print(f"warning: no fit: {exc}", file=sys.stderr)
        result = {"per_class": analysis.per_class_deltas(rows)}
    except FitError as exc:
        # The fit failed on the table's values, so name the table.
        raise FormatError(str(exc), args.table) from exc
    _emit_json(result, args.out, digests)


def cmd_lexicon_stats(args, digests: dict[str, str]) -> None:
    _require(args, "lexicon")
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

    def common(p, func: Callable):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--manifest", help="manifest path (default: OUT.manifest.json)")
        p.set_defaults(func=func)

    p = sub.add_parser("augment", help="render augmented training examples from a corpus")
    p.add_argument("--task", choices=_TASKS)
    p.add_argument("--corpus")
    p.add_argument("--lexicon", action=_Repeatable, metavar="[NAME=]PATH")
    p.add_argument("--seed", type=seed)
    p.add_argument("--p-tr", dest="p_tr", type=share, default=0.4)
    p.add_argument("--fraction", type=share, default=0.5, help="share of records routed to augmentation")
    p.add_argument("--sampling", choices=_SAMPLING, default="binomial")
    p.add_argument("--mask-fraction", dest="mask_fraction", type=share, default=0.5)
    jobs(p, 1)
    p.add_argument("--on-error", dest="on_error", choices=["abort", "skip"], default="abort")
    common(p, cmd_augment)

    p = sub.add_parser("token-pairs", help="render lexicon entries as tiny translation examples")
    p.add_argument("--lexicon", action=_Repeatable, metavar="[NAME=]PATH")
    p.add_argument("--langs", action=_Repeatable, help="comma-separated language filter")
    common(p, cmd_token_pairs)

    p = sub.add_parser("mix", help="build a task weight schedule and optionally interleave streams")
    p.add_argument("--mono-aug", dest="mono_aug", choices=AUG_CHOICES, default="none")
    p.add_argument("--parallel-aug", dest="parallel_aug", choices=AUG_CHOICES, default="none")
    p.add_argument("--token-pairs", dest="token_pairs", action=argparse.BooleanOptionalAction, default=False)
    p.add_argument("--weights", help="JSON file mapping task name to weight")
    p.add_argument("--streams", action=_Repeatable, metavar="TASK=PATH")
    p.add_argument("--seed", type=seed)
    p.add_argument("--count", type=_number(int, low=0), help="number of mixed examples to emit")
    common(p, cmd_mix)

    p = sub.add_parser("score", help="chrf over line-aligned hypothesis/reference files")
    p.add_argument("--hyp")
    p.add_argument("--ref")
    p.add_argument("--sentence", action=argparse.BooleanOptionalAction, default=False,
                   help="include per-sentence scores")
    jobs(p, cores)
    common(p, cmd_score)

    p = sub.add_parser("diagnose", help="null/copy/repetition error report over eval rows")
    p.add_argument("--rows", help="JSONL eval rows")
    jobs(p, cores)
    common(p, cmd_diagnose)

    p = sub.add_parser("hit-rate", help="watched-token hit rate over eval rows")
    p.add_argument("--rows", help="JSONL eval rows")
    p.add_argument("--tokens", help="watched tokens, one word token per line")
    jobs(p, cores)
    common(p, cmd_hit_rate)

    p = sub.add_parser("regress", help="fit score deltas on lexicon entry counts (URL rows); mean delta per class")
    p.add_argument("--table", help="CSV: lang,delta_chrf,n_panlex,n_gatitos,n_mono,class")
    common(p, cmd_regress)

    p = sub.add_parser("lexicon-stats", help="entry counts per language pair and source")
    p.add_argument("--lexicon", action=_Repeatable, metavar="[NAME=]PATH")
    p.add_argument("--lang", help="also report per-source counts for this language")
    common(p, cmd_lexicon_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    digests: dict[str, str] = {}
    try:
        if args.config is not None:
            # The config file's values become the subcommand's defaults, so a
            # second parse applies them below the flags.
            subparser = parser._subparsers._group_actions[0].choices[args.subcommand]
            subparser.set_defaults(**_read_config(args.config, subparser, digests))
            args = parser.parse_args(argv)
        if getattr(args, "jobs", 1) > 1 and not _FORK:
            raise LexAugError(f"--jobs {args.jobs} forks worker processes, which this platform cannot")
        _check_outputs(args)
        try:
            results = args.func(args, digests) or {}
            sys.stdout.flush()  # so that a closed stdout fails the run before its manifest
            if args.out in digests:  # no manifest outlives the bytes it describes, even if the run is killed
                with contextlib.suppress(FileNotFoundError):
                    os.remove(_manifest_path(args))
                os.replace(_staged(args.out), args.out)
            _write_manifest(args, results, digests)
        except BaseException:
            # A failed run leaves no --out: remove the one it wrote, in place or not.
            if args.out in digests:
                os.remove(_staged(args.out) if os.path.exists(_staged(args.out)) else args.out)
            raise
        return 0
    except BrokenPipeError:
        # stdout was closed early (`lexaug mix … | head`): exit as SIGPIPE would (128 + 13), silently.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the exit's flush cannot fail
        return 141
    except (LexAugError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
