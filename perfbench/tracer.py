"""Run one lexaug CLI command in-process with timing spans around the public
functions of each layer.

    python3 perfbench/tracer.py SPANS -- augment --task codeswitch-mono ...

It stands in for the ``lexaug`` entry point: it imports the package from
``src``, rebinds each traced function in every lexaug module that holds it
(``augment.tokenize``, ``lexicon.tokenize`` and ``metrics.tokenize`` are
separate bindings of one function), calls ``lexaug.cli.main`` and exits with
its code. Spans stay in memory until the command ends; then ``SPANS.npy``
(one row per span: name, parent span, outermost-of-its-name flag, record id,
start and end in ns) and ``SPANS.json`` (span names and counters) are
written. Run only with ``--jobs 1``: spans of pool workers would be lost.

``summarize`` turns those two files into per-name call counts, inclusive
times and self times (a span's time minus the time of its child spans).
"""

from __future__ import annotations

import array
import builtins
import functools
import importlib
import json
import pkgutil
import sys
import types
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import numpy as np

SPAN_DTYPE = np.dtype([
    ("name", "<i4"), ("parent", "<i4"), ("outer", "u1"), ("record", "<i8"), ("start", "<i8"), ("end", "<i8"),
])


class Tracer:
    """In-memory span recorder. Spans nest by call stack: each span's parent
    is the span open when it started."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._open_by_name: list[int] = []
        self.name = array.array("i")
        self.parent = array.array("i")
        self.outer = array.array("B")
        self.record = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.stack = [-1]
        self.record_id = -1
        self.counts: Counter = Counter()
        self.subcommand = ""
        self.missing: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open_by_name.append(0)
        return self._ids[name]

    def current(self) -> str:
        top = self.stack[-1]
        return self.names[self.name[top]] if top >= 0 else ""

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.outer.append(self._open_by_name[nid] == 0)
        self.record.append(self.record_id)
        self.end.append(0)
        self._open_by_name[nid] += 1
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int, nid: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._open_by_name[nid] -= 1
        self.stack.pop()

    def wrap(self, name: str, fn, after=None, record_of=None):
        """A span per call. ``after(result, *args)`` runs once the span is
        closed; ``record_of(*args)`` gives the record id the call works on."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if record_of is not None:
                outer_record, self.record_id = self.record_id, record_of(*args)
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx, nid)
                if record_of is not None:
                    self.record_id = outer_record
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def wrap_iter(self, name: str, fn, after=None):
        """For functions returning an iterator: a span for the call and one
        per item drawn. ``after(item, span)`` sees each item and its span."""
        nid = self.name_id(name)
        call = self.wrap(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = iter(call(*args, **kwargs))

            def items():
                while True:
                    idx = self.open(nid)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        self.close(idx, nid)
                    if after is not None:
                        after(item, idx)
                    yield item

            return items()

        return traced

    def save(self, prefix: str) -> None:
        spans = np.zeros(len(self.name), dtype=SPAN_DTYPE)
        for field in SPAN_DTYPE.names:
            spans[field] = np.frombuffer(getattr(self, field), dtype=SPAN_DTYPE[field])
        np.save(prefix + ".npy", spans)
        with open(prefix + ".json", "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "counts": dict(self.counts), "missing": self.missing}, handle, sort_keys=True)


class _TracedWriter:
    """Output file whose writes (and final flush on close) are spans."""

    def __init__(self, handle, tracer: Tracer, name: str):
        self._handle = handle
        self.write = tracer.wrap(name, handle.write)
        self.close = tracer.wrap(name, handle.close)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __getattr__(self, attr):
        return getattr(self._handle, attr)


class _TracedReader:
    """Input file read as one span, from open to close."""

    def __init__(self, handle, tracer: Tracer, name: str):
        self._handle = handle
        self._tracer = tracer
        self._nid = tracer.name_id(name)
        self._idx = tracer.open(self._nid)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __iter__(self):
        return iter(self._handle)

    def close(self):
        if self._idx >= 0:
            self._handle.close()
            self._tracer.close(self._idx, self._nid)
            self._idx = -1

    def __getattr__(self, attr):
        return getattr(self._handle, attr)


def install(t: Tracer):
    """Trace the layers; return the (traced) ``lexaug.cli.main``."""
    import lexaug

    modules = [importlib.import_module(f"lexaug.{m.name}") for m in pkgutil.iter_modules(lexaug.__path__)]
    from lexaug import augment, cli, corpus, lexicon, metrics, mixture, sampling

    def rebind(owner, attr: str, make) -> None:
        """Replace ``owner.attr`` and every module-level binding of the same
        object with ``make(original)``. A name this version of the package
        lacks is listed in ``t.missing`` and its metrics read 0."""
        if attr not in vars(owner):
            t.missing.append(f"{owner.__name__}.{attr}")
            return
        original = vars(owner)[attr]
        traced = make(original)
        setattr(owner, attr, traced)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)

    def span(name, after=None, record_of=None):
        return lambda fn: t.wrap(name, fn, after, record_of)

    def count(key, amount=1):
        t.counts[key] += amount

    # corpus
    rebind(corpus, "tokenize", span("corpus.tokenize"))

    def parsed(record, idx):
        t.record[idx] = record.id
        count("corpus.records")

    rebind(corpus, "load_corpus", lambda fn: t.wrap_iter("corpus.parse", fn, parsed))
    rebind(corpus, "assign_branch", span(
        "corpus.branch", lambda branch, *a, **k: count("corpus.branch_augment", branch is corpus.Branch.AUGMENT)))

    # lexicon
    rebind(cli, "_load_lexica", span("lexicon.load", lambda lex, *a, **k: count("lexicon.entries", len(lex))))
    rebind(lexicon.Lexicon, "has_term", span(
        "lexicon.has_term", lambda hit, *a, **k: count("lexicon.has_term_hits", bool(hit))))
    for method in ("lookup", "lookup_key"):
        rebind(lexicon.Lexicon, method, span("lexicon.lookup"))

    # augment
    def found(spans, *a, **k):
        count("augment.spans", len(spans))
        count("augment.no_span", not spans)

    def swapped(result, sentence, *a, **k):
        if sentence.n:
            count("sampling.swap_frac_sum", len(result[1]) / sentence.n)
            count("sampling.swap_records")

    def prompted(result, sentence, *a, **k):
        count("augment.prompts")
        count("augment.hints", result[0].count("<hint> "))
        swapped(result, sentence)

    rebind(augment, "find_translatable", span("augment.find_translatable", found))
    rebind(augment, "augment_example", span("augment.task", record_of=lambda item, *a, **k: item.id))
    rebind(augment, "codeswitch", span("augment.task", swapped))
    rebind(augment, "glowup_prompt", span("augment.task", prompted))
    for name in ("codeswitch_mono", "codeswitch_parallel", "glowup_mono", "glowup_source", "glowup_parallel"):
        rebind(augment, name, span("augment.task"))
    rebind(augment.SentinelInventory, "ensure_clean", span("augment.ensure_clean"))

    # sampling
    rebind(sampling, "derive_rng", span("sampling.rng"))
    for method in ("random", "randrange"):
        rebind(sampling.Rng, method, span("sampling.rng"))

    def shuffled(*a, **k):
        if t.current() == "mixture.interleave":
            count("mixture.reshuffles")

    rebind(sampling.Rng, "shuffle", span("sampling.rng", shuffled))
    for name in ("select_binomial_adjusted", "select_uniform_count"):
        rebind(sampling, name, span("sampling.select"))
    rebind(sampling, "choose_translation", span("sampling.choose"))

    # mixture
    rebind(mixture, "interleave", lambda fn: t.wrap_iter("mixture.interleave", fn))

    # metrics
    def ngrams(stats, *a, **k):
        count("metrics.ngrams", sum(stats[0::3]) + sum(stats[1::3]))

    rebind(metrics, "_pair_statistics", span("metrics.pair_statistics", ngrams))
    rebind(metrics, "corpus_chrf", span("metrics.corpus_chrf"))
    rebind(metrics, "chrf", span("metrics.sentence_chrf"))
    rebind(metrics, "diagnose_corpus", span("metrics.diagnose"))
    rebind(metrics, "token_hit_rate", span("metrics.hit_rate"))

    # cli: serialization, output writes, the manifest, mix stream reads
    rebind(augment.TrainingExample, "to_json_obj", span("cli.serialize"))
    cli.json = types.SimpleNamespace(**{k: getattr(json, k) for k in json.__all__})
    cli.json.dumps = t.wrap("cli.serialize", json.dumps)
    rebind(cli, "_write_manifest", span("cli.manifest"))

    def traced_open(file, mode="r", *args, **kwargs):
        handle = builtins.open(file, mode, *args, **kwargs)
        if "w" in mode:
            return _TracedWriter(handle, t, "cli.write")
        if t.subcommand == "mix" and "b" not in mode:
            return _TracedReader(handle, t, "mixture.read")
        return handle

    cli.open = traced_open
    for name in [n for n in vars(cli) if n.startswith("cmd_")]:
        rebind(cli, name, span("cli.command"))
    return t.wrap("cli.main", cli.main)


def summarize(prefix: str) -> dict:
    """Per span name: calls, inclusive seconds of its outermost spans, and
    self seconds; plus the counters and the names that were not traced."""
    spans = np.load(prefix + ".npy")
    with open(prefix + ".json", encoding="utf-8") as handle:
        meta = json.load(handle)
    names = meta["names"]
    n = len(names)
    dur = (spans["end"] - spans["start"]).astype(np.float64) / 1e9
    nested = spans["parent"] >= 0
    child = np.bincount(spans["parent"][nested], weights=dur[nested], minlength=len(spans))
    own = dur - child
    outer = spans["outer"].astype(bool)
    calls = np.bincount(spans["name"], minlength=n)
    incl = np.bincount(spans["name"][outer], weights=dur[outer], minlength=n)
    self_s = np.bincount(spans["name"], weights=own, minlength=n)
    layers = {
        name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(self_s[i])}
        for i, name in enumerate(names)
    }
    return {"spans": layers, "counts": meta["counts"], "missing": meta["missing"]}


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS -- LEXAUG_ARGS...", file=sys.stderr)
        return 2
    prefix, args = argv[0], argv[2:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t = Tracer()
    t.subcommand = args[0]
    traced_main = install(t)
    try:
        return traced_main(args)
    finally:
        t.save(prefix)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
