"""Every function defined in src/lexaug is entered by some command.

Each subcommand runs in process under ``sys.setprofile``, over the golden
inputs of test_golden.py, plus a config file, a weights file, a pooled run
and a few faulty inputs. A ``def`` in the package that none of these runs
enters fails the test, unless ALLOWED names it with the reason it stays:
code that no command reaches is deleted, not kept. Comprehensions and
lambdas count as part of the function that holds them, and module and class
bodies, which run at import, are not checked. Forked workers are not seen,
but every batch function also runs in process at ``--jobs 1``.
"""

import importlib
import inspect
import json
import os
import sys
import types
from pathlib import Path

import lexaug
import test_golden as golden
from lexaug import cli, corpus

# Function -> the one-line reason it stays although no command enters it.
ALLOWED = {
    "lexaug.__getattr__": "the README's library API: `from lexaug import ...` loads each name",
    "lexaug.lexicon.LexEntry.__new__": "the README's library API: an entry built in code is checked",
    "lexaug.augment.validate_example": "perfbench/workloads.py imports it to check every example",
    "lexaug.augment.TrainingExample.from_json_obj": "perfbench/workloads.py imports it to read examples back",
    "lexaug.mixture.StreamFile._read_whole": "the short-read fallback, entered only with os.pread patched "
                                             "(test_mixture.py::…::test_a_short_read_is_not_the_end)",
}


def _defs(code: types.CodeType, prefix: str):
    """(name, key) of each ``def`` function nested in ``code``, at any depth;
    the key is what the profile sees of its code object."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            name = f"{prefix}.{const.co_name}"
            # Module and class bodies are not optimized; comprehensions and
            # lambdas are named "<...>".
            if const.co_flags & inspect.CO_OPTIMIZED and const.co_name[0] != "<":
                yield name, (const.co_filename, const.co_firstlineno, const.co_name)
            yield from _defs(const, name)


def _package_defs() -> dict:
    """Each ``def`` of the package's modules, by name. Every module is
    imported first, so that no command's ``from . import x`` falls back to
    ``lexaug.__getattr__``, whichever tests ran before."""
    package = Path(lexaug.__file__).resolve().parent
    found = {}
    for path in sorted(package.glob("*.py")):
        module = "lexaug" if path.stem == "__init__" else f"lexaug.{path.stem}"
        importlib.import_module(module)
        found.update(_defs(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module))
    return found


def _runs(tmp_path) -> list[tuple[list[str], int]]:
    """The command lines to profile, each with its exit status."""
    g = golden.write_inputs(tmp_path)
    e = golden.write_eval_inputs(tmp_path)
    lexica = [arg for spec in g["lexicon"] for arg in ("--lexicon", spec)]
    out = str(tmp_path / "out")
    runs = [
        (["augment", "--task", task, "--corpus", g["mono" if task.endswith("-mono") else "parallel"], *lexica,
          "--seed", "20230327", "--sampling", sampling_mode, "--jobs", "1", "--out", out], 0)
        for task, sampling_mode in sorted(golden.AUGMENT_DIGESTS)
    ]
    runs += [
        (["token-pairs", *lexica, "--langs", "es,ru,ja", "--out", out], 0),
        (["lexicon-stats", *lexica, "--lang", "en", "--out", out], 0),
        (["score", "--hyp", e["hyp"], "--ref", e["ref"], "--jobs", "1", "--out", out], 0),
        (["score", "--hyp", e["hyp"], "--ref", e["ref"], "--sentence", "--jobs", "1", "--out", out], 0),
        (["diagnose", "--rows", e["rows"], "--jobs", "1", "--out", out], 0),
        (["hit-rate", "--rows", e["rows"], "--tokens", e["tokens"], "--jobs", "1", "--out", out], 0),
    ]
    streams = []
    for task, content in [*golden._RAGGED_STREAMS.items(), ("codeswitch_mono", b'{"c": 0}\n{"c": 1}\n')]:
        path = tmp_path / f"stream-{task}.jsonl"
        path.write_bytes(content)
        streams += ["--streams", f"{task}={path}"]
    weights = tmp_path / "weights.json"
    weights.write_text('{"translation": 0.5, "mass": 0.5}', encoding="utf-8")
    bad_stream = tmp_path / "bad-stream.jsonl"
    bad_stream.write_bytes(b'{"t": 0}\n{"t": "\xff"}\n')
    runs += [
        (["mix", "--mono-aug", "codeswitch", *streams, "--seed", "11", "--count", "200", "--out", out], 0),
        (["mix", "--weights", str(weights), *streams[:4], "--seed", "3", "--count", "20", "--out", out], 0),
        (["mix", "--streams", f"translation={bad_stream}", "--seed", "1", "--count", "1", "--out", out], 1),
    ]
    # n_gatitos is twice n_panlex on every row, so the fit is singular.
    singular = "".join(f"u{i},{i % 3}.5,{10 * i + 1},{20 * i + 2},{1000 + i * i},URL\n" for i in range(8))
    for name, table, code in (("fit", golden._REGRESS_FIT, 0), ("per-class", golden._REGRESS_PER_CLASS, 0),
                              ("singular", golden._REGRESS_HEADER + singular, 1)):
        path = tmp_path / f"table-{name}.csv"
        path.write_text(table, encoding="utf-8")
        runs.append((["regress", "--table", str(path), "--out", out], code))
    config, bad_config = tmp_path / "config.json", tmp_path / "bad-config.json"
    config.write_text(json.dumps({"task": "glowup-mono", "corpus": g["mono"], "seed": 7, "p_tr": 0.5}), encoding="utf-8")
    bad_config.write_text('{"sampling": "bogus"}', encoding="utf-8")
    runs += [
        (["augment", "--config", str(config), *lexica, "--jobs", "1", "--out", out], 0),
        (["augment", "--config", str(bad_config), "--out", out], 1),
        # Batches of one pair, so the 16 golden pairs go through a pool.
        (["score", "--hyp", e["hyp"], "--ref", e["ref"], "--sentence", "--jobs", "2", "--out", out], 0),
    ]
    return runs


def test_every_function_is_entered(tmp_path, monkeypatch, capsys):
    defs = _package_defs()
    runs = _runs(tmp_path)
    monkeypatch.setattr(cli, "BATCH_SIZE", 1)
    # Cached functions are entered on a miss, so the caches start empty
    # whatever ran before.
    monkeypatch.setattr(corpus, "_WORD_TABLE", corpus._WordTable())
    for module in [m for name, m in sys.modules.items() if name.startswith("lexaug.")]:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    entered = set()
    previous = sys.getprofile()
    sys.setprofile(lambda frame, event, arg: entered.add(frame.f_code))
    try:
        codes = [cli.main(argv) for argv, _ in runs]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [code for _, code in runs]

    real = {name: os.path.realpath(name) for name in {code.co_filename for code in entered}}
    reached = {(real[code.co_filename], code.co_firstlineno, code.co_name) for code in entered}
    unreached = sorted(name for name, key in defs.items() if key not in reached)
    dead = [name for name in unreached if name not in ALLOWED]
    assert not dead, f"no command enters {dead}: delete them, or run them from a command"
    # An entry goes once its function is deleted or a command enters it.
    stale = sorted(set(ALLOWED) - set(unreached))
    assert not stale, f"ALLOWED names {stale}, which are gone or entered"
