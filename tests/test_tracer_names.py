"""The benchmark's tracer (perfbench/tracer.py) wraps lexaug functions by
name. If a refactor renames one, the tracer lists it as missing and its
per-layer metrics read 0 without any failure; this test makes that fail."""

import json
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_finds_every_traced_name(tmp_path):
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_text("en\tes\tLatn\tcat\tgato\nen\tfr\tLatn\thot chip\tfrites\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(tmp_path / "spans"), "--", "lexicon-stats", "--lexicon", str(lexicon)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["entries"] == 2
    meta = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))
    # The tracer still names Lexicon.lookup, metrics.corpus_chrf and
    # metrics.chrf, which the package no longer has; no command reached the
    # two chrf functions, so their metrics read 0 before they were deleted.
    assert meta["missing"] == ["Lexicon.lookup", "lexaug.metrics.corpus_chrf", "lexaug.metrics.chrf"]
