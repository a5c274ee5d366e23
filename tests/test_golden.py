"""Golden SHA-256 digests of the CLI's data-producing commands.

The corpora, lexica and eval rows below are written from literals, so any
change to the bytes that `augment`, `token-pairs`, `lexicon-stats`, `mix`,
`score`, `diagnose`, `hit-rate` or `regress` emit for them fails here. A
refactor must leave every digest unchanged; a deliberate output change must
update the digest in the same commit and say why.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from lexaug import cli
from lexaug.cli import main

_MONO_TEXTS = [
    ("en", "Latn", "The cat sat on the mat."),
    ("en", "Latn", "A dog barks at the cat, and the cat runs."),
    ("en", "Latn", "We ate a hot chip and ice cream by the river"),
    ("en", "Latn", "Hot  chip; ice-cream? The red house is big."),
    ("en", "Latn", "My friend reads a book under the big tree"),
    ("en", "Latn", "Nothing here matches anything at all"),
    ("en", "Latn", "the RIVER and the house, the tree and the dog"),
    ("en", "Latn", "Ice cream for the cat. Hot chip for the dog!"),
    ("ru", "Cyrl", "Кошка сидит у большого дома"),
    ("ru", "Cyrl", "Собака и кошка пьют воду из реки."),
    ("hi", "Deva", "बिल्ली और कुत्ता घर में हैं"),
    ("en", "Latn", "café book friend tree river house"),
]

_PARALLEL_PAIRS = [
    ("en", "The cat drinks water", "es", "El gato bebe agua"),
    ("en", "A big dog near the red house", "es", "Un perro grande cerca de la casa roja"),
    ("en", "I like hot chip and ice cream", "fr", "J'aime les frites et la glace"),
    ("en", "The friend reads by the river.", "es", "El amigo lee junto al río."),
    ("en", "Under the tree, a book", "fr", "Sous l'arbre, un livre"),
    ("en", "Water, water everywhere", "ru", "Вода, вода повсюду"),
    ("ru", "Кошка пьёт воду", "en", "The cat drinks water"),
    ("en", "No lexicon words appear", "es", "No aparecen palabras"),
]

_LEXICON_MAIN = """\
# lang pairs across scripts; multi-word terms open the phrase window
en\tes\tLatn\tcat\tgato
en\tfr\tLatn\tcat\tchat
en\tru\tCyrl\tcat\tкошка
en\tja\tJpan\tcat\t猫
en\tes\tLatn\tdog\tperro
en\tfr\tLatn\tdog\tchien
en\thi\tDeva\tdog\tकुत्ता
en\tes\tLatn\thot chip\tpapas fritas
en\tfr\tLatn\thot chip\tfrites
en\tes\tLatn\tice cream\thelado
en\tfr\tLatn\tice cream\tglace
en\tes\tLatn\tred house\tcasa roja
en\tes\tLatn\thouse\tcasa
en\tru\tCyrl\thouse\tдом
en\tes\tLatn\twater\tagua
en\tru\tCyrl\twater\tвода
en\tes\tLatn\triver\trío
en\tfr\tLatn\tbook\tlivre
en\tes\tLatn\tbig\tgrande
ru\ten\tLatn\tкошка\tcat
ru\ten\tLatn\tсобака\tdog
ru\tes\tLatn\tдома\tcasa
ru\ten\tLatn\tводу\twater
hi\ten\tLatn\tबिल्ली\tcat
hi\ten\tLatn\tघर\thouse
"""

_LEXICON_EXTRA = """\
en\tes\tLatn\tcat\tgato
en\tes\tLatn\tfriend\tamigo
en\tfr\tLatn\ttree\tarbre
en\tes\tLatn\tcafé\tcafetería
en\tja\tJpan\tbook\t本
"""

# One digest per (task, --sampling); `--jobs 1` and `--jobs 2` must both
# produce it. The glowup tasks draw their hint count uniformly whatever
# --sampling says, so their two digests are the same.
AUGMENT_DIGESTS = {
    ("codeswitch-mono", "binomial"):
        "3d2bb2b38e7a13c97dbfd45744c640755bd22754c522fad92b6f890dc8caf229",
    ("codeswitch-mono", "uniform"):
        "fc114423ee36626e7c06234e3557899a08e533747b36c620b4aca58199a873a4",
    ("codeswitch-parallel", "binomial"):
        "ebbecb5103f2ee4919ee73fa135e6e7d17561ef9d52a52c258151a909458c1f5",
    ("codeswitch-parallel", "uniform"):
        "e9328c8aa0422e36b86225455b37846e040ea76148cc3a75631f27a044d68e8d",
    ("glowup-mono", "binomial"):
        "9f886e1cac373c0a467eb80c4f495e6293cca1ad8b25e54fb65d9798a012b83e",
    ("glowup-mono", "uniform"):
        "9f886e1cac373c0a467eb80c4f495e6293cca1ad8b25e54fb65d9798a012b83e",
    ("glowup-parallel", "binomial"):
        "01a082aef5594505fc0ed05014d3c6b2b5d0b96aea2ea7397402666cafbe7b17",
    ("glowup-parallel", "uniform"):
        "01a082aef5594505fc0ed05014d3c6b2b5d0b96aea2ea7397402666cafbe7b17",
}
TOKEN_PAIRS_DIGEST = "13b2e9a8eab81d64707d96535c4a3baed246788a099277d814cfb7a40cebf89d"
LEXICON_STATS_DIGEST = "8b527907ddfcc7fe9ed4e8c5473cccafa71bf4f78a5937409cfb489f6e068e38"
MIX_DIGEST = "84158f7cae4f1f3b158dd7dc5fedbd800caada7d2a73863d6edfc857522e1dd9"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_inputs(root) -> dict:
    """The golden corpora and lexica, written under ``root``."""
    mono = root / "mono.jsonl"
    with open(mono, "w", encoding="utf-8") as handle:
        for i in range(60):
            lang, script, text = _MONO_TEXTS[i % len(_MONO_TEXTS)]
            obj = {"id": 1000 + 7 * i, "lang": lang, "script": script, "text": f"{text} {i}"}
            handle.write(json.dumps(obj, ensure_ascii=False) + "\n")
    parallel = root / "parallel.jsonl"
    with open(parallel, "w", encoding="utf-8") as handle:
        for i in range(48):
            src_lang, src, tgt_lang, tgt = _PARALLEL_PAIRS[i % len(_PARALLEL_PAIRS)]
            obj = {
                "src": {"lang": src_lang, "script": "Cyrl" if src_lang == "ru" else "Latn", "text": src},
                "tgt": {"lang": tgt_lang, "script": "Cyrl" if tgt_lang == "ru" else "Latn", "text": tgt},
            }
            handle.write(json.dumps(obj, ensure_ascii=False) + "\n")
    main_lex = root / "main.tsv"
    main_lex.write_text(_LEXICON_MAIN, encoding="utf-8")
    extra_lex = root / "extra.tsv"
    extra_lex.write_text(_LEXICON_EXTRA, encoding="utf-8")
    return {
        "root": root,
        "mono": str(mono),
        "parallel": str(parallel),
        "lexicon": [str(main_lex), f"gatitos={extra_lex}"],
    }


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden"))


def _lexicon_flags(inputs) -> list[str]:
    return [arg for spec in inputs["lexicon"] for arg in ("--lexicon", spec)]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("task,sampling", sorted(AUGMENT_DIGESTS))
def test_augment_digest(inputs, task, sampling, jobs):
    out = inputs["root"] / f"{task}-{sampling}-{jobs}.jsonl"
    corpus = inputs["mono"] if task.endswith("-mono") else inputs["parallel"]
    code = main(
        ["augment", "--task", task, "--corpus", corpus, *_lexicon_flags(inputs),
         "--seed", "20230327", "--sampling", sampling, "--jobs", jobs, "--out", str(out)]
    )
    assert code == 0
    assert _sha256(out) == AUGMENT_DIGESTS[(task, sampling)]


def test_token_pairs_digest(inputs):
    out = inputs["root"] / "token-pairs.jsonl"
    code = main(["token-pairs", *_lexicon_flags(inputs), "--langs", "es,ru,ja", "--out", str(out)])
    assert code == 0
    assert _sha256(out) == TOKEN_PAIRS_DIGEST


def test_lexicon_stats_digest(inputs):
    # main and extra both hold cat→gato: the entry from main is kept, and
    # per_source counts it there.
    root = inputs["root"]
    out = root / "lexicon-stats.json"
    code = main(["lexicon-stats", "--lexicon", f"main={root / 'main.tsv'}",
                 "--lexicon", f"extra={root / 'extra.tsv'}", "--lang", "en", "--out", str(out)])
    assert code == 0
    assert _sha256(out) == LEXICON_STATS_DIGEST


def test_mix_digest(inputs):
    root = inputs["root"]
    streams = {}
    for task, n in (("translation", 7), ("mass", 11), ("codeswitch_mono", 5), ("token_pair", 3)):
        path = root / f"stream-{task}.jsonl"
        path.write_text("".join(f'{{"task": "{task}", "n": {i}}}\n' for i in range(n)), encoding="utf-8")
        streams[task] = path
    out = root / "mixed.jsonl"
    code = main(
        ["mix", "--mono-aug", "codeswitch", "--token-pairs",
         *[arg for task, path in streams.items() for arg in ("--streams", f"{task}={path}")],
         "--seed", "5", "--count", "3000", "--out", str(out)]
    )
    assert code == 0
    assert _sha256(out) == MIX_DIGEST


# Stream bytes with every line rule `mix` keeps: CRLF ends, blank and
# whitespace-only lines (ASCII, U+3000, U+00A0, \x1c) that are dropped, a
# lone \r inside a line that stays, a last line ending in \r without \n, and
# non-ASCII text.
_RAGGED_STREAMS = {
    "translation": (
        b'{"t": 0, "text": "caf\xc3\xa9"}\r\n'
        b"\r\n"
        b'{"t": 1, "text": "a\rb"}\n'
        b"   \t \n"
        b"\xe3\x80\x80\xc2\xa0\x1c\n"
        b'{"t": 2, "text": "\xd0\xba\xd0\xbe\xd1\x88\xd0\xba\xd0\xb0 \xe7\x8c\xab"}\r'
    ),
    "mass": (
        b"\n"
        b'{"m": 0, "text": "\xe0\xa4\x98\xe0\xa4\xb0"}\n'
        b'{"m": 1, "text": "x\ry\r"}\r\r\n'
        b"\xe3\x80\x80\r\n"
        b'{"m": 2}\n'
        b'{"m": 3, "text": " lead and trail "}  \n'
    ),
}
MIX_RAGGED_DIGEST = "38fba4d2cd1f5ab224d788973f3a60d93a0a7de70f39f2b831743b8966bcb1b0"


def test_mix_ragged_streams_digest(tmp_path):
    flags = []
    for task, content in _RAGGED_STREAMS.items():
        path = tmp_path / f"{task}.jsonl"
        path.write_bytes(content)
        flags += ["--streams", f"{task}={path}"]
    out = tmp_path / "mixed.jsonl"
    assert main(["mix", *flags, "--seed", "11", "--count", "40", "--out", str(out)]) == 0
    assert _sha256(out) == MIX_RAGGED_DIGEST


MIX_LONG_DIGEST = "536dd845c2b67c429fb3dae0417e4a28244a45b197b9e72c0b3ace4b718c8f8c"


def test_mix_long_streams_digest(tmp_path):
    # 16,000 draws cross many blocks of task draws. The translation stream
    # (weight 0.38, 2,500 lines) is reshuffled twice, each shuffle taking its
    # draws from blocks and hitting the rejection rule; the 20-line stream
    # takes short blocks, and the 1-line stream is reshuffled on every draw.
    flags = []
    for task, n in (("translation", 2500), ("mass", 300), ("codeswitch_mono", 20), ("token_pair", 1)):
        path = tmp_path / f"{task}.jsonl"
        path.write_text("".join(f'{{"task": "{task}", "n": {i}}}\n' for i in range(n)), encoding="utf-8")
        flags += ["--streams", f"{task}={path}"]
    out = tmp_path / "mixed.jsonl"
    code = main(["mix", "--mono-aug", "codeswitch", "--token-pairs", *flags,
                 "--seed", "17", "--count", "16000", "--out", str(out)])
    assert code == 0
    assert _sha256(out) == MIX_LONG_DIGEST


# (source, hypothesis, reference) rows for the scoring commands: empty and
# whitespace-only hypotheses, a whitespace-only reference, combining marks
# (decomposed "é", Hebrew points), non-Latin scripts, copies and repetition.
_EVAL_ROWS = [
    ("en", "The cat sat on the mat.", "The cat sat on the mat.", "The cat sat on the mat."),
    ("es", "El gato se sentó en la alfombra.", "El gato está en la alfombra", "The cat sat on the mat."),
    ("es", "", "Un perro grande cerca de la casa roja", "A big dog near the red house"),
    ("fr", " \t  ", "J'aime les frites et la glace", "I like hot chip and ice cream"),
    ("fr", "??", "Sous l'arbre, un livre", "Under the tree, a book"),
    ("ru", "Кошка пьёт воду", "Кошка пьёт воду из реки", "The cat drinks water from the river"),
    ("ru", "вода вода вода вода вода", "Вода, вода повсюду", "Water, water everywhere"),
    ("hi", "बिल्ली और कुत्ता घर में हैं", "बिल्ली और कुत्ता घर में है", "The cat and the dog are in the house"),
    ("ja", "猫は水を飲む", "猫が水を飲みます", "The cat drinks water"),
    ("he", "שָׁלוֹם עוֹלָם", "שלום עולם", "Hello world"),
    ("fr", "cafe\u0301 au lait", "caf\u00e9 au lait", "coffee with milk"),
    ("en", "la la la la la la la", "the song goes on", "la canción sigue"),
    ("en", "a b c", " \t ", ""),
    ("es", "The cat drinks water", "El gato bebe agua", "The cat drinks water"),
    ("zh", "我喜欢热薯条和冰淇淋", "我喜欢薯条和冰淇淋", "I like hot chip and ice cream"),
    ("en", "Kitten and PUMA", "kitten puma lion", "gatito y puma"),
]
_WATCHED_TOKENS = ["cat", "gato", "кошка", "猫は水を飲む", "puma", "kitten", "बिल्ली", "perro", "livre"]

SCORE_DIGEST = "45eb5f8c79fc72a20b8443ad0d9fe9183aef3f6a1a2c85f94a0302c49c299fb3"
SCORE_SENTENCE_DIGEST = "ff834224cee4a9fa644c8729a9751ab13d9a33c4a0fdfb3a688bfdf9910fbefe"
DIAGNOSE_DIGEST = "6749ee51a80eaa187b1e9567c86f5b79ce408781d7f711aac66e496676c2c4da"
HIT_RATE_DIGEST = "94225762c62281c98df441fd473748d4e7c33920a4924e152b2eeef7b8eb8f9c"
DIAGNOSE_TABLE = """\
error          count   percent
null               3    18.75%
copy               2    12.50%
repetition         2    12.50%
rows              16
"""


def write_eval_inputs(root) -> dict:
    """The golden hypotheses, references, eval rows and tokens, written under ``root``."""
    hyp = root / "hyp.txt"
    ref = root / "ref.txt"
    hyp.write_text("".join(h + "\n" for _, h, _, _ in _EVAL_ROWS), encoding="utf-8")
    ref.write_text("".join(r + "\n" for _, _, r, _ in _EVAL_ROWS), encoding="utf-8")
    rows = root / "rows.jsonl"
    with open(rows, "w", encoding="utf-8") as handle:
        for lang, hypothesis, reference, source in _EVAL_ROWS:
            obj = {"lang": lang, "direction": "en_to_xx", "source": source,
                   "hypothesis": hypothesis, "reference": reference}
            handle.write(json.dumps(obj, ensure_ascii=False) + "\n")
    tokens = root / "tokens.txt"
    tokens.write_text("".join(t + "\n" for t in _WATCHED_TOKENS), encoding="utf-8")
    return {"root": root, "hyp": str(hyp), "ref": str(ref), "rows": str(rows), "tokens": str(tokens)}


@pytest.fixture(scope="module")
def eval_inputs(tmp_path_factory):
    return write_eval_inputs(tmp_path_factory.mktemp("golden-eval"))


def test_score_digest(eval_inputs):
    out = eval_inputs["root"] / "score-corpus.json"
    assert main(["score", "--hyp", eval_inputs["hyp"], "--ref", eval_inputs["ref"], "--out", str(out)]) == 0
    assert _sha256(out) == SCORE_DIGEST


def test_score_sentence_digest(eval_inputs):
    out = eval_inputs["root"] / "score.json"
    code = main(["score", "--hyp", eval_inputs["hyp"], "--ref", eval_inputs["ref"], "--sentence",
                 "--out", str(out)])
    assert code == 0
    assert _sha256(out) == SCORE_SENTENCE_DIGEST


def test_diagnose_digest(eval_inputs):
    out = eval_inputs["root"] / "diagnose.json"
    assert main(["diagnose", "--rows", eval_inputs["rows"], "--out", str(out)]) == 0
    assert _sha256(out) == DIAGNOSE_DIGEST


def test_hit_rate_digest(eval_inputs):
    out = eval_inputs["root"] / "hit-rate.json"
    assert main(["hit-rate", "--rows", eval_inputs["rows"], "--tokens", eval_inputs["tokens"],
                 "--out", str(out)]) == 0
    assert _sha256(out) == HIT_RATE_DIGEST


@pytest.fixture
def pool_spy(monkeypatch):
    """Four eval rows per batch, so the 16 golden rows cross a pool in four
    batches; the list records the pid of each worker the run forks."""
    monkeypatch.setattr(cli, "BATCH_SIZE", 4)
    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forked


_SCORING_RUNS = {
    "score": (["score", "--hyp", "{hyp}", "--ref", "{ref}", "--sentence"], SCORE_SENTENCE_DIGEST),
    "score-corpus": (["score", "--hyp", "{hyp}", "--ref", "{ref}"], SCORE_DIGEST),
    "diagnose": (["diagnose", "--rows", "{rows}"], DIAGNOSE_DIGEST),
    "hit-rate": (["hit-rate", "--rows", "{rows}", "--tokens", "{tokens}"], HIT_RATE_DIGEST),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", sorted(_SCORING_RUNS))
def test_scoring_digests_through_the_pool(eval_inputs, pool_spy, capsys, command, jobs):
    argv, digest = _SCORING_RUNS[command]
    out = eval_inputs["root"] / f"{command}-jobs{jobs}.json"
    argv = [arg.format(**eval_inputs) for arg in argv]
    assert main([*argv, "--jobs", jobs, "--out", str(out)]) == 0
    assert _sha256(out) == digest
    assert len(pool_spy) == (0 if jobs == "1" else 2)


# The golden eval rows as written, without the keys that are not fields, and
# with one of those keys set to a value no field could take.
_ROW_VARIANTS = {
    "golden": lambda obj: obj,
    "fields-only": lambda obj: {key: obj[key] for key in ("source", "hypothesis", "reference")},
    "direction-sideways": lambda obj: {**obj, "direction": "sideways"},
}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_eval_rows_keys_other_than_fields_are_ignored(eval_inputs, pool_spy, capsys, jobs):
    lines = Path(eval_inputs["rows"]).read_text(encoding="utf-8").splitlines()
    for variant, change in _ROW_VARIANTS.items():
        rows = eval_inputs["root"] / f"rows-{variant}.jsonl"
        rows.write_text("".join(json.dumps(change(json.loads(line)), ensure_ascii=False) + "\n" for line in lines),
                        encoding="utf-8")
        for command in ("diagnose", "hit-rate"):
            argv, digest = _SCORING_RUNS[command]
            out = eval_inputs["root"] / f"{command}-{variant}-jobs{jobs}.json"
            argv = [arg.format(**{**eval_inputs, "rows": str(rows)}) for arg in argv]
            assert main([*argv, "--jobs", jobs, "--out", str(out)]) == 0, capsys.readouterr().err
            assert _sha256(out) == digest, (variant, command)
        assert capsys.readouterr().out == DIAGNOSE_TABLE, variant


# Per-language rows for `regress`: eight URL rows to fit, and every other
# class. The second table holds four URL rows, too few to fit, so only the
# per-class table is written, after a warning.
_REGRESS_HEADER = "lang,delta_chrf,n_panlex,n_gatitos,n_mono,class\n"
_REGRESS_FIT = _REGRESS_HEADER + """\
gn,2.8,1200,4000,50000,URL
ay,3.1,2500,3900,42000,URL
qu,1.7,800,2100,120000,URL
wo,0.4,300,900,310000,URL
dz,-0.6,150,0,9000,URL
ti,2.2,4100,1500,77000,URL
om,1.05,2600,2800,260000,url
ln,0.35,90,1200,15000,URL
sw,0.1,52000,4300,4100000,LRL
yo,0.2,31000,3800,2900000,LRL
sr,0.3,90000,0,7000000,MRL
fr,-0.15,250000,0,90000000,HRL
"""
_REGRESS_PER_CLASS = _REGRESS_HEADER + "".join(
    line + "\n" for line in _REGRESS_FIT.splitlines()[1:] if not line.startswith(("qu", "wo", "dz", "ti"))
)
REGRESS_DIGESTS = {
    "fit": "ffb7c6d35f3e21be5f0a9188fc61580c64c1bbaa2dc7a02842ab0f91c3219126",
    "per-class": "af6b49595d1a367ea6bf2e5cd0dcc17b0e216d09ea56e5412fd4ae83e6f35849",
}


@pytest.mark.parametrize("table", sorted(REGRESS_DIGESTS))
def test_regress_digest(tmp_path, capsys, table):
    path = tmp_path / "table.csv"
    path.write_text(_REGRESS_FIT if table == "fit" else _REGRESS_PER_CLASS, encoding="utf-8")
    out = tmp_path / "regress.json"
    assert main(["regress", "--table", str(path), "--out", str(out)]) == 0
    warning = "warning: no fit: need at least 5 URL rows, got 4\n"
    assert capsys.readouterr().err == ("" if table == "fit" else warning)
    assert _sha256(out) == REGRESS_DIGESTS[table]
