"""Golden SHA-256 digests of the CLI's data-producing commands.

The corpora and lexica below are written from literals, so any change to the
bytes that `augment`, `token-pairs` or `mix` emit for them fails here. A
refactor must leave every digest unchanged; a deliberate output change must
update the digest in the same commit and say why.
"""

import hashlib
import json

import pytest

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
MIX_DIGEST = "84158f7cae4f1f3b158dd7dc5fedbd800caada7d2a73863d6edfc857522e1dd9"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
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
