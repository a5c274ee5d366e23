"""Seeded synthetic inputs for the lexaug benchmark (stdlib only).

Every file is a pure function of (workload, seed, size): the same arguments
give the same bytes. All inputs are valid under the README formats; no corpus
line contains a control token such as ``<mask>``, so the per-record abort
path of ``augment`` is never exercised. ``generate`` is the entry point;
``run.py`` calls it before any timed pass.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

SIZES = {
    "full": {
        "cs_entries": 100_000,
        "cs_records": 20_000,
        "gl_entries": 15_000,
        "gl_mono": 6_000,
        "gl_parallel": 6_000,
        "mix_streams": {
            "translation": 40_000,
            "mass": 40_000,
            "codeswitch_mono": 40_000,
            "glowup_parallel": 20_000,
            "token_pair": 2_000,
        },
        "mix_count": 200_000,
        "eval_rows": 4_000,
    },
    "tiny": {
        "cs_entries": 2_000,
        "cs_records": 120,
        "gl_entries": 1_500,
        "gl_mono": 80,
        "gl_parallel": 80,
        "mix_streams": {
            "translation": 300,
            "mass": 300,
            "codeswitch_mono": 300,
            "glowup_parallel": 200,
            "token_pair": 40,
        },
        "mix_count": 2_000,
        "eval_rows": 120,
    },
}

SENTENCE_TOKENS = 20
# Source languages: one Latin-script, one Devanagari (letters plus combining
# vowel signs, Unicode category M), so the tokenizer sees both.
SOURCES = (("en", "Latn"), ("hi", "Deva"))
SOURCE_SHARE = {"en": 0.65, "hi": 0.35}
TARGETS = (("es", "Latn"), ("fr", "Latn"), ("sw", "Latn"), ("yo", "Latn"), ("lus", "Latn"), ("ru", "Cyrl"))
PARALLEL_TARGETS = ("es", "sw")
OOV_SHARE = 0.2

_LATN_C, _LATN_V = "bdfgklmnprstvz", "aeiou"
_CYRL_C, _CYRL_V = "бвгдзклмнпрст", "аеиоу"
# Devanagari consonants: the first block builds lexicon words, the second
# builds out-of-vocabulary words, so OOV tokens never hit the lexicon.
_DEVA_VOCAB_C = [chr(c) for c in range(0x0915, 0x0929)]
_DEVA_OOV_C = [chr(c) for c in range(0x092A, 0x0939)]
_DEVA_SIGNS = ["", "ा", "ि", "ी", "ु", "ू", "े", "ै", "ो", "ौ"]


def _latin_word(rng: random.Random, consonants: str, vowels: str, oov: bool = False) -> str:
    syllables = [rng.choice(consonants) + rng.choice(vowels) for _ in range(rng.randint(2, 4))]
    word = "".join(syllables)
    # 'x' is in no syllable of a vocabulary word.
    return "x" + word if oov else word


def _deva_word(rng: random.Random, oov: bool = False) -> str:
    consonants = _DEVA_OOV_C if oov else _DEVA_VOCAB_C
    parts = []
    for _ in range(rng.randint(2, 3)):
        parts.append(rng.choice(consonants) + rng.choice(_DEVA_SIGNS))
    if rng.random() < 0.2:
        parts.append("ं")  # anusvara, a non-spacing mark
    return "".join(parts)


def _word(rng: random.Random, lang: str, oov: bool = False) -> str:
    if lang == "hi":
        return _deva_word(rng, oov)
    if lang == "ru":
        return _latin_word(rng, _CYRL_C, _CYRL_V)
    return _latin_word(rng, _LATN_C, _LATN_V, oov)


def _vocab(rng: random.Random, lang: str, n: int) -> list[str]:
    seen: dict[str, None] = {}
    while len(seen) < n:
        seen[_word(rng, lang)] = None
    return list(seen)


class _Zipf:
    """Draw vocabulary items with Zipf-like frequencies (rank^-1)."""

    def __init__(self, items: list):
        self.items = items
        total = 0.0
        self.cum = []
        for rank in range(1, len(items) + 1):
            total += 1.0 / rank
            self.cum.append(total)

    def draw(self, rng: random.Random, k: int) -> list:
        return rng.choices(self.items, cum_weights=self.cum, k=k)


def _source_lang(rng: random.Random) -> tuple[str, str]:
    return SOURCES[0] if rng.random() < SOURCE_SHARE["en"] else SOURCES[1]


def _render(rng: random.Random, lang: str, words: list[str]) -> str:
    """Join tokens with spaces and the odd comma; end with a full stop."""
    parts = []
    for i, word in enumerate(words):
        parts.append(word + ("," if i < len(words) - 1 and rng.random() < 0.08 else ""))
    text = " ".join(parts)
    if lang == "en":
        text = text[0].upper() + text[1:]
    return text + (" ।" if lang == "hi" else ".")


def _write_lines(path: Path, lines) -> int:
    count = 0
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in lines:
            handle.write(line + "\n")
            count += 1
    return count


def _jsonl(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True)


def _lexicon_rows(rng: random.Random, src_lang: str, terms: list[str], budget: int):
    """Give each term translations into 1-4 distinct target languages."""
    rows = []
    for term in terms:
        for tgt_lang, tgt_script in rng.sample(TARGETS, rng.randint(1, 4)):
            if len(rows) == budget:
                return rows
            rows.append(f"{src_lang}\t{tgt_lang}\t{tgt_script}\t{term}\t{_word(rng, tgt_lang)}")
    return rows


def gen_codeswitch(out: Path, seed: int, size: str) -> dict:
    """100k single-word entries; 20-token sentences, a third in Devanagari."""
    sz = SIZES[size]
    rng = random.Random(f"codeswitch-mono:{seed}")
    vocab = {}
    rows = []
    for lang, _ in SOURCES:
        budget = round(sz["cs_entries"] * SOURCE_SHARE[lang]) if lang == "en" else sz["cs_entries"] - len(rows)
        lang_rows = _lexicon_rows(rng, lang, _vocab(rng, lang, budget // 2 + 1), budget)
        vocab[lang] = list(dict.fromkeys(row.split("\t")[3] for row in lang_rows))
        rows += lang_rows
    _write_lines(out / "lexicon.tsv", rows)
    zipf = {lang: _Zipf(words) for lang, words in vocab.items()}

    def records():
        for _ in range(sz["cs_records"]):
            lang, script = _source_lang(rng)
            words = [
                _word(rng, lang, oov=True) if rng.random() < OOV_SHARE else w
                for w in zipf[lang].draw(rng, SENTENCE_TOKENS)
            ]
            yield _jsonl({"lang": lang, "script": script, "text": _render(rng, lang, words)})

    n = _write_lines(out / "mono.jsonl", records())
    return {"lexicon": "lexicon.tsv", "mono": "mono.jsonl", "records": n, "entries": len(rows)}


def _phrase_sentence(rng: random.Random, lang: str, zipf: _Zipf, phrases: list[list[str]]) -> str:
    """About 20 tokens; a third of the positions start a planted lexicon phrase."""
    words: list[str] = []
    while len(words) < SENTENCE_TOKENS:
        roll = rng.random()
        if roll < 0.33:
            words += rng.choice(phrases)
        elif roll < 0.33 + OOV_SHARE:
            words.append(_word(rng, lang, oov=True))
        else:
            words += zipf.draw(rng, 1)
    return _render(rng, lang, words[:SENTENCE_TOKENS])


def gen_glowup(out: Path, seed: int, size: str) -> dict:
    """One lexicon, 60% of whose entries are 2-4 word phrases; phrases are
    planted in a mono and a parallel corpus."""
    sz = SIZES[size]
    rng = random.Random(f"glowup-phrase:{seed}")
    rows = []
    zipf, phrases = {}, {}
    for lang, _ in SOURCES:
        budget = round(sz["gl_entries"] * SOURCE_SHARE[lang]) if lang == "en" else sz["gl_entries"] - len(rows)
        words = _vocab(rng, lang, max(50, budget // 5))
        zipf[lang] = _Zipf(words)
        seen: dict[str, None] = {}
        while len(seen) < budget // 4:
            seen[" ".join(zipf[lang].draw(rng, rng.randint(2, 4)))] = None
        phrases[lang] = [p.split(" ") for p in seen]
        lang_rows = _lexicon_rows(rng, lang, list(seen), budget * 3 // 5)
        lang_rows += _lexicon_rows(rng, lang, words, budget - len(lang_rows))
        rows += lang_rows
    rng.shuffle(rows)
    _write_lines(out / "lexicon.tsv", rows)

    def mono():
        for _ in range(sz["gl_mono"]):
            lang, script = _source_lang(rng)
            yield _jsonl({"lang": lang, "script": script, "text": _phrase_sentence(rng, lang, zipf[lang], phrases[lang])})

    def parallel():
        for _ in range(sz["gl_parallel"]):
            lang, script = _source_lang(rng)
            tgt = rng.choice(PARALLEL_TARGETS)
            tgt_words = [_word(rng, tgt) for _ in range(rng.randint(15, 25))]
            yield _jsonl({
                "src": {"lang": lang, "script": script, "text": _phrase_sentence(rng, lang, zipf[lang], phrases[lang])},
                "tgt": {"lang": tgt, "script": "Latn", "text": _render(rng, tgt, tgt_words)},
            })

    n_mono = _write_lines(out / "mono.jsonl", mono())
    n_par = _write_lines(out / "parallel.jsonl", parallel())
    return {
        "lexicon": "lexicon.tsv",
        "mono": "mono.jsonl",
        "parallel": "parallel.jsonl",
        "records": n_mono + n_par,
        "entries": len(rows),
    }


_STREAM_TAGS = {
    "translation": "<2translation>",
    "mass": "<2mass>",
    "codeswitch_mono": "<2codeswitch>",
    "glowup_parallel": "<2glowup>",
    "token_pair": "<2translation>",
}


def gen_mix(out: Path, seed: int, size: str) -> dict:
    """Five example streams, one per task of the mixed schedule."""
    sz = SIZES[size]
    rng = random.Random(f"mix:{seed}")
    vocab = {lang: _vocab(rng, lang, 5_000) for lang in ("en",) + tuple(lang for lang, _ in TARGETS)}
    streams = {}
    for task, n in sz["mix_streams"].items():
        def examples(task=task, n=n):
            for i in range(n):
                tgt_lang, tgt_script = rng.choice(TARGETS)
                length = 1 if task == "token_pair" else rng.randint(12, 24)
                src = " ".join(rng.choices(vocab["en"], k=length))
                tgt = " ".join(rng.choices(vocab[tgt_lang], k=length))
                yield _jsonl({
                    "task": task,
                    "source": f"{_STREAM_TAGS[task]} <2{tgt_lang}> <2{tgt_script}> {src}",
                    "target": tgt,
                    "tgt_lang": tgt_lang,
                    "tgt_script": tgt_script,
                    "origin_id": i,
                })

        streams[task] = f"{task}.jsonl"
        _write_lines(out / streams[task], examples())
    return {"streams": streams, "count": sz["mix_count"], "records": sz["mix_count"]}


def gen_score(out: Path, seed: int, size: str) -> dict:
    """Eval rows with near-miss, copied, null and repetitive hypotheses."""
    sz = SIZES[size]
    rng = random.Random(f"score:{seed}")
    langs = ("sw", "yo", "lus", "es")
    vocab = {lang: _Zipf(_vocab(rng, lang, 3_000)) for lang in langs + ("en",)}
    watched = sorted({w for lang in langs for w in vocab[lang].items[5:60:2]})
    rows = []
    for i in range(sz["eval_rows"]):
        lang = langs[i % len(langs)]
        direction = "en_to_xx" if rng.random() < 0.5 else "xx_to_en"
        out_lang, in_lang = (lang, "en") if direction == "en_to_xx" else ("en", lang)
        reference = " ".join(vocab[out_lang].draw(rng, rng.randint(8, 30)))
        source = " ".join(vocab[in_lang].draw(rng, rng.randint(8, 30)))
        kind = rng.random()
        if kind < 0.06:
            hypothesis = rng.choice(("", "...", "??", "---"))
        elif kind < 0.12:
            hypothesis = source
        elif kind < 0.18:
            hypothesis = " ".join([vocab[out_lang].draw(rng, 1)[0]] * rng.randint(4, 12))
        else:
            words = reference.split(" ")
            hypothesis = " ".join(
                w if rng.random() < 0.7 else vocab[out_lang].draw(rng, 1)[0]
                for w in words
                if rng.random() < 0.9
            )
        rows.append({"lang": lang, "direction": direction, "source": source,
                     "hypothesis": hypothesis, "reference": reference})
    _write_lines(out / "rows.jsonl", (_jsonl(r) for r in rows))
    _write_lines(out / "hyp.txt", (r["hypothesis"] for r in rows))
    _write_lines(out / "ref.txt", (r["reference"] for r in rows))
    _write_lines(out / "tokens.txt", watched)
    return {"rows": "rows.jsonl", "hyp": "hyp.txt", "ref": "ref.txt", "tokens": "tokens.txt",
            "records": len(rows)}


GENERATORS = {
    "codeswitch-mono": gen_codeswitch,
    "glowup-phrase": gen_glowup,
    "mix": gen_mix,
    "score": gen_score,
}


def generate(workload: str, seed: int, out: Path, size: str = "full") -> dict:
    """Write the workload's inputs under ``out`` and describe them."""
    out.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](out, seed, size)
