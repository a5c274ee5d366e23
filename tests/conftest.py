import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from lexaug.lexicon import LexEntry, Lexicon


@pytest.fixture
def tiny_sources():
    """panlex: cat -> gato(es)/chat(fr), dog -> perro(es); gatitos: kitten -> gatito(es)."""
    return [
        ("panlex", [
            LexEntry("cat", "gato", "en", "es", "Latn"),
            LexEntry("cat", "chat", "en", "fr", "Latn"),
            LexEntry("dog", "perro", "en", "es", "Latn"),
        ]),
        ("gatitos", [LexEntry("kitten", "gatito", "en", "es", "Latn")]),
    ]


@pytest.fixture
def tiny_lexicon(tiny_sources):
    return Lexicon(tiny_sources)


@pytest.fixture
def es_only_lexicon():
    return Lexicon(
        [("panlex", [
            LexEntry("cat", "gato", "en", "es", "Latn"),
            LexEntry("dog", "perro", "en", "es", "Latn"),
        ])]
    )


def write_jsonl(path, objs):
    with open(path, "w", encoding="utf-8") as handle:
        for obj in objs:
            handle.write(json.dumps(obj, ensure_ascii=False) + "\n")
    return str(path)


@pytest.fixture
def mono_corpus_file(tmp_path):
    return write_jsonl(
        tmp_path / "mono.jsonl",
        [
            {"lang": "en", "script": "Latn", "text": "The cat sat"},
            {"lang": "en", "script": "Latn", "text": "A dog barks"},
            {"lang": "en", "script": "Latn", "text": "The kitten lies"},
        ],
    )


@pytest.fixture
def parallel_corpus_file(tmp_path):
    return write_jsonl(
        tmp_path / "parallel.jsonl",
        [
            {
                "src": {"lang": "en", "script": "Latn", "text": "The cat sat"},
                "tgt": {"lang": "es", "script": "Latn", "text": "El gato se sento"},
            },
            {
                "src": {"lang": "en", "script": "Latn", "text": "A dog barks"},
                "tgt": {"lang": "es", "script": "Latn", "text": "Un perro ladra"},
            },
        ],
    )
