import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexaug import lexicon
from lexaug.cli import _load_lexica
from lexaug.errors import LexiconFormatError
from lexaug.lexicon import LexEntry, Lexicon, match_key, merge, read_entries

_term = st.text(
    alphabet=st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=12,
).filter(lambda s: s.strip() and not s.startswith("#"))


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestLexEntry:
    def test_empty_term_rejected(self):
        with pytest.raises(ValueError):
            LexEntry("  ", "gato", "en", "es", "Latn")

    def test_same_lang_rejected(self):
        with pytest.raises(ValueError):
            LexEntry("cat", "cat", "en", "en", "Latn")


class TestLoad:
    def test_single_line(self, tmp_path):
        path = _write(tmp_path / "lex.tsv", ["en\tes\tLatn\tcat\tgato"])
        lex = Lexicon(read_entries(path, "panlex"))
        (entry,) = list(lex)
        assert entry.src_term == "cat"
        assert entry.tgt_term == "gato"
        assert entry.src_lang == "en"
        assert entry.tgt_lang == "es"
        assert entry.tgt_script == "Latn"
        assert entry.source_name == "panlex"

    def test_exact_duplicates_dedup(self, tmp_path):
        path = _write(tmp_path / "lex.tsv", ["en\tes\tLatn\tcat\tgato"] * 2)
        assert len(Lexicon(read_entries(path, "panlex"))) == 1

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = _write(
            tmp_path / "lex.tsv",
            ["# header", "", "en\tes\tLatn\tcat\tgato"],
        )
        assert len(Lexicon(read_entries(path, "x"))) == 1

    def test_wrong_column_count_names_line(self, tmp_path):
        path = _write(tmp_path / "lex.tsv", ["en\tes\tLatn\tcat\tgato", "en\tes\tcat"])
        with pytest.raises(LexiconFormatError, match="line 2"):
            Lexicon(read_entries(path, "x"))

    def test_empty_term_names_line(self, tmp_path):
        path = _write(tmp_path / "lex.tsv", ["en\tes\tLatn\t\tgato"])
        with pytest.raises(LexiconFormatError, match="line 1"):
            Lexicon(read_entries(path, "x"))

    def test_script_with_whitespace_names_line(self, tmp_path):
        path = _write(tmp_path / "lex.tsv", ["en\tes\tLatn\tcat\tgato", "en\tes\tLa tn\tdog\tperro"])
        with pytest.raises(LexiconFormatError, match="line 2: tgt_script must be non-empty with no whitespace"):
            Lexicon(read_entries(path, "x"))

    def test_curated_style_file_counts(self, tmp_path):
        # A small curated lexicon: 4000 English rows into one language.
        lines = [f"en\tmni\tMtei\tword{i}\ttr{i}" for i in range(4000)]
        path = _write(tmp_path / "gatitos.tsv", lines)
        lex = Lexicon(read_entries(path, "gatitos"))
        assert lex.pair_counts()[("en", "mni")] == 4000
        assert lex.entry_counts("mni")["gatitos"] == 4000

    @settings(max_examples=100, deadline=None)
    @given(pairs=st.lists(st.tuples(_term, _term), min_size=1, max_size=8))
    def test_arbitrary_terms_read_back(self, tmp_path_factory, pairs):
        path = _write(tmp_path_factory.mktemp("lex") / "lex.tsv", [f"en\tes\tLatn\t{s}\t{t}" for s, t in pairs])
        entries = [LexEntry(s, t, "en", "es", "Latn", "x") for s, t in pairs]
        assert list(read_entries(path, "x")) == entries


class TestRoundTrip:
    def test_fields_with_tabs_rejected(self):
        with pytest.raises(ValueError):
            LexEntry("two\twords", "x", "en", "es", "Latn")


class TestMerge:
    def test_identity(self, tiny_lexicon):
        assert list(merge(tiny_lexicon, Lexicon())) == list(tiny_lexicon)

    def test_idempotent(self, tiny_lexicon):
        merged = merge(tiny_lexicon, tiny_lexicon)
        assert [e.key() for e in merged] == [e.key() for e in tiny_lexicon]

    def test_set_union_oracle(self):
        rng = random.Random(0)
        def sample(n, source):
            entries = []
            for _ in range(n):
                i = rng.randrange(60)
                entries.append(
                    LexEntry(f"w{i}", f"t{i}", "en", "es", "Latn", source)
                )
            return entries

        a = Lexicon(sample(100, "panlex"))
        b = Lexicon(sample(100, "gatitos"))
        merged = merge(a, b)
        expected = {e.key() for e in a} | {e.key() for e in b}
        assert {e.key() for e in merged} == expected
        assert len(merged) == len(expected)

    def test_first_source_wins_on_overlap(self):
        a = Lexicon([LexEntry("cat", "gato", "en", "es", "Latn", "panlex")])
        b = Lexicon([LexEntry("cat", "gato", "en", "es", "Latn", "gatitos")])
        (entry,) = list(merge(a, b))
        assert entry.source_name == "panlex"


class TestLoadSeveral:
    """The CLI reads every --lexicon file into one Lexicon."""

    def test_each_entry_tokenized_once(self, tmp_path, monkeypatch):
        specs = [
            _write(tmp_path / f"l{f}.tsv", [f"en\tes\tLatn\tw{f}x{i}\tt{i}" for i in range(1000)])
            for f in range(3)
        ]
        calls = []
        tokenize = lexicon.tokenize
        monkeypatch.setattr(lexicon, "tokenize", lambda text: calls.append(text) or tokenize(text))
        assert len(_load_lexica(specs)) == 3000
        assert len(calls) == 3000

    def test_equals_merge_of_each_file(self, tmp_path):
        rng = random.Random(7)
        src_terms = ["cat", "Cat", "dog", "hot chip", "Hot  chip"]
        paths = []
        for f in range(3):
            lines = [
                "\t".join(("en", rng.choice("es fr".split()), rng.choice("Latn Cyrl".split()),
                           rng.choice(src_terms), rng.choice("abc")))
                for _ in range(25)
            ]
            paths.append((f"src{f}", _write(tmp_path / f"l{f}.tsv", lines)))
        loaded = _load_lexica([f"{name}={path}" for name, path in paths])
        merged = functools.reduce(merge, [Lexicon(read_entries(path, name)) for name, path in paths])
        assert list(loaded) == list(merged)
        assert [e.source_name for e in loaded] == [e.source_name for e in merged]
        assert len({e.source_name for e in loaded}) == 3
        for key in {match_key(term) for term in src_terms}:
            assert loaded.lookup_key(key, "en") == merged.lookup_key(key, "en")


class TestLookup:
    def test_all_candidates(self, tiny_lexicon):
        terms = {e.tgt_term for e in tiny_lexicon.lookup_key(match_key("cat"), "en")}
        assert terms == {"gato", "chat"}

    def test_case_fold_and_filter(self, tiny_lexicon):
        entries = tiny_lexicon.lookup_key(match_key("Cat"), "en", tgt_filter="fr")
        assert [e.tgt_term for e in entries] == ["chat"]

    def test_absent_token(self, tiny_lexicon):
        assert tiny_lexicon.lookup_key(match_key("crocodile"), "en") == []

    def test_wrong_src_lang(self, tiny_lexicon):
        assert tiny_lexicon.lookup_key(match_key("cat"), "fr") == []

    def test_deterministic_order(self):
        lex = Lexicon(
            [
                LexEntry("cat", "kot", "en", "pl", "Latn"),
                LexEntry("cat", "chat", "en", "fr", "Latn"),
                LexEntry("cat", "gato", "en", "es", "Latn"),
            ]
        )
        assert [e.tgt_term for e in lex.lookup_key(match_key("cat"), "en")] == ["gato", "chat", "kot"]

    def test_every_entry_findable(self, tiny_lexicon):
        for entry in tiny_lexicon:
            found = tiny_lexicon.lookup_key(match_key(entry.src_term), entry.src_lang, entry.tgt_lang)
            assert entry in found


class TestCounts:
    def test_empty(self):
        lex = Lexicon()
        assert lex.entry_counts("es") == {}
        assert len(lex) == 0

    def test_counts_match_brute_force(self, tiny_lexicon):
        for lang in ("en", "es", "fr"):
            counts = tiny_lexicon.entry_counts(lang)
            brute = {}
            for entry in tiny_lexicon:
                if lang in (entry.src_lang, entry.tgt_lang):
                    brute[entry.source_name] = brute.get(entry.source_name, 0) + 1
            assert dict(counts) == brute

    def test_pair_counts_sum_to_total(self, tiny_lexicon):
        assert sum(tiny_lexicon.pair_counts().values()) == len(tiny_lexicon)


class TestPhrases:
    def test_match_key_normalizes_whitespace_and_case(self):
        assert match_key("Hot  Chip") == match_key("hot chip") == "hot chip"

    def test_punctuation_only_term_falls_back(self):
        assert match_key("??") == "??"

    def test_max_term_tokens(self):
        lex = Lexicon(
            [
                LexEntry("cat", "gato", "en", "es", "Latn"),
                LexEntry("hot chip", "papas fritas", "en", "es", "Latn"),
            ]
        )
        assert lex.max_term_tokens("en") == 2
        assert lex.max_term_tokens("de") == 0

    def test_phrase_lookup(self):
        lex = Lexicon([LexEntry("hot chip", "papas fritas", "en", "es", "Latn")])
        assert [e.tgt_term for e in lex.lookup_key(match_key("Hot Chip"), "en")] == ["papas fritas"]
