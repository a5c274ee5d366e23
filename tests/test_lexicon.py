import gc
import operator
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexaug import corpus, lexicon
from lexaug.cli import _load_lexica
from lexaug.corpus import LITERALS, _COLLISION_RE, tokenize
from lexaug.errors import LexiconFormatError
from lexaug.lexicon import LexEntry, Lexicon, match_key, read_entries

_term = st.text(
    alphabet=st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=12,
).filter(lambda s: s.strip() and not s.startswith("#") and not _COLLISION_RE.search(s))


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


_SMALL_FIELDS = (["cat", "Cat", "cat "], ["gato", "chat"], ["en", "de"], ["es", "fr"], ["Latn", "Cyrl"])
_GOOD = ("cat", "gato", "en", "es", "Latn")
_BAD_FIELDS = [
    ("src_term", " "), ("tgt_term", " "), ("tgt_lang", "en"),
    *[(term, f"a{ch}b") for term in ("src_term", "tgt_term") for ch in "\t\n\r"],
    *[(tag, f"x{ch}y") for tag in ("src_lang", "tgt_lang", "tgt_script") for ch in " <>"],
]


class TestLexEntry:
    @pytest.mark.parametrize("field,value", _BAD_FIELDS, ids=[f"{f}={v!r}" for f, v in _BAD_FIELDS])
    def test_bad_field_rejected(self, field, value):
        fields = dict(zip(LexEntry._fields, _GOOD))
        fields[field] = value
        # Twice: a rejected value must not be remembered as valid.
        for _ in range(2):
            with pytest.raises(ValueError):
                LexEntry(*fields.values())

    def test_empty_term_rejected(self):
        with pytest.raises(ValueError):
            LexEntry("  ", "gato", "en", "es", "Latn")

    def test_same_lang_rejected(self):
        with pytest.raises(ValueError):
            LexEntry("cat", "cat", "en", "en", "Latn")

    @pytest.mark.parametrize("token", [*LITERALS, "<2es>", "<2Latn>"])
    @pytest.mark.parametrize("field", ["src_term", "tgt_term"])
    def test_control_token_in_term_rejected(self, field, token):
        fields = dict(zip(LexEntry._fields, _GOOD))
        fields[field] = f"a {token}b"
        with pytest.raises(ValueError, match=f"contains reserved control token '{token}'"):
            LexEntry(*fields.values())

    @pytest.mark.parametrize("term", ["a < b", "<2 es>", "<2>", "<Mask>", "2es>"])
    def test_angle_brackets_without_a_token_accepted(self, term):
        assert LexEntry(term, term, "en", "es", "Latn").src_term == term

    def test_fields_are_the_five_tsv_fields(self):
        assert LexEntry._fields == ("src_term", "tgt_term", "src_lang", "tgt_lang", "tgt_script")

    @settings(max_examples=200, deadline=None)
    @given(a=st.tuples(*[st.sampled_from(v) for v in _SMALL_FIELDS]),
           b=st.tuples(*[st.sampled_from(v) for v in _SMALL_FIELDS]))
    def test_equal_exactly_when_the_five_fields_match(self, a, b):
        x, y = LexEntry(*a), LexEntry(*b)
        assert (x == y) == (a == b)
        # A dict dedups them exactly when they are equal: hash agrees with ==.
        assert len({x, y}) == (1 if a == b else 2)


class TestLoad:
    def test_single_line(self, tmp_path):
        path = _write(tmp_path / "lex.tsv", ["en\tes\tLatn\tcat\tgato"])
        lex = Lexicon([("panlex", read_entries(path))])
        (entry,) = list(lex)
        assert entry.src_term == "cat"
        assert entry.tgt_term == "gato"
        assert entry.src_lang == "en"
        assert entry.tgt_lang == "es"
        assert entry.tgt_script == "Latn"
        assert lex.entry_counts("es") == {"panlex": 1}

    def test_equal_source_terms_share_one_string(self, tmp_path):
        path = _write(tmp_path / "lex.tsv", ["en\tes\tLatn\thot dog\tperrito", "en\tfr\tLatn\thot dog\thot-dog"])
        first, second = read_entries(path)
        assert first.src_term == "hot dog"
        assert first.src_term is second.src_term

    def test_exact_duplicates_dedup(self, tmp_path):
        path = _write(tmp_path / "lex.tsv", ["en\tes\tLatn\tcat\tgato"] * 2)
        assert len(Lexicon([("panlex", read_entries(path))])) == 1

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = _write(
            tmp_path / "lex.tsv",
            ["# header", "", "en\tes\tLatn\tcat\tgato"],
        )
        assert len(Lexicon([("x", read_entries(path))])) == 1

    def test_wrong_column_count_names_line(self, tmp_path):
        path = _write(tmp_path / "lex.tsv", ["en\tes\tLatn\tcat\tgato", "en\tes\tcat"])
        with pytest.raises(LexiconFormatError, match="line 2"):
            Lexicon([("x", read_entries(path))])

    def test_empty_term_names_line(self, tmp_path):
        path = _write(tmp_path / "lex.tsv", ["en\tes\tLatn\t\tgato"])
        with pytest.raises(LexiconFormatError, match="line 1"):
            Lexicon([("x", read_entries(path))])

    def test_script_with_whitespace_names_line(self, tmp_path):
        path = _write(tmp_path / "lex.tsv", ["en\tes\tLatn\tcat\tgato", "en\tes\tLa tn\tdog\tperro"])
        with pytest.raises(LexiconFormatError, match="line 2: tgt_script must be non-empty with no whitespace"):
            Lexicon([("x", read_entries(path))])

    def test_curated_style_file_counts(self, tmp_path):
        # A small curated lexicon: 4000 English rows into one language.
        lines = [f"en\tmni\tMtei\tword{i}\ttr{i}" for i in range(4000)]
        path = _write(tmp_path / "gatitos.tsv", lines)
        lex = Lexicon([("gatitos", read_entries(path))])
        assert lex.pair_counts()[("en", "mni")] == 4000
        assert lex.entry_counts("mni")["gatitos"] == 4000

    def test_control_token_names_line(self, tmp_path):
        path = _write(tmp_path / "lex.tsv", ["en\tes\tLatn\tcat\tgato", "en\tes\tLatn\tcat\t<mask> gato"])
        with pytest.raises(LexiconFormatError, match="line 2: lexicon term '<mask> gato' contains reserved control"):
            list(read_entries(path))

    def test_tags_are_shared(self, tmp_path):
        """Each distinct language or script code is one string object across
        the entries of a file, however many lines spell it."""
        langs = ["en", "de", "es", "fr", "ru"]
        scripts = ["Latn", "Cyrl"]
        lines = [f"{langs[i % 2]}\t{langs[2 + i % 3]}\t{scripts[i % 2]}\tw{i}\tt{i}" for i in range(60)]
        entries = list(read_entries(_write(tmp_path / "lex.tsv", lines)))
        for field in ("src_lang", "tgt_lang", "tgt_script"):
            first = {}
            for entry in entries:
                value = getattr(entry, field)
                assert value is first.setdefault(value, value), (field, value)
            assert len(first) == (3 if field == "tgt_lang" else 2)

    def test_lone_carriage_return_stays_in_its_line(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_bytes(b"en\tes\tLatn\tca\rt\tgato\n")
        with pytest.raises(LexiconFormatError, match="line 1: lexicon terms must not contain tabs or newlines"):
            list(read_entries(str(path)))

    def test_crlf_reads_as_lf(self, tmp_path):
        lines = ["# header", "", " ", "en\tes\tLatn\tcat\tgato", "en\tfr\tLatn\thot  chip\tfrites "]
        lf = _write(tmp_path / "lf.tsv", lines)
        crlf = tmp_path / "crlf.tsv"
        crlf.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        assert list(read_entries(str(crlf))) == list(read_entries(lf))
        assert len(list(read_entries(lf))) == 2

    @settings(max_examples=100, deadline=None)
    @given(pairs=st.lists(st.tuples(_term, _term), min_size=1, max_size=8))
    def test_arbitrary_terms_read_back(self, tmp_path_factory, pairs):
        path = _write(tmp_path_factory.mktemp("lex") / "lex.tsv", [f"en\tes\tLatn\t{s}\t{t}" for s, t in pairs])
        entries = [LexEntry(s, t, "en", "es", "Latn") for s, t in pairs]
        assert list(read_entries(path)) == entries


class TestRoundTrip:
    def test_fields_with_tabs_rejected(self):
        with pytest.raises(ValueError):
            LexEntry("two\twords", "x", "en", "es", "Latn")


class TestMerge:
    """Several sources build one Lexicon: the union of their entries, each
    counted under the first source that gave it."""

    def test_identity(self, tiny_sources, tiny_lexicon):
        merged = Lexicon([*tiny_sources, ("empty", [])])
        assert list(merged) == list(tiny_lexicon)
        for lang in ("en", "es", "fr"):
            assert merged.entry_counts(lang) == tiny_lexicon.entry_counts(lang)

    def test_idempotent(self, tiny_sources, tiny_lexicon):
        merged = Lexicon(tiny_sources + tiny_sources)
        assert list(merged) == list(tiny_lexicon)
        for lang in ("en", "es", "fr"):
            assert merged.entry_counts(lang) == tiny_lexicon.entry_counts(lang)

    def test_set_union_oracle(self):
        rng = random.Random(0)

        def sample(n):
            return [LexEntry(f"w{i}", f"t{i}", "en", "es", "Latn") for i in (rng.randrange(60) for _ in range(n))]

        a, b = sample(100), sample(100)
        merged = Lexicon([("panlex", a), ("gatitos", b)])
        assert set(merged) == set(a) | set(b)
        assert len(merged) == len(set(a) | set(b))
        assert merged.entry_counts("es") == {"panlex": len(set(a)), "gatitos": len(set(b) - set(a))}

    def test_first_source_wins_on_overlap(self):
        entry = LexEntry("cat", "gato", "en", "es", "Latn")
        merged = Lexicon([("panlex", [entry]), ("gatitos", [LexEntry(*entry)])])
        assert list(merged) == [entry]
        assert merged.entry_counts("es") == {"panlex": 1}


class TestLoadSeveral:
    """The CLI reads every --lexicon file into one Lexicon."""

    def test_each_entry_tokenized_once(self, tmp_path, monkeypatch):
        specs = [
            _write(tmp_path / f"l{f}.tsv", [f"en\tes\tLatn\tw{f}x{i}\tt{i}" for i in range(1000)])
            for f in range(3)
        ]
        calls = []
        key_and_length = lexicon._key_and_length
        monkeypatch.setattr(lexicon, "_key_and_length", lambda text: calls.append(text) or key_and_length(text))

        def no_tokenize(text):
            raise AssertionError(f"tokenize({text!r}) called while loading")

        # Every module-level binding of tokenize, as the benchmark's tracer counts them.
        for module in [m for name, m in sys.modules.items() if name.startswith("lexaug")]:
            if getattr(module, "tokenize", None) is tokenize:
                monkeypatch.setattr(module, "tokenize", no_tokenize)
        assert corpus.tokenize is no_tokenize
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
        _assert_matches_oracle(loaded, [(name, list(read_entries(path))) for name, path in paths])
        assert len(loaded.entry_counts("en")) == 3


class TestLookup:
    def test_all_candidates(self, tiny_lexicon):
        terms = {e.tgt_term for e in tiny_lexicon.lookup_key(match_key("cat"), "en")}
        assert terms == {"gato", "chat"}

    def test_case_fold_and_filter(self, tiny_lexicon):
        entries = tiny_lexicon.lookup_key(match_key("Cat"), "en", tgt_filter="fr")
        assert [e.tgt_term for e in entries] == ["chat"]

    def test_buckets_are_tuples_handed_out_uncopied(self, tiny_lexicon):
        key = match_key("cat")
        bucket = tiny_lexicon.lookup_key(key, "en")
        assert type(bucket) is tuple
        assert tiny_lexicon.lookup_key(key, "en") is bucket
        assert tiny_lexicon.term_keys("en")[key] is bucket
        assert type(tiny_lexicon.lookup_key(key, "en", tgt_filter="fr")) is tuple

    def test_absent_token(self, tiny_lexicon):
        assert tiny_lexicon.lookup_key(match_key("crocodile"), "en") == ()

    def test_wrong_src_lang(self, tiny_lexicon):
        assert tiny_lexicon.lookup_key(match_key("cat"), "fr") == ()

    def test_deterministic_order(self):
        lex = Lexicon(
            [("panlex", [
                LexEntry("cat", "kot", "en", "pl", "Latn"),
                LexEntry("cat", "chat", "en", "fr", "Latn"),
                LexEntry("cat", "gato", "en", "es", "Latn"),
            ])]
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

    def test_counts_match_brute_force(self, tiny_sources, tiny_lexicon):
        for lang in ("en", "es", "fr"):
            brute = Counter(
                name for name, entries in tiny_sources for e in entries if lang in (e.src_lang, e.tgt_lang)
            )
            assert tiny_lexicon.entry_counts(lang) == brute

    def test_pair_counts_sum_to_total(self, tiny_lexicon):
        assert sum(tiny_lexicon.pair_counts().values()) == len(tiny_lexicon)


class TestPhrases:
    def test_match_key_normalizes_whitespace_and_case(self):
        assert match_key("Hot  Chip") == match_key("hot chip") == "hot chip"

    def test_punctuation_only_term_falls_back(self):
        assert match_key("??") == "??"

    def test_max_term_tokens(self):
        lex = Lexicon(
            [("panlex", [
                LexEntry("cat", "gato", "en", "es", "Latn"),
                LexEntry("hot chip", "papas fritas", "en", "es", "Latn"),
            ])]
        )
        assert lex.max_term_tokens("en") == 2
        assert lex.max_term_tokens("de") == 0

    def test_phrase_lookup(self):
        lex = Lexicon([("panlex", [LexEntry("hot chip", "papas fritas", "en", "es", "Latn")])])
        assert [e.tgt_term for e in lex.lookup_key(match_key("Hot Chip"), "en")] == ["papas fritas"]


class TestCollector:
    """The build pauses the cyclic garbage collector and restores its state."""

    def test_paused_during_build_and_enabled_after(self):
        states = []

        def entries():
            states.append(gc.isenabled())
            yield LexEntry("cat", "gato", "en", "es", "Latn")

        assert gc.isenabled()
        assert len(Lexicon([("panlex", entries())])) == 1
        assert states == [False]
        assert gc.isenabled()

    def test_enabled_after_format_error(self, tmp_path):
        good = _write(tmp_path / "good.tsv", ["en\tes\tLatn\tcat\tgato"])
        bad = _write(tmp_path / "bad.tsv", ["en\tes\tLatn\tdog\tperro", "en\tes\tdog", "en\tfr\tLatn\tcat\tchat"])
        with pytest.raises(LexiconFormatError, match="line 2"):
            _load_lexica([good, bad])
        assert gc.isenabled()

    def test_disabled_stays_disabled(self):
        gc.disable()
        try:
            Lexicon([("panlex", [LexEntry("cat", "gato", "en", "es", "Latn")])])
            assert not gc.isenabled()
        finally:
            gc.enable()


def _oracle_key(text, surfaces):
    return " ".join(surfaces).casefold() if surfaces else text.strip().casefold()


def _oracle_index(sources):
    """A reference build with one tokenize call per entry. Each entry carries
    its source name as a sixth field, and the first row of each five-field
    key is kept. Returns the kept rows, the buckets and the longest term per
    language."""
    kept, index, max_tokens = {}, {}, {}
    for name, entries in sources:
        for entry in entries:
            row = (*entry, name)
            if row[:5] in kept:
                continue
            kept[row[:5]] = row
            surfaces = tokenize(entry.src_term).surfaces()
            max_tokens[entry.src_lang] = max(max_tokens.get(entry.src_lang, 0), max(1, len(surfaces)))
            index.setdefault((entry.src_lang, _oracle_key(entry.src_term, surfaces)), []).append(entry)
    for bucket in index.values():
        bucket.sort(key=operator.attrgetter("tgt_lang", "tgt_term"))
    return list(kept.values()), index, max_tokens


def _assert_matches_oracle(lex, sources):
    rows, index, max_tokens = _oracle_index(sources)
    assert list(lex) == [row[:5] for row in rows]
    for lang in ("en", "de", "es", "fr", "ru"):
        assert lex.entry_counts(lang) == Counter(row[5] for row in rows if lang in row[2:4])
    assert lex.pair_counts() == Counter(row[2:4] for row in rows)
    for (lang, key), bucket in index.items():
        assert lex.lookup_key(key, lang) == tuple(bucket)
    # Every entry sits in one of the oracle's buckets, so there is no other key.
    assert sum(map(len, index.values())) == len(lex)
    for lang in ("en", "de", "es"):
        assert lex.max_term_tokens(lang) == max_tokens.get(lang, 0)


_WORDS = ["cat", "Cat", "CAT", "hot", "HOT", "chip", "Straße", "STRASSE", "ﬁsh", "कुत्ता", "İs", "42"]
_GAPS = ["", " ", "  ", "\u00a0", "\u3000", "-", " ? ", "…"]
_PUNCT = ["?", "??", " !? ", "—", "...", "«»"]


@st.composite
def _src_terms(draw):
    """Case variants, repeated inner whitespace and punctuation-only terms."""
    words = draw(st.lists(st.sampled_from(_WORDS), max_size=3))
    if not words:
        return draw(st.sampled_from(_PUNCT))
    gaps = draw(st.lists(st.sampled_from(_GAPS), min_size=len(words) + 1, max_size=len(words) + 1))
    return gaps[0] + "".join(w + g for w, g in zip(words, gaps[1:]))


_entry = st.builds(
    LexEntry,
    src_term=st.one_of(_src_terms(), _term),
    tgt_term=st.sampled_from(["gato", "Gato", "chat", "кошка"]),
    src_lang=st.sampled_from(["en", "de"]),
    tgt_lang=st.sampled_from(["es", "fr", "ru"]),
    tgt_script=st.sampled_from(["Latn", "Cyrl"]),
)


@st.composite
def _sources(draw):
    """Named sources that draw their entries from one pool, so they share
    entries, and may share a name."""
    pool = draw(st.lists(_entry, min_size=1, max_size=20))
    source = st.tuples(st.sampled_from(["panlex", "gatitos", ""]), st.lists(st.sampled_from(pool), max_size=15))
    return draw(st.lists(source, max_size=4))


class TestIndexOracle:
    @settings(max_examples=200, deadline=None)
    @given(sources=_sources())
    def test_same_index_as_tokenize_per_entry(self, sources):
        _assert_matches_oracle(Lexicon(sources), sources)

    @settings(max_examples=300, deadline=None)
    @given(text=st.text())
    def test_match_key_is_tokenize_key(self, text):
        assert match_key(text) == _oracle_key(text, tokenize(text).surfaces())


# Values that a line of the reader property below may hold, by field, as
# variants of a valid line seen before it: each is bad, or valid only if
# LexEntry says so. "en" as tgt_lang makes same-language codes on an "en"
# line, and "es" as src_lang on an "es" target line.
_VALID_ROWS = [
    ("en", "es", "Latn", "cat", "gato"),
    ("en", "ru", "Cyrl", "cat", "кот"),
    ("de", "es", "Latn", "hot chip", "papas fritas"),
    ("en", "es", "Latn", "Hot  chip", "1 < 2"),
]
_VARIANTS = {
    0: ["es", "e n", "<x>", ""],
    1: ["en", "de", "x>y", "<2es>"],
    2: ["La tn", "", "Latn"],
    3: [" ", "\u3000", "<mask>", "a\rb", "cat ", "Cat", "a <b> c"],
    4: ["a\rb", "\r", "<mask>", "<2es>", "x <2es> y", " ", "\u3000", "", "<b>", "1 < 2", "gato", "perro"],
}


@st.composite
def _lexicon_rows(draw):
    """Valid rows, each followed at random by variants of a row before it:
    the variant keeps four fields, often a triple and a source term that a
    valid line already gave, and changes one."""
    rows = [draw(st.sampled_from(_VALID_ROWS))]
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            rows.append(draw(st.sampled_from(_VALID_ROWS)))
            continue
        row = list(draw(st.sampled_from(rows)))
        field = draw(st.sampled_from(sorted(_VARIANTS)))
        row[field] = draw(st.sampled_from(_VARIANTS[field]))
        rows.append(tuple(row))
    return rows


def _oracle_read(path, rows):
    """The entries of ``rows`` (lines 2, 3, … of ``path``) up to the first
    row ``LexEntry`` rejects, and that row's error text, or None."""
    entries = []
    for line_no, (src_lang, tgt_lang, tgt_script, src_term, tgt_term) in enumerate(rows, 2):
        try:
            entries.append(LexEntry(src_term, tgt_term, src_lang, tgt_lang, tgt_script))
        except ValueError as exc:
            return entries, str(LexiconFormatError(str(exc), path, line_no))
    return entries, None


class TestReaderOracle:
    """read_entries checks each code triple and source term once, so a line
    whose codes and source term passed before takes a shorter path; it must
    accept and reject exactly what LexEntry does."""

    @settings(max_examples=300, deadline=None)
    @given(rows=_lexicon_rows())
    def test_same_entries_and_errors_as_lexentry_per_line(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("reader") / "lex.tsv"
        path.write_text("# comment\n" + "".join("\t".join(row) + "\n" for row in rows), encoding="utf-8", newline="")
        got, error = [], None
        try:
            got.extend(read_entries(str(path)))
        except LexiconFormatError as exc:
            error = str(exc)
        expected, expected_error = _oracle_read(str(path), rows)
        assert (got, error) == (expected, expected_error)
        assert all(type(entry) is LexEntry for entry in got)
