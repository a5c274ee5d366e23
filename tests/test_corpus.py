import hashlib
import itertools
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexaug import corpus
from lexaug.corpus import (
    Branch,
    Record,
    SentencePair,
    assign_branch,
    load_corpus,
    read_lines,
    read_text,
    tokenize,
)
from lexaug.errors import CorpusFormatError, FormatError

from conftest import write_jsonl


class TestTokenize:
    def test_basic(self):
        sent = tokenize("The kitten lies")
        assert sent.surfaces() == ["The", "kitten", "lies"]
        assert sent.n == 3

    def test_empty(self):
        assert tokenize("").n == 0

    def test_five_tokens(self):
        assert tokenize("A Puma eats hot chip").n == 5

    def test_punctuation_not_tokens(self):
        sent = tokenize("Wait... what?!")
        assert sent.surfaces() == ["Wait", "what"]

    def test_digits_are_tokens(self):
        assert tokenize("room 101").surfaces() == ["room", "101"]

    def test_combining_marks_stay_attached(self):
        # Devanagari words include Mn/Mc combining marks.
        sent = tokenize("नमस्ते दुनिया")
        assert sent.surfaces() == ["नमस्ते", "दुनिया"]

    def test_detokenization_identity_simple(self):
        text = "  One, two --  three!  "
        sent = tokenize(text)
        rebuilt = _rebuild_from_spans(text, sent)
        assert rebuilt == text

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=80))
    def test_detokenization_identity_property(self, text):
        sent = tokenize(text)
        assert _rebuild_from_spans(text, sent) == text
        # Spans are strictly increasing and non-overlapping.
        for a, b in zip(sent.tokens, sent.tokens[1:]):
            assert a.char_end <= b.char_start

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_matches_category_oracle(self, text):
        got = [(t.surface, t.char_start, t.char_end) for t in tokenize(text).tokens]
        assert got == _oracle_tokens(text)

    def test_every_code_point_classified_by_category(self, monkeypatch):
        """Each code point is a word character exactly when its Unicode category
        is L, M or N. Each chunk is read through a fresh table, so the shared
        one is not left holding every code point."""
        chunk = 0x10000
        for first in range(0, 0x110000, chunk):
            monkeypatch.setattr(corpus, "_WORD_TABLE", corpus._WordTable())
            text = "".join(map(chr, range(first, first + chunk)))
            is_word = [False] * chunk
            for tok in tokenize(text).tokens:
                assert tok.surface == text[tok.char_start : tok.char_end]
                is_word[tok.char_start : tok.char_end] = [True] * len(tok.surface)
            expected = [unicodedata.category(ch)[0] in "LMN" for ch in text]
            assert is_word == expected, hex(first + next(i for i in range(chunk) if is_word[i] != expected[i]))


def _rebuild_from_spans(text: str, sent) -> str:
    parts = []
    cursor = 0
    for tok in sent.tokens:
        parts.append(text[cursor : tok.char_start])
        parts.append(text[tok.char_start : tok.char_end])
        cursor = tok.char_end
    parts.append(text[cursor:])
    return "".join(parts)


def _oracle_tokens(text: str) -> list[tuple[str, int, int]]:
    """Independent tokenizer: maximal runs of characters in Unicode
    categories L, M or N, as (surface, char_start, char_end)."""
    runs = itertools.groupby(enumerate(text), key=lambda p: unicodedata.category(p[1])[0] in "LMN")
    tokens = []
    for is_word, run in runs:
        run = list(run)
        if is_word:
            start, end = run[0][0], run[-1][0] + 1
            tokens.append((text[start:end], start, end))
    return tokens


class TestRecordTypes:
    def test_record_rejects_blank_text(self):
        with pytest.raises(ValueError):
            Record(id=0, lang="en", script="Latn", text="   ")

    def test_record_rejects_missing_lang(self):
        with pytest.raises(ValueError):
            Record(id=0, lang="", script="Latn", text="hi")

    @pytest.mark.parametrize(
        "field,value,code",
        [("text", "a \ud800 cat", "D800"), ("text", "\udfff", "DFFF"), ("lang", "e\udc00", "DC00"),
         ("script", "\ud83dLatn", "D83D")],
    )
    def test_record_rejects_a_lone_surrogate(self, field, value, code):
        fields = {"lang": "en", "script": "Latn", "text": "a cat", field: value}
        for _ in range(2):  # a rejected tag value is not cached as valid
            with pytest.raises(ValueError, match=f"{field} holds the lone surrogate U\\+{code}, which UTF-8"):
                Record(id=0, **fields)

    def test_record_keeps_astral_text(self):
        assert Record(id=0, lang="en", script="Latn", text="a \U0001f408 cat").text == "a \U0001f408 cat"

    def test_pair_rejects_same_lang(self):
        rec = Record(id=0, lang="en", script="Latn", text="hi")
        with pytest.raises(ValueError):
            SentencePair(id=0, src=rec, tgt=rec)


class TestReadLines:
    def test_lines_and_ends(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"a\r\nb\rc\n\n\r\r\nd\r")
        assert list(read_lines(str(path))) == ["a", "b\rc", "", "\r", "d"]
        assert read_text(str(path)) == "a\r\nb\rc\n\n\r\r\nd\r"

    @pytest.mark.parametrize(
        "data,message",
        [
            # A "\n" cuts the sequence, as a per-line decode sees it.
            (b"ok\nab\xc3\ncd\n", "line 2: not valid UTF-8: byte 0xc3 at offset 2 (invalid continuation byte)"),
            # The last line has no "\n", so its sequence runs out.
            (b"ok\nab\xe7\x8c", "line 2: not valid UTF-8: byte 0xe7 at offset 2 (unexpected end of data)"),
            (b"\xff", "line 1: not valid UTF-8: byte 0xff at offset 0 (invalid start byte)"),
        ],
    )
    def test_bad_byte_names_line_and_offset(self, tmp_path, data, message):
        path = tmp_path / "f.txt"
        path.write_bytes(data)
        for read in (lambda: list(read_lines(str(path))), lambda: read_text(str(path))):
            with pytest.raises(FormatError) as caught:
                read()
            assert str(caught.value) == f"{path}:{message}"

    def test_lines_far_past_the_first_block(self, tmp_path):
        path = tmp_path / "f.txt"
        lines = [f"line {n} \u732b" * (n % 7) for n in range(30000)]
        path.write_bytes("\n".join(lines).encode("utf-8") + b"\nab\xff")
        with pytest.raises(FormatError, match=r"f.txt:line 30001: not valid UTF-8: byte 0xff at offset 2 "):
            list(read_lines(str(path)))
        digests = {}
        path.write_bytes("\n".join(lines).encode("utf-8"))
        assert list(read_lines(str(path), digests)) == lines
        assert digests == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}


class TestLoadCorpus:
    def test_line_number_ids(self, mono_corpus_file):
        records = list(load_corpus(mono_corpus_file, "mono"))
        assert [r.id for r in records] == [0, 1, 2]
        assert records[2].text == "The kitten lies"

    def test_explicit_ids_win(self, tmp_path):
        path = write_jsonl(
            tmp_path / "m.jsonl",
            [{"id": 41, "lang": "en", "script": "Latn", "text": "x y"}],
        )
        assert list(load_corpus(path, "mono"))[0].id == 41

    def test_empty_text_names_line(self, tmp_path):
        path = write_jsonl(
            tmp_path / "m.jsonl",
            [
                {"lang": "en", "script": "Latn", "text": "ok"},
                {"lang": "en", "script": "Latn", "text": ""},
                {"lang": "en", "script": "Latn", "text": "ok too"},
            ],
        )
        with pytest.raises(CorpusFormatError, match="line 2"):
            list(load_corpus(path, "mono"))

    def test_parallel_same_lang_rejected(self, tmp_path):
        path = write_jsonl(
            tmp_path / "p.jsonl",
            [
                {
                    "src": {"lang": "en", "script": "Latn", "text": "hello"},
                    "tgt": {"lang": "en", "script": "Latn", "text": "hi"},
                }
            ],
        )
        with pytest.raises(CorpusFormatError, match="line 1"):
            list(load_corpus(path, "parallel"))

    @pytest.mark.parametrize("bad_id", [3.0, True])
    def test_parallel_id_must_be_an_integer(self, tmp_path, bad_id):
        good = {"src": {"lang": "en", "script": "Latn", "text": "hi"}, "tgt": {"lang": "es", "script": "Latn", "text": "hola"}}
        path = write_jsonl(tmp_path / "p.jsonl", [good, {"id": bad_id, **good}])
        with pytest.raises(CorpusFormatError, match="line 2: pair id must be an integer"):
            list(load_corpus(path, "parallel"))

    def test_parallel_roundtrip(self, parallel_corpus_file):
        pairs = list(load_corpus(parallel_corpus_file, "parallel"))
        assert len(pairs) == 2
        assert pairs[0].src.lang == "en"
        assert pairs[0].tgt.text == "El gato se sento"

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"lang": "en", "script": "Latn", "text": "ok"}\nnot json\n')
        with pytest.raises(CorpusFormatError, match="line 2"):
            list(load_corpus(str(path), "mono"))

    def test_wrong_field_types_name_line(self, tmp_path):
        path = write_jsonl(
            tmp_path / "m.jsonl",
            [
                {"lang": "en", "script": "Latn", "text": 5},
                {"id": "nope", "lang": "en", "script": "Latn", "text": "x"},
                {"lang": "e n", "script": "Latn", "text": "x"},
            ],
        )
        with pytest.raises(CorpusFormatError, match="line 1"):
            list(load_corpus(path, "mono"))
        seen = []
        list(load_corpus(path, "mono", on_error=seen.append))
        assert [e.line_no for e in seen] == [1, 2, 3]

    def test_skip_mode_collects_errors(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"lang": "en", "script": "Latn", "text": "ok"}\n'
            "broken\n"
            '{"lang": "en", "script": "Latn", "text": "fine"}\n'
        )
        seen = []
        records = list(load_corpus(str(path), "mono", on_error=seen.append))
        assert [r.text for r in records] == ["ok", "fine"]
        assert len(seen) == 1 and seen[0].line_no == 2

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('\n{"lang": "en", "script": "Latn", "text": "ok"}\n\n')
        records = list(load_corpus(str(path), "mono"))
        assert len(records) == 1
        assert records[0].id == 1  # line index, not record index

    def test_lone_carriage_return_does_not_split_a_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        obj = '{"lang": "en", "script": "Latn", "text": "%s"}'
        path.write_text(obj % "one" + "\r" + obj % "two" + "\n" + obj % "three" + "\n", newline="")
        seen = []
        records = list(load_corpus(str(path), "mono", on_error=seen.append))
        assert [(r.id, r.text) for r in records] == [(1, "three")]
        assert [e.line_no for e in seen] == [1]

    def test_crlf_loads_as_lf(self, tmp_path):
        lf = b'{"lang": "en", "script": "Latn", "text": "a"}\n\n{"lang": "en", "script": "Latn", "text": "b"}\n'
        (tmp_path / "lf.jsonl").write_bytes(lf)
        (tmp_path / "crlf.jsonl").write_bytes(lf.replace(b"\n", b"\r\n"))
        records = list(load_corpus(str(tmp_path / "crlf.jsonl"), "mono"))
        assert records == list(load_corpus(str(tmp_path / "lf.jsonl"), "mono"))
        assert [(r.id, r.text) for r in records] == [(0, "a"), (2, "b")]

    def test_streaming_is_lazy(self, tmp_path):
        path = write_jsonl(
            tmp_path / "big.jsonl",
            ({"lang": "en", "script": "Latn", "text": f"line {i}"} for i in range(5000)),
        )
        stream = load_corpus(path, "mono")
        first_two = list(itertools.islice(stream, 2))
        assert [r.id for r in first_two] == [0, 1]

    def test_bad_kind(self, mono_corpus_file):
        with pytest.raises(ValueError):
            list(load_corpus(mono_corpus_file, "bilingual"))


class TestAssignBranch:
    def test_fraction_one_always_augments(self):
        assert all(assign_branch(i, 3, 1.0) is Branch.AUGMENT for i in range(500))

    def test_fraction_zero_never_augments(self):
        assert all(assign_branch(i, 3, 0.0) is Branch.VANILLA for i in range(500))

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError):
            assign_branch(0, 0, 1.5)

    def test_pure_function(self):
        first = [assign_branch(i, 99, 0.5) for i in range(1000)]
        second = [assign_branch(i, 99, 0.5) for i in reversed(range(1000))]
        assert first == list(reversed(second))

    def test_seed_changes_split(self):
        a = [assign_branch(i, 1, 0.5) for i in range(1000)]
        b = [assign_branch(i, 2, 0.5) for i in range(1000)]
        assert a != b

    def test_share_approaches_fraction(self):
        n = 100_000
        hits = sum(assign_branch(i, 7, 0.5) is Branch.AUGMENT for i in range(n))
        assert abs(hits / n - 0.5) < 0.005
