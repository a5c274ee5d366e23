import random
import sys
import unicodedata
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexaug.corpus import tokenize, words
from lexaug.metrics import (
    CHRF_CHAR_ORDER,
    _WS_RE,
    EvalRow,
    _contains_watched,
    _pair_statistics,
    chrf_sums,
    copy_similarity,
    detect_null,
    detect_repetition,
    diagnose_corpus,
    f_score,
    is_copy,
    token_hit_rate,
)

from reference_chrf import reference_corpus_chrf, reference_sentence_chrf


def _row(hyp, ref, source="src text"):
    return EvalRow(source=source, hypothesis=hyp, reference=ref)


def _rows(pairs):
    """Source-less eval rows of (hypothesis, reference) pairs."""
    return [EvalRow(hypothesis=hyp, reference=ref) for hyp, ref in pairs]


_WORDS = [
    "cat", "gato", "chat", "kitten", "dog", "perro", "translation", "котёнок",
    "नमस्ते", "שָׁלוֹם", "面白い", "word", "the", "of", "and", "puma", "lion",
]


def _random_sentence(rng, min_words=1, max_words=12):
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(min_words, max_words)))


def chrf(hyp, ref):
    """One pair's sentence chrf, as ``score --sentence`` computes it."""
    return chrf_sums([(hyp, ref)], True)[2][0]


def corpus_chrf(rows):
    """The corpus chrf of ``rows``, as ``score`` computes it."""
    return f_score(chrf_sums(rows, False)[1])


class TestChrf:
    def test_perfect_match(self):
        assert chrf("The cat sat.", "The cat sat.") == 100.0

    def test_disjoint_characters(self):
        assert chrf("abc", "xyz") == 0.0

    def test_cat_sat_matches_reference(self):
        ours = chrf("cat sat", "cat sit")
        oracle = reference_sentence_chrf("cat sat", "cat sit")
        assert abs(ours - oracle) < 1e-6
        # Frozen from the reference implementation.
        assert abs(ours - 37.77777777777778) < 1e-9

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            chrf("anything", "")

    def test_empty_hypothesis_scores_zero(self):
        assert chrf("", "reference text") == 0.0

    def test_whitespace_is_removed(self):
        assert chrf("catsat", "cat sat") == 100.0

    def test_case_preserved(self):
        assert chrf("CAT", "cat") < 100.0

    def test_matches_reference_on_random_pairs(self):
        rng = random.Random(1)
        for _ in range(100):
            hyp = _random_sentence(rng, 0, 10)
            ref = _random_sentence(rng)
            assert abs(chrf(hyp, ref) - reference_sentence_chrf(hyp, ref)) < 1e-9

    @settings(max_examples=150, deadline=None)
    @given(st.text(max_size=40), st.text(min_size=1, max_size=40))
    def test_bounds_property(self, hyp, ref):
        score = chrf(hyp, ref)
        assert 0.0 <= score <= 100.0
        assert abs(score - reference_sentence_chrf(hyp, ref)) < 1e-9


class TestCorpusChrf:
    def test_single_row_equals_sentence(self):
        assert corpus_chrf([("cat sat", "cat sit")]) == chrf("cat sat", "cat sit")

    def test_all_perfect(self):
        rows = [("same text", "same text"), ("more", "more")]
        assert corpus_chrf(rows) == 100.0

    def test_mixed_sample_matches_reference(self):
        rng = random.Random(2)
        pairs = [(_random_sentence(rng, 0, 10), _random_sentence(rng)) for _ in range(50)]
        ours = corpus_chrf(pairs)
        oracle = reference_corpus_chrf([h for h, _ in pairs], [r for _, r in pairs])
        assert abs(ours - oracle) < 1e-9

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            corpus_chrf([("cat sat", "cat sit"), ("anything", "")])

    def test_no_rows_count_nothing(self):
        # `score` fails an empty input before it scores one.
        assert chrf_sums([], True) == (0, [0] * (3 * CHRF_CHAR_ORDER), [])


def _per_order_statistics(hypothesis, reference):
    """Reference for _pair_statistics: one Counter per side and order,
    clipped matches from ``Counter.__and__``."""
    hypothesis = _WS_RE.sub("", hypothesis)
    reference = _WS_RE.sub("", reference)
    stats = []
    for order in range(1, CHRF_CHAR_ORDER + 1):
        hyp_grams = Counter(hypothesis[i : i + order] for i in range(len(hypothesis) - order + 1))
        ref_grams = Counter(reference[i : i + order] for i in range(len(reference) - order + 1))
        matched = hyp_grams & ref_grams
        stats.extend((sum(hyp_grams.values()), sum(ref_grams.values()), sum(matched.values())))
    return stats


# Arbitrary Unicode, and a small alphabet of letters, mixed whitespace and
# combining marks, so that n-grams of every order repeat and match.
_chrf_text = st.one_of(
    st.text(max_size=40),
    st.text(
        alphabet=st.sampled_from(["a", "b", "e", "\u00e9", "\u0301", "\u0308", "\u05b8", "ש",
                                  " ", "\t", "\n", "\u00a0", "\u2003", "\u3000"]),
        max_size=40,
    ),
)


class TestPairStatistics:
    @settings(max_examples=300, deadline=None)
    @given(_chrf_text, _chrf_text)
    def test_equals_per_order_counting(self, hyp, ref):
        assert _pair_statistics(hyp, ref) == _per_order_statistics(hyp, ref)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_chrf_text, _chrf_text.filter(bool)), min_size=1, max_size=8))
    def test_chrf_sums_equal_corpus_and_sentence_chrf(self, rows):
        totals = [sum(column) for column in zip(*(_per_order_statistics(h, r) for h, r in rows))]
        sentence_scores = [chrf(h, r) for h, r in rows]
        assert chrf_sums(rows, True) == (len(rows), totals, sentence_scores)
        assert chrf_sums(rows, False) == (len(rows), totals, [])
        # Counted in two parts, the rows give the same sums and scores.
        cut = len(rows) // 2
        parts = [chrf_sums(rows[:cut], True), chrf_sums(rows[cut:], True)]
        assert [a + b for a, b in zip(parts[0][1], parts[1][1])] == totals
        assert parts[0][2] + parts[1][2] == sentence_scores
        assert sentence_scores == pytest.approx([reference_sentence_chrf(h, r) for h, r in rows], abs=1e-9)
        oracle = reference_corpus_chrf([h for h, _ in rows], [r for _, r in rows])
        assert f_score(totals) == pytest.approx(oracle, abs=1e-9)


class TestTokenHitRate:
    def test_kitten_puma_half(self):
        rows = _rows([
            ("kitten lie on floor", "The kitten lies"),
            ("Crocodile charge they phone", "A Puma eats hot chip"),
        ])
        result = token_hit_rate(rows, {"kitten", "puma"})
        assert result.rate == 0.5
        assert result.rows_with_token == 2
        assert result.hits == 1

    def test_perfect_hit_rate(self):
        rows = _rows([("the cat", "a cat"), ("no match here", "nothing watched")])
        assert token_hit_rate(rows, {"cat"}).rate == 1.0

    def test_undefined_when_never_in_references(self):
        result = token_hit_rate(_rows([("cat", "dog")]), {"zebra"})
        assert result.rate is None
        assert result.rows_with_token == 0

    def test_empty_token_set_rejected(self):
        with pytest.raises(ValueError):
            token_hit_rate(_rows([("a", "b")]), set())

    def test_case_insensitive_whole_token(self):
        rows = _rows([("saw a PUMA today", "the Puma ran")])
        assert token_hit_rate(rows, {"puma"}).rate == 1.0
        # Substrings are not token matches.
        rows = _rows([("pumas are cats", "the puma ran")])
        assert token_hit_rate(rows, {"puma"}).rate == 0.0

    def test_invariant_to_rows_outside_watched_set(self):
        watched_rows = _rows([("kitten here", "kitten there"), ("nope", "puma runs")])
        fillers = _rows([("x", "y"), ("lorem", "ipsum")])
        with_fillers = token_hit_rate(watched_rows + fillers, {"kitten", "puma"})
        without = token_hit_rate(watched_rows, {"kitten", "puma"})
        assert with_fillers == without

    def test_accepts_eval_rows(self):
        rows = [_row("kitten lie on floor", "The kitten lies")]
        assert token_hit_rate(rows, {"kitten"}).rate == 1.0


class TestDetectNull:
    def test_question_marks(self):
        assert detect_null("??") is True

    def test_normal_sentence(self):
        assert detect_null("The cat sat.") is False

    def test_dashes(self):
        assert detect_null("---") is True

    def test_empty_and_whitespace(self):
        assert detect_null("") is True
        assert detect_null("   ") is True

    def test_digits_are_content(self):
        assert detect_null("42") is False

    def test_mixed_symbols_and_space(self):
        assert detect_null("?? !!") is True


class TestCopySimilarity:
    def test_identity(self):
        assert copy_similarity("The cat", "The cat") == 1.0
        assert is_copy("The cat", "The cat")

    def test_hand_counted(self):
        # chars {a,b} shared, source length 3
        assert copy_similarity("abc", "abd") == pytest.approx(2 / 3)
        assert not is_copy("abc", "abd")

    def test_boundary_is_not_copy(self):
        # Exactly 17 of 20 source chars matched: ratio 0.85, strictly not a copy.
        source = "a" * 20
        hypothesis = "a" * 17
        assert copy_similarity(source, hypothesis) == 0.85
        assert not is_copy(source, hypothesis)

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError):
            copy_similarity("", "anything")

    @settings(max_examples=100, deadline=None)
    @given(st.text(min_size=1, max_size=30))
    def test_self_similarity_is_one(self, text):
        assert copy_similarity(text, text) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.text(min_size=1, max_size=20), st.text(max_size=20))
    def test_order_invariance(self, source, hypothesis):
        shuffled = "".join(sorted(hypothesis))
        assert copy_similarity(source, hypothesis) == copy_similarity(source, shuffled)


class TestDetectRepetition:
    def test_la_la_la_la(self):
        assert detect_repetition("la la la la") is True

    def test_unique_tokens(self):
        assert detect_repetition("a b c") is False

    def test_ratio_exactly_three_is_clean(self):
        assert detect_repetition("la la la") is False

    def test_empty(self):
        assert detect_repetition("") is False
        assert detect_repetition("...") is False


class TestWords:
    """``_contains_watched`` and ``detect_repetition`` take the words from
    ``corpus.words``; they must be the tokenizer's surfaces."""

    @settings(max_examples=500, deadline=None)
    @given(text=st.text(st.characters(exclude_categories=("Cs",))), extra=st.lists(st.text(max_size=3), max_size=3),
           data=st.data())
    def test_the_words_are_the_tokenizer_surfaces(self, text, extra, data):
        surfaces = [t.surface for t in tokenize(text).tokens]
        assert words(text) == surfaces
        folded = [s.casefold() for s in surfaces]
        watched = frozenset(extra) | frozenset(data.draw(st.lists(st.sampled_from(folded), max_size=2)) if folded else ())
        assert _contains_watched(text, watched) == any(f in watched for f in folded)
        assert detect_repetition(text) == (bool(surfaces) and len(surfaces) / len(set(surfaces)) > 3)

    def test_no_word_character_is_or_folds_to_whitespace(self):
        word_chars = [c for c in map(chr, range(sys.maxunicode + 1)) if unicodedata.category(c)[0] in "LMN"]
        assert [c for c in word_chars if c.isspace() or any(f.isspace() for f in c.casefold())] == []

    def test_case_folding_that_changes_the_length(self):
        # "\u00df" folds to "ss", and "\u0130" to "i" and a combining dot.
        assert token_hit_rate(_rows([("STRASSE \u0130stanbul", "Stra\u00dfe")]), {"strasse"}).rate == 1.0
        assert token_hit_rate(_rows([("Stra\u00dfe", "\u0130stanbul")]), {"i\u0307stanbul"}).rate == 0.0


def _diagnose_fixture():
    """10 rows: exactly 2 copies, 1 null, 1 repetition, plus boundary rows
    that must stay clean."""
    return [
        # Copy 1: verbatim echo of the source.
        _row("The quick brown fox", "ref 1", source="The quick brown fox"),
        # Copy 2: same characters, permuted.
        _row("jihgfedcba", "ref 2", source="abcdefghij"),
        # Null output.
        _row("??", "ref 3", source="Das ist ein Test"),
        # Repetition (4 tokens / 1 unique = 4 > 3).
        _row("la la la la", "ref 4", source="Ein anderer Satz"),
        # Boundary: similarity exactly 0.85 is not a copy.
        _row("a" * 17, "ref 5", source="a" * 20),
        # Boundary: ratio exactly 3 is not a repetition.
        _row("no no no", "ref 6", source="Noch ein Satz hier"),
        _row("une phrase correcte", "ref 7", source="A correct sentence"),
        _row("otra frase normal", "ref 8", source="Another normal sentence"),
        _row("ganz anderes zeug", "ref 9", source="Entirely different stuff"),
        _row("vierte saubere zeile", "ref 10", source="Fourth clean line"),
    ]


class TestDiagnose:
    def test_all_clean(self):
        rows = [_row("bonne phrase", "ref", source="good sentence") for _ in range(4)]
        report = diagnose_corpus(rows)
        assert report.null_pct == report.copy_pct == report.repetition_pct == 0.0

    def test_hand_built_fixture(self):
        report = diagnose_corpus(_diagnose_fixture())
        assert report.total == 10
        assert (report.copy_count, report.null_count, report.repetition_count) == (2, 1, 1)
        assert report.copy_pct == 20.0
        assert report.null_pct == 10.0
        assert report.repetition_pct == 10.0

    def test_detectors_are_independent(self):
        # One row that is simultaneously a copy, and a repetition.
        row = _row("ha ha ha ha", "ref", source="ha ha ha ha")
        report = diagnose_corpus([row])
        assert report.copy_count == 1
        assert report.repetition_count == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            diagnose_corpus([])

    def test_table_formatting(self):
        table = diagnose_corpus(_diagnose_fixture()).format_table()
        assert "copy" in table and "20.00%" in table

    def test_eval_row_requires_reference(self):
        with pytest.raises(ValueError):
            _row("hyp", "")

    def test_eval_row_reads_its_fields_and_ignores_other_keys(self):
        obj = {"lang": 1, "direction": "sideways", "hypothesis": "h", "reference": "r"}
        assert EvalRow.from_json_obj(obj) == EvalRow(hypothesis="h", reference="r")
        assert EvalRow.from_json_obj({**obj, "source": "s"}) == EvalRow(source="s", hypothesis="h", reference="r")
