import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexaug.metrics import (
    Direction,
    EvalRow,
    Resourcedness,
    chrf,
    classify_resourcedness,
    copy_similarity,
    corpus_chrf,
    detect_null,
    detect_repetition,
    diagnose_corpus,
    is_copy,
    token_hit_rate,
)

from reference_chrf import reference_corpus_chrf, reference_sentence_chrf


def _row(hyp, ref, source="src text", lang="xx"):
    return EvalRow(
        lang=lang,
        direction=Direction.EN_TO_XX,
        source=source,
        hypothesis=hyp,
        reference=ref,
    )


_WORDS = [
    "cat", "gato", "chat", "kitten", "dog", "perro", "translation", "котёнок",
    "नमस्ते", "שָׁלוֹם", "面白い", "word", "the", "of", "and", "puma", "lion",
]


def _random_sentence(rng, min_words=1, max_words=12):
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(min_words, max_words)))


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

    def test_accepts_eval_rows(self):
        rows = [_row("cat sat", "cat sit")]
        assert corpus_chrf(rows) == chrf("cat sat", "cat sit")

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            corpus_chrf([])


class TestTokenHitRate:
    def test_kitten_puma_half(self):
        rows = [
            ("kitten lie on floor", "The kitten lies"),
            ("Crocodile charge they phone", "A Puma eats hot chip"),
        ]
        result = token_hit_rate(rows, {"kitten", "puma"})
        assert result.rate == 0.5
        assert result.rows_with_token == 2
        assert result.hits == 1

    def test_perfect_hit_rate(self):
        rows = [("the cat", "a cat"), ("no match here", "nothing watched")]
        assert token_hit_rate(rows, {"cat"}).rate == 1.0

    def test_undefined_when_never_in_references(self):
        result = token_hit_rate([("cat", "dog")], {"zebra"})
        assert result.rate is None
        assert result.rows_with_token == 0

    def test_empty_token_set_rejected(self):
        with pytest.raises(ValueError):
            token_hit_rate([("a", "b")], set())

    def test_case_insensitive_whole_token(self):
        rows = [("saw a PUMA today", "the Puma ran")]
        assert token_hit_rate(rows, {"puma"}).rate == 1.0
        # Substrings are not token matches.
        rows = [("pumas are cats", "the puma ran")]
        assert token_hit_rate(rows, {"puma"}).rate == 0.0

    def test_invariant_to_rows_outside_watched_set(self):
        watched_rows = [("kitten here", "kitten there"), ("nope", "puma runs")]
        fillers = [("x", "y"), ("lorem", "ipsum")]
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


class TestResourcedness:
    @pytest.mark.parametrize(
        "tokens,expected",
        [
            (0, Resourcedness.URL),
            (1, Resourcedness.LRL),
            (360_000_000, Resourcedness.LRL),
            (360_000_001, Resourcedness.MRL),
            (500_000_000, Resourcedness.MRL),
            (2_000_000_000, Resourcedness.MRL),
            (2_000_000_001, Resourcedness.HRL),
            (2_500_000_000, Resourcedness.HRL),
        ],
    )
    def test_thresholds(self, tokens, expected):
        assert classify_resourcedness(tokens) is expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classify_resourcedness(-1)

    def test_monotone_step_function(self):
        order = [Resourcedness.URL, Resourcedness.LRL, Resourcedness.MRL, Resourcedness.HRL]
        samples = [0, 1, 10**6, 360_000_000, 10**9, 2 * 10**9, 4 * 10**9]
        ranks = [order.index(classify_resourcedness(s)) for s in samples]
        assert ranks == sorted(ranks)


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
