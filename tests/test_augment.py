import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexaug.augment import (
    LITERALS,
    TASK_TOKENS,
    SENTINELS,
    MatchSpan,
    Task,
    TrainingExample,
    _mask_units,
    _splice,
    _units_with_sentinels,
    augment_example,
    codeswitch,
    codeswitch_mono,
    codeswitch_parallel,
    find_translatable,
    glowup_mono,
    glowup_parallel,
    glowup_prompt,
    glowup_source,
    token_pair_examples,
    validate_example,
)
from lexaug.corpus import Record, SentencePair, tokenize
from lexaug.errors import EmptyInputError, SentinelCollisionError
from lexaug.lexicon import LexEntry, Lexicon, match_key
from lexaug.sampling import SelectionMode, SelectionParams, derive_rng


def rec(text="the cat sat", lang="en", script="Latn", rid=0):
    return Record(id=rid, lang=lang, script=script, text=text)


def pair(src_text="the cat sat", tgt_text="el gato se sento", rid=0):
    return SentencePair(
        id=rid,
        src=Record(id=rid, lang="en", script="Latn", text=src_text),
        tgt=Record(id=rid, lang="es", script="Latn", text=tgt_text),
    )


# Single-token words (mixed case, non-ASCII, case folds that change length)
# and separators, so generated sentences hit one- and multi-word terms.
_word = st.sampled_from(["cat", "Cat", "dog", "hot", "HOT", "chip", "kitten", "café", "Straße", "x1", "नमस्ते"])
_sep = st.sampled_from([" ", "  ", "\t", ", ", "-", "! ", " ... "])
_sentence = st.lists(st.tuples(_word, _sep), min_size=1, max_size=12).map(
    lambda pairs: "".join(w + sep for w, sep in pairs)
)
_terms = st.lists(st.lists(_word, min_size=1, max_size=3).map(" ".join), min_size=1, max_size=8)


def _lexicon_of(terms):
    """en terms translated into es and fr in turn."""
    return Lexicon([("panlex", (
        LexEntry(term, f"t{i}", "en", ("es", "fr")[i % 2], "Latn") for i, term in enumerate(terms)
    ))])


def _reference_find_translatable(sentence, src_lang, lexicon, tgt_filter=None):
    """The window scan with one lookup_key probe per window and one casefold
    per token, as find_translatable was before it folded whole sentences."""
    tokens = sentence.tokens
    n = len(tokens)
    max_len = lexicon.max_term_tokens(src_lang)
    if max_len == 0 or n == 0:
        return []
    text = sentence.text
    folded = [t.surface.casefold() for t in tokens]
    spans = []
    i = 0
    while i < n:
        limit = min(max_len, n - i)
        if limit > 1:
            run = 1
            while run < limit:
                gap = text[tokens[i + run - 1].char_end : tokens[i + run].char_start]
                if gap and not gap.isspace():
                    break
                run += 1
            limit = run
        for length in range(limit, 0, -1):
            key = folded[i] if length == 1 else " ".join(folded[i : i + length])
            if lexicon.lookup_key(key, src_lang, tgt_filter):
                char_start = tokens[i].char_start
                char_end = tokens[i + length - 1].char_end
                spans.append(MatchSpan(i, i + length, char_start, char_end, text[char_start:char_end], key))
                i += length
                break
        else:
            i += 1
    return spans


# Words whose case folds change length ("ß" -> "ss", "ﬁ" -> "fi", "İ" -> "i̇").
_fold_word = st.one_of(_word, st.sampled_from(["STRASSE", "strasse", "ﬁsh", "FISH", "İs", "i̇s", "ǰ", "ΣΑΣ"]))
_fold_sentence = st.lists(st.tuples(_fold_word, _sep), min_size=0, max_size=12).map(
    lambda pairs: "".join(w + sep for w, sep in pairs)
)


class TestFindTranslatable:
    @settings(max_examples=200, deadline=None)
    @given(text=_sentence, terms=_terms, tgt_filter=st.sampled_from([None, "es", "fr"]))
    def test_spans_are_ordered_lexicon_matches(self, text, terms, tgt_filter):
        lexicon = _lexicon_of(terms)
        sentence = tokenize(text)
        spans = find_translatable(sentence, "en", lexicon, tgt_filter)
        for a, b in zip(spans, spans[1:]):
            assert a.end <= b.start and a.char_end <= b.char_start
        for span in spans:
            assert 0 <= span.start < span.end <= sentence.n
            assert span.surface == text[span.char_start : span.char_end]
            assert span.key == match_key(span.surface)
            assert lexicon.lookup_key(span.key, "en", tgt_filter)

    @settings(max_examples=200, deadline=None)
    @given(
        words=st.lists(_word, min_size=1, max_size=4),
        gaps=st.lists(st.sampled_from([" ", "  ", "\t", "\n ", "\u3000"]), min_size=3, max_size=3),
        others=_terms,
    )
    def test_sentence_that_is_a_term_is_one_span(self, words, gaps, others):
        text = words[0] + "".join(gap + word for gap, word in zip(gaps, words[1:]))
        lexicon = _lexicon_of([" ".join(words)] + others)
        sentence = tokenize(text)
        (span,) = find_translatable(sentence, "en", lexicon)
        assert (span.start, span.end) == (0, len(words)) == (0, sentence.n)
        assert span.surface == text

    @settings(max_examples=300, deadline=None)
    @given(
        text=_fold_sentence,
        terms=st.lists(st.lists(_fold_word, min_size=1, max_size=3), min_size=1, max_size=8),
        phrases=st.booleans(),
        tgt_filter=st.sampled_from([None, "es", "fr"]),
    )
    def test_same_spans_as_reference_scan(self, text, terms, phrases, tgt_filter):
        """One-token and phrase lexica, scoped or not, give the reference's
        spans exactly."""
        lexicon = _lexicon_of([" ".join(words) if phrases else words[0] for words in terms])
        sentence = tokenize(text)
        for lang in ("en", "de"):
            got = find_translatable(sentence, lang, lexicon, tgt_filter)
            assert got == _reference_find_translatable(sentence, lang, lexicon, tgt_filter)
            assert all(type(span) is MatchSpan for span in got)

    def test_no_code_point_folds_to_a_space(self):
        """find_translatable folds a sentence once, as
        " ".join(surfaces).casefold().split(" "): that gives each surface's own
        fold only if no code point but the space folds to a string holding a
        space. Checked over every code point, chunk by chunk."""
        chunk = 0x10000
        for first in range(0, 0x110000, chunk):
            chars = [chr(c) for c in range(first, first + chunk) if c != 0x20]
            folds = [ch.casefold() for ch in chars]
            assert not [hex(ord(ch)) for ch, fold in zip(chars, folds) if " " in fold]
            # Folding the joined chunk folds each code point on its own.
            assert " ".join(chars).casefold().split(" ") == folds, hex(first)


@st.composite
def _text_and_edits(draw):
    """A text and non-overlapping [start, end) replacements, in any order."""
    text = draw(st.text(max_size=40))
    cuts = sorted(draw(st.lists(st.integers(0, len(text)), max_size=8)))
    edits = [(cuts[i], cuts[i + 1], draw(st.text(max_size=5))) for i in range(0, len(cuts) - 1, 2)]
    return text, draw(st.permutations(edits))


class TestSplice:
    @settings(max_examples=300, deadline=None)
    @given(_text_and_edits())
    def test_keeps_every_character_outside_the_edits(self, text_and_edits):
        text, edits = text_and_edits
        out = _splice(text, list(edits))
        shift = cursor = 0  # shift: how far text[cursor:] has moved in out
        for start, end, replacement in sorted(edits):
            assert out[cursor + shift : start + shift] == text[cursor:start]
            shift += len(replacement) - (end - start)
            cursor = end
        assert out[cursor + shift :] == text[cursor:]
        assert len(out) == len(text) + shift


class TestSentinelInventory:
    def test_literals_are_distinct(self):
        assert len(set(LITERALS)) == len(LITERALS) == 10

    def test_task_token_defaults(self):
        assert TASK_TOKENS[Task.CODESWITCH_MONO] == "<2codeswitch>"
        assert TASK_TOKENS[Task.GLOWUP_PARALLEL] == "<2glowup>"
        assert TASK_TOKENS[Task.TOKEN_PAIR] == "<2translation>"

    def test_every_task_has_a_token(self):
        assert set(TASK_TOKENS) == set(Task)
        assert [TASK_TOKENS[task] for task in Task] == [*LITERALS[:6], "<2translation>"]

    def test_collision_on_task_token(self):
        with pytest.raises(SentinelCollisionError):
            SENTINELS.ensure_clean("oops <2codeswitch> here")

    def test_collision_on_language_tag(self):
        with pytest.raises(SentinelCollisionError):
            SENTINELS.ensure_clean("text with <2en> inside")

    def test_clean_text_passes(self):
        SENTINELS.ensure_clean("a perfectly normal sentence < 2 > ok")


class TestCodeswitch:
    def test_empty_lexicon_is_noop(self):
        sent = tokenize("the cat sat")
        switched, swapped = codeswitch(sent, "en", Lexicon(), SelectionParams(), derive_rng(0, 0))
        assert switched == "the cat sat"
        assert swapped == frozenset()

    def test_forced_single_swap(self, es_only_lexicon):
        # n=2, k=1, p_tr=1.0 -> adjusted probability clamps to 1
        lex = Lexicon([("panlex", [LexEntry("cat", "gato", "en", "es", "Latn")])])
        sent = tokenize("the cat")
        switched, swapped = codeswitch(sent, "en", lex, SelectionParams(p_tr=1.0), derive_rng(0, 0))
        assert switched == "the gato"
        assert swapped == frozenset({1})

    def test_punctuation_preserved(self):
        lex = Lexicon([("panlex", [LexEntry("cat", "gato", "en", "es", "Latn")])])
        sent = tokenize("A cat, a hat!")
        switched, _ = codeswitch(sent, "en", lex, SelectionParams(p_tr=1.0), derive_rng(0, 0))
        assert switched == "A gato, a hat!"

    def test_swaps_span_multiple_languages(self, tiny_lexicon):
        # All four tokens translatable; translations exist in es and fr.
        sent = tokenize("cat cat cat cat")
        params = SelectionParams(p_tr=1.0)
        saw_both = False
        for trial in range(1000):
            switched, _ = codeswitch(sent, "en", tiny_lexicon, params, derive_rng(5, trial))
            if "gato" in switched and "chat" in switched:
                saw_both = True
                break
        assert saw_both

    def test_swap_fraction_tracks_p_tr(self):
        words = [f"w{i}" for i in range(20)]
        lex = Lexicon([("panlex", [LexEntry(w, f"x{w}", "en", "es", "Latn") for w in words])])
        sent = tokenize(" ".join(words))
        params = SelectionParams(p_tr=0.4)
        trials = 1000
        total = sum(
            len(codeswitch(sent, "en", lex, params, derive_rng(3, t))[1]) for t in range(trials)
        )
        assert abs(total / (trials * 20) - 0.4) < 0.03

    def test_phrase_substitution_leftmost_longest(self):
        lex = Lexicon(
            [("panlex", [
                LexEntry("hot chip", "papas fritas", "en", "es", "Latn"),
                LexEntry("hot", "caliente", "en", "es", "Latn"),
            ])]
        )
        sent = tokenize("eats hot chip now")
        switched, swapped = codeswitch(sent, "en", lex, SelectionParams(p_tr=1.0), derive_rng(0, 1))
        assert "papas fritas" in switched
        assert swapped == frozenset({1, 2})

    def test_phrase_does_not_cross_punctuation(self):
        lex = Lexicon([("panlex", [LexEntry("hot chip", "papas fritas", "en", "es", "Latn")])])
        sent = tokenize("hot, chip")
        switched, swapped = codeswitch(sent, "en", lex, SelectionParams(p_tr=1.0), derive_rng(0, 0))
        assert switched == "hot, chip"
        assert swapped == frozenset()


class TestCodeswitchMono:
    def test_zero_swaps_differ_only_by_prefix(self):
        record = rec()
        example = codeswitch_mono(record, Lexicon(), SelectionParams(), derive_rng(0, record.id))
        assert example.task is Task.CODESWITCH_MONO
        assert example.source_text == f"<2codeswitch> <2en> <2Latn> {record.text}"
        assert example.target_text == record.text
        validate_example(example)

    def test_deterministic(self, tiny_lexicon):
        record = rec("the cat and the dog and the kitten")
        first = codeswitch_mono(record, tiny_lexicon, SelectionParams(), derive_rng(9, record.id))
        second = codeswitch_mono(record, tiny_lexicon, SelectionParams(), derive_rng(9, record.id))
        assert first == second

    def test_sentinel_collision_rejected(self, tiny_lexicon):
        record = rec("bad <mask> text")
        with pytest.raises(SentinelCollisionError):
            codeswitch_mono(record, tiny_lexicon, SelectionParams(), derive_rng(0, 0))


class TestCodeswitchParallel:
    def test_empty_lexicon_is_pure_translation(self):
        p = pair()
        example = codeswitch_parallel(p, Lexicon(), SelectionParams(), derive_rng(0, p.id))
        assert example.task is Task.CODESWITCH_PARALLEL
        assert example.source_text == f"<2codeswitch_parallel> <2es> <2Latn> {p.src.text}"
        assert example.target_text == p.tgt.text
        validate_example(example)

    def test_target_never_modified(self, tiny_lexicon):
        for trial in range(50):
            p = pair("the cat and the dog", "el gato y el perro", rid=trial)
            example = codeswitch_parallel(
                p, tiny_lexicon, SelectionParams(p_tr=1.0), derive_rng(1, trial)
            )
            assert example.target_text == p.tgt.text

    @settings(max_examples=150, deadline=None)
    @given(
        src=_sentence,
        tgt=st.text(st.characters(blacklist_characters="<>", blacklist_categories=("Cs",)), max_size=40)
        .filter(str.strip),
        terms=_terms,
        rid=st.integers(0, 2**64 - 1),
        p_tr=st.floats(0.0, 1.0),
        mode=st.sampled_from(list(SelectionMode)),
    )
    def test_parallel_tasks_never_change_the_target(self, src, tgt, terms, rid, p_tr, mode):
        p = SentencePair(
            id=rid, src=Record(rid, "en", "Latn", src), tgt=Record(rid, "es", "Latn", tgt)
        )
        params = SelectionParams(p_tr=p_tr, mode=mode)
        for task in (Task.CODESWITCH_PARALLEL, Task.GLOWUP_PARALLEL):
            example = augment_example(p, task, _lexicon_of(terms), params, derive_rng(5, rid))
            assert example.target_text == tgt

    def test_tags_use_target_side(self, tiny_lexicon):
        example = codeswitch_parallel(pair(), tiny_lexicon, SelectionParams(), derive_rng(0, 0))
        assert example.tgt_lang == "es"
        assert example.source_text.startswith("<2codeswitch_parallel> <2es> <2Latn> ")


def _mass_mask(text, rng, mask_fraction=0.5):
    """MASS span masking of ``text``, its tokens the units."""
    return _mask_units(text, [(t.char_start, t.char_end) for t in tokenize(text).tokens], rng, mask_fraction)


class TestMassMask:
    """``_mask_units`` over a sentence's tokens, as ``glowup_mono`` masks a
    sentence that gets no hint."""

    def test_single_token_fully_masked(self):
        assert _mass_mask("hello", derive_rng(0, 0)) == "<mask>"

    def test_span_start_uniform(self):
        starts = {0: 0, 1: 0, 2: 0}
        trials = 10_000
        for t in range(trials):
            surfaces = _mass_mask("a b c d", derive_rng(2, t)).split()
            start = surfaces.index("<mask>")
            assert surfaces[start + 1] == "<mask>"
            starts[start] += 1
        for count in starts.values():
            assert abs(count / trials - 1 / 3) < 0.02

    def test_positional_replacement_keeps_length(self):
        for t in range(20):
            masked = _mass_mask("one two three four five", derive_rng(3, t))
            assert len(tokenize(masked).tokens) == 5
            # With no terms, the hint count takes no draw: glowup_mono masks the same run.
            example = glowup_mono(rec("one two three four five"), Lexicon(), derive_rng(3, t))
            assert example.source_text == f"<2glowup_mono> <2en> <2Latn> {masked}"

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            _mass_mask("", derive_rng(0, 0))
        with pytest.raises(EmptyInputError):
            glowup_mono(rec("..."), Lexicon(), derive_rng(0, 0))

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            _mass_mask("a b", derive_rng(0, 0), mask_fraction=1.5)


class TestGlowupPrompt:
    def test_no_translatable_tokens(self):
        prompt, hinted = glowup_prompt(tokenize("xyz abc"), "en", Lexicon(), derive_rng(0, 0))
        assert prompt == ""
        assert hinted == frozenset()

    def test_single_hint_format(self):
        lex = Lexicon([("panlex", [LexEntry("cat", "gato", "en", "es", "Latn")])])
        sent = tokenize("the cat sat")
        for seed in range(50):
            prompt, hinted = glowup_prompt(sent, "en", lex, derive_rng(seed, 0))
            if prompt:
                assert prompt == "<hint> cat <is> gato <endhints>"
                assert hinted == frozenset({1})
                break
        else:
            pytest.fail("no seed produced a non-empty prompt")

    def test_hint_order_follows_token_order(self, tiny_lexicon):
        sent = tokenize("dog then cat")
        for seed in range(200):
            prompt, hinted = glowup_prompt(sent, "en", tiny_lexicon, derive_rng(seed, 0))
            if len(hinted) == 2:
                assert prompt.index("dog") < prompt.index("cat")
                return
        pytest.fail("no seed hinted both tokens")


class TestGlowupMono:
    def test_no_hints_degenerates_to_mass(self):
        record = rec()
        example = glowup_mono(record, Lexicon(), derive_rng(0, record.id))
        assert example.task is Task.GLOWUP_MONO
        assert example.source_text.startswith("<2glowup_mono> <2en> <2Latn> ")
        assert "<mask>" in example.source_text
        assert example.target_text == record.text
        validate_example(example)

    def test_target_is_prompted_unmasked(self, tiny_lexicon):
        record = rec("the cat and the dog")
        for seed in range(100):
            example = glowup_mono(record, tiny_lexicon, derive_rng(seed, record.id))
            if "<hint>" in example.target_text:
                assert example.target_text.endswith(record.text)
                assert "<mask>" not in example.target_text
                return
        pytest.fail("no seed produced a prompted example")

    def test_mask_can_cover_delimiters(self, tiny_lexicon):
        record = rec("the cat and the dog sat on the mat together")
        for seed in range(10_000):
            example = glowup_mono(record, tiny_lexicon, derive_rng(seed, record.id))
            target = example.target_text
            source_body = example.source_text.split(" ", 3)[3]
            if "<hint>" in target and source_body.count("<hint>") < target.count("<hint>"):
                return
        pytest.fail("masking never covered a hint delimiter")

    def test_deterministic(self, tiny_lexicon):
        record = rec("the cat and the dog")
        a = glowup_mono(record, tiny_lexicon, derive_rng(4, record.id))
        b = glowup_mono(record, tiny_lexicon, derive_rng(4, record.id))
        assert a == b


class TestGlowupParallel:
    def test_no_target_language_hint_available(self):
        # Lexicon has only a French translation; the pair targets Spanish.
        lex = Lexicon([("panlex", [LexEntry("cat", "chat", "en", "fr", "Latn")])])
        p = pair()
        example = glowup_parallel(p, lex, derive_rng(0, p.id))
        assert example.source_text == f"<2glowup> <2es> <2Latn> {p.src.text}"
        assert example.target_text == p.tgt.text
        validate_example(example)

    def test_hints_always_target_language(self, tiny_lexicon):
        # cat has es and fr translations; hints must only ever use es.
        p = pair("the cat sat", "el gato se sento")
        for seed in range(300):
            example = glowup_parallel(p, tiny_lexicon, derive_rng(seed, p.id))
            assert "chat" not in example.source_text
        saw_hint = any(
            "gato" in glowup_parallel(p, tiny_lexicon, derive_rng(seed, p.id)).source_text
            for seed in range(300)
        )
        assert saw_hint

    def test_inference_rendering_shares_the_path(self, tiny_lexicon):
        p = pair("the cat sat", "el gato se sento")
        for seed in range(20):
            example = glowup_parallel(p, tiny_lexicon, derive_rng(seed, p.id))
            rendered = glowup_source(
                p.src.text, "en", "es", "Latn", tiny_lexicon, derive_rng(seed, p.id)
            )
            assert rendered == example.source_text


class TestTokenPairs:
    def test_exact_rendering(self):
        lex = Lexicon([("panlex", [LexEntry("cat", "gato", "en", "es", "Latn")])])
        (example,) = list(token_pair_examples(lex))
        assert example.source_text == "<2translation> <2es> <2Latn> cat"
        assert example.target_text == "gato"
        assert example.task is Task.TOKEN_PAIR
        validate_example(example)

    def test_empty_lexicon(self):
        assert list(token_pair_examples(Lexicon())) == []

    def test_one_example_per_entry(self, tiny_lexicon):
        examples = list(token_pair_examples(tiny_lexicon))
        assert len(examples) == len(tiny_lexicon)
        assert [e.origin_id for e in examples] == list(range(len(tiny_lexicon)))

    def test_lang_filter_matches_either_side(self, tiny_lexicon):
        examples = list(token_pair_examples(tiny_lexicon, lang_filter={"fr"}))
        assert [e.target_text for e in examples] == ["chat"]
        # Origin ids stay stable under filtering.
        assert examples[0].origin_id == 1


class TestTrainingExample:
    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            TrainingExample(Task.MASS, "<2mass> <2en> <2Latn> x", "", "en", "Latn", 0)

    def test_json_roundtrip(self, tiny_lexicon):
        example = codeswitch_mono(rec(), tiny_lexicon, SelectionParams(), derive_rng(0, 0))
        assert TrainingExample.from_json_obj(example.to_json_obj()) == example


def _no_control_token(text):
    try:
        SENTINELS.ensure_clean(text)
    except SentinelCollisionError:
        return False
    return True


_any_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40).filter(
    lambda t: tokenize(t).n and _no_control_token(t)
)
_any_term = st.text(st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)), max_size=12).filter(
    lambda t: t.strip() and _no_control_token(t)
)


@st.composite
def _texts_and_lexicon(draw):
    """A source and a target text, and a lexicon of arbitrary terms plus
    words of the source, from en into es and fr."""
    src, tgt = draw(_any_text), draw(_any_text)
    terms = draw(st.lists(st.one_of(_any_term, st.sampled_from([t.surface for t in tokenize(src).tokens])), max_size=8))
    lexicon = Lexicon([("panlex", [
        LexEntry(term, draw(_any_term), "en", draw(st.sampled_from(["es", "fr"])), draw(st.sampled_from(["Latn", "Cyrl"])))
        for term in terms
    ])])
    return src, tgt, lexicon


class TestEveryExampleIsValid:
    @settings(max_examples=150, deadline=None)
    @given(
        texts_and_lexicon=_texts_and_lexicon(),
        rid=st.integers(0, 2**64 - 1),
        p_tr=st.floats(0.0, 1.0),
        mode=st.sampled_from(list(SelectionMode)),
        mask_fraction=st.floats(0.0, 1.0),
    )
    def test_validate_example(self, texts_and_lexicon, rid, p_tr, mode, mask_fraction):
        src, tgt, lexicon = texts_and_lexicon
        r = Record(rid, "en", "Latn", src)
        p = SentencePair(id=rid, src=r, tgt=Record(rid, "es", "Cyrl", tgt))
        params = SelectionParams(p_tr=p_tr, mode=mode)
        examples = [
            augment_example(r, Task.CODESWITCH_MONO, lexicon, params, derive_rng(1, rid)),
            augment_example(r, Task.GLOWUP_MONO, lexicon, params, derive_rng(1, rid), mask_fraction=mask_fraction),
            augment_example(p, Task.CODESWITCH_PARALLEL, lexicon, params, derive_rng(1, rid)),
            augment_example(p, Task.GLOWUP_PARALLEL, lexicon, params, derive_rng(1, rid)),
            *token_pair_examples(lexicon),
        ]
        for example in examples:
            validate_example(example)


class TestGlowupMonoUnits:
    @settings(max_examples=150, deadline=None)
    @given(texts_and_lexicon=_texts_and_lexicon(), rid=st.integers(0, 2**64 - 1), mask_fraction=st.floats(0.0, 1.0))
    def test_prompt_units_then_shifted_text_tokens(self, texts_and_lexicon, rid, mask_fraction):
        """glowup_mono masks the prompt's units followed by the text's own
        tokens shifted past the prompt: the units of the prompted string."""
        text, _, lexicon = texts_and_lexicon
        sentence = tokenize(text)
        rng = derive_rng(1, rid)
        prompt, _ = glowup_prompt(sentence, "en", lexicon, rng)
        prompted = f"{prompt} {text}" if prompt else text
        offset = len(prompt) + 1 if prompt else 0
        units = _units_with_sentinels(prompted)
        assert _units_with_sentinels(prompt) + [(offset + t.char_start, offset + t.char_end) for t in sentence.tokens] == units
        example = glowup_mono(Record(rid, "en", "Latn", text), lexicon, derive_rng(1, rid), mask_fraction)
        assert example.source_text == f"<2glowup_mono> <2en> <2Latn> {_mask_units(prompted, units, rng, mask_fraction)}"


class TestDispatch:
    def test_all_augmentation_tasks(self, tiny_lexicon):
        params = SelectionParams()
        for task in (Task.CODESWITCH_MONO, Task.GLOWUP_MONO):
            example = augment_example(rec(), task, tiny_lexicon, params, derive_rng(0, 0))
            assert example.task is task
            validate_example(example)
        for task in (Task.CODESWITCH_PARALLEL, Task.GLOWUP_PARALLEL):
            example = augment_example(pair(), task, tiny_lexicon, params, derive_rng(0, 0))
            assert example.task is task
            validate_example(example)

    def test_non_augmentation_task_rejected(self, tiny_lexicon):
        with pytest.raises(ValueError):
            augment_example(rec(), Task.MASS, tiny_lexicon, SelectionParams(), derive_rng(0, 0))
