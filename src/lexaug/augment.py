"""The augmentation tasks: codeswitching, lexical prompting, span masking,
and raw token pairs, rendered as task-tagged training examples.

Every emitted example's source starts with a task token followed by target
language and script tags (e.g. ``<2codeswitch> <2en> <2Latn> ...``). All
augmenters are pure per-record functions of (record, lexicon, rng), so
records can be processed in any order by any number of workers.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .corpus import TAG_VALUE, Record, SentencePair, Token, TokenizedSentence, tokenize
from .errors import EmptyInputError, SentinelCollisionError
from .lexicon import Lexicon
from .sampling import (
    Rng,
    SelectionMode,
    SelectionParams,
    choose_translation,
    select_binomial_adjusted,
    select_uniform_count,
)


class Task(enum.Enum):
    TRANSLATION = "translation"
    MASS = "mass"
    CODESWITCH_MONO = "codeswitch_mono"
    CODESWITCH_PARALLEL = "codeswitch_parallel"
    GLOWUP_MONO = "glowup_mono"
    GLOWUP_PARALLEL = "glowup_parallel"
    TOKEN_PAIR = "token_pair"


TASK_TOKENS: dict[Task, str] = {
    Task.TRANSLATION: "<2translation>",
    Task.MASS: "<2mass>",
    Task.CODESWITCH_MONO: "<2codeswitch>",
    Task.CODESWITCH_PARALLEL: "<2codeswitch_parallel>",
    Task.GLOWUP_MONO: "<2glowup_mono>",
    Task.GLOWUP_PARALLEL: "<2glowup>",
}
MASK_TOKEN = "<mask>"
HINT_OPEN = "<hint>"
HINT_IS = "<is>"
HINT_CLOSE = "<endhints>"
# The literal control tokens, mutually distinct. Token pairs reuse the
# translation task token, so they carry no entry of their own.
LITERALS = (*TASK_TOKENS.values(), MASK_TOKEN, HINT_OPEN, HINT_IS, HINT_CLOSE)

_LITERAL_PATTERN = "|".join(re.escape(lit) for lit in sorted(LITERALS, key=len, reverse=True))
# Language and script tags are an open family ("<2en>", "<2Latn>", ...).
_COLLISION_RE = re.compile(f"{_LITERAL_PATTERN}|<2{TAG_VALUE}>")
_UNIT_RE = re.compile(_LITERAL_PATTERN)


class SentinelInventory:
    """Keeps the control tokens out of natural corpus text: ensure_clean runs
    before a record is augmented. A class so that perfbench/tracer.py can
    wrap ``SentinelInventory.ensure_clean`` by name; call it through
    SENTINELS."""

    __slots__ = ()

    def ensure_clean(self, text: str) -> None:
        hit = _COLLISION_RE.search(text)
        if hit:
            raise SentinelCollisionError(
                f"corpus text contains reserved control token {hit.group()!r}"
            )


SENTINELS = SentinelInventory()


def _task_token(task: Task) -> str:
    return TASK_TOKENS[Task.TRANSLATION if task is Task.TOKEN_PAIR else task]


def _prefix(task: Task, lang: str, script: str) -> str:
    return f"{_task_token(task)} <2{lang}> <2{script}>"


@dataclass(frozen=True)
class TrainingExample:
    """A task-tagged (source, target) pair ready for a seq2seq trainer."""

    task: Task
    source_text: str
    target_text: str
    tgt_lang: str
    tgt_script: str
    origin_id: int

    def __post_init__(self):
        if not self.target_text:
            raise ValueError("target_text must be non-empty")

    def to_json_obj(self) -> dict:
        return {
            "task": self.task.value,
            "source": self.source_text,
            "target": self.target_text,
            "tgt_lang": self.tgt_lang,
            "tgt_script": self.tgt_script,
            "origin_id": self.origin_id,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TrainingExample":
        return cls(
            task=Task(obj["task"]),
            source_text=obj["source"],
            target_text=obj["target"],
            tgt_lang=obj["tgt_lang"],
            tgt_script=obj["tgt_script"],
            origin_id=obj["origin_id"],
        )


def validate_example(example: TrainingExample) -> None:
    """Check the sentinel-prefix contract: exactly one task token, then a
    language tag, then a script tag."""
    expected = _task_token(example.task)
    parts = example.source_text.split(" ", 3)
    if len(parts) < 3 or parts[0] != expected:
        raise ValueError(f"source does not start with task token {expected!r}")
    if parts[1] != f"<2{example.tgt_lang}>":
        raise ValueError(f"expected language tag after task token, got {parts[1]!r}")
    if parts[2] != f"<2{example.tgt_script}>":
        raise ValueError(f"expected script tag, got {parts[2]!r}")
    if not example.target_text:
        raise ValueError("target_text must be non-empty")


def _splice(text: str, edits: list[tuple[int, int, str]]) -> str:
    """Replace non-overlapping [char_start, char_end) ranges, preserving all
    other characters."""
    parts = []
    cursor = 0
    for start, end, replacement in sorted(edits):
        parts.append(text[cursor:start])
        parts.append(replacement)
        cursor = end
    parts.append(text[cursor:])
    return "".join(parts)


@dataclass(frozen=True)
class MatchSpan:
    """A contiguous token run with at least one dictionary translation."""

    start: int  # first token index
    end: int  # exclusive token index
    char_start: int
    char_end: int
    surface: str
    key: str  # normalized lookup key


def find_translatable(
    sentence: TokenizedSentence,
    src_lang: str,
    lexicon: Lexicon,
    tgt_filter: str | None = None,
) -> list[MatchSpan]:
    """Scan left to right for the leftmost-longest lexicon matches.

    Multi-token matches only extend across whitespace-separated tokens, so
    phrases never swallow intervening punctuation. Matched spans do not
    overlap; single-token matches are the common case.
    """
    tokens = sentence.tokens
    n = len(tokens)
    max_len = lexicon.max_term_tokens(src_lang)
    if max_len == 0 or n == 0:
        return []
    folded = [t.surface.casefold() for t in tokens]
    spans: list[MatchSpan] = []
    i = 0
    while i < n:
        matched = None
        limit = min(max_len, n - i)
        if limit > 1:
            # Shrink the window to the whitespace-joined run starting at i.
            run = 1
            while run < limit:
                gap = sentence.text[tokens[i + run - 1].char_end : tokens[i + run].char_start]
                if gap and not gap.isspace():
                    break
                run += 1
            limit = run
        for length in range(limit, 0, -1):
            key = " ".join(folded[i : i + length])
            if lexicon.has_term(key, src_lang, tgt_filter):
                char_start = tokens[i].char_start
                char_end = tokens[i + length - 1].char_end
                matched = MatchSpan(
                    i, i + length, char_start, char_end, sentence.text[char_start:char_end], key
                )
                break
        if matched is not None:
            spans.append(matched)
            i = matched.end
        else:
            i += 1
    return spans


def _select_spans(
    spans: list[MatchSpan], n_tokens: int, params: SelectionParams, rng: Rng
) -> list[MatchSpan]:
    starts = [s.start for s in spans]
    if params.mode is SelectionMode.BINOMIAL_ADJUSTED:
        chosen = select_binomial_adjusted(starts, n_tokens, params, rng)
    else:
        chosen = select_uniform_count(starts, rng)
    return [s for s in spans if s.start in chosen]


def codeswitch(
    sentence: TokenizedSentence,
    src_lang: str,
    lexicon: Lexicon,
    params: SelectionParams,
    rng: Rng,
) -> tuple[str, frozenset[int]]:
    """Swap selected translatable tokens for dictionary translations.

    Translations are drawn uniformly from all candidate entries in all
    target languages, so a sentence usually ends up mixed across several
    languages. Returns the rewritten text and the swapped token indices;
    with no translatable tokens the text comes back unchanged.
    """
    spans = find_translatable(sentence, src_lang, lexicon)
    if not spans:
        return sentence.text, frozenset()
    edits = []
    swapped: set[int] = set()
    for span in _select_spans(spans, sentence.n, params, rng):
        entry = choose_translation(lexicon.lookup_key(span.key, src_lang), rng)
        edits.append((span.char_start, span.char_end, entry.tgt_term))
        swapped.update(range(span.start, span.end))
    return _splice(sentence.text, edits), frozenset(swapped)


def codeswitch_mono(
    rec: Record,
    lexicon: Lexicon,
    params: SelectionParams,
    rng: Rng,
) -> TrainingExample:
    """Reconstruction task: input is the codeswitched sentence, target is the
    original."""
    SENTINELS.ensure_clean(rec.text)
    switched, _ = codeswitch(tokenize(rec.text), rec.lang, lexicon, params, rng)
    return TrainingExample(
        task=Task.CODESWITCH_MONO,
        source_text=f"{_prefix(Task.CODESWITCH_MONO, rec.lang, rec.script)} {switched}",
        target_text=rec.text,
        tgt_lang=rec.lang,
        tgt_script=rec.script,
        origin_id=rec.id,
    )


def codeswitch_parallel(
    pair: SentencePair,
    lexicon: Lexicon,
    params: SelectionParams,
    rng: Rng,
) -> TrainingExample:
    """Translation task on a codeswitched source; the target side is never
    modified."""
    SENTINELS.ensure_clean(pair.src.text)
    SENTINELS.ensure_clean(pair.tgt.text)
    switched, _ = codeswitch(tokenize(pair.src.text), pair.src.lang, lexicon, params, rng)
    return TrainingExample(
        task=Task.CODESWITCH_PARALLEL,
        source_text=f"{_prefix(Task.CODESWITCH_PARALLEL, pair.tgt.lang, pair.tgt.script)} {switched}",
        target_text=pair.tgt.text,
        tgt_lang=pair.tgt.lang,
        tgt_script=pair.tgt.script,
        origin_id=pair.id,
    )


def _mask_units(
    text: str,
    units: list[tuple[int, int]],
    rng: Rng,
    mask_fraction: float,
) -> str:
    """Mask one contiguous run of ceil(mask_fraction * n) units (char spans),
    start drawn uniformly."""
    n = len(units)
    if n == 0:
        raise EmptyInputError("cannot mask an empty token sequence")
    if not 0.0 <= mask_fraction <= 1.0:
        raise ValueError(f"mask_fraction must be in [0, 1], got {mask_fraction}")
    length = math.ceil(mask_fraction * n)
    start = rng.randrange(n - length + 1)
    edits = [(s, e, MASK_TOKEN) for s, e in units[start : start + length]]
    return _splice(text, edits)


def _char_spans(tokens: Iterable[Token], offset: int = 0) -> list[tuple[int, int]]:
    return [(offset + t.char_start, offset + t.char_end) for t in tokens]


def mass_mask(sentence: TokenizedSentence, rng: Rng, mask_fraction: float = 0.5) -> tuple[str, str]:
    """Span masking: replace a random contiguous half (by default) of the
    tokens with the mask token, positionally. Returns (masked, original)."""
    masked = _mask_units(sentence.text, _char_spans(sentence.tokens), rng, mask_fraction)
    return masked, sentence.text


def mass_example(rec: Record, rng: Rng, mask_fraction: float = 0.5) -> TrainingExample:
    SENTINELS.ensure_clean(rec.text)
    masked, original = mass_mask(tokenize(rec.text), rng, mask_fraction)
    return TrainingExample(
        task=Task.MASS,
        source_text=f"{_prefix(Task.MASS, rec.lang, rec.script)} {masked}",
        target_text=original,
        tgt_lang=rec.lang,
        tgt_script=rec.script,
        origin_id=rec.id,
    )


def translation_example(pair: SentencePair) -> TrainingExample:
    SENTINELS.ensure_clean(pair.src.text)
    SENTINELS.ensure_clean(pair.tgt.text)
    return TrainingExample(
        task=Task.TRANSLATION,
        source_text=f"{_prefix(Task.TRANSLATION, pair.tgt.lang, pair.tgt.script)} {pair.src.text}",
        target_text=pair.tgt.text,
        tgt_lang=pair.tgt.lang,
        tgt_script=pair.tgt.script,
        origin_id=pair.id,
    )


def glowup_prompt(
    sentence: TokenizedSentence,
    src_lang: str,
    lexicon: Lexicon,
    rng: Rng,
    scope: str | None = None,
) -> tuple[str, frozenset[int]]:
    """Build the hint block ``<hint> word <is> translation ... <endhints>``.

    The hint count is uniform on {0..k} over the k translatable tokens;
    hints follow token order. ``scope`` restricts hints to translations into
    one target language. Zero hints produce an empty prompt with no
    delimiters.
    """
    spans = find_translatable(sentence, src_lang, lexicon, tgt_filter=scope)
    chosen = select_uniform_count([s.start for s in spans], rng)
    parts = []
    hinted: set[int] = set()
    for span in spans:
        if span.start not in chosen:
            continue
        entry = choose_translation(lexicon.lookup_key(span.key, src_lang, tgt_filter=scope), rng)
        parts.append(f"{HINT_OPEN} {span.surface} {HINT_IS} {entry.tgt_term}")
        hinted.update(range(span.start, span.end))
    if not parts:
        return "", frozenset()
    return " ".join(parts) + f" {HINT_CLOSE}", frozenset(hinted)


def _units_with_sentinels(text: str) -> list[tuple[int, int]]:
    """Char spans of a prompted string's token units; each control token is
    one unit (so masking a delimiter yields one clean mask token)."""
    units: list[tuple[int, int]] = []
    cursor = 0
    for hit in _UNIT_RE.finditer(text):
        if cursor < hit.start():
            units += _char_spans(tokenize(text[cursor : hit.start()]).tokens, cursor)
        units.append(hit.span())
        cursor = hit.end()
    if cursor < len(text):
        units += _char_spans(tokenize(text[cursor:]).tokens, cursor)
    return units


def glowup_mono(
    rec: Record,
    lexicon: Lexicon,
    rng: Rng,
    mask_fraction: float = 0.5,
) -> TrainingExample:
    """Hint block prepended to the sentence, then span masking over the whole
    prompted sequence (hints included); target is the prompted, unmasked
    string."""
    SENTINELS.ensure_clean(rec.text)
    sentence = tokenize(rec.text)
    prompt, _ = glowup_prompt(sentence, rec.lang, lexicon, rng)
    prompted = f"{prompt} {rec.text}" if prompt else rec.text
    # The text holds no control token: its units are its tokens, shifted
    # past the prompt and the space after it.
    units = _units_with_sentinels(prompt) + _char_spans(sentence.tokens, len(prompted) - len(rec.text))
    masked = _mask_units(prompted, units, rng, mask_fraction)
    return TrainingExample(
        task=Task.GLOWUP_MONO,
        source_text=f"{_prefix(Task.GLOWUP_MONO, rec.lang, rec.script)} {masked}",
        target_text=prompted,
        tgt_lang=rec.lang,
        tgt_script=rec.script,
        origin_id=rec.id,
    )


def glowup_source(
    text: str,
    src_lang: str,
    tgt_lang: str,
    tgt_script: str,
    lexicon: Lexicon,
    rng: Rng,
) -> str:
    """Render the prompted, task-tagged source string for the parallel
    prompting task. Hints are restricted to the target language. This is the
    same path used to prompt a trained model at inference time, where no
    reference target exists."""
    SENTINELS.ensure_clean(text)
    prompt, _ = glowup_prompt(tokenize(text), src_lang, lexicon, rng, scope=tgt_lang)
    body = f"{prompt} {text}" if prompt else text
    return f"{_prefix(Task.GLOWUP_PARALLEL, tgt_lang, tgt_script)} {body}"


def glowup_parallel(
    pair: SentencePair,
    lexicon: Lexicon,
    rng: Rng,
) -> TrainingExample:
    """Translation with target-language hints prepended to the source; no
    masking, target side untouched."""
    SENTINELS.ensure_clean(pair.tgt.text)
    source = glowup_source(pair.src.text, pair.src.lang, pair.tgt.lang, pair.tgt.script, lexicon, rng)
    return TrainingExample(
        task=Task.GLOWUP_PARALLEL,
        source_text=source,
        target_text=pair.tgt.text,
        tgt_lang=pair.tgt.lang,
        tgt_script=pair.tgt.script,
        origin_id=pair.id,
    )


def token_pair_examples(
    lexicon: Lexicon, lang_filter: Iterable[str] | None = None
) -> Iterator[TrainingExample]:
    """One tiny translation example per lexicon entry, rendered with the
    translation task token. ``lang_filter`` keeps entries touching any of
    the given languages on either side; origin ids are the entry's position
    in the lexicon, so they are stable under filtering."""
    wanted = set(lang_filter) if lang_filter is not None else None
    for position, entry in enumerate(lexicon):
        if wanted is not None and not ({entry.src_lang, entry.tgt_lang} & wanted):
            continue
        yield TrainingExample(
            task=Task.TOKEN_PAIR,
            source_text=f"{_prefix(Task.TOKEN_PAIR, entry.tgt_lang, entry.tgt_script)} {entry.src_term}",
            target_text=entry.tgt_term,
            tgt_lang=entry.tgt_lang,
            tgt_script=entry.tgt_script,
            origin_id=position,
        )


def augment_example(
    item: Record | SentencePair,
    task: Task,
    lexicon: Lexicon,
    params: SelectionParams,
    rng: Rng,
    mask_fraction: float = 0.5,
) -> TrainingExample:
    """Dispatch one record to the requested augmentation task."""
    if task is Task.CODESWITCH_MONO:
        return codeswitch_mono(item, lexicon, params, rng)
    if task is Task.CODESWITCH_PARALLEL:
        return codeswitch_parallel(item, lexicon, params, rng)
    if task is Task.GLOWUP_MONO:
        return glowup_mono(item, lexicon, rng, mask_fraction)
    if task is Task.GLOWUP_PARALLEL:
        return glowup_parallel(item, lexicon, rng)
    raise ValueError(f"not an augmentation task: {task}")
