"""Translation scoring and diagnostics.

The chrf score is the character n-gram F-score with the standard settings
used in shared-task reporting: orders 1..6, beta=2, whitespace removed, case
kept, effective-order averaging, and micro-averaged corpus aggregation.
``chrf_sums`` counts each pair's n-grams once into summed per-order
statistics, and ``f_score`` scores statistics: one pair's gives its sentence
chrf, and the sums over a corpus give the corpus chrf. The
error detectors flag the three classic failure modes of low-resource systems:
null output, source copying, and degenerate repetition.
"""

from __future__ import annotations

import enum
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .corpus import words

_WS_RE = re.compile(r"\s+")

CHRF_CHAR_ORDER = 6
CHRF_BETA = 2.0

COPY_SIMILARITY_THRESHOLD = 0.85
REPETITION_RATIO_THRESHOLD = 3.0


@dataclass(frozen=True, kw_only=True)
class EvalRow:
    """One hypothesis/reference pair, and the source it translates if known."""

    source: str = ""
    hypothesis: str
    reference: str

    def __post_init__(self):
        for name in ("source", "hypothesis", "reference"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {type(getattr(self, name)).__name__}")
        if not self.reference:
            raise ValueError("reference must be non-empty")

    @classmethod
    def from_json_obj(cls, obj: dict) -> "EvalRow":
        """The row of a parsed JSON line; keys other than the fields are ignored."""
        if not isinstance(obj, dict):
            raise ValueError("eval row is not a JSON object")
        for name in ("hypothesis", "reference"):
            if name not in obj:
                raise ValueError(f"missing field {name!r}")
        return cls(source=obj.get("source", ""), hypothesis=obj["hypothesis"], reference=obj["reference"])


def _ngram_counts(text: str) -> Counter:
    """Counts of every character n-gram of orders 1..CHRF_CHAR_ORDER in one
    Counter: n-grams of different orders differ in length, so no key is
    shared between orders."""
    return Counter(
        [text[i : i + n] for n in range(1, CHRF_CHAR_ORDER + 1) for i in range(len(text) - n + 1)]
    )


def _pair_statistics(hypothesis: str, reference: str) -> list[int]:
    """Flat per-order [hyp_total, ref_total, clipped_match] counts."""
    hypothesis = _WS_RE.sub("", hypothesis)
    reference = _WS_RE.sub("", reference)
    ref_grams = _ngram_counts(reference)
    matched = [0] * (CHRF_CHAR_ORDER + 1)
    for gram, count in _ngram_counts(hypothesis).items():
        ref_count = ref_grams.get(gram)
        if ref_count:
            matched[len(gram)] += count if count < ref_count else ref_count
    stats = []
    for order in range(1, CHRF_CHAR_ORDER + 1):
        stats.extend(
            (max(len(hypothesis) - order + 1, 0), max(len(reference) - order + 1, 0), matched[order])
        )
    return stats


def f_score(stats: Sequence[int]) -> float:
    """chrf of flat per-order statistics, a pair's or a corpus's sums: average
    precision/recall over orders where both sides have n-grams, then combine
    with the recall-weighted F formula."""
    precision_sum = 0.0
    recall_sum = 0.0
    effective = 0
    for i in range(0, len(stats), 3):
        hyp_total, ref_total, matched = stats[i : i + 3]
        if hyp_total > 0 and ref_total > 0:
            precision_sum += matched / hyp_total
            recall_sum += matched / ref_total
            effective += 1
    if effective == 0:
        return 0.0
    precision = precision_sum / effective
    recall = recall_sum / effective
    beta_sq = CHRF_BETA * CHRF_BETA
    denominator = beta_sq * precision + recall
    if denominator == 0.0:
        return 0.0
    return 100.0 * (1.0 + beta_sq) * precision * recall / denominator


def chrf_sums(rows: Iterable[tuple[str, str]], sentence: bool) -> tuple[int, list[int], list[float]]:
    """The number of pairs, the sums of their per-order [hyp_total,
    ref_total, clipped_match] counts, and each pair's chrf in row order if
    ``sentence`` (else an empty list), counting each pair's n-grams once. The
    sums are integers, so ``f_score`` of them (the micro-averaged corpus
    chrf) does not depend on how the pairs were split up to count them."""
    pairs = 0
    sums = [0] * (3 * CHRF_CHAR_ORDER)
    scores = []
    for hypothesis, reference in rows:
        if not reference:
            raise ValueError("reference must be non-empty")
        stats = _pair_statistics(hypothesis, reference)
        pairs += 1
        sums = [a + b for a, b in zip(sums, stats)]
        if sentence:
            scores.append(f_score(stats))
    return pairs, sums, scores


@dataclass(frozen=True)
class HitRate:
    """Share of watched-token references whose hypothesis also produced a
    watched token. ``rate`` is None when no reference contains one."""

    rows_with_token: int
    hits: int

    @property
    def rate(self) -> float | None:
        return self.hits / self.rows_with_token if self.rows_with_token else None

    def to_json_obj(self) -> dict:
        return {"rate": self.rate, "rows_with_token": self.rows_with_token, "hits": self.hits}


def _contains_watched(text: str, watched: frozenset[str]) -> bool:
    """Whether a case-folded word of ``text`` is in ``watched``."""
    return not watched.isdisjoint(map(str.casefold, words(text)))


def token_hit_rate(rows: Iterable[EvalRow], tokens: Iterable[str]) -> HitRate:
    """Case-insensitive whole-token hit rate over the watched token set.

    Only rows whose reference contains a watched token enter the
    denominator; all other rows are ignored entirely.
    """
    watched = frozenset(t.casefold() for t in tokens)
    if not watched:
        raise ValueError("token set must be non-empty")
    rows_with_token = 0
    hits = 0
    for row in rows:
        if not _contains_watched(row.reference, watched):
            continue
        rows_with_token += 1
        if _contains_watched(row.hypothesis, watched):
            hits += 1
    return HitRate(rows_with_token, hits)


def detect_null(hypothesis: str) -> bool:
    """True when the output carries no textual content: empty after trim, or
    nothing but punctuation/symbol characters (e.g. "??", "---")."""
    stripped = hypothesis.strip()
    if not stripped:
        return True
    for ch in stripped:
        if ch.isspace():
            continue
        if unicodedata.category(ch)[0] not in "PS":
            return False
    return True


def copy_similarity(source: str, hypothesis: str) -> float:
    """Character-frequency overlap: |multiset intersection| / len(source)."""
    if not source:
        raise ValueError("source must be non-empty")
    intersection = Counter(source) & Counter(hypothesis)
    return sum(intersection.values()) / len(source)


def is_copy(source: str, hypothesis: str) -> bool:
    """Copy iff similarity strictly exceeds 0.85."""
    return copy_similarity(source, hypothesis) > COPY_SIMILARITY_THRESHOLD


def detect_repetition(hypothesis: str) -> bool:
    """True when total tokens / unique tokens strictly exceeds 3 (the tokens
    are ``corpus.words``)."""
    tokens = words(hypothesis)
    if not tokens:
        return False
    return len(tokens) / len(set(tokens)) > REPETITION_RATIO_THRESHOLD


class Resourcedness(enum.Enum):
    """A language's parallel-data class: high, mid, low or unsupervised (none)."""

    HRL = "HRL"
    MRL = "MRL"
    LRL = "LRL"
    URL = "URL"


@dataclass(frozen=True)
class ErrorReport:
    """Counts and percentages for the three output error detectors. A row
    can count toward several error types at once."""

    total: int
    null_count: int
    copy_count: int
    repetition_count: int

    @property
    def null_pct(self) -> float:
        return 100.0 * self.null_count / self.total

    @property
    def copy_pct(self) -> float:
        return 100.0 * self.copy_count / self.total

    @property
    def repetition_pct(self) -> float:
        return 100.0 * self.repetition_count / self.total

    def to_json_obj(self) -> dict:
        return {
            "total": self.total,
            "null": {"count": self.null_count, "percent": self.null_pct},
            "copy": {"count": self.copy_count, "percent": self.copy_pct},
            "repetition": {"count": self.repetition_count, "percent": self.repetition_pct},
        }

    def format_table(self) -> str:
        lines = [f"{'error':<12}{'count':>8}{'percent':>10}"]
        for name, count, pct in (
            ("null", self.null_count, self.null_pct),
            ("copy", self.copy_count, self.copy_pct),
            ("repetition", self.repetition_count, self.repetition_pct),
        ):
            lines.append(f"{name:<12}{count:>8}{pct:>9.2f}%")
        lines.append(f"{'rows':<12}{self.total:>8}")
        return "\n".join(lines)


def diagnose_corpus(rows: Sequence[EvalRow]) -> ErrorReport:
    """Run all three detectors over a corpus and report affected shares.

    Rows with an empty source cannot be copies (the copy detector needs a
    source) and are counted as clean for that error type.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("diagnose_corpus needs at least one row")
    null_count = copy_count = repetition_count = 0
    for row in rows:
        if detect_null(row.hypothesis):
            null_count += 1
        if row.source and is_copy(row.source, row.hypothesis):
            copy_count += 1
        if detect_repetition(row.hypothesis):
            repetition_count += 1
    return ErrorReport(
        total=len(rows),
        null_count=null_count,
        copy_count=copy_count,
        repetition_count=repetition_count,
    )
