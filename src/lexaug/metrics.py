"""Translation scoring and diagnostics.

chrf here is the character n-gram F-score with the standard settings used in
shared-task reporting: orders 1..6, beta=2, whitespace removed, case kept,
effective-order averaging, and micro-averaged corpus aggregation. The error
detectors flag the three classic failure modes of low-resource systems:
null output, source copying, and degenerate repetition.
"""

from __future__ import annotations

import enum
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .corpus import tokenize

_WS_RE = re.compile(r"\s+")

CHRF_CHAR_ORDER = 6
CHRF_BETA = 2.0

COPY_SIMILARITY_THRESHOLD = 0.85
REPETITION_RATIO_THRESHOLD = 3.0
LRL_MAX_PARALLEL_TOKENS = 360_000_000
MRL_MAX_PARALLEL_TOKENS = 2_000_000_000


class Direction(enum.Enum):
    EN_TO_XX = "en_to_xx"
    XX_TO_EN = "xx_to_en"


@dataclass(frozen=True)
class EvalRow:
    """One hypothesis/reference pair for an English-centric direction."""

    lang: str
    direction: Direction
    source: str
    hypothesis: str
    reference: str

    def __post_init__(self):
        if not self.reference:
            raise ValueError("reference must be non-empty")

    @classmethod
    def from_json_obj(cls, obj: dict) -> "EvalRow":
        return cls(
            lang=obj["lang"],
            direction=Direction(str(obj["direction"]).lower()),
            source=obj.get("source", ""),
            hypothesis=obj["hypothesis"],
            reference=obj["reference"],
        )


def _char_ngrams(text: str, order: int) -> Counter:
    return Counter(text[i : i + order] for i in range(len(text) - order + 1))


def _pair_statistics(hypothesis: str, reference: str) -> list[int]:
    """Flat per-order [hyp_total, ref_total, clipped_match] counts."""
    hypothesis = _WS_RE.sub("", hypothesis)
    reference = _WS_RE.sub("", reference)
    stats = []
    for order in range(1, CHRF_CHAR_ORDER + 1):
        hyp_grams = _char_ngrams(hypothesis, order)
        ref_grams = _char_ngrams(reference, order)
        matched = hyp_grams & ref_grams
        stats.extend(
            (sum(hyp_grams.values()), sum(ref_grams.values()), sum(matched.values()))
        )
    return stats


def _f_score(stats: Sequence[int]) -> float:
    """Average precision/recall over orders where both sides have n-grams,
    then combine with the recall-weighted F formula."""
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


def chrf(hypothesis: str, reference: str) -> float:
    """Sentence-level chrf in [0, 100]."""
    if not reference:
        raise ValueError("reference must be non-empty")
    return _f_score(_pair_statistics(hypothesis, reference))


def _as_hyp_ref(row) -> tuple[str, str]:
    if isinstance(row, EvalRow):
        return row.hypothesis, row.reference
    hypothesis, reference = row
    return hypothesis, reference


def corpus_chrf(rows: Iterable) -> float:
    """Corpus chrf: n-gram statistics are summed over all pairs first
    (micro-average), then scored. Accepts EvalRow or (hypothesis, reference)
    tuples."""
    totals: list[int] | None = None
    for row in rows:
        hypothesis, reference = _as_hyp_ref(row)
        if not reference:
            raise ValueError("reference must be non-empty")
        stats = _pair_statistics(hypothesis, reference)
        if totals is None:
            totals = stats
        else:
            totals = [a + b for a, b in zip(totals, stats)]
    if totals is None:
        raise ValueError("corpus_chrf needs at least one row")
    return _f_score(totals)


@dataclass(frozen=True)
class HitRate:
    """Share of watched-token references whose hypothesis also produced a
    watched token. ``rate`` is None when no reference contains one."""

    rate: float | None
    rows_with_token: int
    hits: int

    def to_json_obj(self) -> dict:
        return {"rate": self.rate, "rows_with_token": self.rows_with_token, "hits": self.hits}


def _contains_watched(text: str, watched: frozenset[str]) -> bool:
    return any(s.casefold() in watched for s in tokenize(text).surfaces())


def token_hit_rate(rows: Iterable, tokens: Iterable[str]) -> HitRate:
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
        hypothesis, reference = _as_hyp_ref(row)
        if not _contains_watched(reference, watched):
            continue
        rows_with_token += 1
        if _contains_watched(hypothesis, watched):
            hits += 1
    if rows_with_token == 0:
        return HitRate(rate=None, rows_with_token=0, hits=0)
    return HitRate(rate=hits / rows_with_token, rows_with_token=rows_with_token, hits=hits)


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
    """True when total tokens / unique tokens strictly exceeds 3."""
    surfaces = tokenize(hypothesis).surfaces()
    if not surfaces:
        return False
    return len(surfaces) / len(set(surfaces)) > REPETITION_RATIO_THRESHOLD


class Resourcedness(enum.Enum):
    HRL = "HRL"
    MRL = "MRL"
    LRL = "LRL"
    URL = "URL"


def classify_resourcedness(parallel_tokens: int) -> Resourcedness:
    """Bucket a language by its parallel-data token volume.

    URL: none at all; LRL: up to 360M inclusive; MRL: up to 2B inclusive;
    HRL: above 2B.
    """
    if parallel_tokens < 0:
        raise ValueError(f"parallel_tokens must be >= 0, got {parallel_tokens}")
    if parallel_tokens == 0:
        return Resourcedness.URL
    if parallel_tokens <= LRL_MAX_PARALLEL_TOKENS:
        return Resourcedness.LRL
    if parallel_tokens <= MRL_MAX_PARALLEL_TOKENS:
        return Resourcedness.MRL
    return Resourcedness.HRL


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
