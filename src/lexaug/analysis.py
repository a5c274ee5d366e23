"""Score-effect analysis: OLS of per-language score deltas on lexicon entry
counts, and mean deltas per resourcedness class."""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import asdict, dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Mapping

from .corpus import read_text
from .errors import FitError, FormatError, InsufficientDataError, SingularMatrixError
from .metrics import Resourcedness

PREDICTOR_NAMES = ("n_panlex", "n_gatitos", "n_mono_sentences")
MIN_URL_ROWS = 5


@dataclass(frozen=True)
class LangRow:
    """Per-language regression inputs."""

    lang: str
    delta_chrf: float
    n_panlex: int
    n_gatitos: int
    n_mono_sentences: int
    resourcedness: Resourcedness

    def __post_init__(self):
        if not math.isfinite(self.delta_chrf):
            raise ValueError(f"delta_chrf must be finite, got {self.delta_chrf}")
        for name in ("n_panlex", "n_gatitos", "n_mono_sentences"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class OlsFit:
    beta: tuple[float, ...]
    intercept: float
    r_squared: float
    residual_se: float


def _exact(value) -> Fraction:
    """``value`` as a fraction; an integer of any type goes through int, so it cannot wrap."""
    return Fraction(int(value) if isinstance(value, numbers.Integral) else value)


def _row_reduce(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], int]:
    """The reduced row echelon form of ``rows`` and its rank, exactly."""
    rows = list(rows)
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [v / lead for v in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                rows[i] = [a - row[col] * b for a, b in zip(row, rows[rank])]
        rank += 1
    return rows, rank


def ols_fit(X, y) -> OlsFit:
    """Ordinary least squares with an intercept, solved exactly in fractions;
    each reported number is the correctly rounded float of its exact value.

    X is m rows of p numbers and y is m numbers (arrays work too). Needs
    strictly more rows than fitted parameters. A rank-deficient design raises
    SingularMatrixError naming the first predictor column (0-based) whose
    removal leaves the rank unchanged; a result too large for a float raises
    FitError.
    """
    design = [[Fraction(1), *map(_exact, row)] for row in X]
    y = [_exact(v) for v in y]
    m, k = len(design), len(design[0]) if design else 1
    if any(len(row) != k for row in design) or len(y) != m:
        raise ValueError(f"X must be {m} rows of one length and y must have {m} values")
    if m <= k:
        raise InsufficientDataError(f"need more than {k} rows to fit {k - 1} predictors, got {m}")
    # [XᵀX | Xᵀy] is consistent, so it has the design's rank; at full rank
    # its reduced last column holds the coefficients.
    columns = [*zip(*design), y]
    normal = [[sum(map(mul, a, b)) for b in columns] for a in columns[:k]]
    reduced, rank = _row_reduce(normal)
    if rank < k:  # the intercept is all ones, so the loop finds a predictor whose removal keeps the rank
        for column in range(1, k):
            minor = [row[:column] + row[column + 1:-1] for i, row in enumerate(normal) if i != column]
            if _row_reduce(minor)[1] == rank:
                raise SingularMatrixError(f"design matrix is rank deficient: predictor column {column - 1} is "
                                          "linearly dependent on the others", column=column - 1)
    coef = [row[-1] for row in reduced]
    yy = sum(v * v for v in y)
    ssr = yy - sum(c * row[-1] for c, row in zip(coef, normal))  # yᵀy - coefᵀXᵀy
    sst = yy - sum(y) ** 2 / m
    try:
        return OlsFit(
            beta=tuple(map(float, coef[1:])),
            intercept=float(coef[0]),
            r_squared=float(1 - ssr / sst) if sst else 1.0,  # a constant outcome is fitted exactly
            residual_se=math.sqrt(float(ssr / (m - k))),
        )
    except OverflowError:
        raise FitError("a fitted coefficient or the residual variance is too large for a float") from None


def per_class_deltas(rows: Iterable[LangRow]) -> dict[str, dict]:
    """Language count and unweighted mean delta_chrf of each resourcedness
    class that has rows, in class-name order:
    ``{"URL": {"langs": 2, "mean_delta_chrf": 4.0}, ...}``."""
    grouped: dict[str, list[float]] = {}
    for r in rows:
        grouped.setdefault(r.resourcedness.value, []).append(r.delta_chrf)
    return {
        cls: {"langs": len(deltas), "mean_delta_chrf": float(sum(map(Fraction, deltas)) / len(deltas))}
        for cls, deltas in sorted(grouped.items())
    }


@dataclass(frozen=True)
class RegressionReport:
    coefficients: Mapping[str, float]
    intercept: float
    r_squared: float
    residual_se: float
    n_rows: int
    per_class: Mapping[str, dict]

    def to_json_obj(self) -> dict:
        return asdict(self)


def regress_delta_chrf(rows: Iterable[LangRow]) -> RegressionReport:
    """Fit score delta on (panlex, gatitos, monolingual) counts, and report
    the per-class delta table over every row.

    Only unsupervised (URL) languages enter the fit, which removes parallel
    data volume as a confound; it needs at least MIN_URL_ROWS of them.
    """
    rows = list(rows)
    url_rows = [r for r in rows if r.resourcedness is Resourcedness.URL]
    if len(url_rows) < MIN_URL_ROWS:
        raise InsufficientDataError(
            f"need at least {MIN_URL_ROWS} URL rows, got {len(url_rows)}"
        )
    X = [[r.n_panlex, r.n_gatitos, r.n_mono_sentences] for r in url_rows]
    y = [r.delta_chrf for r in url_rows]
    try:
        fit = ols_fit(X, y)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"predictor {PREDICTOR_NAMES[exc.column]!r} is linearly dependent on the other predictors",
            column=PREDICTOR_NAMES[exc.column],
        ) from exc
    return RegressionReport(
        coefficients=dict(zip(PREDICTOR_NAMES, fit.beta)),
        intercept=fit.intercept,
        r_squared=fit.r_squared,
        residual_se=fit.residual_se,
        n_rows=len(url_rows),
        per_class=per_class_deltas(rows),
    )


def load_lang_rows(path: str, digests: dict[str, str] | None = None) -> list[LangRow]:
    """Read the regression table CSV: lang,delta_chrf,n_panlex,n_gatitos,
    n_mono,class, one row per language. A bad row, or text the csv module
    cannot split (a field over its size limit, say), raises FormatError
    naming its line. The text comes from ``read_text``, which puts the
    file's SHA-256 in ``digests``."""
    # newline="": csv sees each line with its own end, as from a file opened
    # so, and a quoted field keeps its line breaks.
    reader = csv.DictReader(io.StringIO(read_text(path, digests), newline=""))
    try:
        return _lang_rows(reader, path)
    except csv.Error as exc:
        # DictReader.line_num is set only once a row has been read; its
        # reader's is the line that failed.
        raise FormatError(str(exc), path, reader.reader.line_num) from None


def _lang_rows(reader: csv.DictReader, path: str) -> list[LangRow]:
    rows = []
    first_line: dict[str, int] = {}
    required = {"lang", "delta_chrf", "n_panlex", "n_gatitos", "n_mono", "class"}
    missing = required - set(reader.fieldnames or [])
    if missing:
        raise FormatError(f"missing CSV columns: {sorted(missing)}", path)
    for record in reader:
        line_no = reader.line_num
        try:
            if None in record.values():
                raise ValueError(f"row has fewer than {len(reader.fieldnames)} fields")
            row = LangRow(
                lang=record["lang"],
                delta_chrf=float(record["delta_chrf"]),
                n_panlex=int(record["n_panlex"]),
                n_gatitos=int(record["n_gatitos"]),
                n_mono_sentences=int(record["n_mono"]),
                resourcedness=Resourcedness(record["class"].strip().upper()),
            )
        except ValueError as exc:
            raise FormatError(str(exc), path, line_no) from exc
        if row.lang in first_line:
            raise FormatError(f"language {row.lang!r} is also on line {first_line[row.lang]}", path, line_no)
        first_line[row.lang] = line_no
        rows.append(row)
    return rows
