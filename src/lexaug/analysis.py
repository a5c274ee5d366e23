"""Score-effect analysis: OLS of per-language score deltas on lexicon entry
counts, and mean deltas per resourcedness class."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import FormatError, InsufficientDataError, SingularMatrixError
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
        for name in ("n_panlex", "n_gatitos", "n_mono_sentences"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class OlsFit:
    beta: tuple[float, ...]
    intercept: float
    r_squared: float
    residual_se: float


def ols_fit(X, y) -> OlsFit:
    """Ordinary least squares with an intercept, via an orthogonal
    decomposition (np.linalg.lstsq).

    Needs strictly more rows than fitted parameters. A rank-deficient design
    raises SingularMatrixError naming the first linearly dependent predictor
    column (0-based).
    """
    # Imported here, not at module level: no other command needs numpy, and
    # importing it costs every CLI run a large share of its start-up time.
    import numpy as np

    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
    m, p = X.shape
    if y.shape != (m,):
        raise ValueError(f"y must have shape ({m},), got {y.shape}")
    if m <= p + 1:
        raise InsufficientDataError(f"need more than {p + 1} rows to fit {p} predictors, got {m}")
    design = np.column_stack([np.ones(m), X])
    rank = np.linalg.matrix_rank(design)
    if rank < p + 1:
        for column in range(p):
            without = np.delete(design, column + 1, axis=1)
            if np.linalg.matrix_rank(without) == rank:
                raise SingularMatrixError(
                    f"design matrix is rank deficient: predictor column {column} is "
                    "linearly dependent on the others",
                    column=column,
                )
        raise SingularMatrixError("design matrix is rank deficient", column=None)
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    residuals = y - fitted
    ssr = float(residuals @ residuals)
    sst = float(((y - y.mean()) ** 2).sum())
    if sst > 0.0:
        r_squared = 1.0 - ssr / sst
    else:
        # Constant outcome: the intercept-only fit is exact.
        r_squared = 1.0 if ssr <= 1e-12 else 0.0
    residual_se = math.sqrt(ssr / (m - p - 1))
    return OlsFit(
        beta=tuple(float(b) for b in coef[1:]),
        intercept=float(coef[0]),
        r_squared=r_squared,
        residual_se=residual_se,
    )


def per_class_deltas(rows: Iterable[LangRow]) -> dict[str, dict]:
    """Language count and unweighted mean delta_chrf of each resourcedness
    class that has rows, in class-name order:
    ``{"URL": {"langs": 2, "mean_delta_chrf": 4.0}, ...}``."""
    grouped: dict[str, list[float]] = {}
    for r in rows:
        grouped.setdefault(r.resourcedness.value, []).append(r.delta_chrf)
    return {
        cls: {"langs": len(deltas), "mean_delta_chrf": sum(deltas) / len(deltas)}
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
        return {
            "coefficients": dict(self.coefficients),
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "residual_se": self.residual_se,
            "n_rows": self.n_rows,
            "per_class": dict(self.per_class),
        }


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
        if exc.column is not None:
            raise SingularMatrixError(
                f"predictor {PREDICTOR_NAMES[exc.column]!r} is linearly dependent "
                "on the other predictors",
                column=PREDICTOR_NAMES[exc.column],
            ) from exc
        raise
    return RegressionReport(
        coefficients=dict(zip(PREDICTOR_NAMES, fit.beta)),
        intercept=fit.intercept,
        r_squared=fit.r_squared,
        residual_se=fit.residual_se,
        n_rows=len(url_rows),
        per_class=per_class_deltas(rows),
    )


def load_lang_rows(path: str) -> list[LangRow]:
    """Read the regression table CSV: lang,delta_chrf,n_panlex,n_gatitos,
    n_mono,class, one row per language. A bad row raises FormatError naming
    its line."""
    rows = []
    first_line: dict[str, int] = {}
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            required = {"lang", "delta_chrf", "n_panlex", "n_gatitos", "n_mono", "class"}
            missing = required - set(reader.fieldnames or [])
            if missing:
                raise ValueError(f"{path}: missing CSV columns: {sorted(missing)}")
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
    except UnicodeDecodeError:
        raise FormatError.not_utf8(path) from None
    return rows
