import math
import random
from fractions import Fraction

import numpy as np
import pytest

from lexaug.analysis import (
    LangRow,
    OlsFit,
    load_lang_rows,
    ols_fit,
    per_class_deltas,
    regress_delta_chrf,
)
from lexaug.errors import FitError, FormatError, InsufficientDataError, SingularMatrixError
from lexaug.metrics import Resourcedness


class TestOlsFit:
    def test_noiseless_line(self):
        x = np.arange(10.0).reshape(-1, 1)
        fit = ols_fit(x, 2.0 * x[:, 0])
        assert fit.beta[0] == pytest.approx(2.0, abs=1e-10)
        assert fit.intercept == pytest.approx(0.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-10)

    def test_constant_outcome(self):
        x = np.arange(10.0).reshape(-1, 1)
        y = np.full(10, 3.5)
        fit = ols_fit(x, y)
        assert fit.beta[0] == pytest.approx(0.0, abs=1e-10)
        assert fit.intercept == pytest.approx(3.5, abs=1e-10)
        assert fit.residual_se == pytest.approx(0.0, abs=1e-10)

    def test_planted_coefficients_recovered(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 100, size=(200, 3))
        beta = np.array([0.3, 1.2, -0.05])
        y = X @ beta + 7.5
        fit = ols_fit(X, y)
        assert np.allclose(fit.beta, beta, atol=1e-6)
        assert fit.intercept == pytest.approx(7.5, abs=1e-6)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_residuals_orthogonal_to_predictors(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(80, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=80)
        fit = ols_fit(X, y)
        residuals = y - (X @ np.array(fit.beta) + fit.intercept)
        for j in range(3):
            column = X[:, j]
            assert abs(residuals @ column) < 1e-8 * np.linalg.norm(column) * np.linalg.norm(residuals + 1e-12)

    def test_scaling_a_predictor_scales_its_beta(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 2))
        y = X @ np.array([3.0, -1.0]) + 0.25 + rng.normal(size=60) * 0.1
        fit = ols_fit(X, y)
        scaled = X.copy()
        scaled[:, 0] *= 10.0
        fit_scaled = ols_fit(scaled, y)
        assert fit_scaled.beta[0] == pytest.approx(fit.beta[0] / 10.0, rel=1e-9)
        assert fit_scaled.beta[1] == pytest.approx(fit.beta[1], rel=1e-9)
        fitted = X @ np.array(fit.beta) + fit.intercept
        fitted_scaled = scaled @ np.array(fit_scaled.beta) + fit_scaled.intercept
        assert np.allclose(fitted, fitted_scaled)

    def test_rank_deficiency_names_column(self):
        # Integer columns, so that the sum is an exact dependency.
        rng = np.random.default_rng(3)
        X = rng.integers(-1000, 1000, size=(30, 3))
        X[:, 2] = X[:, 0] + X[:, 1]
        with pytest.raises(SingularMatrixError) as exc_info:
            ols_fit(X, rng.normal(size=30))
        assert exc_info.value.column in (0, 1, 2)

    def test_float_rounded_sum_is_fitted(self):
        # A sum of float columns, rounded to float, depends on them only up to
        # rounding: the design has full rank, and its exact fit is reported.
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 3))
        X[:, 2] = X[:, 0] + X[:, 1]
        y = rng.normal(size=30)
        assert ols_fit(X, y) == _reference_fit(X, y)

    def test_large_integer_counts_stay_exact(self):
        # Counts above 2**53 are not floats, and their squares overflow 64 bits.
        X = [[2**60 + i * i, 3**38 - 7 * i] for i in range(12)]
        y = [float(i % 5) for i in range(12)]
        expected = _reference_fit(X, y)
        assert ols_fit(X, y) == expected
        assert ols_fit(np.array(X, dtype=np.int64), np.array(y)) == expected

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            ols_fit(np.ones((4, 3)), np.ones(4))


def _det(matrix):
    """Determinant by Laplace expansion along the first row."""
    if not matrix:
        return Fraction(1)
    return sum(
        (-1) ** j * matrix[0][j] * _det([row[:j] + row[j + 1:] for row in matrix[1:]])
        for j in range(len(matrix))
    )


def _reference_fit(X, y):
    """The least-squares fit by Cramer's rule over the normal equations, in
    exact arithmetic, each reported number rounded to float once."""
    design = [[Fraction(1), *map(Fraction, row)] for row in X]
    y = [Fraction(v) for v in y]
    k = len(design[0])
    gram = [[sum(row[i] * row[j] for row in design) for j in range(k)] for i in range(k)]
    moment = [sum(row[i] * v for row, v in zip(design, y)) for i in range(k)]
    det = _det(gram)
    coef = [_det([g[:j] + [b] + g[j + 1:] for g, b in zip(gram, moment)]) / det for j in range(k)]
    ssr = sum((v - sum(c * x for c, x in zip(coef, row))) ** 2 for row, v in zip(design, y))
    mean = sum(y) / len(y)
    sst = sum((v - mean) ** 2 for v in y)
    return OlsFit(
        beta=tuple(float(c) for c in coef[1:]),
        intercept=float(coef[0]),
        r_squared=float(1 - ssr / sst) if sst else 1.0,
        residual_se=math.sqrt(float(ssr / (len(y) - k))),
    )


def _random_table(seed):
    """1 to 3 predictors over up to 40 rows: integer counts for odd seeds,
    floats for even ones; float outcomes."""
    rng = random.Random(seed)
    p = rng.randint(1, 3)
    m = rng.randint(p + 2, 40)
    if seed % 2:
        X = [[rng.randrange(50_000) for _ in range(p)] for _ in range(m)]
    else:
        X = [[rng.uniform(-100.0, 100.0) for _ in range(p)] for _ in range(m)]
    return X, [rng.uniform(-20.0, 20.0) for _ in range(m)]


@pytest.mark.parametrize("seed", range(60))
def test_ols_fit_equals_exact_reference(seed):
    # Every coefficient, R^2 and residual_se is the correctly rounded float
    # of the exact least-squares value.
    X, y = _random_table(seed)
    assert ols_fit(X, y) == _reference_fit(X, y)


def _url_row(lang, panlex, gatitos, mono, beta=(0.001, 0.003, 1e-7), noise=0.0):
    delta = beta[0] * panlex + beta[1] * gatitos + beta[2] * mono + 0.5 + noise
    return LangRow(
        lang=lang,
        delta_chrf=delta,
        n_panlex=panlex,
        n_gatitos=gatitos,
        n_mono_sentences=mono,
        resourcedness=Resourcedness.URL,
    )


class TestRegressDeltaChrf:
    def _rows(self, n=40):
        rng = np.random.default_rng(5)
        rows = []
        for i in range(n):
            rows.append(
                _url_row(
                    f"l{i}",
                    int(rng.integers(0, 50_000)),
                    int(rng.integers(0, 4500)),
                    int(rng.integers(0, 2_000_000)),
                )
            )
        return rows

    def test_recovers_planted_betas(self):
        report = regress_delta_chrf(self._rows())
        assert report.coefficients["n_panlex"] == pytest.approx(0.001, abs=1e-6)
        assert report.coefficients["n_gatitos"] == pytest.approx(0.003, abs=1e-6)
        assert report.coefficients["n_mono_sentences"] == pytest.approx(1e-7, abs=1e-6)
        assert report.intercept == pytest.approx(0.5, abs=1e-6)
        assert report.n_rows == 40

    def test_only_url_rows_enter_the_fit(self):
        rows = self._rows()
        # Non-URL rows carry garbage outcomes; if they leaked in, the planted
        # coefficients could not be recovered.
        spoilers = [
            LangRow(f"s{i}", 999.0, 1, 1, 1, Resourcedness.HRL) for i in range(30)
        ]
        report = regress_delta_chrf(rows + spoilers)
        assert report.n_rows == len(rows)
        assert report.coefficients["n_gatitos"] == pytest.approx(0.003, abs=1e-6)

    def test_per_class_covers_every_row(self):
        rows = self._rows()
        spoilers = [LangRow(f"s{i}", 999.0, 1, 1, 1, Resourcedness.HRL) for i in range(30)]
        report = regress_delta_chrf(iter(rows + spoilers))
        assert report.per_class == per_class_deltas(rows + spoilers)
        assert report.per_class["HRL"] == {"langs": 30, "mean_delta_chrf": 999.0}
        assert report.per_class["URL"]["langs"] == 40

    def test_curated_beta_larger_than_bulk(self):
        # Direction check: the curated-lexicon coefficient comes out larger
        # than the bulk-lexicon one, and both positive.
        report = regress_delta_chrf(self._rows())
        assert report.coefficients["n_gatitos"] > report.coefficients["n_panlex"] > 0

    def test_insufficient_url_rows(self):
        rows = self._rows(4)
        with pytest.raises(InsufficientDataError):
            regress_delta_chrf(rows)

    def test_singular_predictors_named(self):
        rows = [
            _url_row(f"l{i}", p, 2 * p, 0)  # gatitos = 2 * panlex, mono constant
            for i, p in enumerate(range(10, 20))
        ]
        with pytest.raises(SingularMatrixError) as exc_info:
            regress_delta_chrf(rows)
        assert exc_info.value.column in ("n_panlex", "n_gatitos", "n_mono_sentences")

    def test_result_too_large_for_a_float_is_a_fit_error(self):
        x = [[3 * i, i * i, 7 * i % 5] for i in range(8)]
        y = [(-1) ** i * 1e308 for i in range(8)]
        with pytest.raises(FitError, match="too large for a float"):
            ols_fit(x, y)


class TestPerClassDeltas:
    def test_identical_scores_zero_deltas(self):
        rows = [
            LangRow("aa", 0.0, 1, 1, 1, Resourcedness.URL),
            LangRow("bb", 0.0, 1, 1, 1, Resourcedness.HRL),
        ]
        table = per_class_deltas(rows)
        assert table == {
            "HRL": {"langs": 1, "mean_delta_chrf": 0.0},
            "URL": {"langs": 1, "mean_delta_chrf": 0.0},
        }

    def test_class_mean_does_not_overflow(self):
        rows = [LangRow(lang, 1e308, 1, 1, 1, Resourcedness.HRL) for lang in ("h1", "h2")]
        assert per_class_deltas(rows)["HRL"]["mean_delta_chrf"] == 1e308

    def test_class_mean_is_correctly_rounded(self):
        # 0.1 + 0.2 + 0.3 in floats is 0.6000000000000001; the exact sum of
        # the three doubles, divided by 3, rounds to 0.2.
        rows = [LangRow(f"u{i}", d, 1, 1, 1, Resourcedness.URL) for i, d in enumerate((0.1, 0.2, 0.3))]
        assert per_class_deltas(rows)["URL"]["mean_delta_chrf"] == 0.2

    def test_single_language_class_mean(self):
        table = per_class_deltas([LangRow("aa", 2.0, 1, 1, 1, Resourcedness.URL)])
        assert table["URL"]["mean_delta_chrf"] == pytest.approx(2.0)

    def test_four_class_hand_fixture(self):
        rows = [
            LangRow(lang, delta, 1, 1, 1, Resourcedness(cls))
            for lang, delta, cls in [
                ("u1", 7.0, "URL"), ("u2", 1.0, "URL"), ("l1", 2.0, "LRL"), ("m1", -1.0, "MRL"), ("h1", 0.5, "HRL"),
            ]
        ]
        table = per_class_deltas(rows)
        assert list(table) == ["HRL", "LRL", "MRL", "URL"]
        assert table["URL"] == {"langs": 2, "mean_delta_chrf": pytest.approx(4.0)}  # (7 + 1) / 2
        assert table["LRL"]["mean_delta_chrf"] == pytest.approx(2.0)
        assert table["MRL"]["mean_delta_chrf"] == pytest.approx(-1.0)
        assert table["HRL"]["mean_delta_chrf"] == pytest.approx(0.5)


class TestLoadLangRows:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(
            "lang,delta_chrf,n_panlex,n_gatitos,n_mono,class\n"
            "gn,2.8,1200,4000,50000,URL\n"
            "sr,8.3,90000,0,7000000,mrl\n"
        )
        rows = load_lang_rows(str(path))
        assert rows[0] == LangRow("gn", 2.8, 1200, 4000, 50000, Resourcedness.URL)
        assert rows[1].resourcedness is Resourcedness.MRL

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("lang,delta_chrf\nxx,1.0\n")
        with pytest.raises(ValueError, match="missing"):
            load_lang_rows(str(path))

    def test_quoted_field_spans_two_lines(self, tmp_path):
        # The csv module reads the table: a quoted field keeps its line break,
        # and a row's line is the physical line it ends on.
        path = tmp_path / "table.csv"
        path.write_text(
            'lang,delta_chrf,n_panlex,n_gatitos,n_mono,class\n"p\nq",1.5,1,2,3,URL\nr,x,1,2,3,URL\n', newline="")
        with pytest.raises(FormatError, match=r"table.csv:line 4: could not convert string to float: 'x'"):
            load_lang_rows(str(path))
        path.write_text('lang,delta_chrf,n_panlex,n_gatitos,n_mono,class\n"p\nq",1.5,1,2,3,URL\n', newline="")
        assert load_lang_rows(str(path)) == [LangRow("p\nq", 1.5, 1, 2, 3, Resourcedness.URL)]

    def test_crlf_table_reads_as_its_lf_twin(self, tmp_path):
        text = "lang,delta_chrf,n_panlex,n_gatitos,n_mono,class\ngn,2.8,1200,4000,50000,URL\nsr,8.3,9,0,7,mrl\n"
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        lf.write_text(text, newline="")
        crlf.write_text(text.replace("\n", "\r\n"), newline="")
        assert len(load_lang_rows(str(lf))) == 2
        assert load_lang_rows(str(crlf)) == load_lang_rows(str(lf))
        # A quoted field keeps the line break as written.
        crlf.write_text('lang,delta_chrf,n_panlex,n_gatitos,n_mono,class\r\n"p\r\nq",1.5,1,2,3,hrl\r\n', newline="")
        assert load_lang_rows(str(crlf)) == [LangRow("p\r\nq", 1.5, 1, 2, 3, Resourcedness.HRL)]
