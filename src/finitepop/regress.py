"""Least-squares fitting of linear outcome models, identification checking and
the omitted-variable-bias consistency check.

Treatment is coerced to a real for regression.  Categorical covariates are
one-hot encoded with the lexicographically first level dropped.  numpy is
imported inside the functions that fit, so importing this module loads none.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TYPE_CHECKING, NamedTuple

from .core import Covariate, FinitePopError, ObservedDataset, SupportError, fsum, mean_of

if TYPE_CHECKING:
    import numpy as np


class RankDeficiencyError(FinitePopError):
    """The regression design matrix does not have full column rank."""


class _Encoding(NamedTuple):
    """Feature layout: numeric covariate names plus per-categorical dropped-first levels."""

    numeric: tuple[str, ...]
    categorical: tuple[tuple[str, tuple[str, ...]], ...]  # (name, kept levels)

    @classmethod
    def from_data(cls, data: ObservedDataset) -> "_Encoding":
        xs = data.xs()
        numeric, categorical = [], []
        for name in xs[0].names():
            values = {x.get(name) for x in xs}
            if all(isinstance(v, str) for v in values):
                levels = tuple(sorted(values))  # type: ignore[arg-type]
                categorical.append((name, levels[1:]))
            else:
                numeric.append(name)
        return cls(tuple(numeric), tuple(categorical))

    def feature_names(self) -> list[str]:
        out = list(self.numeric)
        for name, kept in self.categorical:
            out += [f"{name}={level}" for level in kept]
        return out

    def encode(self, x: Covariate) -> list[float]:
        row = [float(x.get(n)) for n in self.numeric]
        for name, kept in self.categorical:
            value = x.get(name)
            row += [1.0 if value == level else 0.0 for level in kept]
        return row


class LinearModel(NamedTuple):
    """Fitted linear outcome model: covariate coefficients, treatment slope, intercept."""

    a: Mapping[str, float]
    beta: float
    c: float
    encoding: _Encoding

    def predict(self, x: Covariate, t: float) -> float:
        features = self.encoding.encode(x)
        names = self.encoding.feature_names()
        return fsum(self.a[n] * v for n, v in zip(names, features)) + self.beta * t + self.c

    def to_json(self) -> dict:
        return {"a": dict(self.a), "beta": self.beta, "c": self.c}


class RegressionReport(NamedTuple):
    model: LinearModel
    max_cell_residual: float
    identification_ok: bool
    design_rank: int
    xt_covariance: Mapping[str, float]
    cell_residuals: Mapping[str, float]

    def to_json(self) -> dict:
        return {
            **self.model.to_json(),
            "max_cell_residual": self.max_cell_residual,
            "identification_ok": self.identification_ok,
            "xt_covariance": dict(self.xt_covariance),
        }


def _design(data: ObservedDataset, encoding: _Encoding) -> tuple[np.ndarray, list[str]]:
    import numpy as np
    features = [encoding.encode(x) for x in data.values]
    rows = [features[code] + [float(t), 1.0] for code, t in zip(data.codes, data.t)]
    return np.asarray(rows, dtype=float), encoding.feature_names() + ["t", "intercept"]


def _collinear_columns(matrix: np.ndarray, names: list[str]) -> list[str]:
    import numpy as np
    full = np.linalg.matrix_rank(matrix)
    flagged = []
    for j in range(matrix.shape[1]):
        others = np.delete(matrix, j, axis=1)
        if np.linalg.matrix_rank(others) == full:
            flagged.append(names[j])
    return flagged


def fit_linear(data: ObservedDataset) -> LinearModel:
    """Least-squares fit of outcome on covariates, treatment, and an intercept."""
    import numpy as np
    if len(data) == 0:
        raise SupportError("empty dataset")
    encoding = _Encoding.from_data(data)
    design, names = _design(data, encoding)
    if np.linalg.matrix_rank(design) < design.shape[1]:
        flagged = _collinear_columns(design, names)
        raise RankDeficiencyError(f"design matrix is rank deficient; collinear columns: {flagged}")
    y = np.asarray(data.y, dtype=float)
    coefs, *_ = np.linalg.lstsq(design, y, rcond=None)
    a = {name: float(v) for name, v in zip(names[:-2], coefs[:-2])}
    return LinearModel(a, beta=float(coefs[-2]), c=float(coefs[-1]), encoding=encoding)


def xt_covariance(data: ObservedDataset) -> dict[str, float]:
    """Sample covariance of each design feature with the treatment column."""
    import numpy as np
    encoding = _Encoding.from_data(data)
    design, names = _design(data, encoding)
    t = design[:, -2]
    out = {}
    for j, name in enumerate(names[:-2]):
        col = design[:, j]
        out[name] = float(np.mean((col - col.mean()) * (t - t.mean())))
    return out


def check_linear_identification(
    model: LinearModel, data: ObservedDataset, eps_plus_delta: float
) -> RegressionReport:
    """Compare each (x, t) cell's observed mean outcome with the model's prediction."""
    import numpy as np
    residuals: dict[str, float] = {}
    worst = 0.0
    for x in data.xs():
        for t in sorted(data.treatments):
            ys = data.ys(t).get(x)
            if not ys:
                continue
            gap = abs(mean_of(ys) - model.predict(x, float(t)))
            residuals[f"{x!r}|t={t}"] = gap
            worst = max(worst, gap)
    design, _ = _design(data, model.encoding)
    return RegressionReport(
        model=model,
        max_cell_residual=worst,
        identification_ok=worst <= eps_plus_delta,
        design_rank=int(np.linalg.matrix_rank(design)),
        xt_covariance=xt_covariance(data),
        cell_residuals=residuals,
    )


def ovb_consistency_check(data: ObservedDataset, long_model: LinearModel) -> float:
    """Gap between the short-regression treatment slope and the long model's.

    Fits y ~ t with an intercept and returns |beta_short - beta_long|; small
    when the covariates are uncorrelated with the treatment (see
    xt_covariance) or the long model has no covariate effect.
    """
    import numpy as np
    ts = np.asarray(data.t, dtype=float)
    if np.ptp(ts) == 0:
        raise RankDeficiencyError("treatment is constant; short regression is degenerate")
    y = np.asarray(data.y)
    design = np.column_stack([ts, np.ones_like(ts)])
    coefs, *_ = np.linalg.lstsq(design, y, rcond=None)
    return abs(float(coefs[0]) - long_model.beta)
