"""Least-squares fitting of linear outcome models.

Treatment is coerced to a real for regression.  Categorical covariates are
one-hot encoded with the lexicographically first level dropped.  numpy is
imported inside the functions that fit, so importing this module loads none.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TYPE_CHECKING, NamedTuple

from .core import Covariate, FinitePopError, ObservedDataset, SupportError, fsum

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
    features = [encoding.encode(x) for x in data.values]
    design = np.asarray([features[code] + [float(t), 1.0] for code, t in zip(data.codes, data.t)],
                        dtype=float)
    names = encoding.feature_names() + ["t", "intercept"]
    if np.linalg.matrix_rank(design) < design.shape[1]:
        flagged = _collinear_columns(design, names)
        raise RankDeficiencyError(f"design matrix is rank deficient; collinear columns: {flagged}")
    y = np.asarray(data.y, dtype=float)
    coefs, *_ = np.linalg.lstsq(design, y, rcond=None)
    a = {name: float(v) for name, v in zip(names[:-2], coefs[:-2])}
    return LinearModel(a, beta=float(coefs[-2]), c=float(coefs[-1]), encoding=encoding)
