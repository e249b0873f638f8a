import numpy as np
import pytest

from finitepop.core import Covariate, ObservedDataset, Row
from finitepop.regress import RankDeficiencyError, fit_linear


def grid_data(a=2.0, beta=3.0, c=1.0):
    """Full (x, t) grid so x and t are exactly uncorrelated."""
    rows = []
    unit = 0
    for xv in (0.0, 1.0, 2.0, 3.0):
        for t in (0, 1):
            rows.append(Row(unit, Covariate.of(x=xv), t, a * xv + beta * t + c))
            unit += 1
    return ObservedDataset(tuple(rows))


def test_fit_exact_linear():
    m = fit_linear(grid_data())
    assert m.a["x"] == pytest.approx(2.0, abs=1e-9)
    assert m.beta == pytest.approx(3.0, abs=1e-9)
    assert m.c == pytest.approx(1.0, abs=1e-9)


def test_fit_constant_outcome():
    rows = tuple(
        Row(i, Covariate.of(x=float(i % 3)), i % 2, 5.0) for i in range(12)
    )
    m = fit_linear(ObservedDataset(rows))
    assert m.a["x"] == pytest.approx(0.0, abs=1e-9)
    assert m.beta == pytest.approx(0.0, abs=1e-9)
    assert m.c == pytest.approx(5.0, abs=1e-9)


def test_fit_single_treatment_rank_deficient():
    rows = tuple(Row(i, Covariate.of(x=float(i)), 1, float(i)) for i in range(6))
    with pytest.raises(RankDeficiencyError):
        fit_linear(ObservedDataset(rows))


def test_fit_categorical_one_hot():
    rows = []
    unit = 0
    for level, effect in (("lo", 0.0), ("hi", 4.0)):
        for t in (0, 1):
            for _ in range(2):
                rows.append(Row(unit, Covariate.of(g=level), t, effect + 2.0 * t + 1.0))
                unit += 1
    m = fit_linear(ObservedDataset(tuple(rows)))
    # "hi" is the first level lexicographically, so it is dropped; "lo" is kept
    assert m.a["g=lo"] == pytest.approx(-4.0, abs=1e-9)
    assert m.beta == pytest.approx(2.0, abs=1e-9)


def test_residual_orthogonality():
    rng = np.random.default_rng(5)
    rows = tuple(
        Row(i, Covariate.of(x=float(rng.uniform())), int(rng.integers(2)),
            float(rng.normal()))
        for i in range(40)
    )
    d = ObservedDataset(rows)
    m = fit_linear(d)
    resid = np.asarray([r.y - m.predict(r.x, float(r.t)) for r in d.rows])
    xs = np.asarray([r.x.get("x") for r in d.rows])
    ts = np.asarray([float(r.t) for r in d.rows])
    for col in (xs, ts, np.ones_like(xs)):
        assert abs(float(resid @ col)) <= 1e-8 * max(1.0, float(np.abs(col).sum()))
