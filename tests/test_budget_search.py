"""A search for a scenario and a predictor that break an audited budget.

Scenarios come from ``generate`` with per-level propensities, future weights and
outcome shifts, so treatment is confounded with the covariate and the future's
composition and outcomes move.  ``plugin`` and ``dr`` get a random predictor
table, far from the cell means; ``coarsened`` gets a random partition, and
``plugin`` gets it or none.  Every verdict of the five point methods must hold,
and each method's error must split exactly as its residual table says.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from finitepop import cli
from finitepop.audit import avg_signed_difference, residual_table
from finitepop.core import CovariatePartition
from finitepop.estimate import METHODS, Tabular
from finitepop.simulate import ScenarioSpec, generate

LEVELS = ("a", "b", "c", "d")
FILES = {"partition": "part.yaml", "predictor": "pred.yaml"}
SEARCH = settings(max_examples=400, deadline=None)


@st.composite
def cases(draw):
    """(scenario, predictor table, partition, whether plugin takes the partition)."""
    levels = LEVELS[:draw(st.integers(2, 4))]
    per_level = lambda lo, hi: tuple((lv, draw(st.floats(lo, hi))) for lv in levels)  # noqa: E731
    scenario = generate(ScenarioSpec(
        n_observed=draw(st.integers(4 * len(levels), 40)),
        n_future=draw(st.integers(len(levels), 40)),
        levels=levels,
        base_outcomes=tuple((lv, (draw(st.floats(0, 10)), draw(st.floats(0, 10))))
                            for lv in levels),
        noise_sd=draw(st.sampled_from([0.0, 0.5, 2.0])),
        assignment="propensity",
        propensities=per_level(0.1, 0.9),
        future_level_weights=per_level(0.1, 3.0),
        future_outcome_shift=per_level(-2.0, 2.0),
        seed=draw(st.integers(0, 2**31 - 1)),
    ))
    xs = scenario.observed.xs()
    table = Tabular({(x, t): draw(st.floats(-10, 10)) for x in xs for t in (0, 1)})
    cells = draw(st.lists(st.integers(0, 2), min_size=len(xs), max_size=len(xs)))
    members: dict = {}
    for x, c in zip(xs, cells):
        members.setdefault(f"c{c}", []).append(x)
    return scenario, table, CovariatePartition.from_members(members), draw(st.booleans())


def _run(case) -> dict:
    scenario, table, partition, plugin_cells = case
    plugin = {"name": "plugin", "predictor": FILES["predictor"]}
    if plugin_cells:
        plugin["partition"] = FILES["partition"]
    cfg = {"methods": ["rct", "matching", {"name": "coarsened", "partition": FILES["partition"]},
                       plugin, {"name": "dr", "predictor": FILES["predictor"]}]}
    loaded = {("partition", FILES["partition"]): partition,
              ("predictor", FILES["predictor"]): table}
    return cli.run_methods(cfg, scenario.observed, scenario.future, loaded=loaded)


@SEARCH
@given(cases())
def test_every_verdict_holds(case):
    for name, entry in _run(case)["methods"].items():
        for t, v in entry["verdicts"].items():
            assert v["error"] <= v["budget"] + cli._SLACK, (name, t, v)


def _close(got: float, want: float, scale: float) -> bool:
    """Equal within a few ulps of ``scale``, the largest prediction or outcome summed."""
    return abs(got - want) <= 8 * math.ulp(scale)


@SEARCH
@given(cases())
def test_each_error_splits_into_its_audited_terms(case):
    """Plug-in methods: estimate - truth = s_t + kappa_t + tau_t over the method's cells;
    dr: estimate - truth = s_t - the average signed difference."""
    scenario, table, partition, plugin_cells = case
    data, future = scenario.observed, scenario.future
    cells = {"rct": None, "matching": None, "coarsened": partition,
             "plugin": partition if plugin_cells else None, "dr": None}
    whole = CovariatePartition.from_members({"all": data.xs()})  # every future value is observed
    params = {"partition": partition, "predictor": table, "future": future}
    for name, method in METHODS.items():
        p = method.fit(data, params)
        for t in (0, 1):
            error = method.estimate(p, data, t, params).estimate - future.apo(t)
            scale = max(*(abs(p(x, t)) for x in data.xs()), *map(abs, data.y),
                        *map(abs, future.outcome_column(t)))
            (both,) = residual_table(p, t, (data.n_x, {}), (future.n_x, {}), whole)
            s = both.j.p - both.i.p
            if name == "dr":
                asd = avg_signed_difference(data, future, t)
                assert _close(error, s - asd, scale), (name, t)
                continue
            table_t = residual_table(p, t, (data.n_x, data.ys(t)), (future.n_x, future.ys(t)),
                                     cells[name])
            kappa = math.fsum(c.i.n / len(future) * c.j.r for c in table_t)
            tau = math.fsum(c.i.n / len(future) * (c.i.r - c.j.r) for c in table_t)
            assert _close(error, s + kappa + tau, scale), (name, t)
