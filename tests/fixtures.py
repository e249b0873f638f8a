"""The canonical 8-unit desk example used throughout the tests and docs.

Observed side: four rows, two covariate levels, both treatments at each level.
Future side: four units with a full outcome oracle.  True average potential
outcomes are 7 (treated) and 4 (control); true effect is 3.
"""

from __future__ import annotations

from finitepop.core import Covariate, FuturePopulation, ObservedDataset, Row, Unit

XA = Covariate.of(level="a")
XB = Covariate.of(level="b")


def p8_observed(with_instrument: bool = False) -> ObservedDataset:
    zs = (1, 0, 1, 0) if with_instrument else (None, None, None, None)
    return ObservedDataset(
        (
            Row(1, XA, 1, 10.0, zs[0]),
            Row(2, XA, 0, 6.0, zs[1]),
            Row(3, XB, 1, 4.0, zs[2]),
            Row(4, XB, 0, 2.0, zs[3]),
        )
    )


def p8_future() -> FuturePopulation:
    units = (Unit(11, XA), Unit(12, XA), Unit(13, XB), Unit(14, XB))
    oracle = {
        (11, 1): 10.0, (11, 0): 6.0,
        (12, 1): 10.0, (12, 0): 6.0,
        (13, 1): 4.0, (13, 0): 2.0,
        (14, 1): 4.0, (14, 0): 2.0,
    }
    return FuturePopulation(units, columns(units, oracle))


def columns(units, table):
    """A ``{(unit, key): value}`` table as oracle columns: per key, one value per unit in
    unit order.  An empty table gives None."""
    keys = sorted({key for _, key in table})
    return {key: [table[(u.unit, key)] for u in units] for key in keys} or None
