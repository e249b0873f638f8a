"""The covariate record as a frozen dataclass: the reference for ``finitepop.core.Covariate``.

``finitepop`` keeps a covariate as a tuple of (name, is_str, value) triples, so
that hashing, equality and ordering run in C.  This is the earlier form, whose
``__hash__`` and ``__eq__`` are generated per class and whose order goes through
a cached key and ``total_ordering``.  It is slow but plain to read.
``test_core.py`` asserts that both agree on order, equality, hash classes,
``repr``, ``get``, ``names``, ``items`` and the errors of ``of``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, total_ordering


@total_ordering
@dataclass(frozen=True)
class Covariate:
    """Named fields: strings, or reals held as floats; field by field, covariates order by
    name, then numbers before strings, then by value."""

    items: tuple[tuple[str, str | float], ...]

    @classmethod
    def of(cls, **fields: str | float) -> Covariate:
        norm: list[tuple[str, str | float]] = []
        for name, value in sorted(fields.items()):
            if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                raise ValueError(f"covariate field {name!r} must be str or real, got {value!r}")
            norm.append((name, value if isinstance(value, str) else float(value)))
        return cls(tuple(norm))

    @cached_property
    def _order(self) -> tuple[tuple[str, bool, str | float], ...]:
        return tuple((k, isinstance(v, str), v) for k, v in self.items)

    def __lt__(self, other: Covariate) -> bool:
        return self._order < other._order

    def get(self, name: str) -> str | float:
        for k, v in self.items:
            if k == name:
                return v
        raise KeyError(name)

    def names(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.items)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.items)
        return f"Covariate({inner})"
