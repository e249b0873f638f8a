"""Row-scan reference implementations of the indexed reductions.

Each function here is the straightforward form of a group statistic in
``finitepop``: every group query rescans all rows (or all future units) and
every predictor runs once per row.  That costs O(n * |X|) but is easy to
check by eye.  ``test_rowscan_differential.py`` asserts that the indexed
versions in ``src`` return exactly (``==``) what these return.
"""

from __future__ import annotations

import math

from finitepop.core import OracleError, SchemaError, SupportError


def xs(pop):
    items = pop.rows if hasattr(pop, "rows") else pop.units
    return tuple(sorted(set(r.x for r in items)))


def rows_where(data, t=None, x=None, cell=None, z=None):
    if x is not None and cell is not None:
        raise ValueError("give at most one of x and cell")
    if t is not None:
        data.check_treatment(t)
    out = []
    for r in data.rows:
        if t is not None and r.t != t:
            continue
        if x is not None and r.x != x:
            continue
        if cell is not None and r.x not in cell.values:
            continue
        if z is not None and r.z != z:
            continue
        out.append(r)
    return tuple(out)


def units_where(future, x=None, cell=None):
    if x is not None and cell is not None:
        raise ValueError("give at most one of x and cell")
    out = []
    for u in future.units:
        if x is not None and u.x != x:
            continue
        if cell is not None and u.x not in cell.values:
            continue
        out.append(u)
    return tuple(out)


def n_x(pop):
    items = pop.rows if hasattr(pop, "rows") else pop.units
    return {x: sum(1 for r in items if r.x == x) for x in xs(pop)}


def observed_ys(data, t):
    """Outcomes of the rows with treatment t per covariate value; nonempty groups only."""
    groups = {x: tuple(r.y for r in data.rows if r.x == x and r.t == t) for x in xs(data)}
    return {x: ys for x, ys in groups.items() if ys}


def future_ys(future, t):
    oracle = future.require_oracle()
    return {x: tuple(oracle.y(u.unit, t) for u in future.units if u.x == x) for x in xs(future)}


def ys_tz(data):
    """Outcomes per (t, z), keys in order of first appearance."""
    groups = {}
    for r in data.rows:
        groups.setdefault((r.t, r.z), []).append(r.y)
    return {key: tuple(ys) for key, ys in groups.items()}


def mean_y(rows):
    rows = tuple(rows)
    if not rows:
        raise SupportError("mean over an empty subgroup")
    return math.fsum(r.y for r in rows) / len(rows)


def apo(future, t):
    oracle = future.require_oracle()
    return math.fsum(oracle.y(u.unit, t) for u in future.units) / len(future.units)


# ---------------------------------------------------------------------------
# core


def empirical_propensity(data, t, partition=None):
    data.check_treatment(t)
    if partition is None:
        out_x = {}
        for x in xs(data):
            denom = len(rows_where(data, x=x))
            out_x[x] = len(rows_where(data, t=t, x=x)) / denom
        return out_x
    out_c = {}
    for cell in partition.cells:
        denom = len(rows_where(data, cell=cell))
        if denom == 0:
            continue
        out_c[cell.name] = len(rows_where(data, t=t, cell=cell)) / denom
    return out_c


def support_violations(data, partition=None):
    violations = []
    if partition is None:
        keys = [(repr(x), x, None) for x in xs(data)]
    else:
        keys = [(c.name, None, c) for c in partition.cells if rows_where(data, cell=c)]
    for label, x, cell in keys:
        for t in sorted(data.treatments):
            if not rows_where(data, t=t, x=x, cell=cell):
                violations.append((label, t))
    return tuple(violations)


# ---------------------------------------------------------------------------
# estimate


def rct_constants(data):
    return {t: mean_y(rows_where(data, t=t)) for t in sorted(data.treatments)}


def matching_table(data):
    return {(x, t): mean_y(rows_where(data, t=t, x=x))
            for x in xs(data) for t in sorted(data.treatments)}


def coarsened_table(data, partition):
    table = {}
    for cell in partition.cells:
        if not rows_where(data, cell=cell):
            continue
        for t in sorted(data.treatments):
            table[(cell.name, t)] = mean_y(rows_where(data, t=t, cell=cell))
    return table


def rct_estimate(data, t):
    return mean_y(rows_where(data, t=t))


def exact_matching_estimate(data, t):
    """(Horvitz-Thompson form, plug-in form)."""
    prop = empirical_propensity(data, t)
    ht = math.fsum(r.y / prop[r.x] for r in rows_where(data, t=t)) / len(data.rows)
    table = matching_table(data)
    plug = math.fsum(table[(r.x, t)] for r in data.rows) / len(data.rows)
    return ht, plug


def coarsened_matching_estimate(data, partition, t):
    """(Horvitz-Thompson form, plug-in form)."""
    prop = empirical_propensity(data, t, partition)
    ht = math.fsum(
        r.y / prop[partition.cell_of(r.x).name] for r in rows_where(data, t=t)
    ) / len(data.rows)
    table = coarsened_table(data, partition)
    plug = math.fsum(table[(partition.cell_of(r.x).name, t)] for r in data.rows) / len(data.rows)
    return ht, plug


def plugin_estimate(p, data, t):
    return math.fsum(p(r.x, t) for r in data.rows) / len(data.rows)


def doubly_robust_estimate(p, w, data, t):
    terms = []
    for x in xs(data):
        x_rows = rows_where(data, x=x)
        t_rows = rows_where(data, t=t, x=x)
        px = p(x, t)
        resid = math.fsum(r.y - px for r in t_rows) / len(x_rows)
        gamma = px + w(x, t) * resid
        terms.append(len(x_rows) / len(data.rows) * gamma)
    return math.fsum(terms)


def dr_weight(data, future, x, t):
    """The future-composition weight |I^x| / |J_t^x| * |J| / |I|."""
    treated = len(rows_where(data, t=t, x=x))
    if treated == 0:
        raise SupportError(f"no observed rows with x={x!r}, t={t}")
    return len(units_where(future, x=x)) / treated * len(data.rows) / len(future.units)


# ---------------------------------------------------------------------------
# audit


def audit_sp(p, data, future):
    per = {}
    for t in sorted(data.treatments):
        mu = math.fsum(p(u.x, t) for u in future.units) / len(future.units)
        mu_hat = math.fsum(p(r.x, t) for r in data.rows) / len(data.rows)
        per[t] = abs(mu - mu_hat)
    return per


def audit_cfd(p, future, treatments=(0, 1)):
    if future.outcomes is None:
        raise OracleError("CFD unobservable without ground truth")
    return {
        t: abs(apo(future, t) - math.fsum(p(u.x, t) for u in future.units) / len(future.units))
        for t in treatments
    }


def avg_signed_difference(data, future, t, partition=None):
    oracle = future.require_oracle()
    if partition is None:
        groups = [(repr(x), units_where(future, x=x), rows_where(data, t=t, x=x))
                  for x in xs(future)]
    else:
        groups = []
        for cell in partition.cells:
            units = units_where(future, cell=cell)
            if units:
                groups.append((cell.name, units, rows_where(data, t=t, cell=cell)))
    terms = []
    for label, units, obs_rows in groups:
        if not obs_rows:
            raise SupportError(f"no observed rows with t={t} in group {label} (common support)")
        mu = math.fsum(oracle.y(u.unit, t) for u in units) / len(units)
        terms.append(len(units) / len(future.units) * (mu - mean_y(obs_rows)))
    return math.fsum(terms)


def audit_ml_groupwise(p, data, future, partition):
    """(per-treatment headline, per-(cell, t) details)."""
    oracle = future.require_oracle()
    details, per = {}, {}
    for t in sorted(data.treatments):
        worst = 0.0
        for cell in partition.cells:
            units = units_where(future, cell=cell)
            obs_rows = rows_where(data, t=t, cell=cell)
            if not units or not obs_rows:
                raise SupportError(f"cell {cell.name}: empty")
            fut_resid = math.fsum(p(u.x, t) - oracle.y(u.unit, t) for u in units) / len(units)
            obs_resid = math.fsum(p(r.x, t) - r.y for r in obs_rows) / len(obs_rows)
            details[(cell.name, t)] = fut_resid - obs_resid
            worst = max(worst, abs(fut_resid - obs_resid))
        per[t] = worst
    return per, details


def residual_cells(p, data, future, t, partition=None):
    """(future share, mean future residual, mean observed residual) of p - y under t per cell:
    the partition's, or one per covariate value of either population without one.  Every
    cell must hold future units and observed rows under t."""
    oracle = future.require_oracle()
    data.check_treatment(t)
    if partition is None:
        groups = [(units_where(future, x=x), rows_where(data, t=t, x=x))
                  for x in sorted(set(xs(data)) | set(xs(future)))]
    else:
        groups = [(units_where(future, cell=c), rows_where(data, t=t, cell=c))
                  for c in partition.cells]
    cells = []
    for units, obs_rows in groups:
        if not units or not obs_rows:
            raise SupportError("a cell is empty on one side")
        fut_resid = math.fsum(p(u.x, t) - oracle.y(u.unit, t) for u in units) / len(units)
        obs_resid = math.fsum(p(r.x, t) - r.y for r in obs_rows) / len(obs_rows)
        cells.append((len(units) / len(future.units), fut_resid, obs_resid))
    return cells


def cellwise_transfer(p, data, future, t, partition=None):
    """|kappa_t| + the largest |mean future residual - mean observed residual| over the cells
    of ``residual_cells``."""
    cells = residual_cells(p, data, future, t, partition)
    kappa = math.fsum(w * obs_resid for w, _, obs_resid in cells)
    return abs(kappa) + max([0.0, *(abs(fut - obs) for _, fut, obs in cells)])


def budget(p, data, future, t, partition, transfer):
    """The stable-prediction gap at t plus the transfer term that ``transfer`` names, and the
    largest magnitude of p at either population's values and of either side's outcomes under t."""
    if transfer == "cfd":
        term = audit_cfd(p, future, (t,))[t]
    elif transfer == "signed":
        term = abs(avg_signed_difference(data, future, t, partition))
    else:
        term = cellwise_transfer(p, data, future, t, partition)
    limit = audit_sp(p, data, future)[t] + term
    magnitudes = [p(x, t) for x in set(xs(data)) | set(xs(future))]
    magnitudes += [r.y for r in rows_where(data, t=t)]
    magnitudes += [future.y(u.unit, t) for u in future.units]
    return limit, max(map(abs, magnitudes))


def audit_dr_condition(data, future, t, f=None):
    oracle = future.require_oracle()
    if f is None:
        fn = lambda x, t: 1.0
    elif callable(f):
        fn = f
    else:
        fn = lambda x, t, _c=float(f): _c
    terms = []
    for x in xs(future):
        units = units_where(future, x=x)
        obs_rows = rows_where(data, t=t, x=x)
        if not obs_rows:
            raise SupportError(f"no observed rows with t={t} at x={x!r} (common support)")
        n_x = len(rows_where(data, x=x))
        mu = math.fsum(oracle.y(u.unit, t) for u in units) / len(units)
        terms.append(n_x / len(data.rows) * (mu - mean_y(obs_rows)) * fn(x, t))
    return math.fsum(terms)


def audit_compliance_stability(data, future):
    future.require_compliance()
    if not data.has_instrument:
        raise SchemaError("observed data has no instrument column z")
    per = {}
    for z in sorted({r.z for r in data.rows}):
        arm_rows = rows_where(data, z=z)
        for t in sorted(data.treatments):
            takers = [u for u in future.units if future.s(u.unit, z) == t]
            i_share = len(takers) / len(future.units)
            j_share = len(rows_where(data, t=t, z=z)) / len(arm_rows)
            per[(t, z)] = abs(i_share - j_share)
    return per


# ---------------------------------------------------------------------------
# bounds


def iv_ate_lower_bound_randomized(data, eps, delta):
    arm = {z: mean_y(rows_where(data, z=z)) for z in (0, 1)}
    return arm[1] - arm[0] - 2 * (eps + delta)


def robins_manski_bounds(data, t, k0, k1, delta):
    """(lower, upper), with the shares taken over the rows of the z = t arm."""
    arm_rows = rows_where(data, z=t)
    edge_rows = [r for r in arm_rows if r.t != t]
    mean_rows = [r for r in arm_rows if r.t == t]
    edge_share = len(edge_rows) / len(arm_rows)
    mean_share = len(mean_rows) / len(arm_rows)
    observed_mean = mean_y(mean_rows)
    lower = edge_share * k0 - delta + mean_share * observed_mean
    upper = edge_share * k1 + delta + mean_share * observed_mean
    return lower, upper
