"""Batch front end: estimators, auditors, bounds and sweeps over config files.

Verbs: ``run``, ``audit``, ``simulate``, ``sweep``.  Configuration is a YAML
or JSON key-value tree of the keys its verb reads, with ``schema: 1``; settings
can be overridden by ``FINITEPOP_``-prefixed environment variables and those in
turn by command line flags.  Reports are JSON with floats rendered to 17
significant digits, so a rerun with identical inputs produces a byte-identical file.

Exit codes: 0 success (in oracle mode additionally every verdict passed),
1 at least one oracle verdict failed, 2 configuration or input schema
violation (no report is written), 3 method precondition failure (an outcome sum that
overflows is one).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Callable
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, NoReturn

import yaml

from . import __version__
from .core import (
    Covariate,
    CovariatePartition,
    FinitePopError,
    FuturePopulation,
    ObservedDataset,
    SchemaError,
)
from .io import load_future_csv, load_observed_csv, not_utf8, save_future_csv, save_observed_csv

if TYPE_CHECKING:
    from .estimate import Tabular

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_SCHEMA = 2
EXIT_PRECONDITION = 3

# A verdict's slack, in ulps of the largest magnitude it reads (README, "Verdicts").
_ULPS = 64


class ConfigError(SchemaError):
    """Schema violation in a config file, at a line or at a top-level key ``main`` resolves."""

    def __init__(self, msg: str, line: int = 1, key: str | None = None):
        super().__init__(msg)
        self.line, self.key = line, key

    def __str__(self) -> str:
        return f"line {self.line}: {self.args[0]}"


class PreconditionError(FinitePopError):
    """A method's precondition failed; names the method and the cause."""


# ----------------------------------------------------------------------------
# deterministic JSON rendering


def _render(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            out.append('"%s"' % repr(obj))
        else:
            out.append(format(obj, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _render(v, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, k in enumerate(sorted(obj, key=str)):
            if i:
                out.append(",")
            _render(str(k), out)
            out.append(":")
            _render(obj[k], out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_report(obj) -> str:
    out: list[str] = []
    _render(obj, out)
    return "".join(out) + "\n"


def _write_report(report: dict, out_path: str | None) -> None:
    """Writes the report to ``out_path`` whole or not at all (to stdout without a path).

    The text goes to a temporary file beside the target, which then replaces
    the target; on any failure the temporary file is removed.
    """
    text = render_report(report)
    if not out_path:
        sys.stdout.write(text)
        return
    target = Path(out_path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ----------------------------------------------------------------------------
# config loading


def _key_line(text: str, key: str) -> int:
    """The line of a key, each part of a dotted key (``scenario.seed``) looked up in its parent
    mapping, where the last of repeated keys holds; where a part is not found, the line of the
    last part found (1 if none)."""
    node, found = _parse_yaml(text, yaml.compose), 1
    for part in key.split("."):
        pairs = node.value if isinstance(node, yaml.MappingNode) else ()
        hits = [(k, v) for k, v in pairs if k.value == part]
        if not hits:
            break
        found, node = hits[-1][0].start_mark.line + 1, hits[-1][1]
    return found


# libyaml parses a config several times faster than the pure-Python loader
# and builds the same tree, with three exceptions.  It skips a byte-order mark
# inside the text and reads a bare ``!`` tag before a key as '', where the pure
# loader reads part of a key and None, so a text holding either goes to the
# pure loader.  And it takes some text the pure loader rejects, such as a tab
# after a colon.  Wherever libyaml fails, the pure loader parses again, so an
# error carries its message and line.
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


class _PureLoader(yaml.SafeLoader):
    """The pure loader, where a scalar that its explicit tag rejects (``!!float abc``) is
    a ``ConstructorError`` at the scalar, not a ``ValueError``, ``KeyError`` or
    ``AttributeError`` from inside PyYAML."""

    def construct_object(self, node, deep=False):
        try:
            return super().construct_object(node, deep)
        except (ValueError, LookupError, AttributeError, TypeError):
            tag = node.tag.replace("tag:yaml.org,2002:", "!!")
            raise yaml.constructor.ConstructorError(
                None, None, f"{node.value!r} is not a valid {tag}", node.start_mark
            ) from None


def _parse_yaml(text: str, read=yaml.load):
    if "\ufeff" not in text[1:] and "!" not in text:
        try:
            return read(text, Loader=_LOADER)
        except Exception:  # the pure loader raises again, or decides otherwise
            pass
    return read(text, Loader=_PureLoader)


def load_config(path: str) -> tuple[dict, str]:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(not_utf8(exc), exc.object.count(b"\n", 0, exc.start) + 1) from None
    try:
        cfg = _parse_yaml(text)
    except yaml.YAMLError as exc:
        line = 1
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            line = mark.line + 1
        raise ConfigError(f"config parse error: {exc}", line) from None
    except RecursionError:
        raise ConfigError("config parse error: nested too deeply") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a key-value mapping")
    if "schema" not in cfg:
        raise ConfigError("missing required key 'schema'")
    if cfg["schema"] != 1:
        raise ConfigError(
            f"unsupported schema version {cfg['schema']!r}, expected 1",
            _key_line(text, "schema"),
        )
    return cfg, text


# Settings: a verb that reads one takes it as a flag, with these arguments, and a FINITEPOP_<KEY>.
_SETTINGS = {"mode": {"choices": ["data", "oracle"]}, "seed": {"type": int}, "out": {},
             "replications": {"type": int}}


def _apply_overrides(cfg: dict, args: argparse.Namespace, keys: tuple[str, ...]) -> dict:
    """The settings among ``keys``: flags beat environment, environment beats the config file."""
    merged = dict(cfg)
    for key in (key for key in _SETTINGS if key in keys):
        env, cast = f"FINITEPOP_{key.upper()}", _SETTINGS[key].get("type", str)
        if env in os.environ:
            try:
                merged[key] = cast(os.environ[env])
            except ValueError:
                raise ConfigError(f"environment variable {env} is not a valid {cast.__name__}")
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)
    return merged


def _check_keys(tree: dict, known, what: str, at: str | None = None) -> None:
    """The first key of ``tree`` in file order that is not in ``known`` is an error at its line."""
    for key in tree:
        if key not in known:
            raise ConfigError(
                f"unknown key {key!r} for {what}", key=f"{at}.{key}" if at else str(key)
            )


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing required key {key!r}", key="schema")
    return cfg[key]


def load_partition_file(path: str) -> CovariatePartition:
    cfg, text = load_config(path)
    cells = cfg.get("cells")
    if not isinstance(cells, dict) or not cells:
        raise ConfigError("partition file needs a nonempty 'cells' mapping")
    members = {}
    for name, xs in cells.items():
        try:
            members[str(name)] = [Covariate.of(**f) for f in xs]
        except (TypeError, ValueError):
            raise ConfigError(f"partition cell {name!r} must list covariate records") from None
    try:
        return CovariatePartition.from_members(members)
    except ValueError as exc:  # a value listed in two cells
        raise ConfigError(str(exc), _key_line(text, "cells")) from None


def load_predictor_table(path: str) -> Tabular:
    from .estimate import Tabular
    cfg, text = load_config(path)
    entries = cfg.get("entries")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("predictor file needs a nonempty 'entries' list")
    table = {}
    for e in entries:
        try:
            table[(Covariate.of(**e["x"]), _integer(e["t"]))] = value = _number(e["p"])
        except (KeyError, TypeError, ValueError):
            problem = "need x, t, p"
        else:
            problem = None if math.isfinite(value) else "p must be a finite number"
        if problem:
            raise ConfigError(f"bad predictor entry {e!r}: {problem}", _key_line(text, "entries"))
    return Tabular(table)


# ----------------------------------------------------------------------------
# scenario specs from config trees


def _typed(*kinds: type):
    """The conversion to ``kinds[0]`` of a value of exactly one of ``kinds``, else a TypeError;
    an integer too large for a float is a ValueError."""
    def convert(v):
        if type(v) not in kinds:
            raise TypeError(v)
        try:
            return kinds[0](v)
        except OverflowError:
            raise ValueError(v) from None
    return convert


_integer, _number, _boolean = _typed(int), _typed(float, int), _typed(bool)


def _pairs(v, value=_number, key=str) -> tuple:
    """A mapping, or a list of pairs, as (key, value) pairs sorted by key."""
    return tuple(sorted((key(k), value(x)) for k, x in dict(v).items()))


def _range(v) -> tuple:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise ValueError(v)
    return tuple(map(_number, v))


# Each field of ScenarioSpec and InstrumentSpec: its conversion and what its
# value must be.  Names, required keys and defaults come from the fields.
_CONVERSIONS = {
    "n_observed": (_integer, "an integer"),
    "n_future": (_integer, "an integer"),
    "levels": (lambda v: tuple(str(lv) for lv in v), "a list"),
    "base_outcomes": (lambda v: _pairs(v, _range), "a mapping from level to [y(t=0), y(t=1)]"),
    "noise_sd": (_number, "a number"),
    "outcome_range": (_range, "a [low, high] pair"),
    "assignment": (str, "a string"),
    "propensities": (lambda v: _pairs(v) if isinstance(v, (dict, list)) else _number(v),
                     "a number or a mapping from level to number"),
    "observed_level_weights": (_pairs, "a mapping from level to number"),
    "future_level_weights": (_pairs, "a mapping from level to number"),
    "future_outcome_shift": (_pairs, "a mapping from level to number"),
    "shared_unit_noise": (_boolean, "a boolean"),
    "instrument": (dict, "a mapping"),
    "seed": (_integer, "an integer"),
    "z_probability": (_number, "a number"),
    "take_probability": (lambda v: _pairs(v, key=_integer), "a mapping from z to P(t=1 | z)"),
    "dominance_break": (_number, "a number"),
}


def spec_from_config(cfg, at: str | None = None):
    """The ``ScenarioSpec`` at config key ``at`` (None: the top level, whose keys ``main``
    checks); a missing, mistyped or unknown key is a ``ConfigError`` that names it, at its line."""
    from .simulate import ScenarioSpec
    if not isinstance(cfg, dict):
        raise ConfigError(f"bad scenario spec: {at} must be a mapping, got {cfg!r}", key=at)
    try:
        return _build(ScenarioSpec, cfg, at)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad scenario spec: {exc}", key=at) from None


def _build(spec, tree: dict, at: str | None, prefix: str = ""):
    """A ``spec`` from ``tree``, the mapping at ``prefix`` in the scenario at ``at``."""
    import dataclasses
    from .simulate import InstrumentSpec
    fields = dataclasses.fields(spec)
    path = ".".join(part for part in (at, prefix[:-1]) if part)
    if path:
        _check_keys(tree, [f.name for f in fields], path.rpartition(".")[2], path)
    values = {}
    for f in fields:
        name = prefix + f.name
        if tree.get(f.name) is None and f.default is not dataclasses.MISSING:
            values[f.name] = f.default
            continue
        if f.name not in tree:
            raise ConfigError(f"bad scenario spec: missing required key {name!r}", key=at or "schema")
        convert, what = _CONVERSIONS[f.name]
        try:
            values[f.name] = convert(tree[f.name])
        except (TypeError, ValueError):
            raise ConfigError(
                f"bad scenario spec: {name} must be {what}, got {tree[f.name]!r}",
                key=f"{at}.{name}" if at else name,
            ) from None
    if values.get("instrument") is not None:
        values["instrument"] = _build(InstrumentSpec, values["instrument"], at, "instrument.")
    return spec(**values)


# ----------------------------------------------------------------------------
# method runners


def _method_params(mcfg: dict, loaded: dict, at: str | None = None) -> dict:
    """One method's parameters; ``loaded`` holds the files already parsed in this run and
    ``at`` the config key of the entry (None when its own keys are top-level keys)."""
    params: dict = {}
    for key, load in (("partition", load_partition_file), ("predictor", load_predictor_table)):
        if key in mcfg:
            path = mcfg[key]
            if not isinstance(path, str):
                raise ConfigError(
                    f"method {mcfg['name']}: {key} must be a file path", key=at or key
                )
            if (key, path) not in loaded:
                try:
                    loaded[(key, path)] = load(path)
                except SchemaError as exc:
                    exc.path = path
                    raise
            params[key] = loaded[(key, path)]
    for key in (key for key in ("k0", "k1", "eps", "delta") if key in mcfg):
        try:
            params[key] = _number(mcfg[key])
        except (TypeError, ValueError):
            what = "a number"
        else:
            what = None if math.isfinite(params[key]) else "a finite number"
        if what:
            raise ConfigError(f"method {mcfg['name']}: parameter {key} must be {what}, "
                              f"got {mcfg[key]!r}", key=at or key)
    return params


def _check_covers(partition: CovariatePartition, path: str, *pops) -> None:
    """Every covariate value of ``pops`` (populations or None) must lie in a cell of the
    partition read from ``path``."""
    for x in (x for pop in pops if pop is not None for x in pop.xs()):
        try:
            partition.cell_of(x)
        except ValueError as exc:
            error = SchemaError(f"{exc}; cells must cover every observed and future value")
            error.path = path
            raise error from None


def _lookup(table: dict, kind: str, name, at: str, params: dict | None = None):
    """``table[name]``; an unknown name or a missing needed parameter is an error at ``at``."""
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"unknown {kind} {name!r}; known: {', '.join(table)}", key=at)
    entry = table[name]
    for key in getattr(entry, "needs", ()):
        if key not in params:  # the future is a top-level key, the rest are the entry's own
            raise ConfigError(f"{kind} {name} needs parameter {key!r}",
                              key=key if key == "future" else at)
    return entry


def _passes(value: float, scale: float, lower: float = -math.inf, upper: float = math.inf,
            slacks: int = 1) -> bool:
    """The one judge of every verdict: whether ``value`` lies in [lower, upper], each end
    widened by ``slacks`` times _ULPS ulps of ``scale``, the largest magnitude the verdict
    reads.  Scaling everything it reads by a power of two scales the slack alike."""
    slack = slacks * _ULPS * math.ulp(scale)
    return lower - slack <= value <= upper + slack


def _rm_bounds(params: dict, data: ObservedDataset, truth: dict | None) -> dict:
    from .bounds import OutcomeBounds, robins_manski_bounds
    ob = OutcomeBounds(params["k0"], params["k1"])
    delta = params.get("delta", 0.0)
    per_t = {t: robins_manski_bounds(data, t, ob, delta) for t in sorted(data.treatments)}
    entry: dict = {"per_treatment": {str(t): b.to_json() for t, b in per_t.items()}}
    if truth is not None:
        k = max(abs(ob.k0), abs(ob.k1), delta)
        entry["verdicts"] = {str(t): {"truth": truth[t], "pass": _passes(
            truth[t], max(k, abs(truth[t])), b.lower, b.upper)} for t, b in per_t.items()}
    return entry


def _iv_lower(params: dict, data: ObservedDataset, truth: dict | None) -> dict:
    from .bounds import iv_ate_lower_bound_randomized
    eps, delta = params["eps"], params["delta"]
    b = iv_ate_lower_bound_randomized(data, eps, delta)
    entry: dict = {"ate_lower": b.to_json()}
    if truth is not None:
        ate = truth[1] - truth[0]
        scale = max(max(map(abs, data.y)), eps + delta, abs(truth[1]), abs(truth[0]))
        entry["verdicts"] = {"ate": {"truth": ate, "pass": _passes(ate, scale, b.lower)}}
    return entry


class _Bound(NamedTuple):
    needs: tuple[str, ...]
    run: Callable[[dict, ObservedDataset, dict | None], dict]


_BOUNDS = {
    "rm_bounds": _Bound(("k0", "k1"), _rm_bounds),
    "iv_lower": _Bound(("eps", "delta"), _iv_lower),
}


def run_methods(cfg: dict, data: ObservedDataset, future: FuturePopulation | None,
                loaded: dict | None = None) -> dict:
    """Verdicts are judged against the future's true APOs whenever it carries outcomes.
    ``loaded``: parsed files."""
    from .estimate import METHODS
    runnable = {**METHODS, **_BOUNDS}
    methods_cfg = cfg.get("methods", [])
    if not isinstance(methods_cfg, list) or not methods_cfg:
        raise ConfigError("config needs a nonempty 'methods' list", key="methods")
    truth = None
    if future is not None and future.outcomes is not None:
        truth = {t: future.apo(t) for t in sorted(data.treatments | {0, 1})}
    report: dict = {"methods": {}}
    all_pass = True
    loaded = {} if loaded is None else loaded
    covered: set[str] = set()  # partition files checked against data and future
    for mcfg in methods_cfg:
        if isinstance(mcfg, str):
            mcfg = {"name": mcfg}
        if not isinstance(mcfg, dict) or "name" not in mcfg:
            raise ConfigError(f"method entry {mcfg!r} needs a 'name'", key="methods")
        name = mcfg["name"]
        params = _method_params(mcfg, loaded, "methods")
        if future is not None:
            params["future"] = future
        if "partition" in params and mcfg["partition"] not in covered:
            _check_covers(params["partition"], mcfg["partition"], data, future)
            covered.add(mcfg["partition"])
        method = _lookup(runnable, "method", name, "methods", params)
        try:
            if isinstance(method, _Bound):
                entry = method.run(params, data, truth)
            else:
                entry = _run_point_method(method, params, data, future, truth)
        except ValueError as exc:
            raise ConfigError(f"method {name}: {exc}", key="methods") from None
        except FinitePopError as exc:
            raise PreconditionError(f"method {name}: {exc}") from None
        all_pass = all_pass and all(v["pass"] for v in entry.get("verdicts", {}).values())
        report["methods"][name] = entry
    if truth is not None:
        report["ground_truth"] = {
            "apo": {str(t): truth[t] for t in (0, 1)},
            "ate": truth[1] - truth[0],
        }
    report["ok"] = all_pass
    return report


def _run_point_method(method, params, data, future, truth) -> dict:
    """The method's estimates; with ``truth``, each one's error against its audited budget."""
    from .audit import budget
    from .estimate import ate_estimate
    p = method.fit(data, params)
    per_t = {t: method.estimate(p, data, t, params) for t in sorted(data.treatments)}
    entry: dict = {"per_treatment": {str(t): r.to_json() for t, r in per_t.items()}}
    if 0 in per_t and 1 in per_t:
        entry["ate"] = ate_estimate(per_t[1], per_t[0]).to_json()
    if truth is None:
        return entry
    partition = params.get("partition") if method.cells else None
    entry["verdicts"] = verdicts = {}
    scales = {}
    for t, report in per_t.items():
        error = abs(report.estimate - truth[t])
        limit, scales[t] = budget(p, data, future, t, partition, method.transfer)
        verdicts[str(t)] = {"truth": truth[t], "error": error, "budget": limit,
                            "pass": _passes(error, scales[t], upper=limit)}
    if 0 in per_t and 1 in per_t:
        ate, limit = truth[1] - truth[0], verdicts["1"]["budget"] + verdicts["0"]["budget"]
        err = abs((per_t[1].estimate - per_t[0].estimate) - ate)
        verdicts["ate"] = {"truth": ate, "error": err, "budget": limit,
                           "pass": _passes(err, max(scales[1], scales[0]), upper=limit, slacks=2)}
    return entry


# ----------------------------------------------------------------------------
# verbs


def _load_inputs(
    cfg: dict, outcomes: bool = False
) -> tuple[ObservedDataset, FuturePopulation | None]:
    """The observed data and the future population (or None), which keeps no oracle column in
    data mode.  ``outcomes``: oracle mode needs y(t) for t in 0, 1 and every treatment."""
    data = load_observed_csv(_require(cfg, "observed"))
    future = load_future_csv(cfg["future"]) if cfg.get("future") else None
    if cfg.get("mode", "data") == "data":
        return data, future and FuturePopulation.from_columns(future.ids, future.values, future.codes)
    if outcomes and future is None:
        raise ConfigError("oracle mode requires a future population with outcomes", key="mode")
    missing = [f"y_t{t}" for t in sorted(data.treatments | {0, 1})
               if outcomes and t not in (future.outcomes or {})]
    if missing:
        error = SchemaError(f"line 1: header lacks {', '.join(missing)}, which oracle mode needs")
        error.path = cfg["future"]
        raise error
    return data, future


def cmd_run(cfg: dict) -> int:
    data, future = _load_inputs(cfg, outcomes=True)
    report = run_methods(cfg, data, future)
    report["metadata"] = _metadata(cfg.get("mode", "data"))
    _write_report(report, cfg.get("out"))
    return EXIT_OK if report["ok"] else EXIT_VERDICT_FAIL


def cmd_audit(cfg: dict) -> int:
    from .audit import AUDITS
    from .estimate import METHODS
    data, future = _load_inputs(cfg)
    audits = cfg.get("audits")
    if not isinstance(audits, list) or not audits:
        raise ConfigError("config needs a nonempty 'audits' list", key="audits")
    if future is None:
        raise ConfigError("audits compare against a future population; set 'future'")
    # 'predictor' names a method whose predictor is audited, or a predictor
    # file, which is audited as the plug-in method's predictor.
    kind = cfg.get("predictor", "matching")
    files = {key: cfg[key] for key in ("partition", "predictor") if key in cfg}
    if isinstance(kind, str) and kind.endswith((".json", ".yaml", ".yml")):
        kind = "plugin"
    else:
        files.pop("predictor", None)
    params = {**_method_params({"name": "audit", **files}, {}), "future": future}
    if "partition" in params:
        _check_covers(params["partition"], files["partition"], data, future)
    p = _lookup(METHODS, "auditing predictor", kind, "predictor", params).fit(data, params)
    results = {}
    for name in audits:
        run = _lookup(AUDITS, "audit", name, "audits")
        try:
            results[name] = run(p, data, future, params).to_json()
        except FinitePopError as exc:
            raise PreconditionError(f"audit {name}: {exc}") from None
    report = {"audits": results, "metadata": _metadata(cfg.get("mode", "data")), "ok": True}
    _write_report(report, cfg.get("out"))
    return EXIT_OK


def cmd_simulate(cfg: dict) -> int:
    import dataclasses
    from .simulate import generate
    spec = spec_from_config(cfg)
    scenario = generate(spec)
    out_dir = Path(cfg.get("out") or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    save_observed_csv(scenario.observed, out_dir / "observed.csv")
    save_future_csv(scenario.future, out_dir / "future.csv")
    sidecar = {
        "ground_truth": scenario.ground_truth,
        "spec": dataclasses.asdict(spec),
        "metadata": _metadata(None),
    }
    (out_dir / "ground_truth.json").write_text(render_report(sidecar), encoding="utf-8")
    return EXIT_OK


def _quantile(sorted_vals: list[float], q: float) -> float:
    pos = q * (len(sorted_vals) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_vals) - 1)
    frac = pos - lo
    return sorted_vals[lo] * (1 - frac) + sorted_vals[hi] * frac


def cmd_sweep(cfg: dict) -> int:
    import dataclasses
    from .audit import audit_dominance, dominance_holds
    from .simulate import generate, scenario_seed
    for key in ("replications", "seed"):
        if type(cfg.get(key, 0)) is not int:
            raise ConfigError("replications and seed must be integers", key=key)
    replications, master_seed = cfg.get("replications", 0), cfg.get("seed", 0)
    if replications < 1:
        raise ConfigError(
            f"replications must be at least 1, got {replications}", key="replications"
        )
    if master_seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {master_seed}", key="seed")
    scenario_cfg = _require(cfg, "scenario")
    base_spec = spec_from_config(scenario_cfg, "scenario")
    per_method: dict[str, dict] = {}
    dominance_failures = 0
    has_instrument = base_spec.instrument is not None
    run_cfg = {"methods": cfg.get("methods", ["rct", "matching"])}
    loaded: dict = {}  # partition and predictor files, parsed once per sweep
    for i in range(replications):
        spec = dataclasses.replace(base_spec, seed=scenario_seed(master_seed, i))
        scenario = generate(spec)
        sub = run_methods(run_cfg, scenario.observed, scenario.future, loaded=loaded)
        for name, entry in sub["methods"].items():
            bucket = per_method.setdefault(name, {"errors": [], "passes": 0, "judged": 0})
            for verdict in entry.get("verdicts", {}).values():
                bucket["judged"] += 1
                bucket["passes"] += int(verdict["pass"])
                if "error" in verdict:
                    bucket["errors"].append(verdict["error"])
        if has_instrument:
            if not dominance_holds(audit_dominance(scenario.future)):
                dominance_failures += 1
    summary: dict = {}
    for name, bucket in sorted(per_method.items()):
        errs = sorted(bucket["errors"])
        summary[name] = {
            "pass_rate": bucket["passes"] / bucket["judged"],
            "judged": bucket["judged"],
        }
        if errs:  # the bounds' verdicts carry no error
            summary[name].update(error_q50=_quantile(errs, 0.5), error_q90=_quantile(errs, 0.9),
                                 error_max=errs[-1])
    report = {
        "replications": replications,
        "seed": master_seed,
        "summary": summary,
        "metadata": _metadata("oracle"),
    }
    if has_instrument:
        report["dominance_fail_rate"] = dominance_failures / replications
    _write_report(report, cfg.get("out"))
    failed = any(b["passes"] < b["judged"] for b in per_method.values())
    return EXIT_VERDICT_FAIL if failed else EXIT_OK


def _metadata(mode: str | None) -> dict:
    """The tool, its version and the mode the report was made in (None: a mode has no meaning)."""
    return {"tool": "finitepop", "version": __version__, **({"mode": mode} if mode else {})}


# ----------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finitepop",
        description="Estimate, bound and audit treatment effects on finite populations.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, keys) in _VERBS.items():
        sp = sub.add_parser(verb)
        sp.add_argument("--config", required=True, help="YAML or JSON config, schema 1")
        for key in (key for key in _SETTINGS if key in keys):
            sp.add_argument(f"--{key}", default=None, **_SETTINGS[key])
    return parser


# Each verb's command and the top-level keys it reads, with every ScenarioSpec field for
# simulate (added in main); any other key is an error.
_VERBS = {
    "run": (cmd_run, ("schema", "mode", "observed", "future", "out", "methods")),
    "audit": (cmd_audit, ("schema", "mode", "observed", "future", "out", "audits", "predictor",
                          "partition")),
    "simulate": (cmd_simulate, ("schema", "out", "seed")),
    "sweep": (cmd_sweep, ("schema", "seed", "replications", "out", "methods", "scenario")),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command, keys = _VERBS[args.verb]
    text = ""
    try:
        cfg, text = load_config(args.config)
        if command is cmd_simulate:  # only the verbs that draw load simulate and dataclasses
            import dataclasses
            from .simulate import ScenarioSpec
            keys += tuple(f.name for f in dataclasses.fields(ScenarioSpec))
        _check_keys(cfg, keys, args.verb)
        cfg = _apply_overrides(cfg, args, keys)
        if cfg.get("mode", "data") not in ("data", "oracle"):
            raise ConfigError(f"mode must be data or oracle, got {cfg['mode']!r}", key="mode")
        for key in ("observed", "future", "out"):
            if cfg.get(key) is not None and not isinstance(cfg[key], str):
                raise ConfigError(f"{key} must be a file path, got {cfg[key]!r}", key=key)
        return command(cfg)
    except SchemaError as exc:
        if isinstance(exc, ConfigError) and exc.key and exc.path is None:
            exc.line = _key_line(text, exc.key)
        print(f"{exc.path or args.config}: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:  # an input or output path that cannot be read or written
        print(f"{exc.filename or args.config}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (FinitePopError, ArithmeticError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


# Any of these set by the user sizes numpy's BLAS pool; the process entry leaves it alone.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def start() -> int:
    """What the process entry runs: ``main`` with OpenBLAS capped at one thread, as no verb
    calls BLAS, unless the user sized its pool.

    It must run before numpy loads, which starts the pool and an idle worker thread that
    spins on a second core.  ``main`` itself changes nothing process-wide, so callers that
    import this module keep numpy as they configured it.
    """
    if not any(name in os.environ for name in _BLAS_THREAD_VARIABLES):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    return main()


def entry() -> NoReturn:
    """The process entry (``python -m finitepop.cli`` and the ``finitepop`` script):
    ``start``, then an exit with its code that skips interpreter teardown.

    Freeing every object (most of them numpy's) would only delay the exit.  By then every
    file the verb wrote is closed and no ``atexit`` callback is registered, so flushing
    stdout and stderr is all that is left.  Where a flush fails, the process ends through
    ``sys.exit``, which reports the failure as it always has.
    """
    code = start()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):  # no stream, a failed write, a closed stream
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
