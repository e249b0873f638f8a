"""Run one finitepop CLI invocation with spans around the calls into each layer.

    python3 trace_child.py SPANS_JSON INVOCATION_ID VERB --config CONFIG

The public functions of each module are wrapped and rebound in every
``finitepop`` module that holds them (``cli.audit_sp`` as well as
``audit.audit_sp``), then ``finitepop.cli.main`` runs with the arguments after
INVOCATION_ID.  Spans (name, start, end, parent span) and counters stay in
memory and are written to SPANS_JSON, with the invocation id, when the CLI
returns.  The exit code is the CLI's.  ``finitepop`` must be importable.

A function that no longer exists is left out, so its metrics read 0.
"""

import os
import sys
import time

# (span name, module, class or None, attribute): calls that get a span.
SPANS = (
    ("core.rows_where", "core", "ObservedDataset", "rows_where"),
    ("core.units_where", "core", "FuturePopulation", "units_where"),
    ("core.xs", "core", "ObservedDataset", "xs"),
    ("core.xs", "core", "FuturePopulation", "xs"),
    ("core.apo", "core", "FuturePopulation", "apo"),
    ("core.empirical_propensity", "core", None, "empirical_propensity"),
    ("core.common_support_check", "core", None, "common_support_check"),
    ("estimate.fit", "estimate", "RctConstant", "fit"),
    ("estimate.fit", "estimate", "ExactMatching", "fit"),
    ("estimate.fit", "estimate", "CoarsenedMatching", "fit"),
    ("estimate.rct_estimate", "estimate", None, "rct_estimate"),
    ("estimate.exact_matching_estimate", "estimate", None, "exact_matching_estimate"),
    ("estimate.coarsened_matching_estimate", "estimate", None, "coarsened_matching_estimate"),
    ("estimate.plugin_estimate", "estimate", None, "plugin_estimate"),
    ("estimate.doubly_robust_estimate", "estimate", None, "doubly_robust_estimate"),
    ("audit.audit_sp", "audit", None, "audit_sp"),
    ("audit.audit_cfd", "audit", None, "audit_cfd"),
    ("audit.avg_signed_difference", "audit", None, "avg_signed_difference"),
    ("audit.audit_ml_groupwise", "audit", None, "audit_ml_groupwise"),
    ("audit.audit_dr_condition", "audit", None, "audit_dr_condition"),
    ("audit.audit_dominance", "audit", None, "audit_dominance"),
    ("bounds.robins_manski_bounds", "bounds", None, "robins_manski_bounds"),
    ("bounds.iv_ate_lower_bound_randomized", "bounds", None, "iv_ate_lower_bound_randomized"),
    ("io.load_observed_csv", "io", None, "load_observed_csv"),
    ("io.load_future_csv", "io", None, "load_future_csv"),
    ("io.save_observed_csv", "io", None, "save_observed_csv"),
    ("io.save_future_csv", "io", None, "save_future_csv"),
    ("simulate.generate", "simulate", None, "generate"),
    ("cli.run_methods", "cli", None, "run_methods"),
    ("cli.load_config", "cli", None, "load_config"),
    ("cli.render_report", "cli", None, "render_report"),
)

# Calls too frequent for a span each (one per row, or per covariate lookup):
# counted only.  Predictor calls are the __call__ of every Predictor subclass.
COUNTED = (("core.cell_of", "core", "CovariatePartition", "cell_of"),)
PREDICTOR_CALLS = "estimate.predictor.calls"


def _sizes(name, args, result):
    """Work counters recorded at a span's boundary, from its arguments and result."""
    if name == "core.rows_where":
        return {"core.rows_where.rows_scanned": len(args[0].rows)}
    if name == "core.units_where":
        return {"core.units_where.units_scanned": len(args[0].units)}
    if name in ("io.load_observed_csv", "io.load_future_csv"):
        return {"io.rows_read": len(result), "io.bytes_read": os.path.getsize(args[0])}
    if name in ("io.save_observed_csv", "io.save_future_csv"):
        return {"io.bytes_written": os.path.getsize(args[1])}
    if name == "simulate.generate":
        return {"simulate.units_generated": args[0].n_observed + args[0].n_future}
    return {}


class Tracer:
    """Spans and counters of one invocation, kept in memory until it ends."""

    def __init__(self, invocation: int):
        self.invocation = invocation
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.stack = []
        self.counts = {}

    def _count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            for key, n in _sizes(name, args, result).items():
                self._count(key, n)
            return result

        return wrapper

    def counted(self, key, fn):
        def wrapper(*args, **kwargs):
            self._count(key)
            return fn(*args, **kwargs)

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every listed function in place and wherever it was imported."""
        for name, mod, cls, attr in SPANS:
            self._wrap(modules, mod, cls, attr, lambda fn, name=name: self.span(name, fn))
        for name, mod, cls, attr in COUNTED:
            self._wrap(modules, mod, cls, attr, lambda fn, key=name + ".calls": self.counted(key, fn))
        predictor = getattr(modules.get("estimate"), "Predictor", None)
        for sub in predictor.__subclasses__() if predictor else ():
            if "__call__" in vars(sub):
                sub.__call__ = self.counted(PREDICTOR_CALLS, vars(sub)["__call__"])

    @staticmethod
    def _wrap(modules, mod, cls, attr, make) -> None:
        owner = modules.get(mod)
        if cls is not None:
            owner = getattr(owner, cls, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            return
        if cls is None:
            new = make(raw)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, new)
        elif isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def dump(self, path: str, import_s: float) -> None:
        import json

        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "invocation": self.invocation,
                    "import_s": import_s,
                    "counts": self.counts,
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )


def main() -> int:
    spans_path, invocation, cli_argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    start = time.perf_counter()
    import finitepop.cli

    import_s = time.perf_counter() - start
    modules = {
        name.split(".", 1)[1]: module
        for name, module in sys.modules.items()
        if name.startswith("finitepop.") and module is not None
    }
    modules["finitepop"] = sys.modules["finitepop"]
    tracer = Tracer(invocation)
    tracer.install(modules)
    main_span = tracer.span("cli.main", finitepop.cli.main)
    try:
        return main_span(cli_argv)
    finally:
        tracer.dump(spans_path, import_s)


if __name__ == "__main__":
    sys.exit(main())
