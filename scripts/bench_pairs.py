#!/usr/bin/env python3
"""Alternating benchmark pairs: a base revision against the working tree.

Run from the root of a checkout:

    python3 scripts/bench_pairs.py --base HEAD~1 --workload sweep-iv --seed 5 \\
        --pairs 10 --seconds 30 --out BENCH_tag.json

The base revision is unpacked with ``git archive`` into a temporary
directory; neither ``.git`` nor the working tree changes.  The working
tree's ``perfbench/`` and ``BENCHMARK.json`` are copied over the unpacked
tree, so both sides run the same benchmark code.  Each pair runs
``perfbench/run.py --trace 0`` once per side, and the side that runs first
alternates from pair to pair.

For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles, the pairs the change wins (ties count for neither
side), whether the claim rule holds (the change wins at least 90% of the
pairs and its median is better than the base's by more than the base's
interquartile range), and what the no-regression rule finds (see
``no_regression``).  ``--out`` writes that summary as JSON, with both
revisions and the host (see ``host``).

The exit code is 1 when an invocation failed a check or a run exited
nonzero, else 0.  SIGTERM or SIGINT stops the running perfbench run, with
the CLI it started, removes the unpacked tree and exits 128 + the signal.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), interpolated between the samples."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def no_regression(base: list[float], change: list[float], bound: float, lower: bool) -> str:
    """``unresolved`` when the base's (q3 - q1) / median exceeds ``bound`` and not every change
    run is better than every base run, as the spread then hides a change of the bound's size;
    else ``within bound`` when the change's median is worse than the base's by at most
    ``bound``, a fraction of the base's median; else ``worse``."""
    (bq1, bmed, bq3), cmed = quartiles(base), quartiles(change)[1]
    every_run_better = all((c < b) if lower else (c > b) for c in change for b in base)
    if bq3 - bq1 > bound * bmed and not every_run_better:
        return "unresolved"
    return "within bound" if (cmed - bmed if lower else bmed - cmed) <= bound * bmed else "worse"


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """Per metric: each side's quartiles, the change's wins, whether the claim rule holds, and
    the no-regression rule's result.

    ``pairs`` holds (base, change) metric values by name, one pair per entry;
    ``metrics`` the ``end_to_end`` entries of ``BENCHMARK.json`` (name, better, bound).
    """
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [b[name] for b, _ in pairs]
        change = [c[name] for _, c in pairs]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        (bq1, bmed, bq3), (cq1, cmed, cq3) = quartiles(base), quartiles(change)
        gap = bmed - cmed if lower else cmed - bmed
        out[name] = {
            "better": metric["better"],
            "base": {"median": bmed, "q1": bq1, "q3": bq3, "values": base},
            "change": {"median": cmed, "q1": cq1, "q3": cq3, "values": change},
            "change_wins": wins,
            "pairs": len(pairs),
            "median_gap": gap,
            "base_iqr": bq3 - bq1,
            "claim_holds": wins >= 0.9 * len(pairs) and gap > bq3 - bq1,
            "bound": metric["bound"],
            "no_regression": no_regression(base, change, metric["bound"], lower),
        }
    return out


def unpack(rev: str, into: Path) -> str:
    """Unpack ``git archive rev`` into ``into``, with the working tree's benchmark copied over
    it; returns the revision's commit id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    shutil.rmtree(into / "perfbench", ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", into / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".perfbench_work"))
    shutil.copy2(ROOT / "BENCHMARK.json", into / "BENCHMARK.json")
    return commit


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def bench(tree: Path, args) -> tuple[dict | None, str]:
    """One perfbench run in ``tree``: its metric values (None if it failed) and its output.

    The run leads a process group of its own, so that whatever stops this one (an
    exception, or a signal through ``_stop``) kills the run and the CLI it started.
    """
    with subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as run:
        try:
            stdout, stderr = run.communicate()
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(run.pid, signal.SIGKILL)
            raise
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None, stdout + stderr
    if run.returncode != 0 or result["failed"] > 0:
        return None, stdout + stderr
    return {name: m["value"] for name, m in result["metrics"].items()}, stdout


def host() -> dict:
    """What the figures depend on besides the code: the Python and numpy versions, the
    number of usable CPUs, and whether ``PYTHONDONTWRITEBYTECODE`` is set (to a nonempty
    value), in which case every CLI run compiles each module it imports."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
    }


def _stop(signum, frame):
    """SIGTERM and SIGINT unwind as an exit: the running perfbench run is killed and the
    temporary tree removed on the way out."""
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args(argv)
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _stop)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    pairs: list[tuple[dict, dict]] = []
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base_tree = Path(tmp)
        base_commit = unpack(args.base, base_tree)
        for i in range(args.pairs):
            sides = [("base", base_tree), ("change", ROOT)]
            result = {}
            for side, tree in sides if i % 2 == 0 else sides[::-1]:
                result[side], output = bench(tree, args)
                if result[side] is None:
                    print(f"pair {i + 1}: the {side} run failed:\n{output}", file=sys.stderr)
                    return 1
            pairs.append((result["base"], result["change"]))
            print(f"pair {i + 1}/{args.pairs}: "
                  + ", ".join(f"{n} {result['base'][n]:.4g} -> {result['change'][n]:.4g}"
                              for n in result["base"]), flush=True)

    summary = summarize(pairs, spec["end_to_end"])
    for name, s in summary.items():
        b, c = s["base"], s["change"]
        print(f"{name:12s} base {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}]  "
              f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]  "
              f"wins {s['change_wins']}/{s['pairs']}  claim rule "
              f"{'holds' if s['claim_holds'] else 'fails'}  no-regression rule: "
              f"{s['no_regression']}")
    if args.out:
        head = _git("rev-parse", "HEAD").strip()
        dirty = bool(_git("status", "--porcelain", "--untracked-files=no").strip())
        Path(args.out).write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "base": base_commit,
            "change": head + ("+working-tree" if dirty else ""),
            **host(),
            "metrics": summary,
        }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
