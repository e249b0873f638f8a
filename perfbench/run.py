"""Benchmark of the finitepop CLI: one workload per run, end to end or traced.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload run-tall --seed 1 --seconds 30 --trace 0

Set-up makes the workload's inputs and reference outputs from the seed, at
least three times, then the unmodified CLI runs as a child process, one at a
time, until ``--seconds`` would be exceeded (at least three times; a warning
goes to standard error if the hard limit of a run stops it sooner).  Every
invocation's outputs are checked.  ``--trace 1`` alternates untraced
invocations with traced ones (``trace_child.py``) and reports per-layer
metrics instead.  The metric names and units are those of ``BENCHMARK.json``
at the repository root.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
every invocation passed its checks, 1 when one failed, and 2 (with no result
line) when the run could not be set up.  ``--smoke`` shrinks every workload
to a size that runs in seconds, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 3  # set-ups per untraced run, at least ...
SETUP_BUDGET_S = 2.0  # ... and more while their total stays under this
SETUP_MAX_REPEATS = 15
MIN_INVOCATIONS = 3
RUN_LIMIT_S = 170  # no invocation may run past this many seconds after the start


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    traced: bool = False
    problem: str | None = None  # why its outputs failed a check, if they did


def launch(argv: list[str], work: Path, env: dict, timeout: float) -> Invocation:
    """Run one child to completion; its own rusage comes from wait4."""
    with open(work / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        exit_code=proc.returncode,
    )


def child_env() -> dict:
    """The caller's environment with the checkout's sources first on the path.

    ``FINITEPOP_*`` variables are dropped: they would override the configs.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("FINITEPOP_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def digest(work: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        path = work / name
        h.update(name.encode() + b"\0")
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()


def run_context(workload, seed: int, input_bytes: int, smoke: bool) -> dict:
    import numpy
    import yaml

    def command(*argv):
        try:
            out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else None

    llc = command("getconf", "LEVEL3_CACHE_SIZE")
    if llc in (None, "0"):
        llc = command("getconf", "LEVEL2_CACHE_SIZE")
    return {
        "workload": workload.name,
        "seed": seed,
        "smoke": smoke,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": int(llc) if llc and llc.isdigit() else None,
        "commit": command("git", "rev-parse", "HEAD") if (ROOT / ".git").exists() else None,
        "input_bytes": input_bytes,
    }


def self_times(trace: dict) -> tuple[dict, dict]:
    """Summed self time (span minus the part its child spans cover) and calls per name."""
    spans = trace["spans"]
    covered = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    for i, (name, start, end, _) in enumerate(spans):
        self_s[name] += (end - start - covered[i]) / 1e9
        calls[name] += 1
    return self_s, calls


def layer_metrics(traces: list[dict], overhead_ratio: float, names: list[str]) -> dict:
    """Per-layer metrics, each the median over the traced invocations of the run."""
    per_invocation = []
    for trace in traces:
        self_s, calls = self_times(trace)
        values = {"trace.overhead_ratio": overhead_ratio, "cli.import_s": trace["import_s"]}
        for name in names:
            if name in values:
                continue
            base, _, kind = name.rpartition(".")
            if kind == "self_s":
                values[name] = self_s.get(base, 0.0)
            elif kind == "calls" and base in calls:
                values[name] = calls[base]
            else:
                values[name] = trace["counts"].get(name, 0)
        per_invocation.append(values)
    return {name: statistics.median(v[name] for v in per_invocation) for name in names}


def print_self_time_report(traces: list[dict], metrics: dict, units: dict) -> None:
    self_s, calls = self_times(traces[0])
    total = sum(self_s.values())
    print(f"self time of the first traced invocation ({total:.3f} s in spans), largest first:")
    for name, secs in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"  {name:40s} {secs:10.4f} s {100 * secs / total:5.1f}%  calls {calls[name]}")
    always = ("cli.import_s", "trace.overhead_ratio")
    reached = [n for n in metrics
               if n in always or n in traces[0]["counts"] or n.rpartition(".")[0] in calls]
    print("per-layer metrics this workload reaches (median over traced invocations):")
    for name in reached:
        print(f"  {name:45s} {metrics[name]:14.6g} {units[name]}")
    unreached = [n for n in metrics if n not in reached]
    print(f"  not reached, reported as 0: {', '.join(unreached) or 'none'}")


def upper_quartile(values) -> float:
    """The 75th percentile, interpolated between the samples."""
    values = list(values)
    return statistics.quantiles(values, n=4, method="inclusive")[2] if len(values) > 1 else values[0]


def end_to_end_metrics(runs: list[Invocation], setups: list[float], units: int) -> dict:
    """Times are upper quartiles over the run's invocations; see NOTES.md, *Noise*."""
    wall = upper_quartile(r.wall_s for r in runs)
    return {
        "wall_s": wall,
        "cpu_s": upper_quartile(r.cpu_s for r in runs),
        "units_per_s": units / wall,
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "setup_s": statistics.median(setups),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "finitepop" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {ROOT} is not a checkout of finitepop (no src/finitepop/cli.py "
              "or BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import finitepop
    import workloads as wl

    if Path(finitepop.__file__).resolve().parent != SRC / "finitepop":
        print(f"perfbench: imported finitepop from {finitepop.__file__}, not {SRC}", file=sys.stderr)
        return 2
    table = wl.workloads(smoke=args.smoke)
    if args.workload not in table:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(table)}", file=sys.stderr)
        return 2
    workload = table[args.workload]

    started = time.perf_counter()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=WORK_ROOT))
    try:
        return measure(args, spec, wl, workload, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass


def measure(args, spec, wl, workload, work: Path, started: float) -> int:
    setups, input_digests = [], set()
    while True:
        t0 = time.perf_counter()
        prepared = workload.prepare(work, args.seed)
        setups.append(time.perf_counter() - t0)
        input_digests.add(digest(work, prepared.inputs))
        if args.trace or len(setups) >= SETUP_MAX_REPEATS:
            break
        if len(setups) >= SETUP_REPEATS and sum(setups) + max(setups) > SETUP_BUDGET_S:
            break
    if len(input_digests) != 1:
        print("perfbench: set-up wrote different inputs for the same seed", file=sys.stderr)
        return 2
    input_bytes = sum((work / name).stat().st_size for name in prepared.inputs)
    context = run_context(workload, args.seed, input_bytes, args.smoke)

    env = child_env()
    cli_argv = [sys.executable, "-m", "finitepop.cli", *prepared.argv]
    runs: list[Invocation] = []
    traces: list[dict] = []
    checked: dict[str, str | None] = {}  # output digest -> problem found in those bytes
    reference_digest = None  # outputs of the first invocation that passed its checks

    def invoke(traced: bool) -> None:
        nonlocal reference_digest
        for name in prepared.outputs:
            (work / name).unlink(missing_ok=True)
        argv = cli_argv
        spans = work / f"spans-{len(runs)}.json"
        if traced:
            argv = [sys.executable, str(HERE / "trace_child.py"), str(spans), str(len(runs)),
                    *prepared.argv]
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - started))
        inv = launch(argv, work, env, timeout)
        inv.traced = traced
        out = digest(work, prepared.outputs)
        if inv.exit_code != 0:
            stderr = (work / "stderr.txt").read_text(errors="replace")
            inv.problem = f"exit code {inv.exit_code}: {stderr[-300:].strip()}"
        elif reference_digest is not None and out != reference_digest:
            inv.problem = "outputs differ from an earlier invocation of this run"
        else:
            if out not in checked:
                try:
                    workload.check(prepared, work)
                    checked[out] = None
                except wl.CheckFailed as exc:
                    checked[out] = str(exc)
            inv.problem = checked[out]
            if inv.problem is None:
                reference_digest = out
        if traced and inv.exit_code == 0:
            traces.append(json.loads(spans.read_text(encoding="utf-8")))
        runs.append(inv)

    loop_start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        invoke(traced=False)
        if args.trace:
            invoke(traced=True)
        longest = max(longest, time.perf_counter() - t0)
        elapsed = time.perf_counter() - loop_start
        enough = len(runs) >= (2 if args.trace else MIN_INVOCATIONS)
        if time.perf_counter() - started + longest > RUN_LIMIT_S:
            break
        if enough and elapsed + longest > args.seconds:
            break

    untraced = [r for r in runs if not r.traced]
    if not args.trace and len(untraced) < MIN_INVOCATIONS:
        print(f"perfbench: warning: only {len(untraced)} untraced invocations fit in the "
              f"{RUN_LIMIT_S} s limit of a run", file=sys.stderr)
    failed = [r for r in runs if r.problem]
    for r in failed[:5]:
        print(f"perfbench: invocation failed its check: {r.problem}", file=sys.stderr)
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        traced_wall = [r.wall_s for r in runs if r.traced]
        ratio = statistics.median(traced_wall) / statistics.median(r.wall_s for r in untraced)
        metrics = layer_metrics(traces, ratio, names) if traces else {n: 0 for n in names}
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = end_to_end_metrics(untraced, setups, workload.units)
        metrics = {name: metrics[name] for name in units}

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(runs)} invocations ({len(untraced)} untraced), {len(failed)} failed")
    print("context: " + json.dumps(context, sort_keys=True))
    if args.trace:
        if traces:
            print_self_time_report(traces, metrics, units)
    else:
        print(f"  wall_s of {len(untraced)} invocations: "
              + " ".join(f"{r.wall_s:.3f}" for r in untraced))
        print(f"  setup_s of {len(setups)} set-ups: " + " ".join(f"{s:.3f}" for s in setups))
        for name, value in metrics.items():
            print(f"  {name:14s} {value:14.6g} {units[name]}")
    print(f"  {'error_rate':14s} {len(failed) / len(runs):14.6g} ratio ({len(failed)} of {len(runs)})")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
