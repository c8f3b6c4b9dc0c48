"""Run one ledplab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from its
`src/` directory and nothing else. The run repeats whole rounds of the
workload's operations until S seconds have passed (at least one round),
then makes the workload's closing checks, and prints as its last line
one JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 an
untraced pass is followed by a traced pass of as many rounds, and the
metrics are the per-layer ones plus the tracing overhead. Spans and
results are written under `.perfbench-out/` in the checkout.
`--workload all` runs every workload, one after another, each in its
own process, and prints one result line per workload.

Every time is a median of ratios: each timed call is divided by the
fastest of a few passes of a fixed reference kernel run just before it,
and scaled back to seconds by the kernel's time on a reference host (see
`reference_time`). On a shared host the same code runs slower in phases
that last from a second to minutes; the kernel, timed next to each call,
is slowed by the same phase, and the median drops the calls where the
two were not.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

# One BLAS thread: the box has two cores, and a second BLAS thread next to
# the interpreter makes timings depend on whatever else is running.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 9
REFERENCE_REPEATS = 3
# About the fastest time of `reference_kernel` on the host the reference
# figures in README.md were measured on, so scaled times read as seconds there.
REFERENCE_S = 0.0025

_REF = np.random.default_rng(0)
_REF_TABLE = _REF.random(1 << 16)
_REF_INDEX = _REF.integers(0, 1 << 16, 200_000)
_REF_MATRIX = _REF.random((120, 120))


def reference_kernel() -> float:
    """Time one pass of a fixed mix of interpreter, gather and BLAS work."""
    t0 = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    _REF_TABLE[_REF_INDEX].sum()
    m = _REF_MATRIX
    for _ in range(4):
        m = np.tanh(m @ _REF_MATRIX * 1e-2)
    return time.perf_counter() - t0


reference_kernel()  # warm: the first pass loads code and pages


def reference_time(passes: int = REFERENCE_REPEATS) -> float:
    """The fastest of a few passes of the reference kernel: the host's
    speed right now. A time t measured next to it reads as
    t * REFERENCE_S / reference_time() seconds at the reference speed."""
    return min(reference_kernel() for _ in range(passes))


def _import_program() -> None:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import ledplab

    if Path(ledplab.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"ledplab imported from {ledplab.__file__}, not from {SRC}")
    import workloads  # noqa: F401  (imports every ledplab module the workloads call)


# Imports the program and the workloads in a fresh interpreter, then
# prints how long that took and the fastest of a few passes of the
# reference kernel there. argv: passes, then the directories to import from.
_TIME_IMPORTS = """
import time
t0 = time.perf_counter()
import sys
sys.path[:0] = sys.argv[2:]
import workloads
imported = time.perf_counter() - t0
import run
print(imported, run.reference_time(int(sys.argv[1])))
"""


def setup_seconds(workload, seed, workdir) -> tuple[float, dict]:
    """Set-up time and the workload's inputs: the median of several imports
    of the program, each in a fresh interpreter and scaled by the reference
    kernel timed in that interpreter, plus the median of several builds of
    the inputs (a few milliseconds, not scaled)."""
    argv = [sys.executable, "-c", _TIME_IMPORTS, str(REFERENCE_REPEATS + 2), str(SRC), str(HERE)]
    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
        imported, reference = map(float, child.stdout.split()[-2:])
        imports.append(imported * REFERENCE_S / reference)
        t0 = time.perf_counter()
        state = workload.build(seed, workdir)
        builds.append(time.perf_counter() - t0)
    return statistics.median(imports) + statistics.median(builds), state


def run_rounds(workload, state, seconds, rounds=None, first=0):
    """Run whole rounds until `seconds` have passed, or exactly `rounds`,
    numbered from `first`. Each call is timed next to the reference
    kernel, and its scaled time is kept."""
    stats = {"times": defaultdict(list), "rounds": 0, "attempted": 0, "failed": 0, "problems": []}
    begin = time.perf_counter()
    r = first
    while True:
        for label, run, check in workload.ops(state, r):
            stats["attempted"] += 1
            reference = reference_time()
            t0 = time.perf_counter()
            try:
                result = run()
            except Exception:
                stats["failed"] += 1
                print(f"failed: {workload.name} round {r} {label}", file=sys.stderr)
                traceback.print_exc()
                continue
            elapsed = time.perf_counter() - t0
            stats["times"][label].append(elapsed * REFERENCE_S / reference)
            print(f"round {r} {label}: {elapsed:.4f} s, reference {reference * 1e3:.3f} ms", file=sys.stderr)
            try:
                problems = check(result)
            except Exception as exc:  # a malformed output is a wrong output
                problems = [f"check raised {exc!r}"]
            stats["problems"] += [f"round {r} {label}: {p}" for p in problems]
        r += 1
        stats["rounds"] = r - first
        if rounds is not None:
            if r - first >= rounds:
                return stats
        elif time.perf_counter() - begin >= seconds:
            return stats


def medians(stats) -> dict:
    """Median scaled time of each operation over the run's rounds."""
    return {label: statistics.median(times) for label, times in stats["times"].items()}


def _finish(workload, state) -> list[str]:
    t0 = time.perf_counter()
    try:
        return workload.finish(state)
    except Exception:
        traceback.print_exc()
        return ["finish: the closing checks raised"]
    finally:
        print(f"closing step: {time.perf_counter() - t0:.3f} s", file=sys.stderr)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(list(WORKLOADS), args)

    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    try:
        setup_s, state = setup_seconds(workload, args.seed, workdir)

        if args.trace:
            from spans import Tracer

            plain = run_rounds(workload, state, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                # rounds numbered on from the untraced ones: a round's number
                # picks its seeds, and the checks pooled over the run count
                # every round as independent samples
                traced = run_rounds(workload, state, 0, rounds=plain["rounds"], first=plain["rounds"])
                totals = tracer.totals()
                # still traced, so rss_rise_mb sees the full-size closing calls
                closing = _finish(workload, state)
            finally:
                tracer.uninstall()
            passes = (plain, traced)
            overhead = sum(medians(traced).values()) - sum(medians(plain).values())
            metrics = tracer.per_layer(totals, traced["rounds"], overhead)
            OUT.mkdir(exist_ok=True)
            tracer.save(OUT / f"trace-{tag}.npz")
            if tracer.absent:
                print("absent: " + " ".join(tracer.absent))
        else:
            stats = run_rounds(workload, state, args.seconds)
            passes = (stats,)
            closing = _finish(workload, state)
            typical = medians(stats)
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "wall_s": {"value": sum(typical.values()), "unit": "s"},
                "trial_s": {"value": typical[workload.headline], "unit": "s"},
                "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
            }
        problems = [p for s in passes for p in s["problems"]] + closing
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print(f"incorrect: {args.workload}: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(s["attempted"] for s in passes),
        "failed": sum(s["failed"] for s in passes),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(names, args) -> int:
    """Run each workload in a process of its own; print its result line."""
    status = 0
    for name in names:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.strip().splitlines()
        if child.returncode or not lines:
            print(f"error: {name} exited {child.returncode}", file=sys.stderr)
            status = 1
            continue
        print(json.dumps({"workload": name, **json.loads(lines[-1])}))
    return status


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    try:
        _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        sys.exit(1)
    sys.exit(main())
