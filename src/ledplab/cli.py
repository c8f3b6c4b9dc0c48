"""Experiment driver.

Every module is exposed as a subcommand with deterministic seeding:
the same config and seed produce byte-identical output files at any
worker count. Flags mirror config-file keys; flags win on conflict.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from ledplab import __version__
from ledplab.attack import DEFAULT_GAMMA
from ledplab.estimator import MIN_EPSILON
from ledplab.parallel import parallel_map
from ledplab.rng import DEFAULT_SEED, Streams

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ATTACK_FAILED = 3

ESTIMATE_CSV_COLUMNS = ["trial", "t_hat"]
SWEEP_CSV_COLUMNS = [
    "n", "epsilon", "family", "trials", "t_exact", "c4",
    "var_empirical", "var_oracle", "ratio", "seed",
]
ANTICONC_CSV_COLUMNS = [
    "n", "m", "gamma", "threshold", "tail_exact_or_mc",
    "lemma_bound", "fourth_moment", "fourth_bound",
]
SCALING_CSV_COLUMNS = [
    "n", "epsilon", "trials",
    "mean_abs_error_baseline", "mean_abs_error_via_triangles", "fitted_exponent",
]


class UsageError(Exception):
    """Invalid configuration; the message names the offending field."""


# --------------------------------------------------------------------------
# serialization helpers


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (np.integer,)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value):
            return ""
        return repr(value)
    return str(value)


def write_json(path: str, payload: dict) -> None:
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def write_csv(path: str, columns: list[str], rows: list[dict]) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(col)) for col in columns))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# config plumbing


def _number(field: str, value, kind):
    try:
        value = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"{field}: expected {kind.__name__}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise UsageError(f"{field}: must be finite, got {value}")
    return value


def _positive(field: str, value, kind=float):
    value = _number(field, value, kind)
    if value <= 0:
        raise UsageError(f"{field}: must be positive, got {value}")
    return value


def _nonnegative_int(field: str, value) -> int:
    value = _number(field, value, int)
    if value < 0:
        raise UsageError(f"{field}: must be nonnegative, got {value}")
    return value


def _epsilon(field: str, value) -> float:
    """A privacy parameter the triangle estimator accepts."""
    value = _positive(field, value)
    if value < MIN_EPSILON:
        raise UsageError(f"{field}: must be at least {MIN_EPSILON}, got {value}")
    return value


def _number_list(field: str, value, kind) -> list:
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
    elif isinstance(value, (list, tuple)):
        parts = value
    else:
        raise UsageError(f"{field}: expected a comma-separated list, got {value!r}")
    if not parts:
        raise UsageError(f"{field}: expected at least one entry, got {value!r}")
    try:
        return [kind(p) for p in parts]
    except (TypeError, ValueError, OverflowError):
        noun = "integers" if kind is int else "numbers"
        raise UsageError(f"{field}: entries must be {noun}, got {value!r}")


def _resolve(args: argparse.Namespace, defaults: dict, aliases: dict) -> dict:
    """Config file first, command-line flags second, defaults last."""
    cfg = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except FileNotFoundError:
            raise UsageError(f"config: file not found: {args.config}")
        except json.JSONDecodeError as exc:
            raise UsageError(f"config: invalid JSON in {args.config}: {exc}")
        if not isinstance(loaded, dict):
            raise UsageError("config: top level must be an object")
        for key, value in loaded.items():
            cfg[aliases.get(key, key)] = value
    for key, value in vars(args).items():
        if key in ("command", "config", "func", "defaults", "aliases"):
            continue
        if value is not None:
            cfg[key] = value
    for key, value in defaults.items():
        cfg.setdefault(key, value)
    unknown = set(cfg) - set(defaults)
    if unknown:
        raise UsageError(f"{sorted(unknown)[0]}: unknown configuration key")
    return cfg


def _common_defaults(fmt: str) -> dict:
    return {"seed": DEFAULT_SEED, "output": None, "format": fmt, "workers": None}


def _worker_count(cfg) -> int:
    value = cfg.get("workers")
    if value is None:
        value = os.environ.get("LEDPLAB_WORKERS", "1")
    try:
        workers = int(value)
    except (TypeError, ValueError):
        raise UsageError(f"workers: expected integer, got {value!r}")
    if workers < 1:
        raise UsageError(f"workers: must be at least 1, got {workers}")
    return workers


def _output_path(cfg, command: str) -> str:
    if cfg["output"]:
        return cfg["output"]
    return f"{command}.{cfg['format']}"


def _check_format(cfg, allowed: tuple[str, ...]) -> str:
    fmt = cfg["format"]
    if fmt not in allowed:
        raise UsageError(f"format: must be one of {allowed}, got {fmt!r}")
    return fmt


# --------------------------------------------------------------------------
# worker payloads (module level so they pickle)


def _estimate_block(item):
    graph, epsilon, seed, start, stop = item
    from ledplab.estimator import sample_estimates_range

    return sample_estimates_range(graph, epsilon, start, stop, Streams(seed).child("trials"))


def _sweep_cell_item(item):
    family, n, epsilon, trials, seed = item
    from ledplab.estimator import sweep_cell

    return sweep_cell(family, n, epsilon, trials, Streams(seed))


def _sum_row_item(item):
    n, epsilon, trials, triangle_trials, seed = item
    from ledplab.gadget import sum_error_row

    return sum_error_row(n, epsilon, trials, Streams(seed), triangle_trials)


def _anticonc_row_item(item):
    n, m_count, gamma, mc_samples, seed, idx = item
    from ledplab.anticoncentration import random_diff_matrix, tail_row

    node = Streams(seed).child("matrix", idx)
    matrix = random_diff_matrix(n, m_count, node.generator())
    return tail_row(matrix, gamma, node.child("mc"), mc_samples)


# --------------------------------------------------------------------------
# subcommands


def run_estimate(cfg) -> tuple[int, str]:
    from ledplab.estimator import estimate_triangles
    from ledplab.graphs import graph_stats, load_graph

    fmt = _check_format(cfg, ("json", "csv"))
    if not cfg["graph"]:
        raise UsageError("graph: path to a graph file is required")
    try:
        g = load_graph(cfg["graph"])
    except FileNotFoundError:
        raise UsageError(f"graph: file not found: {cfg['graph']}")
    epsilon = _epsilon("eps", cfg["eps"])
    trials = _positive("trials", cfg["trials"], int)
    workers = _worker_count(cfg)
    seed = int(cfg["seed"])
    if cfg["transcript"] and trials != 1:
        raise UsageError("transcript: only available for trials=1")

    block = 4096
    items = [
        (g, epsilon, seed, start, min(start + block, trials))
        for start in range(0, trials, block)
    ]
    chunks = parallel_map(_estimate_block, items, workers)
    estimates = np.concatenate(chunks)

    payload = {
        "command": "estimate",
        "version": __version__,
        "config": {k: cfg[k] for k in ("graph", "eps", "trials", "exact", "transcript", "seed", "format")},
        "seed": seed,
        "n": g.n,
        "trials": trials,
        "mean": float(estimates.mean()),
        "variance": float(estimates.var(ddof=1)) if trials > 1 else None,
        "estimates": [float(v) for v in estimates],
    }
    if cfg["exact"]:
        payload["t_exact"] = int(graph_stats(g.adjacency)[2])
        payload["mean_error"] = payload["mean"] - payload["t_exact"]
    if cfg["transcript"]:
        single, transcript = estimate_triangles(g, epsilon, Streams(seed).child("single"))
        payload["transcript"] = transcript.dump()
        payload["single_run_t_hat"] = single.t_hat
    path = _output_path(cfg, "estimate")
    if fmt == "json":
        write_json(path, payload)
    else:
        rows = [{"trial": t, "t_hat": float(v)} for t, v in enumerate(estimates)]
        write_csv(path, ESTIMATE_CSV_COLUMNS, rows)
    exact_note = f" t_exact={payload.get('t_exact')}" if cfg["exact"] else ""
    return EXIT_OK, (
        f"estimate: n={g.n} eps={epsilon} trials={trials} "
        f"mean={payload['mean']:.6g}{exact_note} -> {path}"
    )


def run_variance_sweep(cfg) -> tuple[int, str]:
    fmt = _check_format(cfg, ("csv", "json"))
    ns = _number_list("ns", cfg["ns"], int)
    if any(n < 3 for n in ns):
        raise UsageError(f"ns: graph sizes must be at least 3, got {ns}")
    eps_grid = [_epsilon("eps_grid", eps) for eps in _number_list("eps_grid", cfg["eps_grid"], float)]
    trials = _positive("trials", cfg["trials"], int)
    if trials < 1000:
        raise UsageError(f"trials: need at least 1000 for a variance sweep, got {trials}")
    family = cfg["family"]
    if family not in ("er05", "empty", "complete"):
        raise UsageError(f"family: must be er05, empty, or complete, got {family!r}")
    workers = _worker_count(cfg)
    seed = int(cfg["seed"])
    items = [(family, n, eps, trials, seed) for n in ns for eps in eps_grid]
    rows = parallel_map(_sweep_cell_item, items, workers)
    path = _output_path(cfg, "variance-sweep")
    if fmt == "csv":
        write_csv(path, SWEEP_CSV_COLUMNS, rows)
    else:
        write_json(path, {"command": "variance-sweep", "version": __version__,
                          "config": {k: cfg[k] for k in ("ns", "eps_grid", "family", "trials", "seed")},
                          "rows": rows})
    worst = max(abs(r["ratio"] - 1.0) for r in rows)
    return EXIT_OK, (
        f"variance-sweep: {len(rows)} cells, max |empirical/oracle - 1| = {worst:.3f} -> {path}"
    )


def run_attack_cmd(cfg) -> tuple[int, str]:
    from ledplab.attack import run_attack

    _check_format(cfg, ("json",))
    n = _positive("n", cfg["n"], int)
    gamma = _positive("gamma", cfg["gamma"])
    if not gamma < 0.5:
        raise UsageError(f"gamma: must be in (0, 1/2), got {gamma}")
    mechanism = cfg["mechanism"]
    if mechanism not in ("rr", "identity", "oracle"):
        raise UsageError(f"mechanism: must be rr, identity, or oracle, got {mechanism!r}")
    search = cfg["search"]
    if search not in ("auto", "exhaustive", "hillclimb"):
        raise UsageError(f"search: must be auto, exhaustive, or hillclimb, got {search!r}")
    epsilon = cfg["epsilon"]
    if mechanism == "rr":
        epsilon = _positive("epsilon", epsilon)
    k = cfg["k"]
    if k is not None:
        k = _positive("k", k, int)
    budget = cfg["budget"]
    if budget is not None:
        budget = _positive("budget", budget, int)
    seed = int(cfg["seed"])
    streams = Streams(seed)
    x = (streams.child("dataset").generator().random((n, n)) < 0.5).astype(np.uint8)
    report = run_attack(
        x,
        mechanism,
        streams.child("attack"),
        epsilon=epsilon,
        gamma=gamma,
        k=k,
        search=search,
        max_sweeps=budget,
    )
    payload = report.to_dict()
    payload["command"] = "attack"
    payload["version"] = __version__
    payload["config"] = {
        "n": n, "gamma": gamma, "k": k, "epsilon": epsilon,
        "mechanism": mechanism, "search": search, "budget": budget, "seed": seed,
    }
    path = _output_path(cfg, "attack")
    write_json(path, payload)
    status = EXIT_OK if report.feasible else EXIT_ATTACK_FAILED
    return status, (
        f"attack: mechanism={mechanism} n={n} k={report.k} feasible={report.feasible} "
        f"hamming={report.best_hamming} -> {path}"
    )


def run_anticoncentration(cfg) -> tuple[int, str]:
    fmt = _check_format(cfg, ("csv", "json"))
    n = _positive("n", cfg["n"], int)
    count = _positive("count", cfg["count"], int)
    gamma = _positive("gamma", cfg["gamma"])
    if gamma > 1:
        raise UsageError(f"gamma: must be at most 1, got {gamma}")
    mc_samples = _positive("mc_samples", cfg["mc_samples"], int)
    workers = _worker_count(cfg)
    seed = int(cfg["seed"])
    m_floor = math.ceil(gamma * n * n)
    size_gen = Streams(seed).child("sizes").generator()
    sizes = size_gen.integers(m_floor, n * n + 1, size=count)
    items = [
        (n, int(sizes[i]), gamma, mc_samples, seed, i) for i in range(count)
    ]
    rows = parallel_map(_anticonc_row_item, items, workers)
    for row in rows:
        row["tail_exact_or_mc"] = row.pop("tail")
    path = _output_path(cfg, "anticoncentration")
    if fmt == "csv":
        write_csv(path, ANTICONC_CSV_COLUMNS, rows)
    else:
        write_json(path, {"command": "anticoncentration", "version": __version__,
                          "config": {k: cfg[k] for k in ("n", "count", "gamma", "mc_samples", "seed")},
                          "rows": rows})
    violations = sum(1 for r in rows if r["tail_exact_or_mc"] < r["lemma_bound"])
    return EXIT_OK, (
        f"anticoncentration: {count} matrices at n={n}, "
        f"{violations} below the gamma^2/16 bound -> {path}"
    )


def run_gadget(cfg) -> tuple[int, str]:
    from ledplab.gadget import build_sum_gadget, sample_sum_via_triangles
    from ledplab.graphs import graph_stats

    _check_format(cfg, ("json",))
    bits_text = cfg["bits"]
    if not bits_text or any(c not in "01" for c in str(bits_text)):
        raise UsageError(f"bits: expected a string of 0s and 1s, got {bits_text!r}")
    x = np.array([int(c) for c in str(bits_text)], dtype=np.uint8)
    n = len(x)
    s = int(x.sum())
    seed = int(cfg["seed"])
    payload = {
        "command": "gadget",
        "version": __version__,
        "config": {k: cfg[k] for k in ("bits", "eps", "trials", "exact", "seed")},
        "seed": seed,
        "n": n,
        "s": s,
    }
    if cfg["exact"]:
        g, _ = build_sum_gadget(x)
        t = int(graph_stats(g.adjacency)[2])
        payload["t_exact"] = t
        payload["identity_holds"] = t == s * n
    trials = _nonnegative_int("trials", cfg["trials"])
    if trials > 0:
        epsilon = _epsilon("eps", cfg["eps"])
        estimates = sample_sum_via_triangles(x, epsilon, trials, Streams(seed).child("mc"))
        payload["estimates"] = {
            "trials": trials,
            "mean": float(estimates.mean()),
            "std": float(estimates.std(ddof=1)) if trials > 1 else None,
        }
    path = _output_path(cfg, "gadget")
    write_json(path, payload)
    summary = f"gadget: n = {n}, S = {s}"
    if "t_exact" in payload:
        summary = f"gadget: T = {payload['t_exact']}, S = {s}, n = {n}"
    return EXIT_OK, summary + f" -> {path}"


def run_sum_scaling(cfg) -> tuple[int, str]:
    from ledplab.gadget import fit_log_log_exponent

    fmt = _check_format(cfg, ("csv", "json"))
    ns = _number_list("ns", cfg["ns"], int)
    if any(n < 1 for n in ns):
        raise UsageError(f"ns: input lengths must be positive, got {ns}")
    epsilon = _positive("eps", cfg["eps"])
    trials = _positive("trials", cfg["trials"], int)
    triangle_trials = _nonnegative_int("triangle_trials", cfg["triangle_trials"])
    if triangle_trials:
        # the triangle route runs the estimator; the baseline takes any eps > 0
        epsilon = _epsilon("eps", epsilon)
    workers = _worker_count(cfg)
    seed = int(cfg["seed"])
    items = [(n, epsilon, trials, triangle_trials, seed) for n in ns]
    rows = parallel_map(_sum_row_item, items, workers)
    exponent = (
        fit_log_log_exponent(ns, [r["mean_abs_error_baseline"] for r in rows])
        if len(ns) >= 2
        else None
    )
    for row in rows:
        row["fitted_exponent"] = exponent
    path = _output_path(cfg, "sum-scaling")
    if fmt == "csv":
        write_csv(path, SCALING_CSV_COLUMNS, rows)
    else:
        write_json(path, {"command": "sum-scaling", "version": __version__,
                          "config": {k: cfg[k] for k in ("ns", "eps", "trials", "triangle_trials", "seed")},
                          "rows": rows})
    exp_text = "n/a" if exponent is None else f"{exponent:.3f}"
    return EXIT_OK, f"sum-scaling: {len(rows)} sizes, fitted exponent {exp_text} -> {path}"


# --------------------------------------------------------------------------
# selftest battery


def _selftest_checks(seed: int):
    from itertools import product as iproduct

    from ledplab import anticoncentration as ac
    from ledplab import attack, estimator, gadget, graphs, ledp

    def triangles_known():
        assert graphs.count_triangles(graphs.complete_graph(4)) == 4
        assert graphs.count_triangles(graphs.complete_graph(5)) == 10
        assert graphs.count_triangles(graphs.path_graph(3)) == 0

    def triangles_trace_agree():
        gen = Streams(seed).child("st-trace").generator()
        for _ in range(20):
            g = graphs.erdos_renyi(int(gen.integers(3, 11)), gen.random(), gen)
            a = g.adjacency.astype(np.int64)
            assert graphs.count_triangles(g) == int(np.trace(a @ a @ a)) // 6

    def four_cycles_known():
        assert graphs.count_four_cycles(graphs.complete_graph(4)) == 3
        assert graphs.count_four_cycles(graphs.cycle_graph(4)) == 1
        assert graphs.count_four_cycles(graphs.complete_bipartite(3, 3)) == 9

    def randomizer_arithmetic():
        assert abs(ledp.flip_probability(math.log(3)) - 0.25) < 1e-12
        assert abs(estimator.rescale(1, math.log(3)) - 1.5) < 1e-12
        assert abs(estimator.rescale(0, math.log(3)) + 0.5) < 1e-12

    def ledger_compose():
        p = ledp.PrivacyParams(0.5, 0.01)
        assert ledp.compose_ledger([p, p]) == ledp.PrivacyParams(1.0, 0.02)
        assert ledp.compose_ledger([]) == ledp.PrivacyParams(0.0, 0.0)

    def variance_routes_agree():
        gen = Streams(seed).child("st-var").generator()
        for _ in range(5):
            g = graphs.erdos_renyi(int(gen.integers(3, 6)), gen.random(), gen)
            eps = float(gen.uniform(0.4, 2.0))
            dec = estimator.exact_variance(g, eps)
            enum = estimator.variance_by_enumeration(g, eps)
            assert abs(dec - enum) <= 1e-9 * max(1.0, abs(enum))

    def split_identity():
        gen = Streams(seed).child("st-split").generator()
        for _ in range(20):
            n = int(gen.integers(2, 8))
            x = (gen.random((n, n)) < 0.5).astype(np.uint8)
            q = attack.OuterProductQuery(gen.choice((-1, 1), n), gen.choice((-1, 1), n))
            q1, q2, q3, combine = attack.split_outer_product(q)
            got = combine(
                attack.submatrix_answer(x, q1),
                attack.submatrix_answer(x, q2),
                attack.submatrix_answer(x, q3),
            )
            assert got == attack.outer_product_answer(x, q)

    def query_graph_identity():
        gen = Streams(seed).child("st-query").generator()
        for _ in range(20):
            n = int(gen.integers(2, 6))
            x = (gen.random((n, n)) < 0.5).astype(np.uint8)
            q = attack.SubmatrixQuery(
                (gen.random(n) < 0.5).astype(np.uint8),
                (gen.random(n) < 0.5).astype(np.uint8),
            )
            g = attack.build_query_graph(x, q)
            assert graphs.count_triangles(g) == n * attack.submatrix_answer(x, q)

    def gadget_identity():
        for n in (1, 2, 3, 4):
            for bits in iproduct((0, 1), repeat=n):
                x = np.array(bits, dtype=np.uint8)
                g, _ = gadget.build_sum_gadget(x)
                assert graphs.count_triangles(g) == int(x.sum()) * n

    def moment_identities():
        gen = Streams(seed).child("st-moments").generator()
        for _ in range(20):
            n = int(gen.integers(1, 6))
            m = ac.random_diff_matrix(n, int(gen.integers(0, n * n + 1)), gen)
            mean, second, fourth = ac.moments_exhaustive(m)
            assert mean == 0
            assert second == m.m
            assert fourth <= 9 * n**4

    def graybox_exactness():
        gen = Streams(seed).child("st-graybox").generator()
        for trial in range(5):
            n = int(gen.integers(2, 5))
            x = (gen.random((n, n)) < 0.5).astype(np.uint8)
            family, post = attack.mechanism_components("identity")
            box = attack.GrayBox.prepare(x, family, post, Streams(seed).child("st-gb", trial))
            q = attack.SubmatrixQuery(
                (gen.random(n) < 0.5).astype(np.uint8),
                (gen.random(n) < 0.5).astype(np.uint8),
            )
            got = box.answer_submatrix(q, Streams(seed).child("st-gb-ans", trial))
            assert got == attack.submatrix_answer(x, q)

    return [
        ("triangle-counts-known", triangles_known),
        ("triangle-counts-trace-agreement", triangles_trace_agree),
        ("four-cycle-counts-known", four_cycles_known),
        ("randomizer-arithmetic", randomizer_arithmetic),
        ("ledger-composition", ledger_compose),
        ("variance-oracle-vs-enumeration", variance_routes_agree),
        ("outer-product-split-identity", split_identity),
        ("query-graph-triangle-identity", query_graph_identity),
        ("sum-gadget-identity", gadget_identity),
        ("sign-statistic-moment-identities", moment_identities),
        ("graybox-exact-answers", graybox_exactness),
    ]


def run_selftest(cfg) -> tuple[int, str]:
    _check_format(cfg, ("json",))
    seed = int(cfg["seed"])
    results = []
    for name, fn in _selftest_checks(seed):
        try:
            fn()
            results.append({"name": name, "passed": True, "detail": ""})
            print(f"ok {name}")
        except AssertionError as exc:
            results.append({"name": name, "passed": False, "detail": str(exc)})
            print(f"FAIL {name}: {exc}")
    passed = all(r["passed"] for r in results)
    payload = {
        "command": "selftest",
        "version": __version__,
        "seed": seed,
        "checks": results,
        "passed": passed,
    }
    path = _output_path(cfg, "selftest")
    write_json(path, payload)
    status = EXIT_OK if passed else 1
    return status, f"selftest: {sum(r['passed'] for r in results)}/{len(results)} checks passed -> {path}"


# --------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ledplab",
        description="Local edge differential privacy experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--seed", type=int, help=f"master seed (default {DEFAULT_SEED})")
        p.add_argument("--output", help="output file path")
        p.add_argument("--format", choices=("json", "csv"), help="output format")
        p.add_argument("--workers", type=int, help="worker processes (default $LEDPLAB_WORKERS or 1)")

    p = sub.add_parser("estimate", help="noisy triangle estimate on a graph file")
    add_common(p)
    p.add_argument("--graph", help="graph file (first line n, then 'i j' edges)")
    p.add_argument("--eps", type=float, help="privacy parameter")
    p.add_argument("--trials", type=int, help="number of independent runs (default 1)")
    p.add_argument("--exact", action="store_true", default=None, help="include the exact count")
    p.add_argument("--transcript", action="store_true", default=None,
                   help="include the transcript dump (trials=1 only)")
    p.set_defaults(func=run_estimate, aliases={}, defaults={
        "graph": None, "eps": None, "trials": 1, "exact": False, "transcript": False,
        **_common_defaults("json"),
    })

    p = sub.add_parser("variance-sweep", help="empirical vs oracle estimator variance")
    add_common(p)
    p.add_argument("--ns", help="comma-separated graph sizes (default 8,12)")
    p.add_argument("--eps-grid", dest="eps_grid", help="comma-separated epsilons (default 0.5,1,2)")
    p.add_argument("--family", choices=("er05", "empty", "complete"), help="graph family")
    p.add_argument("--trials", type=int, help="trials per cell (default 10000)")
    p.set_defaults(func=run_variance_sweep, aliases={}, defaults={
        "ns": "8,12", "eps_grid": "0.5,1,2", "family": "er05", "trials": 10000,
        **_common_defaults("csv"),
    })

    p = sub.add_parser("attack", help="reconstruction attack on a random secret dataset")
    add_common(p)
    p.add_argument("--n", type=int, help="dataset side length (default 8)")
    p.add_argument("--gamma", type=float, help="reconstruction parameter (default 1/9)")
    p.add_argument("--k", type=int, help="query count (default ceil(128 n^2 / gamma^2))")
    p.add_argument("--epsilon", "--eps", dest="epsilon", type=float,
                   help="mechanism privacy parameter (rr only)")
    p.add_argument("--mechanism", choices=("rr", "identity", "oracle"), help="mechanism under attack")
    p.add_argument("--search", choices=("auto", "exhaustive", "hillclimb"), help="search strategy")
    p.add_argument("--budget", type=int, help="hill-climb sweep budget per restart")
    p.set_defaults(func=run_attack_cmd, aliases={"eps": "epsilon"}, defaults={
        "n": 8, "gamma": DEFAULT_GAMMA, "k": None, "epsilon": None,
        "mechanism": "rr", "search": "auto", "budget": None,
        **_common_defaults("json"),
    })

    p = sub.add_parser("anticoncentration", help="tail bounds for random sign-sandwich statistics")
    add_common(p)
    p.add_argument("--n", type=int, help="matrix side (default 6)")
    p.add_argument("--count", type=int, help="number of random matrices (default 200)")
    p.add_argument("--gamma", type=float, help="density parameter (default 1/9)")
    p.add_argument("--mc-samples", dest="mc_samples", type=int,
                   help="samples when n exceeds the enumeration cap (default 20000)")
    p.set_defaults(func=run_anticoncentration, aliases={}, defaults={
        "n": 6, "count": 200, "gamma": DEFAULT_GAMMA, "mc_samples": 20000,
        **_common_defaults("csv"),
    })

    p = sub.add_parser("gadget", help="summation gadget: exact identity and noisy estimates")
    add_common(p)
    p.add_argument("--bits", help="input bits, e.g. 101")
    p.add_argument("--eps", type=float, help="privacy parameter for estimates")
    p.add_argument("--trials", type=int, help="estimate trials (default 0: skip)")
    p.add_argument("--exact", action="store_true", default=None,
                   help="report exact triangle count and the S*n identity")
    p.set_defaults(func=run_gadget, aliases={}, defaults={
        "bits": None, "eps": None, "trials": 0, "exact": False,
        **_common_defaults("json"),
    })

    p = sub.add_parser("sum-scaling", help="summation error growth against input length")
    add_common(p)
    p.add_argument("--ns", help="comma-separated input lengths (default 64,256,1024,4096)")
    p.add_argument("--eps", type=float, help="privacy parameter (default 1.0)")
    p.add_argument("--trials", type=int, help="baseline trials per length (default 10000)")
    p.add_argument("--triangle-trials", dest="triangle_trials", type=int,
                   help="gadget-route trials per length (default 0: skip)")
    p.set_defaults(func=run_sum_scaling, aliases={}, defaults={
        "ns": "64,256,1024,4096", "eps": 1.0, "trials": 10000, "triangle_trials": 0,
        **_common_defaults("csv"),
    })

    p = sub.add_parser("selftest", help="run the built-in invariant battery")
    add_common(p)
    p.set_defaults(func=run_selftest, aliases={}, defaults=_common_defaults("json"))

    return parser



def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args, args.defaults, args.aliases)
        status, summary = args.func(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(summary)
    return status


if __name__ == "__main__":
    sys.exit(main())
