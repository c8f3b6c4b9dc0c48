"""Experiment driver.

Every subcommand is declared once, in the COMMANDS table: per option its
flags, config key, type, default, choices, bounds and help text; per
command its help text, output formats and run function. Config-file
values and flags pass the same checks, and flags win on conflict. Each
subcommand calls one library driver in-process, and one shared step
writes its JSON or CSV output, so the same config and seed give
byte-identical output files. ``--workers`` and ``$LEDPLAB_WORKERS`` are
still accepted and validated, but have no effect: every run is one
process. ``selftest`` is one table: each row runs a fast path the other
subcommands print from and its enumeration oracle on the same small
seeded inputs. ``attack --mechanism oracle`` is another name for
``identity``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ledplab import __version__
from ledplab.attack import DEFAULT_GAMMA, EXHAUSTIVE_MAX_BITS, default_query_count
from ledplab.estimator import MIN_EPSILON
from ledplab.rng import DEFAULT_SEED, Streams

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ATTACK_FAILED = 3

# Upper bounds of the count and size fields, each set so the first array
# the field sizes stays near 1 GB or below, well inside a 7 GB host.
TRIALS_MAX = 10**7  # one float64 estimate a trial: 80 MB
SIZE_MAX = 10**4  # one (n, n) float64 draw: 800 MB
GADGET_BITS_MAX = SIZE_MAX // 3  # the gadget graph has 3 vertices a bit
SIGNS_MAX = 1 << 27  # attack k * n: one (k, n) int64 sign draw, 1 GiB
MATRIX_MAX = 1 << 10  # with MC_SAMPLES_MAX, (samples, n) float32 signs and products: 410 MB each
MC_SAMPLES_MAX = 10**5
MATRICES_MAX = 10**6
EPS_MAX = 700  # e^eps stays finite (math.exp overflows past 709.78)


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
# option specs and config plumbing


@dataclass(frozen=True)
class Opt:
    """One option of a subcommand.

    `type` is bool, str, int, float, or [int] / [float] for a comma-separated
    list. Every float option is a positive quantity. `low` and `high` bound
    a number, or each list entry, inclusively; `each` names a list entry in
    error messages; `choices` lists the allowed strings.
    """

    key: str
    flags: tuple
    type: object
    default: object
    help: str
    choices: tuple = ()
    low: object = None
    high: object = None
    each: str = ""


@dataclass(frozen=True)
class Command:
    """One subcommand: its options, output formats (the first is the
    default, unless the --output suffix names another), CSV columns and
    run function. `run(cfg, given)` takes the checked values and the
    values as given, and returns (exit status, JSON payload, CSV rows,
    summary line)."""

    name: str
    help: str
    run: Callable
    options: tuple
    formats: tuple = ("json",)
    columns: tuple = ()


def _common_options(formats: tuple) -> tuple:
    return (
        Opt("seed", ("--seed",), int, DEFAULT_SEED, "master seed", low=0),
        Opt("output", ("--output",), str, None, "output file path (default <command>.<format>)"),
        Opt("format", ("--format",), str, formats[0],
            "output format; if not given, the --output suffix when it is one of the choices",
            choices=formats),
        Opt("workers", ("--workers",), int, None,
            "accepted but has no effect: every run is one process "
            "(default $LEDPLAB_WORKERS or 1)", low=1),
    )


def _help(opt: Opt) -> str:
    notes = []
    if opt.default is not None and opt.type is not bool:
        notes.append(f"default {opt.default:g}" if opt.type is float else f"default {opt.default}")
    if opt.high is not None:
        notes.append(f"at most {opt.high}")
    return f"{opt.help} ({'; '.join(notes)})" if notes else opt.help


def _convert(value, kind):
    # a JSON true is not 1, and a JSON 2.9 is not the int 2
    if isinstance(value, bool) or (kind is int and isinstance(value, float)):
        raise TypeError(value)
    return kind(value)


def _number(field: str, value, kind):
    try:
        return _convert(value, kind)
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"{field}: expected {kind.__name__}, got {value!r}")


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
        return [_convert(p, kind) for p in parts]
    except (TypeError, ValueError, OverflowError):
        noun = "integers" if kind is int else "numbers"
        raise UsageError(f"{field}: entries must be {noun}, got {value!r}")


def _bounded(opt: Opt, value):
    field = f"{opt.key}: {opt.each} " if opt.each else f"{opt.key}: "
    if isinstance(value, float):
        if not math.isfinite(value):
            raise UsageError(f"{field}must be finite, got {value}")
        if value <= 0:
            raise UsageError(f"{field}must be positive, got {value}")
    if opt.low is not None and value < opt.low:
        rule = {0: "be nonnegative", 1: "be positive"}.get(opt.low, f"be at least {opt.low}")
        raise UsageError(f"{field}must {rule}, got {value}")
    if opt.high is not None and value > opt.high:
        raise UsageError(f"{field}must be at most {opt.high}, got {value}")
    return value


def _check(opt: Opt, value):
    """One value, from a flag or a config file alike, checked against its spec."""
    if value is None and opt.default is None:
        return None
    if opt.type in (bool, str):
        if not isinstance(value, opt.type):
            expected = "true or false" if opt.type is bool else "a string"
            raise UsageError(f"{opt.key}: expected {expected}, got {value!r}")
        if opt.choices and value not in opt.choices:
            raise UsageError(f"{opt.key}: must be one of {opt.choices}, got {value!r}")
        return value
    if isinstance(opt.type, list):
        return [_bounded(opt, v) for v in _number_list(opt.key, value, opt.type[0])]
    return _bounded(opt, _number(opt.key, value, opt.type))


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"config: file not found: {path}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config: invalid JSON in {path}: {exc}")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"config: cannot read {path} as UTF-8 text: {exc}")
    if not isinstance(loaded, dict):
        raise UsageError("config: top level must be an object")
    return loaded


def _resolve(spec: Command, args: argparse.Namespace) -> tuple[dict, dict]:
    """Config file first, command-line flags over it, defaults last, where
    the format's default is the --output suffix when that is one of the
    command's formats; then every value is checked. Returns (checked
    values, values as given)."""
    options = _common_options(spec.formats) + spec.options
    # a config key is an option's key or any of its flag names
    keys = {f.lstrip("-").replace("-", "_"): opt.key for opt in options for f in opt.flags}
    given = {}
    if args.config is not None:
        for key, value in _load_config(args.config).items():
            given[keys.get(key, key)] = value
    for opt in options:
        if getattr(args, opt.key) is not None:
            given[opt.key] = getattr(args, opt.key)
    unknown = set(given) - {opt.key for opt in options}
    if unknown:
        raise UsageError(f"{sorted(unknown)[0]}: unknown configuration key")
    if given.get("workers") is None:
        given["workers"] = os.environ.get("LEDPLAB_WORKERS", "1")
    suffix = os.path.splitext(str(given.get("output") or ""))[1][1:]
    if "format" not in given and suffix in spec.formats:
        given["format"] = suffix
    for opt in options:
        given.setdefault(opt.key, opt.default)
    return {opt.key: _check(opt, given[opt.key]) for opt in options}, given


def _require(cfg, key: str, when: str = "") -> None:
    if cfg[key] is None:
        raise UsageError(f"{key}: a value is required{when}")


def _estimator_epsilon(epsilon: float) -> None:
    # the estimator's rescaling needs MIN_EPSILON; the sum baseline takes any eps > 0
    if epsilon < MIN_EPSILON:
        raise UsageError(f"eps: must be at least {MIN_EPSILON}, got {epsilon}")


# --------------------------------------------------------------------------
# subcommands


def run_estimate(cfg, given):
    from ledplab.estimator import estimate_triangles, sample_estimates
    from ledplab.graphs import GraphFormatError, graph_stats, load_graph

    _require(cfg, "graph")
    _require(cfg, "eps")
    try:
        g = load_graph(cfg["graph"], SIZE_MAX)
    except FileNotFoundError:
        raise UsageError(f"graph: file not found: {cfg['graph']}")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"graph: cannot read {cfg['graph']} as ASCII text: {exc}")
    except GraphFormatError as exc:
        raise UsageError(f"graph: {exc}")
    epsilon, trials, seed = cfg["eps"], cfg["trials"], cfg["seed"]
    if cfg["transcript"] and trials != 1:
        raise UsageError("transcript: only available for trials=1")

    estimates = sample_estimates(g, epsilon, trials, Streams(seed).child("trials"))
    payload = {
        "config": {k: given[k] for k in ("graph", "eps", "trials", "exact", "transcript", "seed", "format")},
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
        # the recorded run is trial 0 of the run above, so its T_hat is estimates[0]
        single_t_hat, transcript = estimate_triangles(g, epsilon, Streams(seed).child("trials"))
        payload["transcript"] = transcript.dump()
        payload["single_run_t_hat"] = single_t_hat
    rows = None
    if cfg["format"] == "csv":
        rows = [{"trial": t, "t_hat": v} for t, v in enumerate(payload["estimates"])]
    exact_note = f" t_exact={payload['t_exact']}" if cfg["exact"] else ""
    return EXIT_OK, payload, rows, (
        f"estimate: n={g.n} eps={epsilon} trials={trials} "
        f"mean={payload['mean']:.6g}{exact_note}"
    )


def run_variance_sweep(cfg, given):
    from ledplab.estimator import variance_sweep

    rows = variance_sweep(cfg["ns"], cfg["eps_grid"], cfg["family"], cfg["trials"], Streams(cfg["seed"]))
    # n >= 3, so the s^3 C(n,3) term is positive unless it underflows
    for r in rows:
        if not r["var_oracle"] > 0:
            raise UsageError(
                f"eps_grid: the variance oracle underflows to 0 at eps = {r['epsilon']} "
                f"(family {r['family']}, n = {r['n']}); lower --eps-grid"
            )
    payload = {"config": {k: given[k] for k in ("ns", "eps_grid", "family", "trials", "seed")}, "rows": rows}
    worst = max(abs(r["ratio"] - 1.0) for r in rows)
    return EXIT_OK, payload, rows, (
        f"variance-sweep: {len(rows)} cells, max |empirical/oracle - 1| = {worst:.3f}"
    )


def run_attack_cmd(cfg, given):
    from ledplab.attack import run_attack

    n, gamma, k, mechanism = cfg["n"], cfg["gamma"], cfg["k"], cfg["mechanism"]
    if not gamma < 0.5:
        raise UsageError(f"gamma: must be in (0, 1/2), got {gamma}")
    if mechanism == "rr":
        _require(cfg, "epsilon", " for mechanism rr")
    if cfg["search"] == "exhaustive" and n * n > EXHAUSTIVE_MAX_BITS:
        raise UsageError(f"search: exhaustive needs n^2 at most {EXHAUSTIVE_MAX_BITS}, got n = {n}")
    queries = default_query_count(n, gamma) if k is None else k
    if queries * n > SIGNS_MAX:
        shown = k if k is not None else f"the default ceil(128 n^2 / gamma^2) = {queries}"
        raise UsageError(f"k: must be at most {SIGNS_MAX // n} at n = {n}, got {shown}")
    streams = Streams(cfg["seed"])
    x = (streams.child("dataset").generator().random((n, n)) < 0.5).astype(np.uint8)
    report = run_attack(
        x,
        mechanism,
        streams.child("attack"),
        epsilon=cfg["epsilon"],
        gamma=gamma,
        k=k,
        search=cfg["search"],
        max_sweeps=cfg["budget"],
    )
    payload = report.to_dict()
    payload["config"] = {
        key: cfg[key] for key in ("n", "gamma", "k", "epsilon", "mechanism", "search", "budget", "seed")
    }
    status = EXIT_OK if report.feasible else EXIT_ATTACK_FAILED
    return status, payload, None, (
        f"attack: mechanism={mechanism} n={n} k={report.k} feasible={report.feasible} "
        f"hamming={report.best_hamming}"
    )


def run_anticoncentration(cfg, given):
    from ledplab.anticoncentration import tail_report

    n, count = cfg["n"], cfg["count"]
    rows = tail_report(n, count, cfg["gamma"], Streams(cfg["seed"]), cfg["mc_samples"])
    for row in rows:
        row["tail_exact_or_mc"] = row.pop("tail")
    payload = {"config": {k: given[k] for k in ("n", "count", "gamma", "mc_samples", "seed")}, "rows": rows}
    violations = sum(1 for r in rows if r["tail_exact_or_mc"] < r["lemma_bound"])
    return EXIT_OK, payload, rows, (
        f"anticoncentration: {count} matrices at n={n}, "
        f"{violations} below the gamma^2/16 bound"
    )


def run_gadget(cfg, given):
    from ledplab.gadget import build_sum_gadget, sample_sum_via_triangles
    from ledplab.graphs import graph_stats

    bits_text = cfg["bits"]
    if not bits_text or any(c not in "01" for c in bits_text):
        raise UsageError(f"bits: expected a string of 0s and 1s, got {bits_text!r}")
    if len(bits_text) > GADGET_BITS_MAX:
        raise UsageError(f"bits: must be at most {GADGET_BITS_MAX} long, got {len(bits_text)}")
    x = np.array([int(c) for c in bits_text], dtype=np.uint8)
    n = len(x)
    s = int(x.sum())
    seed = cfg["seed"]
    payload = {
        "config": {k: given[k] for k in ("bits", "eps", "trials", "exact", "seed")},
        "seed": seed,
        "n": n,
        "s": s,
    }
    if cfg["exact"]:
        g, _ = build_sum_gadget(x)
        t = int(graph_stats(g.adjacency)[2])
        payload["t_exact"] = t
        payload["identity_holds"] = t == s * n
    trials = cfg["trials"]
    if trials > 0:
        _require(cfg, "eps", " for trials > 0")
        _estimator_epsilon(cfg["eps"])
        estimates = sample_sum_via_triangles(x, cfg["eps"], trials, Streams(seed).child("mc"))
        payload["estimates"] = {
            "trials": trials,
            "mean": float(estimates.mean()),
            "std": float(estimates.std(ddof=1)) if trials > 1 else None,
        }
    summary = f"gadget: n = {n}, S = {s}"
    if "t_exact" in payload:
        summary = f"gadget: T = {payload['t_exact']}, S = {s}, n = {n}"
    return EXIT_OK, payload, None, summary


def run_sum_scaling(cfg, given):
    from ledplab.gadget import sum_error_scaling

    if cfg["triangle_trials"] > 0:
        _estimator_epsilon(cfg["eps"])
        if max(cfg["ns"]) > GADGET_BITS_MAX:
            raise UsageError(
                f"ns: must be at most {GADGET_BITS_MAX} when triangle_trials > 0, got {max(cfg['ns'])}"
            )
    rows, exponent = sum_error_scaling(
        cfg["ns"], cfg["eps"], cfg["trials"], Streams(cfg["seed"]), cfg["triangle_trials"]
    )
    payload = {
        "config": {k: given[k] for k in ("ns", "eps", "trials", "triangle_trials", "seed")},
        "rows": rows,
    }
    exp_text = "n/a" if math.isnan(exponent) else f"{exponent:.3f}"
    return EXIT_OK, payload, rows, f"sum-scaling: {len(rows)} sizes, fitted exponent {exp_text}"


# --------------------------------------------------------------------------
# selftest: each fast path against its enumeration oracle


def _selftest_rows(seed: int):
    """(name, inputs, fast path, oracle, relative tolerance) rows; a side maps an input to numbers."""
    from ledplab import anticoncentration as ac
    from ledplab import attack, estimator, gadget, graphs, ledp

    node = Streams(seed).child("selftest")
    gen = node.generator()
    gs = [graphs.erdos_renyi(n, gen.random(), gen) for n in (3, 4, 5, 6, 9, 12)]
    small = [(g, float(gen.uniform(0.4, 2.0))) for g in gs[:4]]  # at most 15 pairs to enumerate
    ms = [ac.random_diff_matrix(n, int(gen.integers(0, n * n + 1)), gen) for n in (1, 2, 4, 6, 7)]
    padded = np.stack([np.pad(m.entries, (0, 7 - m.n)) for m in ms])  # one batch; zeros keep each U's law
    thresholds = [math.sqrt(m.m) / 2 for m in ms]
    n, eps, x = 4, 1.0, (gen.random((4, 4)) < 0.5).astype(np.uint8)
    qs = [attack.SubmatrixQuery(*(gen.random((2, n)) < 0.5)) for _ in range(8)]
    bit_vectors = [v for r in range(1, 5) for v in (np.arange(1 << r)[:, None] >> np.arange(r)) & 1]
    a, b = attack.sample_query_signs(n, 6, node.child("queries"))
    boxes = [attack.GrayBox.prepare(x, *attack.mechanism_components(m, eps), node.child(m))
             for m in ("identity", "rr")]
    tri = lambda g: int(graphs.graph_stats(g.adjacency)[2])

    def block_tri(g):  # g's pair bits, zero column last, gathered as the estimator gathers a trial
        bits = np.append(g.adjacency[np.triu_indices(g.n, k=1)], 0)
        return int(graphs.gathered_stats(bits[graphs.gather_map(g.n)][None], g.n)[2][0])

    def rr_slots(box):  # slot j's 6 public-pair bits, 53 bits each: 6 uint16s of its 2 words, 6 tie words
        answers, slots = node.child("answers"), 3 * len(a)
        h = answers.generator().bit_generator.random_raw(2 * slots).astype("<u8").view("<u2").reshape(slots, 8)
        ties = answers.child("ties").generator().bit_generator.random_raw(6 * slots).reshape(slots, 6) >> 27
        draws = [[(int(hi) << 37) + int(lo) for hi, lo in zip(*pair)] for pair in zip(h[:, :6], ties)]
        w = np.array(draws) < math.ceil(ledp.flip_probability(eps) * 2**53)
        for l, query in enumerate(map(attack.OuterProductQuery, a, b)):
            *parts, combine = attack.split_outer_product(query)  # public vertices own 3, 2, 1, 0 pairs
            yield combine(*(box.post(box._assemble(np.concatenate([q.q1, q.q2]), np.split(w[3 * l + t], [3, 5, 6])))
                            / n for t, q in enumerate(parts)))

    return [
        ("graph-stats", gs, tri, graphs.count_triangles, 0),
        ("block-stats", gs, block_tri, graphs.count_triangles, 0),  # odd n: padded blocks
        ("codegree-pairs", gs, lambda g: graphs.codegree_pairs(g.adjacency),
         lambda g: 2 * graphs.count_four_cycles(g), 0),
        ("exact-variance", small, lambda c: estimator.exact_variance(*c),
         lambda c: estimator.variance_by_enumeration(*c), 1e-9),
        ("estimator-mean", small, lambda c: tri(c[0]), lambda c: estimator._enumeration_moments(*c)[0], 1e-9),
        ("fourth-moment", [padded], ac.fourth_moments, lambda _: [ac.moments_exhaustive(m)[2] for m in ms], 0),
        ("half-enumeration-tail", [padded], lambda e: 2 * ac.tail_counts(e, thresholds) / 4**7,
         lambda _: [np.count_nonzero(abs(ac._all_products(m)) > t) / 4**m.n for m, t in zip(ms, thresholds)], 0),
        ("query-graph-identity", qs, lambda q: n * attack.submatrix_answer(x, q),
         lambda q: graphs.count_triangles(attack.build_query_graph(x, q)), 0),
        ("sum-gadget-identity", bit_vectors, lambda v: int(v.sum()) * len(v),
         lambda v: graphs.count_triangles(gadget.build_sum_gadget(v)[0]), 0),
        ("batch-answers", boxes, lambda box: box.answer_outer_batch(a, b, node.child("answers")),
         lambda box: [*rr_slots(box)] if box._form else np.einsum("li,ij,lj->l", a, x.astype(int), b), 0),
    ]


def run_selftest(cfg, given):
    results = []
    for name, inputs, fast, oracle, rel in _selftest_rows(cfg["seed"]):
        got, want = ([v for c in inputs for v in np.ravel(side(c)).tolist()] for side in (fast, oracle))
        bad = [i for i, (f, o) in enumerate(zip(got, want)) if not abs(f - o) <= rel * max(1, abs(o))]
        detail = (f"{len(got)} fast entries, {len(want)} oracle" if len(got) != len(want) else
                  f"entry {bad[0]}: fast {got[bad[0]]!r}, oracle {want[bad[0]]!r}" if bad else "")
        results.append({"name": name, "passed": not detail, "detail": detail})
        print(f"FAIL {name}: {detail}" if detail else f"ok {name}")
    passed = all(r["passed"] for r in results)
    return EXIT_OK if passed else 1, {"seed": cfg["seed"], "checks": results, "passed": passed}, None, (
        f"selftest: {sum(r['passed'] for r in results)}/{len(results)} checks passed")


# --------------------------------------------------------------------------
# the subcommand table


COMMANDS = {spec.name: spec for spec in (
    Command("estimate", "noisy triangle estimate on a graph file", run_estimate, (
        Opt("graph", ("--graph",), str, None, "graph file (first line n, then 'i j' edges)"),
        Opt("eps", ("--eps",), float, None, "privacy parameter", low=MIN_EPSILON, high=EPS_MAX),
        Opt("trials", ("--trials",), int, 1, "number of independent runs", low=1, high=TRIALS_MAX),
        Opt("exact", ("--exact",), bool, False, "include the exact count"),
        Opt("transcript", ("--transcript",), bool, False, "include the transcript dump (trials=1 only)"),
    ), ("json", "csv"), ("trial", "t_hat")),
    Command("variance-sweep", "empirical vs oracle estimator variance", run_variance_sweep, (
        Opt("ns", ("--ns",), [int], "8,12", "comma-separated graph sizes",
            low=3, high=SIZE_MAX, each="graph sizes"),
        Opt("eps_grid", ("--eps-grid",), [float], "0.5,1,2", "comma-separated epsilons",
            low=MIN_EPSILON, high=EPS_MAX),
        Opt("family", ("--family",), str, "er05", "graph family", choices=("er05", "empty", "complete")),
        Opt("trials", ("--trials",), int, 10000, "trials per cell", low=1000, high=TRIALS_MAX),
    ), ("csv", "json"), (
        "n", "epsilon", "family", "trials", "t_exact", "c4",
        "var_empirical", "var_oracle", "ratio", "seed",
    )),
    Command("attack", "reconstruction attack on a random secret dataset", run_attack_cmd, (
        Opt("n", ("--n",), int, 8, "dataset side length", low=1, high=SIZE_MAX),
        Opt("gamma", ("--gamma",), float, DEFAULT_GAMMA, "reconstruction parameter, below 1/2"),
        Opt("k", ("--k",), int, None,
            f"query count, default ceil(128 n^2 / gamma^2); k * n at most {SIGNS_MAX}", low=1),
        Opt("epsilon", ("--epsilon", "--eps"), float, None, "mechanism privacy parameter (rr only)",
            low=MIN_EPSILON, high=EPS_MAX),
        Opt("mechanism", ("--mechanism",), str, "rr", "mechanism under attack (oracle: identity)",
            choices=("rr", "identity", "oracle")),
        Opt("search", ("--search",), str, "auto", "search strategy",
            choices=("auto", "exhaustive", "hillclimb")),
        Opt("budget", ("--budget",), int, None, "hill-climb sweep budget, default 4 n^2",
            low=1),
    )),
    Command("anticoncentration", "tail bounds for random sign-sandwich statistics", run_anticoncentration, (
        Opt("n", ("--n",), int, 6, "matrix side", low=1, high=MATRIX_MAX),
        Opt("count", ("--count",), int, 200, "number of random matrices", low=1, high=MATRICES_MAX),
        Opt("gamma", ("--gamma",), float, DEFAULT_GAMMA, "density parameter", high=1),
        Opt("mc_samples", ("--mc-samples",), int, 20000, "samples when n exceeds the enumeration cap",
            low=1000, high=MC_SAMPLES_MAX),
    ), ("csv", "json"), (
        "n", "m", "gamma", "threshold", "tail_exact_or_mc",
        "lemma_bound", "fourth_moment", "fourth_bound",
    )),
    Command("gadget", "summation gadget: exact identity and noisy estimates", run_gadget, (
        Opt("bits", ("--bits",), str, None, f"input bits, e.g. 101; at most {GADGET_BITS_MAX} of them"),
        Opt("eps", ("--eps",), float, None, f"privacy parameter for estimates, at least {MIN_EPSILON}",
            high=EPS_MAX),
        Opt("trials", ("--trials",), int, 0, "estimate trials (0: skip)", low=0, high=TRIALS_MAX),
        Opt("exact", ("--exact",), bool, False, "report exact triangle count and the S*n identity"),
    )),
    Command("sum-scaling", "summation error growth against input length", run_sum_scaling, (
        Opt("ns", ("--ns",), [int], "64,256,1024,4096",
            f"comma-separated input lengths, at most {GADGET_BITS_MAX} with --triangle-trials",
            low=1, high=SIZE_MAX, each="input lengths"),
        Opt("eps", ("--eps",), float, 1.0,
            f"privacy parameter, at least {MIN_EPSILON} with --triangle-trials", high=EPS_MAX),
        Opt("trials", ("--trials",), int, 10000, "baseline trials per length", low=1, high=TRIALS_MAX),
        Opt("triangle_trials", ("--triangle-trials",), int, 0, "gadget-route trials per length (0: skip)",
            low=0, high=TRIALS_MAX),
    ), ("csv", "json"), (
        "n", "epsilon", "trials",
        "mean_abs_error_baseline", "mean_abs_error_via_triangles", "fitted_exponent",
    )),
    Command("selftest", "check each fast kernel against its enumeration oracle", run_selftest, ()),
)}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand in COMMANDS, built once a process:
    parsing leaves it unchanged, so each in-process main call shares it."""
    parser = argparse.ArgumentParser(
        prog="ledplab",
        description="Local edge differential privacy experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for spec in COMMANDS.values():
        p = sub.add_parser(spec.name, help=spec.help)
        p.add_argument("--config", help="JSON config file; flags override its keys")
        for opt in _common_options(spec.formats) + spec.options:
            if opt.type is bool:
                kind = {"action": "store_true", "default": None}
            elif opt.choices:
                kind = {"metavar": "{" + ",".join(opt.choices) + "}"}
            else:
                kind = {"type": opt.type} if opt.type in (int, float) else {}
            p.add_argument(*opt.flags, dest=opt.key, help=_help(opt), **kind)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    spec = COMMANDS[args.command]
    try:
        cfg, given = _resolve(spec, args)
        status, payload, rows, summary = spec.run(cfg, given)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    path = cfg["output"] or f"{spec.name}.{cfg['format']}"
    if cfg["format"] == "csv":
        write_csv(path, spec.columns, rows)
    else:
        write_json(path, {"command": spec.name, "version": __version__, **payload})
    print(f"{summary} -> {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
