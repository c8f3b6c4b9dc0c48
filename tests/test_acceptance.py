"""Acceptance battery: one test per release criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to see
them). Tolerances are fixed here, not tuned at runtime.
"""

import math
import time
from itertools import product

import numpy as np

from ledplab.anticoncentration import (
    moments_exhaustive,
    random_diff_matrix,
    tail_probability_exhaustive,
)
from ledplab.attack import (
    OuterProductQuery,
    SubmatrixQuery,
    attacker_reconstruct,
    build_query_graph,
    default_query_count,
    privacy_distance_diagnostic,
    run_attack,
    sample_query_signs,
    split_outer_product,
    submatrix_answer,
)
from ledplab.cli import main as cli_main
from ledplab.estimator import (
    exact_variance,
    sample_estimates,
    variance_by_enumeration,
)
from ledplab.gadget import build_sum_gadget, sample_sum_baseline
from ledplab.graphs import (
    complete_graph,
    count_triangles,
    cycle_graph,
    erdos_renyi,
    save_graph,
    star_graph,
)
from ledplab.rng import Streams


def report(criterion: str, passed: bool, detail: str, started: float):
    elapsed = time.time() - started
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {detail} [{elapsed:.1f}s]")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_query_graph_triangle_identity():
    started = time.time()
    gen = Streams(9001).generator()
    checked = 0
    for _ in range(500):
        n = int(gen.integers(2, 7))
        x = (gen.random((n, n)) < 0.5).astype(np.uint8)
        q = SubmatrixQuery(
            (gen.random(n) < 0.5).astype(np.uint8), (gen.random(n) < 0.5).astype(np.uint8)
        )
        lhs = count_triangles(build_query_graph(x, q))
        rhs = n * submatrix_answer(x, q)
        if lhs != rhs:
            report("criterion 1 (query-graph identity)", False,
                   f"mismatch at n={n}: {lhs} != {rhs}", started)
        checked += 1
    report("criterion 1 (query-graph identity)", True,
           f"{checked}/500 instances exact", started)


def test_criterion_2_outer_product_decomposition():
    started = time.time()
    gen = Streams(9002).generator()
    for _ in range(1000):
        n = int(gen.integers(1, 11))
        x = (gen.random((n, n)) < 0.5).astype(np.uint8)
        q = OuterProductQuery(gen.choice((-1, 1), n), gen.choice((-1, 1), n))
        q1, q2, q3, combine = split_outer_product(q)
        got = combine(
            submatrix_answer(x, q1), submatrix_answer(x, q2), submatrix_answer(x, q3)
        )
        if got != int(q.a @ x.astype(np.int64) @ q.b):  # a^T X b
            report("criterion 2 (outer-product decomposition)", False,
                   f"mismatch at n={n}", started)
    report("criterion 2 (outer-product decomposition)", True,
           "1000/1000 instances exact", started)


def test_criterion_3_estimator_unbiasedness():
    started = time.time()
    trials = 10**5
    graphs = {
        "K4": complete_graph(4),
        "C5": cycle_graph(5),
        "S10": star_graph(10),
        "ER(12,0.5)": erdos_renyi(12, 0.5, Streams(9003).child("graph").generator()),
    }
    details = []
    for name, g in graphs.items():
        t_true = count_triangles(g)
        for eps in (0.5, 1.0, 2.0):
            streams = Streams(9003).child("mc", g.n, int(eps * 1000))
            estimates = sample_estimates(g, eps, trials, streams)
            tol = 4.0 * math.sqrt(exact_variance(g, eps) / trials)
            err = abs(float(estimates.mean()) - t_true)
            if err > tol:
                report("criterion 3 (unbiasedness)", False,
                       f"{name} eps={eps}: |mean-T|={err:.4f} > {tol:.4f}", started)
            details.append(f"{name}@{eps}")
    report("criterion 3 (unbiasedness)", True,
           f"12/12 cells within 4 sigma of exact counts at 1e5 trials", started)


def test_criterion_4_variance_exactness():
    started = time.time()
    gen = Streams(9004).generator()
    for _ in range(50):
        n = int(gen.integers(3, 7))  # at most 15 potential edges
        g = erdos_renyi(n, gen.random(), gen)
        eps = float(gen.uniform(0.3, 2.5))
        dec = exact_variance(g, eps)
        enum = variance_by_enumeration(g, eps)
        if abs(dec - enum) > 1e-9 * max(1.0, abs(enum)):
            report("criterion 4 (variance exactness)", False,
                   f"decomposition {dec} vs enumeration {enum}", started)
    g = erdos_renyi(12, 0.5, Streams(9004).child("er12").generator())
    estimates = sample_estimates(g, 1.0, 10**5, Streams(9004).child("mc"))
    ratio = float(estimates.var(ddof=1)) / exact_variance(g, 1.0)
    ok = abs(ratio - 1.0) <= 0.10
    report("criterion 4 (variance exactness)", ok,
           f"50/50 enumeration matches; empirical/oracle = {ratio:.4f}", started)


def test_criterion_5_anticoncentration():
    started = time.time()
    gen = Streams(9005).generator()
    for gamma in (1.0 / 9.0, 1.0 / 4.0, 1.0):
        bound = gamma * gamma / 16.0
        for _ in range(200):
            n = int(gen.integers(2, 7))
            m_floor = math.ceil(gamma * n * n)
            m = random_diff_matrix(n, int(gen.integers(m_floor, n * n + 1)), gen)
            mean, second, fourth = moments_exhaustive(m)
            tail = tail_probability_exhaustive(m, math.sqrt(m.m) / 2.0)
            if mean != 0 or second != m.m or fourth > 9 * m.n**4 or tail < bound:
                report("criterion 5 (anti-concentration)", False,
                       f"violation at n={m.n}, m={m.m}, gamma={gamma}", started)
    report("criterion 5 (anti-concentration)", True,
           "600 instances: exact moments and tail >= gamma^2/16", started)


def test_criterion_6_reconstruction_demonstration():
    started = time.time()
    n, gamma = 8, 1.0 / 9.0
    hamming_cap = math.ceil(gamma * n * n)  # 8
    for mechanism in ("oracle", "identity"):
        successes = 0
        for trial in range(20):
            streams = Streams(9006).child(mechanism, trial)
            x = (streams.child("x").generator().random((n, n)) < 0.5).astype(np.uint8)
            rep = run_attack(x, mechanism, streams.child("run"), gamma=gamma,
                             search="hillclimb")
            assert rep.k == default_query_count(n, gamma)
            if rep.feasible and rep.hamming <= hamming_cap:
                successes += 1
        if successes < 19:  # >= 95% of 20
            report("criterion 6 (reconstruction)", False,
                   f"{mechanism}: only {successes}/20 within Hamming {hamming_cap}", started)
    exact_recoveries = 0
    for trial in range(10):
        streams = Streams(9006).child("exhaustive", trial)
        x = (streams.child("x").generator().random((3, 3)) < 0.5).astype(np.uint8)
        k = default_query_count(3, gamma)
        a, b = sample_query_signs(3, k, streams.child("queries"))
        answers = np.einsum(
            "li,ij,lj->l", a.astype(float), x.astype(float), b.astype(float)
        )
        rep = attacker_reconstruct(answers, a, b, 3, gamma=gamma,
                                   search="exhaustive", x_true=x)
        if rep.feasible and rep.hamming == 0:
            exact_recoveries += 1
    ok = exact_recoveries == 10
    report("criterion 6 (reconstruction)", ok,
           f"oracle and identity >= 19/20 within Hamming {hamming_cap}; "
           f"exhaustive n=3 exact {exact_recoveries}/10", started)


def test_criterion_7_privacy_distance_bound():
    started = time.time()
    n, eps = 8, 0.05
    diag = privacy_distance_diagnostic(
        "rr", n, 50, Streams(9007), epsilon=eps, search="hillclimb"
    )
    bound = math.exp(-2 * eps) * 0.5 * n * n
    floor = bound - 4 * diag["se_hamming"]
    ok = diag["mean_hamming"] >= floor
    report("criterion 7 (privacy-distance bound)", ok,
           f"mean Hamming {diag['mean_hamming']:.2f} >= {bound:.2f} - 4*SE "
           f"({floor:.2f}) over 50 trials", started)


def test_criterion_8_gadget_identity():
    started = time.time()
    n = 8
    for bits in product((0, 1), repeat=n):
        x = np.array(bits, dtype=np.uint8)
        g, _ = build_sum_gadget(x)
        if count_triangles(g) != int(x.sum()) * n:
            report("criterion 8 (gadget identity)", False,
                   f"mismatch at bits={bits}", started)
    report("criterion 8 (gadget identity)", True,
           "all 256 bit-vectors at n=8 give T = S*n exactly", started)


def test_criterion_9_sum_error_scaling():
    started = time.time()
    ns = [64, 256, 1024, 4096]
    trials = 10**4
    errors = []
    for n in ns:
        streams = Streams(9009).child(n)
        x = (streams.child("x").generator().random(n) < 0.5).astype(np.uint8)
        s = int(x.sum())
        estimates = sample_sum_baseline(x, 1.0, trials, streams.child("mc"))
        errors.append(float(np.abs(estimates - s).mean()))
    slope = float(np.polyfit(np.log(ns), np.log(errors), 1)[0])
    ok = abs(slope - 0.5) <= 0.1
    report("criterion 9 (sum-error scaling)", ok,
           f"fitted exponent {slope:.4f} within 0.5 +/- 0.1", started)


def test_criterion_10_cli_determinism(tmp_path, monkeypatch):
    started = time.time()
    monkeypatch.chdir(tmp_path)
    save_graph(complete_graph(4), tmp_path / "k4.txt")
    invocations = {
        "estimate": ["estimate", "--graph", "k4.txt", "--eps", "1",
                     "--trials", "5000", "--seed", "7"],
        "variance-sweep": ["variance-sweep", "--ns", "8", "--eps-grid", "1",
                           "--trials", "1000", "--seed", "7"],
        "attack": ["attack", "--mechanism", "rr", "--epsilon", "1", "--n", "4",
                   "--k", "2000", "--seed", "7", "--search", "hillclimb"],
        "anticoncentration": ["anticoncentration", "--n", "5", "--count", "30",
                              "--seed", "7"],
        "gadget": ["gadget", "--bits", "10110", "--exact", "--eps", "1",
                   "--trials", "500", "--seed", "7"],
        "sum-scaling": ["sum-scaling", "--ns", "32,64", "--trials", "1000",
                        "--seed", "7"],
        "selftest": ["selftest", "--seed", "7"],
    }
    for name, args in invocations.items():
        outputs = []
        for tag, workers in (("a", "1"), ("b", "1"), ("c", "4")):
            path = tmp_path / f"{name}-{tag}.out"
            status = cli_main(args + ["--workers", workers, "--output", str(path)])
            if name == "attack":
                assert status in (0, 3)
            else:
                assert status == 0
            outputs.append(path.read_bytes())
        if not (outputs[0] == outputs[1] == outputs[2]):
            report("criterion 10 (CLI determinism)", False,
                   f"{name} output differs across runs/worker counts", started)
    report("criterion 10 (CLI determinism)", True,
           "7 subcommands byte-identical across reruns and workers {1,4}", started)
