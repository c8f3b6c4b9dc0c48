"""The three benchmark workloads.

A workload builds its inputs from the seed (`build`), then hands the
runner one round of operations at a time (`ops`). An operation is one
timed call into the program plus an untimed check of its output; every
round runs the same operations. The timed operations are kept short (a
tenth of a second to about a second), so that a run holds many of each
and their median is well resolved. `finish` runs once at the end,
untimed: it makes the checks that need the whole run, and it runs the
workload once at full size (the paper's k, or a full 4096-trial block),
which checks the program there and sets the process's peak memory.
Inputs come from numpy's generator seeded by the benchmark seed, never
from the program's own stream tree, so a change to the program's stream
layout leaves them unchanged.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
from pathlib import Path

import numpy as np

# every module the workloads reach is imported here, so setup_s counts it
from ledplab import anticoncentration, attack, cli, estimator, gadget, graphs  # noqa: F401
from ledplab.rng import Streams

import oracles

GAMMA = 1.0 / 9.0


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def _bits(gen: np.random.Generator, shape) -> np.ndarray:
    return (gen.random(shape) < 0.5).astype(np.uint8)


def _signs(gen: np.random.Generator, k: int, n: int) -> np.ndarray:
    return np.where(gen.random((k, n)) < 0.5, -1, 1).astype(np.int64)


def _er_adjacency(gen: np.random.Generator, n: int, p: float = 0.5) -> np.ndarray:
    upper = np.triu((gen.random((n, n)) < p).astype(np.uint8), k=1)
    return upper | upper.T


class Workload:
    name = ""
    headline = ""  # the operation whose median time is trial_s

    def build(self, seed: int, workdir: Path) -> dict:
        raise NotImplementedError

    def ops(self, state: dict, r: int) -> list:
        """[(label, run, check)] for round r; check(result) -> problems."""
        raise NotImplementedError

    def finish(self, state: dict) -> list[str]:
        return []


# ---------------------------------------------------------------------------


def _check_attack(report, x, n, k, must_recover: bool) -> list[str]:
    """Checks one attack report; k is the count asked for, None for the default."""
    problems = []
    expect_k = oracles.default_query_count(n, GAMMA) if k is None else k
    if report.k != expect_k:
        problems.append(f"k = {report.k}, expected {expect_k}")
    hamming = int(np.count_nonzero(report.best_dataset != x))
    if report.best_hamming != hamming:
        problems.append(f"reported best Hamming {report.best_hamming} != recomputed {hamming}")
    if must_recover:
        cap = math.ceil(GAMMA * n * n)
        if not report.feasible or hamming > cap:
            problems.append(f"n={n}: feasible={report.feasible}, Hamming {hamming} > {cap}")
    return problems


class AttackPrivate(Workload):
    """Criterion 7: the rr gray-box attack at n = 8, plus a high-epsilon cell.

    The secrets are fixed; the seed drives the program's queries, noise
    and restarts. A timed trial asks k/16 = 41,472 queries (under a
    second); the closing check runs one trial at the paper's k. At
    eps = 2 the hill-climb sweep budget is fixed at 4 per restart: with
    the default budget (4 n^2) the number of sweeps ran from 4 to 36
    across seeds.
    """

    name = "attack-private"
    headline = "rr eps=0.05"
    n = 8
    k_share = 16
    cells = ((0.05, None), (2.0, 4))  # (epsilon, sweep budget per restart)
    secret_seed = 2305_02263
    unbiased_n, unbiased_boxes, unbiased_queries = 4, 400, 32

    def build(self, seed, workdir):
        x = _bits(np.random.default_rng(self.secret_seed), (self.n, self.n))
        return {"seed": seed, "x": x, "hammings": []}

    def _trial(self, state, label, eps, budget, k, streams):
        def run():
            return attack.run_attack(
                state["x"], "rr", streams, epsilon=eps, gamma=GAMMA, k=k,
                search="hillclimb", max_sweeps=budget,
            )

        def check(report):
            problems = _check_attack(report, state["x"], self.n, k, False)
            charge = report.charge
            if charge is None or (charge.epsilon, charge.delta) != (2 * eps, 0.0):
                problems.append(f"eps={eps}: charge {charge} is not exactly (2 eps, 0)")
            if eps == self.cells[0][0]:
                state["hammings"].append(report.best_hamming)
            return problems

        return label, run, check

    def ops(self, state, r):
        k = oracles.default_query_count(self.n, GAMMA) // self.k_share
        return [
            self._trial(state, f"rr eps={eps}", eps, budget, k,
                        Streams(state["seed"]).child("private", r, i))
            for i, (eps, budget) in enumerate(self.cells)
        ]

    def finish(self, state):
        eps = self.cells[0][0]
        # the paper's parameters: k = ceil(128 n^2 / gamma^2) = 663,552
        _, run, check = self._trial(state, "", eps, None, None, Streams(state["seed"]).child("paper"))
        problems = [f"paper k: {p}" for p in check(run())]
        n, hammings = self.n, state["hammings"]
        # the lower bound holds for any k, so every eps = 0.05 trial counts
        se = statistics.stdev(hammings) / math.sqrt(len(hammings))
        bound = math.exp(-2 * eps) * n * n / 2
        mean = statistics.fmean(hammings)
        if mean < bound - 4 * se:
            problems.append(f"mean Hamming {mean:.2f} < e^(-2eps) n^2/2 - 4 SE = {bound - 4 * se:.2f}")
        # answers are unbiased for a^T X b over fresh gray boxes (the stored
        # outputs are fixed within one box, so one box is not enough).
        # n = 4 keeps each box's 2^(2n) selection tables cheap.
        n, eps = self.unbiased_n, self.cells[1][0]
        x = state["x"][:n, :n]
        gen = _rng(state["seed"], 7)
        box_means = []
        for t in range(self.unbiased_boxes):
            streams = Streams(state["seed"]).child("unbiased", t)
            box = attack.GrayBox.prepare(x, *attack.mechanism_components("rr", eps), streams.child("prepare"))
            a, b = _signs(gen, self.unbiased_queries, n), _signs(gen, self.unbiased_queries, n)
            answers = box.answer_outer_batch(a, b, streams.child("answers"))
            box_means.append(np.mean(answers - np.einsum("li,ij,lj->l", a, x.astype(np.int64), b)))
        bias = statistics.fmean(box_means)
        se = statistics.stdev(box_means) / math.sqrt(len(box_means))
        if abs(bias) > 4 * se:
            problems.append(f"eps={eps}: answers biased by {bias:.3f} > 4 SE = {4 * se:.3f}")
        return problems


class AttackExact(Workload):
    """Criterion 6: identity and oracle mechanisms at n = 8, identity at n = 10.

    A timed trial asks k/8 queries; the closing check runs every cell
    once at the paper's k, which sets the peak memory (k x n^2 arrays).
    """

    name = "attack-exact"
    headline = "identity n=8"
    k_share = 8
    cells = (("identity", 8), ("oracle", 8), ("identity", 10))
    check_queries = 4096

    def build(self, seed, workdir):
        return {"seed": seed, "x": {n: _bits(_rng(seed, n), (n, n)) for n in (8, 10)}}

    def _trials(self, state, share, *tags):
        """One trial per cell at k/share queries; share None: the default k."""
        out = []
        for i, (mechanism, n) in enumerate(self.cells):
            x = state["x"][n]
            k = None if share is None else oracles.default_query_count(n, GAMMA) // share
            streams = Streams(state["seed"]).child("exact", *tags, i)

            def run(mechanism=mechanism, x=x, k=k, streams=streams):
                return attack.run_attack(x, mechanism, streams, gamma=GAMMA, k=k, search="hillclimb")

            def check(report, x=x, n=n, k=k):
                return _check_attack(report, x, n, k, True)

            out.append((f"{mechanism} n={n}", run, check))
        return out

    def ops(self, state, r):
        return self._trials(state, self.k_share, r)

    def finish(self, state):
        problems = []
        for label, run, check in self._trials(state, None, "paper"):
            problems += [f"paper k, {label}: {p}" for p in check(run())]
        for n, x in state["x"].items():
            streams = Streams(state["seed"]).child("identity-check", n)
            box = attack.GrayBox.prepare(x, *attack.mechanism_components("identity"), streams)
            gen = _rng(state["seed"], 11, n)
            a, b = _signs(gen, self.check_queries, n), _signs(gen, self.check_queries, n)
            answers = box.answer_outer_batch(a, b, streams.child("answers"))
            truth = np.einsum("li,ij,lj->l", a, x.astype(np.int64), b)
            if not np.array_equal(answers, truth):
                bad = int(np.count_nonzero(answers != truth))
                problems.append(f"identity n={n}: {bad}/{len(truth)} answers differ from a^T X b")
        return problems


class CliLarge(Workload):
    """Every output path of the CLI on large graphs, in-process with one worker.

    A timed `estimate` runs 512 trials, one (512, n, n) block; the
    closing check runs one full (4096, n, n) block at n = 128, which sets
    the peak memory. Monte Carlo means are pooled over the run and
    checked once at the end, so a run makes a fixed number of 4-SE tests
    however many rounds it holds.
    """

    name = "cli-large"
    headline = "estimate n=128"
    graph_ns = (80, 104, 128)
    estimate_trials = 512
    full_block = 4096
    epsilon = 1.0
    sweep_ns = (40, 70)
    sweep_trials = 1000
    anticonc_n = 7
    anticonc_count = 200
    gadget_bits = 6
    gadget_trials = 4096
    scaling_ns = (64, 256, 1024, 4096)
    scaling_trials = 1000

    def build(self, seed, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        files = {}
        for n in self.graph_ns:
            a = _er_adjacency(_rng(seed, 3, n), n)
            path = workdir / f"er{n}.txt"
            edges = np.argwhere(np.triu(a, k=1))
            path.write_text(f"{n}\n" + "".join(f"{i} {j}\n" for i, j in edges), encoding="ascii")
            files[n] = (path, a)
        bits = "".join(map(str, _bits(_rng(seed, 2), self.gadget_bits)))
        return {"seed": seed, "workdir": workdir, "files": files, "bits": bits, "pooled": {}}

    @staticmethod
    def _pool(state, key, mean, count, target, variance) -> None:
        """Add `count` samples with this mean to the pool checked by `finish`;
        each sample has expectation `target` and the given variance."""
        pool = state["pooled"].setdefault(key, [0.0, 0, target, variance])
        pool[0] += mean * count
        pool[1] += count

    @staticmethod
    def _main(argv) -> str:
        with contextlib.redirect_stdout(io.StringIO()) as captured:
            status = cli.main([str(v) for v in argv])
        if status != 0:
            raise RuntimeError(f"exit {status}: ledplab {' '.join(map(str, argv))}")
        return captured.getvalue()

    def ops(self, state, r):
        seed = state["seed"] * 1000 + r
        work = state["workdir"]
        common = ["--seed", seed, "--workers", 1]
        out = [self._estimate(state, n, self.estimate_trials, seed) for n in self.graph_ns]

        # complete graphs: their adjacency is known without the program's
        # stream tree, so the closed form needs no copy of its graph sampler
        sweep_out = work / "sweep.csv"
        sweep = ["variance-sweep", "--ns", ",".join(map(str, self.sweep_ns)), "--eps-grid",
                 self.epsilon, "--family", "complete", "--trials", self.sweep_trials,
                 "--format", "csv", "--output", sweep_out, *common]

        def check_sweep(_):
            rows = _csv_rows(sweep_out)
            problems = []
            if [int(row["n"]) for row in rows] != list(self.sweep_ns):
                return [f"variance-sweep: rows for n = {[row['n'] for row in rows]}"]
            for row in rows:
                n = int(row["n"])
                a = 1 - np.eye(n, dtype=np.int64)
                expect = oracles.estimator_variance(a, float(row["epsilon"]))
                got = float(row["var_oracle"])
                if abs(got - expect) > 1e-9 * abs(expect):
                    problems.append(f"variance-sweep n={n}: var_oracle {got!r} != closed form {expect!r}")
                if int(row["t_exact"]) != oracles.triangles(a):
                    problems.append(f"variance-sweep n={n}: t_exact {row['t_exact']} is wrong")
            return problems

        out.append(("variance-sweep", lambda: self._main(sweep), check_sweep))

        anticonc_out = work / "anticoncentration.csv"
        anticonc = ["anticoncentration", "--n", self.anticonc_n, "--count", self.anticonc_count,
                    "--gamma", GAMMA, "--format", "csv", "--output", anticonc_out, *common]

        def check_anticonc(_):
            rows = _csv_rows(anticonc_out)
            problems = [] if len(rows) == self.anticonc_count else [f"anticoncentration: {len(rows)} rows"]
            floor = math.ceil(GAMMA * self.anticonc_n**2)
            for row in rows:
                m = int(row["m"])
                if not floor <= m <= self.anticonc_n**2:
                    problems.append(f"anticoncentration: m = {m} outside [{floor}, n^2]")
                if float(row["tail_exact_or_mc"]) < GAMMA**2 / 16:
                    problems.append(f"anticoncentration: tail {row['tail_exact_or_mc']} < gamma^2/16")
                if float(row["fourth_moment"]) > 9 * self.anticonc_n**4:
                    problems.append(f"anticoncentration: fourth moment {row['fourth_moment']} > 9 n^4")
            return problems

        out.append(("anticoncentration", lambda: self._main(anticonc), check_anticonc))

        gadget_out = work / "gadget.json"
        gadget_argv = ["gadget", "--bits", state["bits"], "--exact", "--eps", self.epsilon,
                       "--trials", self.gadget_trials, "--output", gadget_out, "--seed", seed]

        def check_gadget(_):
            payload = json.loads(gadget_out.read_text())
            bits = [int(c) for c in state["bits"]]
            n, s = len(bits), sum(bits)
            a = oracles.gadget_adjacency(bits)
            problems = []
            if payload["t_exact"] != oracles.triangles(a) or payload["t_exact"] != s * n:
                problems.append(f"gadget: t_exact {payload['t_exact']} != S n = {s * n}")
            var = oracles.estimator_variance(a, self.epsilon) / (n * n)
            self._pool(state, "gadget mean", payload["estimates"]["mean"], self.gadget_trials, s, var)
            return problems

        out.append(("gadget", lambda: self._main(gadget_argv), check_gadget))

        scaling_out = work / "sum-scaling.csv"
        scaling = ["sum-scaling", "--ns", ",".join(map(str, self.scaling_ns)), "--eps", self.epsilon,
                   "--trials", self.scaling_trials, "--format", "csv", "--output", scaling_out, *common]

        def check_scaling(_):
            rows = _csv_rows(scaling_out)
            if [int(row["n"]) for row in rows] != list(self.scaling_ns):
                return [f"sum-scaling: rows for n = {[row['n'] for row in rows]}"]
            problems, errors = [], []
            for row in rows:
                n, error = int(row["n"]), float(row["mean_abs_error_baseline"])
                # the baseline error is |N(0, sigma^2)| with sigma^2 from the oracle
                sigma = math.sqrt(oracles.sum_baseline_variance(n, self.epsilon))
                self._pool(state, f"sum-scaling n={n} mean |error|", error, self.scaling_trials,
                           sigma * math.sqrt(2 / math.pi), sigma * sigma * (1 - 2 / math.pi))
                errors.append(error)
            slope = float(np.polyfit(np.log(self.scaling_ns), np.log(errors), 1)[0])
            reported = float(rows[0]["fitted_exponent"])
            if abs(reported - slope) > 1e-9 or abs(slope - 0.5) > 0.1:
                problems.append(f"sum-scaling: exponent {reported!r} (refit {slope:.4f}) not 0.5 +/- 0.1")
            return problems

        out.append(("sum-scaling", lambda: self._main(scaling), check_scaling))
        return out

    def _estimate(self, state, n, trials, seed):
        path, a = state["files"][n]
        output = state["workdir"] / f"estimate-{n}.json"
        argv = ["estimate", "--graph", path, "--eps", self.epsilon, "--trials", trials,
                "--exact", "--format", "json", "--output", output, "--seed", seed, "--workers", 1]

        def check(_):
            payload = json.loads(output.read_text())
            t = oracles.triangles(a)
            problems = []
            if payload["t_exact"] != t:
                problems.append(f"estimate n={n}: t_exact {payload['t_exact']} != trace(A^3)/6 = {t}")
            if len(payload["estimates"]) != trials:
                problems.append(f"estimate n={n}: {len(payload['estimates'])} estimates, not {trials}")
            var = oracles.estimator_variance(a, self.epsilon)
            self._pool(state, f"estimate n={n} mean", payload["mean"], trials, t, var)
            return problems

        return f"estimate n={n}", lambda: self._main(argv), check

    def finish(self, state):
        n = self.graph_ns[-1]
        _, run, check = self._estimate(state, n, self.full_block, state["seed"])
        problems = [f"full block: {p}" for p in check(run())]
        # the same small invocation twice gives the same bytes
        path, _ = state["files"][self.graph_ns[0]]
        outputs = []
        for tag in ("a", "b"):
            output = state["workdir"] / f"repeat-{tag}.json"
            self._main(["estimate", "--graph", path, "--eps", self.epsilon, "--trials", 512,
                        "--exact", "--seed", state["seed"], "--output", output])
            outputs.append(output.read_bytes())
        if outputs[0] != outputs[1]:
            problems.append("estimate: repeated invocation is not byte-identical")
        for key, (total, count, target, variance) in state["pooled"].items():
            if not oracles.within_sigmas(total / count, target, variance, count):
                problems.append(f"{key} {total / count:.4f} over {count} samples not within 4 SE of {target:.4f}")
        return problems


def _csv_rows(path: Path) -> list[dict]:
    header, *lines = path.read_text().splitlines()
    columns = header.split(",")
    return [dict(zip(columns, line.split(","))) for line in lines]


WORKLOADS = {w.name: w for w in (AttackPrivate(), AttackExact(), CliLarge())}
