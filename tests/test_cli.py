import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ledplab
from ledplab import anticoncentration, attack, estimator, graphs
from ledplab.anticoncentration import tail_report
from ledplab.cli import EPS_MAX, _jsonable, build_parser, main
from ledplab.estimator import sample_estimates, variance_sweep
from ledplab.gadget import sum_error_scaling
from ledplab.graphs import complete_graph, erdos_renyi, load_graph, save_graph
from ledplab.rng import Streams


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_graph(complete_graph(4), tmp_path / "k4.txt")
    return tmp_path


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def test_estimate_byte_identical_runs(workdir, capsys):
    args = ["estimate", "--graph", "k4.txt", "--eps", "1", "--trials", "1000", "--seed", "7"]
    assert run_cli(*args, "--output", "a.json") == 0
    assert run_cli(*args, "--output", "b.json") == 0
    assert (workdir / "a.json").read_bytes() == (workdir / "b.json").read_bytes()
    payload = json.loads((workdir / "a.json").read_text())
    assert payload["trials"] == 1000
    assert payload["seed"] == 7
    assert payload["version"]
    assert len(payload["estimates"]) == 1000


def test_estimate_workers_invariant(workdir):
    base = ["estimate", "--graph", "k4.txt", "--eps", "1", "--trials", "9000", "--seed", "3"]
    assert run_cli(*base, "--workers", "1", "--output", "w1.json") == 0
    assert run_cli(*base, "--workers", "4", "--output", "w4.json") == 0
    assert (workdir / "w1.json").read_bytes() == (workdir / "w4.json").read_bytes()


def test_estimate_csv_and_transcript(workdir):
    assert run_cli("estimate", "--graph", "k4.txt", "--eps", "1", "--trials", "5",
                   "--format", "csv", "--output", "e.csv") == 0
    lines = (workdir / "e.csv").read_text().split("\n")
    assert lines[0] == "trial,t_hat"
    assert len(lines) == 7  # header + 5 rows + trailing newline
    assert run_cli("estimate", "--graph", "k4.txt", "--eps", "1", "--trials", "1",
                   "--transcript", "--output", "t.json") == 0
    payload = json.loads((workdir / "t.json").read_text())
    assert "invocations" in payload["transcript"]
    assert payload["transcript"]["ledger"]["epsilon_total"] == 1.0


def test_variance_sweep_deterministic_across_workers(workdir):
    base = ["variance-sweep", "--ns", "8", "--eps-grid", "0.5,1", "--trials", "1000", "--seed", "11"]
    assert run_cli(*base, "--workers", "1", "--output", "v1.csv") == 0
    assert run_cli(*base, "--workers", "4", "--output", "v4.csv") == 0
    assert (workdir / "v1.csv").read_bytes() == (workdir / "v4.csv").read_bytes()
    header = (workdir / "v1.csv").read_text().split("\n")[0]
    assert header == "n,epsilon,family,trials,t_exact,c4,var_empirical,var_oracle,ratio,seed"


def test_attack_subcommand_and_exit_codes(workdir):
    args = ["attack", "--mechanism", "identity", "--n", "4", "--k", "3000",
            "--seed", "5", "--search", "hillclimb", "--output", "ok.json"]
    assert run_cli(*args) == 0
    payload = json.loads((workdir / "ok.json").read_text())
    assert payload["feasible"] is True
    assert payload["hamming"] == 0
    assert set(payload["thresholds"]) == {"accuracy", "disagreement_budget", "catch"}
    # heavy noise at tiny epsilon cannot meet the disagreement budget
    fail = ["attack", "--mechanism", "rr", "--epsilon", "0.05", "--n", "4",
            "--k", "2000", "--seed", "5", "--search", "hillclimb", "--output", "fail.json"]
    assert run_cli(*fail) == 3
    payload = json.loads((workdir / "fail.json").read_text())
    assert payload["feasible"] is False
    assert payload["y_star"] is None


def test_attack_deterministic(workdir):
    args = ["attack", "--mechanism", "rr", "--epsilon", "1", "--n", "4",
            "--k", "2000", "--seed", "5", "--search", "hillclimb"]
    run_cli(*args, "--output", "r1.json")
    run_cli(*args, "--output", "r2.json")
    assert (workdir / "r1.json").read_bytes() == (workdir / "r2.json").read_bytes()


def test_anticoncentration_subcommand(workdir):
    base = ["anticoncentration", "--n", "5", "--count", "40", "--seed", "2"]
    assert run_cli(*base, "--workers", "1", "--output", "a1.csv") == 0
    assert run_cli(*base, "--workers", "4", "--output", "a4.csv") == 0
    assert (workdir / "a1.csv").read_bytes() == (workdir / "a4.csv").read_bytes()
    lines = (workdir / "a1.csv").read_text().split("\n")
    assert lines[0] == "n,m,gamma,threshold,tail_exact_or_mc,lemma_bound,fourth_moment,fourth_bound"
    assert len(lines) == 42


def test_gadget_subcommand_summary(workdir, capsys):
    assert run_cli("gadget", "--bits", "101", "--exact") == 0
    out = capsys.readouterr().out
    assert "T = 6, S = 2, n = 3" in out
    payload = json.loads((workdir / "gadget.json").read_text())
    assert payload["t_exact"] == 6
    assert payload["identity_holds"] is True


def test_sum_scaling_subcommand(workdir):
    base = ["sum-scaling", "--ns", "32,128", "--trials", "2000", "--seed", "4"]
    assert run_cli(*base, "--workers", "1", "--output", "s1.csv") == 0
    assert run_cli(*base, "--workers", "4", "--output", "s4.csv") == 0
    assert (workdir / "s1.csv").read_bytes() == (workdir / "s4.csv").read_bytes()
    header = (workdir / "s1.csv").read_text().split("\n")[0]
    assert header == (
        "n,epsilon,trials,mean_abs_error_baseline,mean_abs_error_via_triangles,fitted_exponent"
    )


def test_output_suffix_picks_the_format(workdir):
    # sum-scaling's first format is csv; a .json output is JSON and a .csv
    # output is CSV, an explicit --format wins over the suffix, and a
    # suffix that is no format gives the first format
    base = ["sum-scaling", "--ns", "64,128", "--trials", "100", "--seed", "4"]
    header = "n,epsilon,trials,mean_abs_error_baseline,mean_abs_error_via_triangles,fitted_exponent"
    assert run_cli(*base, "--output", "s.json") == 0
    assert json.loads((workdir / "s.json").read_text())["command"] == "sum-scaling"
    assert run_cli(*base, "--output", "s.csv") == 0
    assert (workdir / "s.csv").read_text().split("\n")[0] == header
    assert run_cli(*base, "--format", "csv", "--output", "forced.json") == 0
    assert (workdir / "forced.json").read_text().split("\n")[0] == header
    assert run_cli(*base, "--format", "json", "--output", "forced.csv") == 0
    assert json.loads((workdir / "forced.csv").read_text())["command"] == "sum-scaling"
    assert run_cli(*base, "--output", "s.txt") == 0
    assert (workdir / "s.txt").read_text().split("\n")[0] == header
    (workdir / "cfg.json").write_text(json.dumps({"format": "csv"}))
    assert run_cli(*base, "--config", "cfg.json", "--output", "cfg-out.json") == 0
    assert (workdir / "cfg-out.json").read_text().split("\n")[0] == header


def test_selftest_passes(workdir, capsys):
    assert run_cli("selftest") == 0
    out = capsys.readouterr().out
    assert "10/10 checks passed" in out
    payload = json.loads((workdir / "selftest.json").read_text())
    assert payload["passed"] is True
    assert [c["name"] for c in payload["checks"]] == [
        "graph-stats", "block-stats", "codegree-pairs", "exact-variance", "estimator-mean", "fourth-moment",
        "half-enumeration-tail", "query-graph-identity", "sum-gadget-identity", "batch-answers",
    ]
    assert all(c["passed"] and c["detail"] == "" for c in payload["checks"])


@pytest.mark.parametrize("owner, name, shift, failing", [
    # graph_stats T is the fast side of both the triangle row and the estimator-mean row
    (graphs, "graph_stats", lambda s: (s[0], s[1], s[2] + 1), {"graph-stats", "estimator-mean"}),
    (graphs, "codegree_pairs", lambda p: p + 1, {"codegree-pairs"}),
    (estimator, "exact_variance", lambda v: v * (1 + 1e-6), {"exact-variance"}),
    (anticoncentration, "fourth_moments", lambda f: f + 1, {"fourth-moment"}),
    (anticoncentration, "tail_counts", lambda counts: counts + 1, {"half-enumeration-tail"}),
    (attack, "_bilinear", lambda answers: answers + 1, {"batch-answers"}),  # identity answers
    (attack._SlotForm, "block_sums", lambda sums: sums * (1 + 1e-12), {"batch-answers"}),  # rr slots
    # the estimator's batch layout is the fast side of the block row alone
    (graphs, "gathered_stats", lambda s: (s[0], s[1], s[2] + 1), {"block-stats"}),
])
def test_selftest_catches_a_broken_kernel(workdir, monkeypatch, owner, name, shift, failing):
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kwargs: shift(original(*args, **kwargs)))
    assert run_cli("selftest") == 1
    payload = json.loads((workdir / "selftest.json").read_text())
    assert payload["passed"] is False
    assert {c["name"] for c in payload["checks"] if not c["passed"]} == failing
    assert all(c["detail"].startswith("entry ") for c in payload["checks"] if not c["passed"])


def test_parser_is_built_once_and_outlives_a_usage_error(workdir, capsys):
    assert build_parser() is build_parser()
    argv = ["anticoncentration", "--n", "7", "--count", "30", "--format", "csv", "--seed", "3"]
    assert run_cli(*argv, "--output", "before.csv") == 0
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--eps", "x"])
    assert exc.value.code == 2
    assert "--eps" in capsys.readouterr().err
    assert run_cli(*argv, "--output", "after.csv") == 0
    build_parser.cache_clear()
    assert run_cli(*argv, "--output", "fresh.csv") == 0
    before = (workdir / "before.csv").read_bytes()
    assert (workdir / "after.csv").read_bytes() == before == (workdir / "fresh.csv").read_bytes()


def test_usage_errors_name_the_field(workdir, capsys):
    assert run_cli("estimate", "--graph", "k4.txt", "--eps", "-1") == 2
    assert "eps" in capsys.readouterr().err
    assert run_cli("estimate", "--eps", "1") == 2
    assert "graph" in capsys.readouterr().err
    assert run_cli("attack", "--gamma", "0.7") == 2
    assert "gamma" in capsys.readouterr().err
    assert run_cli("gadget", "--bits", "10x") == 2
    assert "bits" in capsys.readouterr().err
    assert run_cli("variance-sweep", "--trials", "50") == 2
    assert "trials" in capsys.readouterr().err


def test_estimate_rejects_epsilon_below_estimator_minimum(workdir, capsys):
    assert run_cli("estimate", "--graph", "k4.txt", "--eps", "1e-7") == 2
    assert capsys.readouterr().err.startswith("error: eps: must be at least 1e-06")


@pytest.mark.parametrize("argv, estimator_route", [
    (["sum-scaling", "--ns", "8", "--trials", "10"], False),
    (["sum-scaling", "--ns", "8", "--trials", "10", "--triangle-trials", "1"], True),
    (["gadget", "--bits", "101", "--exact"], False),
    (["gadget", "--bits", "101", "--trials", "1"], True),
])
def test_epsilon_minimum_holds_on_the_estimator_route_only(workdir, capsys, argv, estimator_route):
    assert run_cli(*argv, "--eps", "1e-7") == (2 if estimator_route else 0)
    err = capsys.readouterr().err
    assert err.startswith("error: eps: must be at least 1e-06") if estimator_route else err == ""


def test_variance_sweep_rejects_zero_epsilon(workdir, capsys):
    assert run_cli("variance-sweep", "--eps-grid", "0,1") == 2
    assert capsys.readouterr().err.startswith("error: eps_grid: must be positive")


def test_variance_sweep_rejects_an_underflowing_oracle(workdir, capsys):
    # the empty graph's oracle s^3 C(n,3) underflows to 0 from eps ~ 248
    argv = ["variance-sweep", "--family", "empty", "--ns", "8", "--trials", "1000"]
    assert run_cli(*argv, "--eps-grid", "1,300", "--output", "v.csv") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: eps_grid: the variance oracle underflows to 0 at eps = 300.0")
    assert "family empty, n = 8" in err and not (workdir / "v.csv").exists()
    assert run_cli(*argv, "--eps-grid", "240") == 0


@pytest.mark.parametrize("argv, field", [
    (["estimate", "--graph", "k4.txt", "--eps", "nan"], "eps"),
    (["estimate", "--graph", "k4.txt", "--eps", "inf"], "eps"),
    (["gadget", "--bits", "101", "--trials", "10", "--eps", "nan"], "eps"),
    (["sum-scaling", "--eps", "nan"], "eps"),
    (["variance-sweep", "--eps-grid", "nan"], "eps_grid"),
    (["attack", "--eps", "nan"], "epsilon"),
    # every rr answer would be NaN, and |NaN - x| > tau reads as accurate
    (["attack", "--n", "4", "--mechanism", "rr", "--eps", "inf", "--k", "100"], "epsilon"),
])
def test_float_flags_must_be_finite(workdir, capsys, argv, field):
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: must be finite")


# Unbounded, each ended in an OverflowError from math.exp(eps) with exit 1.
@pytest.mark.parametrize("argv, field", [
    (["estimate", "--graph", "k4.txt", "--eps", "710"], "eps"),
    (["variance-sweep", "--eps-grid", "800"], "eps_grid"),
    (["gadget", "--eps", "1000", "--trials", "5"], "eps"),
    (["sum-scaling", "--eps", "1000"], "eps"),
    (["attack", "--mechanism", "rr", "--epsilon", "1000"], "epsilon"),
])
def test_epsilon_is_bounded_above(workdir, capsys, argv, field):
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: must be at most {EPS_MAX}")


def test_attack_epsilon_has_the_estimator_minimum(workdir, capsys):
    # rr answers are the estimator's triangle mix, whose lo^3 overflowed here
    assert run_cli("attack", "--mechanism", "rr", "--epsilon", "1e-110") == 2
    assert capsys.readouterr().err.startswith("error: epsilon: must be at least 1e-06")


def test_exhaustive_search_is_bounded(workdir, capsys):
    assert run_cli("attack", "--mechanism", "identity", "--n", "5", "--search", "exhaustive") == 2
    cap = attack.EXHAUSTIVE_MAX_BITS
    assert capsys.readouterr().err.startswith(f"error: search: exhaustive needs n^2 at most {cap}, got n = 5")


@pytest.mark.parametrize("ns", ["0", "-5", "64,0"])
def test_sum_scaling_rejects_nonpositive_sizes(workdir, capsys, ns):
    assert run_cli("sum-scaling", "--ns", ns) == 2
    assert capsys.readouterr().err.startswith("error: ns: input lengths must be positive")


@pytest.mark.parametrize("argv, field", [
    (["variance-sweep", "--ns", ""], "ns"),
    (["variance-sweep", "--eps-grid", ","], "eps_grid"),
    (["sum-scaling", "--ns", ","], "ns"),
])
def test_number_lists_need_an_entry(workdir, capsys, argv, field):
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: expected at least one entry")


def test_config_values_outside_the_number_types(workdir, capsys):
    # json.load reads Infinity and null; int() of them raises OverflowError
    # and TypeError, which must still end as a usage error
    (workdir / "inf.json").write_text('{"n": Infinity}')
    assert run_cli("attack", "--config", "inf.json") == 2
    assert capsys.readouterr().err.startswith("error: n: expected int")
    (workdir / "null.json").write_text('{"ns": [8, null]}')
    assert run_cli("variance-sweep", "--config", "null.json") == 2
    assert capsys.readouterr().err.startswith("error: ns: entries must be integers")


@pytest.mark.parametrize("command, config, field", [
    # once run as 2 trials, n = 1 and k = 50 with exit 0 while the config echoed the input
    ("estimate", {"graph": "k4.txt", "eps": 1, "trials": 2.9}, "trials"),
    ("attack", {"n": True, "mechanism": "identity"}, "n"),
    ("attack", {"n": 4, "k": 50.9, "mechanism": "identity"}, "k"),
    ("attack", {"n": 4, "k": 50.0, "mechanism": "identity"}, "k"),
    ("attack", {"epsilon": True}, "epsilon"),
    ("estimate", {"graph": "k4.txt", "eps": True}, "eps"),
    ("variance-sweep", {"ns": [8, 12.5]}, "ns"),
    ("sum-scaling", {"ns": [64, True]}, "ns"),
    ("variance-sweep", {"eps_grid": [1, True]}, "eps_grid"),
])
def test_config_numbers_pass_the_flag_type_checks(workdir, capsys, command, config, field):
    (workdir / "cfg.json").write_text(json.dumps(config))
    assert run_cli(command, "--config", "cfg.json", "--output", "out.json") == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not (workdir / "out.json").exists()


def test_unreadable_input_files_are_usage_errors(workdir, capsys):
    (workdir / "adir").mkdir()
    (workdir / "latin.txt").write_bytes(b"3\n0 1 \xe9\n")
    (workdir / "latin.json").write_bytes(b'{"eps": 1, "seed": "\xe9"}')
    for argv, field in (
        (["--graph", "adir", "--eps", "1"], "graph"),
        (["--graph", "latin.txt", "--eps", "1"], "graph"),
        (["--graph", "k4.txt", "--config", "adir"], "config"),
        (["--graph", "k4.txt", "--config", "latin.json"], "config"),
    ):
        assert run_cli("estimate", *argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")


def test_gadget_rejects_negative_trials(workdir, capsys):
    assert run_cli("gadget", "--bits", "101", "--trials", "-3") == 2
    assert capsys.readouterr().err.startswith("error: trials: must be nonnegative")


def test_sum_scaling_rejects_negative_triangle_trials(workdir, capsys):
    assert run_cli("sum-scaling", "--triangle-trials", "-2") == 2
    assert capsys.readouterr().err.startswith("error: triangle_trials: must be nonnegative")


BIG = "100000000000000000000"


# Unbounded, the first runs forever and the others fail inside numpy or
# Python (array too big, maximum dimension, overflow) with exit 1.
@pytest.mark.parametrize("argv, field", [
    (["estimate", "--graph", "k4.txt", "--eps", "1", "--trials", BIG], "trials"),
    (["gadget", "--bits", "101", "--eps", "1", "--trials", BIG], "trials"),
    (["sum-scaling", "--ns", "8", "--trials", BIG], "trials"),
    (["variance-sweep", "--ns", "5", "--trials", BIG], "trials"),
    (["anticoncentration", "--count", BIG], "count"),
    (["anticoncentration", "--n", "100000"], "n"),
    (["attack", "--n", "4", "--k", BIG, "--mechanism", "identity"], "k"),
    (["attack", "--n", "100000000000", "--mechanism", "identity"], "n"),
    # bounds that join two fields: k * n for the attack's sign draw, and
    # 3n vertices for the gadget graph
    (["attack", "--n", "10000", "--k", "16777216", "--mechanism", "identity"], "k"),
    (["attack", "--n", "40", "--mechanism", "identity"], "k"),
    (["gadget", "--bits", "1" * 3334, "--exact"], "bits"),
    (["gadget", "--bits", "1" * 3334, "--eps", "1", "--trials", "1"], "bits"),
    (["sum-scaling", "--ns", "10000", "--triangle-trials", "1"], "ns"),
])
def test_count_and_size_fields_are_bounded(workdir, capsys, argv, field):
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: must be at most")


@pytest.mark.parametrize("text", ["abc\n", "3\n0 5\n", "3\n0 1\n0 1\n"])
def test_malformed_graph_file_is_a_usage_error(workdir, capsys, text):
    (workdir / "bad.txt").write_text(text)
    assert run_cli("estimate", "--graph", "bad.txt", "--eps", "1") == 2
    assert capsys.readouterr().err.startswith("error: graph: ")


def test_graph_file_vertex_count_is_bounded(workdir, capsys):
    # checked before the (n, n) adjacency is allocated
    (workdir / "huge.txt").write_text("10000000\n")
    assert run_cli("estimate", "--graph", "huge.txt", "--eps", "1") == 2
    assert capsys.readouterr().err.startswith("error: graph: vertex count 10000000 is above")


@pytest.mark.parametrize("command, note", [
    ("estimate", "number of independent runs (default 1; at most 10000000)"),
    ("attack", "k * n at most 134217728"),
    ("gadget", "at most 3333 of them"),
])
def test_bounds_show_in_help(capsys, command, note):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert note in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command, config, field", [
    ("variance-sweep", {"family": "bogus"}, "family"),
    ("attack", {"mechanism": "x"}, "mechanism"),
    ("attack", {"search": "x"}, "search"),
    ("estimate", {"format": "xml"}, "format"),
])
def test_config_values_are_checked_like_flags(workdir, capsys, command, config, field):
    (workdir / "cfg.json").write_text(json.dumps(config))
    assert run_cli(command, "--config", "cfg.json") == 2
    assert capsys.readouterr().err.startswith(f"error: {field}:")


def _json_rows(workdir, *argv) -> list:
    assert run_cli(*argv, "--format", "json", "--output", "rows.json") == 0
    return json.loads((workdir / "rows.json").read_text())["rows"]


def _library_rows(rows) -> list:
    # NaN cells are written as null; every other cell round-trips exactly
    return json.loads(json.dumps(_jsonable(rows)))


def test_estimate_matches_library_driver(workdir):
    assert run_cli("estimate", "--graph", "k4.txt", "--eps", "1", "--trials", "9000",
                   "--seed", "3", "--output", "e.json") == 0
    got = json.loads((workdir / "e.json").read_text())["estimates"]
    want = sample_estimates(load_graph(workdir / "k4.txt"), 1.0, 9000, Streams(3).child("trials"))
    assert got == want.tolist()


def test_variance_sweep_matches_library_driver(workdir):
    got = _json_rows(workdir, "variance-sweep", "--ns", "5,7", "--eps-grid", "0.5,2",
                     "--trials", "1000", "--seed", "4")
    assert got == _library_rows(variance_sweep([5, 7], [0.5, 2.0], "er05", 1000, Streams(4)))


@pytest.mark.parametrize("ns", [[32], [16, 48]])
def test_sum_scaling_matches_library_driver(workdir, ns):
    got = _json_rows(workdir, "sum-scaling", "--ns", ",".join(map(str, ns)), "--trials", "500",
                     "--triangle-trials", "20", "--seed", "6")
    rows, _ = sum_error_scaling(ns, 1.0, 500, Streams(6), 20)
    assert got == _library_rows(rows)


@pytest.mark.parametrize("n", [5, 13])  # exact rows, Monte Carlo rows
def test_anticoncentration_matches_library_driver(workdir, n):
    got = _json_rows(workdir, "anticoncentration", "--n", n, "--count", "4",
                     "--mc-samples", "2000", "--seed", "8")
    rows = tail_report(n, 4, 1 / 9, Streams(8), 2000)
    for row in rows:
        row["tail_exact_or_mc"] = row.pop("tail")
    assert got == _library_rows(rows)


def test_attack_runs_past_64_selection_bits(workdir):
    # 2n = 64 selection bits; the run completes and reports the search's
    # outcome (3: no feasible candidate at k = 10) instead of crashing
    assert run_cli("attack", "--n", "32", "--k", "10", "--mechanism", "identity") == 3
    payload = json.loads((workdir / "attack.json").read_text())
    assert payload["n"] == 32 and payload["k"] == 10


def test_config_file_with_flag_override(workdir):
    (workdir / "cfg.json").write_text(
        json.dumps({"graph": "k4.txt", "eps": 2.0, "trials": 50, "seed": 1})
    )
    assert run_cli("estimate", "--config", "cfg.json", "--trials", "20",
                   "--output", "c.json") == 0
    payload = json.loads((workdir / "c.json").read_text())
    assert payload["trials"] == 20  # flag wins
    assert payload["config"]["eps"] == 2.0
    assert run_cli("estimate", "--config", "missing.json") == 2
    (workdir / "bad.json").write_text(json.dumps({"graph": "k4.txt", "eps": 1, "bogus": 3}))
    assert run_cli("estimate", "--config", "bad.json") == 2


def test_workers_default_from_environment(workdir, monkeypatch):
    monkeypatch.setenv("LEDPLAB_WORKERS", "4")
    args = ["estimate", "--graph", "k4.txt", "--eps", "1", "--trials", "9000", "--seed", "3"]
    assert run_cli(*args, "--output", "env4.json") == 0
    monkeypatch.setenv("LEDPLAB_WORKERS", "not-a-number")
    assert run_cli(*args, "--output", "bad.json") == 2
    monkeypatch.delenv("LEDPLAB_WORKERS")
    assert run_cli(*args, "--output", "plain.json") == 0
    assert (workdir / "env4.json").read_bytes() == (workdir / "plain.json").read_bytes()


def _child_env():
    # The child runs from a tmp cwd, where a relative PYTHONPATH entry such
    # as "src" resolves to nothing; put the absolute package root first.
    package_root = str(Path(ledplab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point(workdir):
    env = _child_env()
    result = subprocess.run(
        [sys.executable, "-m", "ledplab.cli", "gadget", "--bits", "11", "--exact"],
        capture_output=True,
        text=True,
        cwd=workdir,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert "T = 4, S = 2, n = 2" in result.stdout


def test_import_leaves_numpy_random_and_futures_unloaded(workdir):
    # ledplab.seeding derives streams without numpy.random, and
    # parallel_map imports its executor only when it runs blocks on threads
    code = (
        "import sys\n"
        "import ledplab.cli, ledplab.attack, ledplab.anticoncentration, ledplab.estimator, ledplab.gadget\n"
        "print(sorted({'numpy.random', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=workdir, env=_child_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


# A child's ru_maxrss also counts its parent's peak memory up to the
# child's exec, which for the test process can be hundreds of MB. So the
# measured command runs as a grandchild of this small launcher, which
# reaps it with os.wait4 and prints its exit code and ru_maxrss (KiB).
_LAUNCHER = (
    "import os, subprocess, sys\n"
    "child = subprocess.Popen(sys.argv[1:])\n"
    "_, status, usage = os.wait4(child.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def _run_cli_measured(workdir, *argv) -> tuple[int, int, str]:
    """(exit code, peak RSS in KiB, stderr) of `python -m ledplab.cli argv`."""
    result = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, sys.executable, "-m", "ledplab.cli", *map(str, argv)],
        capture_output=True, text=True, cwd=workdir, env=_child_env(),
    )
    assert result.returncode == 0, result.stderr
    code, maxrss = map(int, result.stdout.split()[-2:])
    return code, maxrss, result.stderr


def test_attack_n16_default_k_fits_in_2gb(workdir):
    # The pattern-matrix search needed more than 6 GB here (k n^2 float64
    # entries at k = 2,654,208); the search now keeps only (k, n) arrays.
    code, maxrss, stderr = _run_cli_measured(
        workdir, "attack", "--n", "16", "--mechanism", "identity", "--output", "n16.json"
    )
    assert code == 0, stderr
    payload = json.loads((workdir / "n16.json").read_text())
    assert payload["k"] == 2654208
    assert payload["feasible"] is True
    assert payload["hamming"] == 0
    assert maxrss <= 2 * 1024 * 1024  # KiB on Linux


@pytest.mark.parametrize("blas_threads", [None, "1"], ids=["blas-default", "blas-1"])
def test_estimate_n160_fits_in_600mb(workdir, monkeypatch, blas_threads):
    # One (2048, 160, 160) float64 block alone would be 419 MB; the
    # estimator gathers trials in batches of at most BLOCK_BYTES, counted
    # in float32 at this n, split among its threads: one with BLAS on
    # every CPU, one a CPU with BLAS pinned to one thread.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    if blas_threads is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
    save_graph(erdos_renyi(160, 0.5, Streams(16).generator()), workdir / "er160.txt")
    code, maxrss, stderr = _run_cli_measured(
        workdir, "estimate", "--graph", "er160.txt", "--eps", "1", "--trials", "2048",
        "--workers", "1", "--output", "er160.json",
    )
    assert code == 0, stderr
    assert len(json.loads((workdir / "er160.json").read_text())["estimates"]) == 2048
    assert maxrss <= 600 * 1024  # KiB on Linux
