"""Tests for the command-line front end."""

import hashlib
import random

import pytest

from geodetic import fpt
from geodetic.cli import build_parser, main
from geodetic.generators import random_fen_graph
from geodetic.graph import Graph, feedback_edge_number, format_graph, parse_graph

from conftest import complete_graph, cycle_graph, path_graph


def write_graph(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(format_graph(g))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_solve_cycle_with_fpt(tmp_path, capsys):
    path = write_graph(tmp_path, "c6.graph", cycle_graph(6))
    code, out = run(capsys, ["solve", path, "--algo", "fpt", "--deterministic"])
    assert code == 0
    assert "optimum 2" in out
    assert "status optimal" in out


def test_solve_path_with_brute(tmp_path, capsys):
    path = write_graph(tmp_path, "p4.graph", path_graph(4))
    code, out = run(capsys, ["solve", path, "--algo", "brute", "--deterministic"])
    assert code == 0
    assert "optimum 2" in out
    assert "witness 0 3" in out


def test_solve_cross_check_agrees(tmp_path, capsys):
    path = write_graph(tmp_path, "k4.graph", complete_graph(4))
    code, out = run(capsys, ["solve", path, "--cross-check", "--deterministic"])
    assert code == 0
    assert "cross-check ok" in out


def test_solve_cross_check_skips_an_unknown_side(tmp_path, capsys):
    prefix = str(tmp_path / "d14")
    argv = ["generate", "random-fen", "--n", "14", "--fen", "6", "--seed", "5"]
    assert main(argv + ["--out", prefix]) == 0
    code, out = run(
        capsys,
        ["solve", prefix + ".graph", "--algo", "fpt", "--cross-check",
         "--node-budget", "1", "--deterministic"],
    )
    # the budget leaves the fpt side unknown, so nothing was compared
    assert code == 3
    assert "status unknown" in out
    assert "cross-check skipped" in out
    assert "cross-check ok" not in out


def test_unknown_component_prints_no_optimum(tmp_path, capsys):
    # two copies of a draw whose budgeted solve finds a 7-vertex witness
    # while the optimum is 6: each component line reports no optimum
    g = random_fen_graph(14, 6, random.Random(5))
    twice = Graph(28, [*g.edges(), *((u + 14, v + 14) for u, v in g.edges())])
    path = write_graph(tmp_path, "twice.graph", twice)
    code, out = run(
        capsys,
        ["solve", path, "--per-component", "--algo", "fpt", "--node-budget", "1",
         "--deterministic"],
    )
    assert code == 3
    lines = out.splitlines()
    assert "component 0 n 14 algorithm fpt:guess-ilp status unknown optimum -" in lines
    assert "component 1 n 14 algorithm fpt:guess-ilp status unknown optimum -" in lines
    assert "status unknown" in lines
    assert not [ln for ln in lines if ln.startswith(("optimum", "witness"))]


def test_solve_threshold_answers(tmp_path, capsys):
    path = write_graph(tmp_path, "k4.graph", complete_graph(4))
    code, out = run(capsys, ["solve", path, "--k", "4", "--deterministic"])
    assert code == 0
    assert "answer yes" in out
    code, out = run(capsys, ["solve", path, "--k", "3", "--deterministic"])
    assert code == 1
    assert "answer no" in out


def test_failed_certificate_is_an_error_not_a_no(tmp_path, capsys, monkeypatch):
    real = fpt.lift_witness
    monkeypatch.setattr(fpt, "lift_witness", lambda *args: real(*args)[1:])
    path = write_graph(tmp_path, "c6.graph", cycle_graph(6))
    code = main(["solve", path, "--algo", "fpt", "--k", "2", "--deterministic"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error lifted witness has 1 vertices, optimum is 2\n"


def test_solve_disconnected_needs_flag(tmp_path, capsys):
    path = tmp_path / "disc.graph"
    path.write_text("5 4\n0 1\n0 2\n1 2\n3 4\n")
    code, _out = run(capsys, ["solve", str(path), "--deterministic"])
    assert code == 2
    code, out = run(
        capsys, ["solve", str(path), "--per-component", "--deterministic"]
    )
    assert code == 0
    assert "optimum 5" in out
    assert "witness 0 1 2 3 4" in out


def test_verify_accepts_and_rejects(tmp_path, capsys):
    graph = write_graph(tmp_path, "p4.graph", path_graph(4))
    good = tmp_path / "good.set"
    good.write_text("0 3\n")
    code, out = run(capsys, ["verify", graph, str(good)])
    assert code == 0
    assert "status geodetic" in out

    k4 = write_graph(tmp_path, "k4.graph", complete_graph(4))
    bad = tmp_path / "bad.set"
    bad.write_text("0 1 2\n")
    code, out = run(capsys, ["verify", k4, str(bad)])
    assert code == 1
    assert "uncovered 3" in out


def test_verify_disconnected_reports_first_component_in_order(tmp_path, capsys):
    # components [0, 5, 6], [1, 2, 3], [4]: the first component's smallest
    # uncovered vertex (5) is reported, not the global smallest (3)
    g = Graph(7, [(0, 5), (5, 6), (1, 2), (2, 3)])
    graph = write_graph(tmp_path, "split.graph", g)
    bad = tmp_path / "bad.set"
    bad.write_text("0 1 2 4\n")
    code, out = run(capsys, ["verify", graph, str(bad)])
    assert code == 1
    assert "uncovered 5" in out
    good = tmp_path / "good.set"
    good.write_text("0 6\n1 3\n4\n")
    code, out = run(capsys, ["verify", graph, str(good)])
    assert code == 0
    assert "status geodetic" in out


def test_verify_out_of_range_is_an_error(tmp_path, capsys):
    graph = write_graph(tmp_path, "p4.graph", path_graph(4))
    bad = tmp_path / "oob.set"
    bad.write_text("0 9\n")
    code, _out = run(capsys, ["verify", graph, str(bad)])
    assert code == 2


def test_verify_malformed_set_is_an_error(tmp_path, capsys):
    graph = write_graph(tmp_path, "p3.graph", path_graph(3))
    bad = tmp_path / "bad.set"
    bad.write_text("0 x\n")
    code = main(["verify", graph, str(bad)])
    err = capsys.readouterr().err
    # exit 1 would claim the set was checked and is not geodetic
    assert code == 2
    assert err == f"error bad vertex id 'x' in {bad}\n"


def test_stats_reports_bounds(tmp_path, capsys):
    path = write_graph(tmp_path, "k4.graph", complete_graph(4))
    code, out = run(capsys, ["stats", path])
    assert code == 0
    assert "fen 3" in out
    assert "branch-vertices 4" in out
    assert "branch-bound ok" in out


def test_stats_tree_has_no_branch_graph(tmp_path, capsys):
    path = write_graph(tmp_path, "p5.graph", path_graph(5))
    code, out = run(capsys, ["stats", path])
    assert code == 0
    assert "fen 0" in out
    assert "branch-graph empty" in out


def test_reduce_output_round_trips(tmp_path, capsys):
    path = tmp_path / "ruly.graph"
    path.write_text("8 8\n0 1\n1 2\n2 3\n0 3\n3 4\n4 5\n4 6\n4 7\n")
    out_file = tmp_path / "reduced.graph"
    code, out = run(capsys, ["reduce", str(path), "--out", str(out_file)])
    assert code == 0
    assert "RULE" in out
    assert "k-decrease" in out
    reduced = parse_graph(out_file.read_text())
    assert reduced.n < 8


@pytest.mark.parametrize(
    "n, fen, seed, rules, report_sha, out_sha",
    [
        (4000, 2, 11, (1968, 1990),
         "f793664c58a06612d5bb6c6b70350f2b2b36c9c419b4c48910d1f2fc342967bf",
         "3cd7536abf04dd4cdfff671740c636f3cbac806c1d9d93005ce1823b49034d4e"),
        (6000, 6, 12, (2911, 2949),
         "f46f05caab17b30f4d662e0912ba1b91812017ea66ef95bd25943d9db9f47faa",
         "33475a99eaf9ebc606801e642e04cfcb190e99c5eab2f91d694db71d319283bb"),
    ],
)
def test_reduce_reports_on_large_near_trees_are_golden(
    tmp_path, capsys, monkeypatch, n, fen, seed, rules, report_sha, out_sha
):
    """Thousands of collapse and twin steps: the report and the kernel file
    are pinned byte for byte."""
    monkeypatch.chdir(tmp_path)
    name = f"nt{n}"
    (tmp_path / f"{name}.graph").write_text(
        format_graph(random_fen_graph(n, fen, random.Random(seed)))
    )
    code, out = run(capsys, ["reduce", f"{name}.graph", "--out", f"{name}.reduced"])
    assert code == 0
    fired = [ln.split()[1] for ln in out.splitlines() if ln.startswith("RULE ")]
    assert (fired.count("collapse"), fired.count("twin")) == rules
    assert hashlib.sha256(out.encode()).hexdigest() == report_sha
    assert hashlib.sha256((tmp_path / f"{name}.reduced").read_bytes()).hexdigest() == out_sha


def test_generate_random_fen_has_exact_fen(tmp_path, capsys):
    code, out = run(
        capsys,
        ["generate", "random-fen", "--n", "20", "--fen", "3", "--seed", "7",
         "--out", str(tmp_path / "rf")],
    )
    assert code == 0
    g = parse_graph((tmp_path / "rf.graph").read_text())
    assert feedback_edge_number(g) == 3


def test_generate_cycle_leaves_plain_cycle(tmp_path, capsys):
    code, _out = run(
        capsys,
        ["generate", "cycle-leaves", "--length", "6", "--leaves", "0",
         "--out", str(tmp_path / "cl")],
    )
    assert code == 0
    g = parse_graph((tmp_path / "cl.graph").read_text())
    assert (g.n, g.m) == (6, 6)
    assert all(len(g.adj[v]) == 2 for v in range(g.n))


@pytest.mark.parametrize(
    "argv",
    [
        ["random-fen", "--n", "10", "--fen", "-1"],
        ["cycle-leaves", "--length", "6", "--leaves", "-1"],
    ],
)
def test_generate_negative_count_is_an_error(tmp_path, capsys, argv):
    code = main(["generate", *argv, "--out", str(tmp_path / "neg")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error ")
    assert not (tmp_path / "neg.graph").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["grid-tiling", "--k", "2", "--m", "0", "--n", "1", "--planted", "yes"],
        ["grid-tiling", "--k", "2", "--m", "-2", "--n", "1", "--planted", "yes"],
        ["grid-tiling", "--k", "2", "--m", "0", "--n", "1"],
        ["grid-tiling", "--k", "0", "--m", "2", "--n", "1", "--planted", "no"],
        ["gadget", "--k", "2", "--m", "-2", "--n", "1", "--planted", "yes"],
    ],
)
def test_generate_grid_sizes_must_be_positive(tmp_path, capsys, argv):
    # exit 1 would mean "no"; a bad size is an error, not a traceback
    code = main(["generate", *argv, "--out", str(tmp_path / "bad")])
    assert code == 2
    assert capsys.readouterr().err == "error k, m, n must all be positive\n"
    assert not list(tmp_path.iterdir())


def test_solve_negative_node_budget_is_an_error(tmp_path, capsys):
    prefix = str(tmp_path / "d16")
    argv = ["generate", "random-fen", "--n", "16", "--fen", "6", "--seed", "4"]
    assert main(argv + ["--out", prefix]) == 0
    capsys.readouterr()
    code = main(["solve", prefix + ".graph", "--algo", "fpt", "--node-budget", "-3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error node budget must be non-negative\n"
    assert captured.out == ""


def test_generate_gadget_emits_solution_that_verifies(tmp_path, capsys):
    prefix = str(tmp_path / "gad")
    code, out = run(
        capsys,
        ["generate", "gadget", "--k", "2", "--m", "1", "--n", "1",
         "--planted", "yes", "--seed", "3", "--out", prefix],
    )
    assert code == 0
    assert "k_prime 8" in out
    code, out = run(capsys, ["verify", prefix + ".graph", prefix + ".solution"])
    assert code == 0
    assert "status geodetic" in out


def test_generate_gadget_without_out_builds_nothing(capsys):
    code = main(
        ["generate", "gadget", "--k", "2", "--m", "1", "--n", "1",
         "--planted", "yes", "--seed", "3"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error gadget generation needs --out PREFIX\n"
    assert not any(ln.startswith("vertices") for ln in captured.out.splitlines())


def test_generate_gadget_rejects_budget_three(tmp_path, capsys):
    # at m = 3 the planted set is not always geodetic, so nothing is written
    prefix = str(tmp_path / "gad")
    code = main(
        ["generate", "gadget", "--k", "2", "--m", "3", "--n", "1",
         "--planted", "yes", "--seed", "1", "--out", prefix]
    )
    assert code == 2
    assert "m >= 3" in capsys.readouterr().err
    assert not (tmp_path / "gad.solution").exists()
    assert not (tmp_path / "gad.graph").exists()


def test_deterministic_reports_are_byte_identical(tmp_path, capsys):
    path = write_graph(tmp_path, "c9.graph", cycle_graph(9))
    _code, first = run(capsys, ["solve", path, "--deterministic"])
    _code, second = run(capsys, ["solve", path, "--deterministic"])
    assert first == second


def test_consecutive_calls_share_no_state(tmp_path, capsys):
    # one parser serves every call in a process, so no call's arguments
    # may reach the next, not even from a call that failed to parse
    assert build_parser() is build_parser()
    path = write_graph(tmp_path, "c6.graph", cycle_graph(6))
    code, out = run(capsys, ["solve", path, "--k", "3", "--deterministic"])
    assert code == 0
    assert "k 3" in out.splitlines()
    code, plain = run(capsys, ["solve", path, "--deterministic"])
    assert code == 0
    assert not [ln for ln in plain.splitlines() if ln.split()[0] in ("k", "answer")]
    with pytest.raises(SystemExit) as exc:
        main(["solve", path, "--algo", "none"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert run(capsys, ["solve", path, "--deterministic"]) == (0, plain)


def test_quiet_silences_stdout(tmp_path, capsys):
    path = write_graph(tmp_path, "c6.graph", cycle_graph(6))
    code, out = run(capsys, ["solve", path, "--quiet", "--deterministic"])
    assert code == 0
    assert out == ""


def test_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.graph"
    path.write_text("not a graph\n")
    code, _out = run(capsys, ["solve", str(path)])
    assert code == 2
