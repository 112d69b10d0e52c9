"""Command-line front end: solve, reduce, verify, stats, generate.

Reports are line-oriented ``key value`` text on stdout.  Exit codes: 0 for
yes (or plain success), 1 for no, 2 for errors, 3 when a budget left the
answer unknown.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
import time

from geodetic.fpt import OPTIMAL, UNKNOWN, solve_fpt
from geodetic.gadget import (
    GadgetError,
    build_gadget,
    canonical_solution,
    format_registry,
)
from geodetic.generators import cycle_with_leaves, random_fen_graph
from geodetic.graph import (
    DisconnectedError,
    Graph,
    GraphError,
    GraphFormatError,
    VerificationError,
    connected_components,
    diameter,
    feedback_edge_number,
    format_graph,
    induced_subgraph,
    interval_closure,
    parse_graph,
)
from geodetic.gridtiling import (
    GridTilingError,
    format_grid_tiling,
    random_instance,
    random_no_instance,
    random_yes_instance,
)
from geodetic.oracle import min_geodetic_brute
from geodetic.reduction import (
    FenTooSmallError,
    MutableGraph,
    build_feg,
    reduce_to_fixpoint,
)

AUTO_BRUTE_LIMIT = 16  # auto picks the oracle up to this many vertices


class Report:
    """Collects ``key value`` lines; silent when quiet."""

    def __init__(self, quiet: bool):
        self.quiet = quiet

    def line(self, key: str, *values) -> None:
        if not self.quiet:
            print(" ".join([key, *(str(v) for v in values)]))


def _read_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _solve_component(sub: Graph, algo: str, args) -> tuple[str, int | None, tuple[int, ...] | None, str]:
    """Returns (status, optimum, witness, algorithm actually used)."""
    if algo == "auto":
        algo = "brute" if sub.n <= AUTO_BRUTE_LIMIT else "fpt"
    if algo == "brute":
        res = min_geodetic_brute(sub)
        return OPTIMAL, res.size, res.witness, "brute"
    res = solve_fpt(sub, node_budget=args.node_budget)
    return res.status, res.optimum, res.witness, f"fpt:{res.algorithm}"


def cmd_solve(args) -> int:
    if args.node_budget is not None and args.node_budget < 0:
        print("error node budget must be non-negative", file=sys.stderr)
        return 2
    g = _read_graph(args.graph)
    report = Report(args.quiet)
    report.line("command", "solve")
    report.line("input", args.graph)
    report.line("n", g.n)
    report.line("m", g.m)
    comps = connected_components(g)
    report.line("components", len(comps))
    if len(comps) > 1 and not args.per_component:
        print("error disconnected input; rerun with --per-component", file=sys.stderr)
        return 2
    started = time.perf_counter()
    total = 0
    witness: list[int] = []
    status = OPTIMAL
    for ci, comp in enumerate(comps):
        # a connected input is its own only component, numbered as it is
        sub = g if len(comps) == 1 else induced_subgraph(g, comp)
        st, opt, wit, used = _solve_component(sub, args.algo, args)
        if args.cross_check:
            other = "brute" if used.startswith("fpt") else "fpt"
            st2, opt2, _w2, _u2 = _solve_component(sub, other, args)
            # an unknown side leaves nothing to compare
            compared = st == OPTIMAL and st2 == OPTIMAL
            if compared and opt != opt2:
                print(
                    f"error cross-check mismatch component={ci} "
                    f"{used}={opt} {other}={opt2}",
                    file=sys.stderr,
                )
                return 2
            report.line("cross-check", "ok" if compared else "skipped")
        if len(comps) > 1:
            report.line("component", ci, "n", sub.n, "algorithm", used,
                        "status", st, "optimum", opt if opt is not None else "-")
        else:
            report.line("algorithm", used)
        if st != OPTIMAL:
            status = UNKNOWN
            continue
        total += opt
        witness.extend(comp[v] for v in wit)
    report.line("status", status)
    if status == OPTIMAL:
        report.line("optimum", total)
        report.line("witness", *sorted(witness))
    if not args.deterministic:
        report.line("time_ms", int((time.perf_counter() - started) * 1000))
    if args.k is not None:
        report.line("k", args.k)
        if status == OPTIMAL:
            answer = total <= args.k
            report.line("answer", "yes" if answer else "no")
            return 0 if answer else 1
        report.line("answer", "unknown")
        return 3
    return 0 if status == OPTIMAL else 3


def cmd_verify(args) -> int:
    g = _read_graph(args.graph)
    with open(args.set, "r", encoding="utf-8") as fh:
        tokens = [
            tok
            for ln in fh.read().splitlines()
            if not ln.lstrip().startswith("#")
            for tok in ln.split()
        ]
    ids: set[int] = set()
    for tok in tokens:
        try:
            ids.add(int(tok))
        except ValueError:
            raise GraphFormatError(f"bad vertex id {tok!r} in {args.set}") from None
    chosen = sorted(ids)
    for v in chosen:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex id {v} out of range for n={g.n}")
    report = Report(args.quiet)
    report.line("command", "verify")
    report.line("input", args.graph)
    report.line("set", *chosen)
    # the closure of a disconnected graph is the union of its components'
    # closures; report the smallest uncovered vertex of the first component
    # that has one
    covered = interval_closure(g, chosen)
    if len(covered) < g.n:
        for comp in connected_components(g):
            for v in comp:
                if v not in covered:
                    report.line("status", "not-geodetic")
                    report.line("uncovered", v)
                    return 1
    report.line("status", "geodetic")
    return 0


def cmd_stats(args) -> int:
    g = _read_graph(args.graph)
    report = Report(args.quiet)
    report.line("command", "stats")
    report.line("input", args.graph)
    report.line("n", g.n)
    report.line("m", g.m)
    comps = connected_components(g)
    fen = g.m - g.n + len(comps)
    report.line("fen", fen)
    report.line("components", len(comps))
    if len(comps) == 1 and g.n > 1:
        report.line("diameter", diameter(g))
    if len(comps) > 1:
        report.line("branch-graph", "skipped-disconnected")
        return 0
    if fen < 2:
        report.line("branch-graph", "empty")
        return 0
    work = MutableGraph.from_graph(g)
    try:
        fed = build_feg(work)
    except FenTooSmallError:
        report.line("branch-graph", "empty")
        return 0
    report.line("branch-vertices", len(fed.branch_vertices))
    report.line("segments", len(fed.paths))
    for p in fed.paths:
        report.line("segment", p.index, "h", p.h, "leafed", len(p.leaf_positions))
    b_ok = len(fed.branch_vertices) <= 2 * fen - 2
    s_ok = len(fed.paths) <= 3 * fen - 3
    report.line("branch-bound", "ok" if b_ok else "violated")
    report.line("segment-bound", "ok" if s_ok else "violated")
    return 0


def cmd_reduce(args) -> int:
    g = _read_graph(args.graph)
    try:
        red = reduce_to_fixpoint(g)
    except DisconnectedError:
        print("error reduce requires a connected graph", file=sys.stderr)
        return 2
    report = Report(args.quiet)
    report.line("command", "reduce")
    report.line("input", args.graph)
    report.line("n-before", g.n)
    report.line("m-before", g.m)
    if not args.quiet:
        sys.stdout.write("".join([
            f"RULE {rule} removed={','.join(map(str, removed)) or '-'}"
            f" added={','.join(map(str, added)) or '-'} dk={dk}\n"
            for rule, dk, removed, added, _, _ in red.trace
        ]))
    report.line("k-decrease", red.k_decrease)
    reduced, labels = red.graph.to_graph()
    report.line("n-after", reduced.n)
    report.line("m-after", reduced.m)
    text = format_graph(reduced)
    text += "".join(
        f"# vertex {i} = {lab}\n" for i, lab in enumerate(labels)
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        report.line("out", args.out)
    elif not args.quiet:
        sys.stdout.write(text)
    return 0


def cmd_generate(args) -> int:
    rng = random.Random(args.seed)
    report = Report(args.quiet)
    report.line("command", "generate")
    report.line("kind", args.kind)
    report.line("seed", args.seed)

    def write(path: str, text: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        report.line("out", path)

    if args.kind == "random-fen":
        g = random_fen_graph(args.n, args.fen, rng)
        report.line("n", g.n)
        report.line("m", g.m)
        report.line("fen", feedback_edge_number(g))
        if args.out:
            write(args.out + ".graph", format_graph(g))
        elif not args.quiet:
            sys.stdout.write(format_graph(g))
        return 0
    if args.kind == "cycle-leaves":
        g = cycle_with_leaves(args.length, args.leaves, rng)
        report.line("n", g.n)
        report.line("m", g.m)
        if args.out:
            write(args.out + ".graph", format_graph(g))
        elif not args.quiet:
            sys.stdout.write(format_graph(g))
        return 0
    # grid tiling instances, bare or wrapped in the hardness gadget
    if args.kind == "gadget" and not args.out:
        print("error gadget generation needs --out PREFIX", file=sys.stderr)
        return 2
    if args.planted == "yes":
        inst, _sol = random_yes_instance(args.k, args.m, args.n, rng)
    elif args.planted == "no":
        inst = random_no_instance(args.k, args.m, args.n, rng)
    else:
        inst = random_instance(args.k, args.m, args.n, rng)
    report.line("k", inst.k)
    report.line("m", inst.m)
    report.line("alphabet", inst.n)
    report.line("planted", args.planted)
    if args.kind == "grid-tiling":
        if args.out:
            write(args.out + ".tiles", format_grid_tiling(inst))
        elif not args.quiet:
            sys.stdout.write(format_grid_tiling(inst))
        return 0
    gadget = build_gadget(inst, vertical_coefficient=args.vertical_coefficient)
    report.line("k_prime", gadget.k_prime)
    report.line("vertices", gadget.graph.n)
    report.line("edges", gadget.graph.m)
    write(args.out + ".graph", format_graph(gadget.graph))
    write(args.out + ".registry", format_registry(gadget))
    write(args.out + ".tiles", format_grid_tiling(inst))
    if args.planted == "yes":
        chosen = canonical_solution(gadget)
        write(args.out + ".solution", " ".join(str(v) for v in chosen) + "\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: each ``add_argument``
    makes a help formatter, which asks for the terminal size, and parsing
    leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="geodetic", description="exact geodetic set toolkit"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--quiet", action="store_true", help="suppress stdout report")

    p_solve = sub.add_parser("solve", help="minimum geodetic set of a graph file")
    p_solve.add_argument("graph")
    p_solve.add_argument("--k", type=int, default=None, help="decision threshold")
    p_solve.add_argument(
        "--algo", choices=("auto", "brute", "fpt"), default="auto"
    )
    p_solve.add_argument("--cross-check", action="store_true",
                         help="run both algorithms and compare")
    p_solve.add_argument("--per-component", action="store_true",
                         help="split disconnected inputs and sum optima")
    p_solve.add_argument("--node-budget", type=int, default=None)
    p_solve.add_argument("--deterministic", action="store_true",
                         help="byte-identical reports: omit timing")
    common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="check a vertex set for geodecity")
    p_verify.add_argument("graph")
    p_verify.add_argument("set", help="file of whitespace-separated vertex ids")
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_stats = sub.add_parser("stats", help="structure report for a graph file")
    p_stats.add_argument("graph")
    common(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_reduce = sub.add_parser("reduce", help="run reduction rules to a fixpoint")
    p_reduce.add_argument("graph")
    p_reduce.add_argument("--out", default=None, help="write reduced graph here")
    common(p_reduce)
    p_reduce.set_defaults(func=cmd_reduce)

    p_gen = sub.add_parser("generate", help="emit benchmark inputs")
    p_gen.add_argument(
        "kind", choices=("random-fen", "cycle-leaves", "grid-tiling", "gadget")
    )
    p_gen.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
    p_gen.add_argument("--out", default=None, help="output file prefix")
    p_gen.add_argument("--n", type=int, default=12,
                       help="vertices (random-fen) or alphabet size (tiling)")
    p_gen.add_argument("--fen", type=int, default=2)
    p_gen.add_argument("--length", type=int, default=6)
    p_gen.add_argument("--leaves", type=int, default=0)
    p_gen.add_argument("--k", type=int, default=2, help="tiling grid size")
    p_gen.add_argument("--m", type=int, default=1, help="tiling budget")
    p_gen.add_argument("--planted", choices=("yes", "no", "any"), default="any")
    p_gen.add_argument("--vertical-coefficient", type=int, default=1)
    common(p_gen)
    p_gen.set_defaults(func=cmd_generate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # a failed certificate is an error too: exit 1 would report a decision no
    except (
        GraphError, GraphFormatError, GridTilingError, GadgetError, VerificationError,
        OSError,
    ) as exc:
        print(f"error {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
