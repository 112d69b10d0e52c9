"""The four workloads: inputs made from the seed, op lists and their checks.

``BUILDERS[name](seed, workdir, cli_main)`` writes every input file under
``workdir`` and returns a :class:`Plan`.  Paths in op argv are relative to
the repository root, where both this process and the op runner work.
``cli_main`` is ``geodetic.cli.main``; only the gadget workload uses it, to
make its inputs with the program's own ``generate gadget``.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import checks
from instances import format_graph, guess_space, near_tree, tree_plus_chords

Check = Callable[[dict], "str | None"]
Corrupt = Callable[[dict], dict]

OPTIMA_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "optima.json")

# near-tree: (vertices, fen); half the vertices are leaves.  A pass takes
# 4-7 s, so a run makes at least three and every op's fastest time is taken
# over three or more samples.
NEAR_TREE_SIZES = ((500, 2), (750, 4), (1000, 6))
# reduce-large: (vertices, fen); half the vertices are leaves.  A pass takes
# 4-7 s, so a run makes at least three.
REDUCE_SIZES = ((4000, 2), (6000, 6))
# dense-core: one instance from each of DENSE_SLOTS strata of equal natural
# share, each stratum's most central draw among its first DENSE_CANDIDATES
# (see draw_dense); strata.json holds the strata, remade by --remake-strata
# from STRATA_SAMPLE = (seed, draws) of the same draw rule
DENSE_SLOTS = 40
DENSE_CANDIDATES = 8
DENSE_MEMORY_CAP = 1_000_000  # guesses; about 1.1 KB each today
STRATA_SAMPLE = (0, 50_000)
STRATA_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "strata.json")
# gadget: (k, m, alphabet size) of the planted grid tiling instance
# (2, 3, 1) is left out: on some seeds its planted set is not geodetic
GADGET_PARAMS = ((2, 1, 1), (2, 2, 1), (2, 2, 1), (2, 2, 2), (2, 2, 3))

# Fixed, seed-independent warm-up inputs.  Each is mid-sized (0.3-0.6 s an
# op) so that set-up is not dominated by interpreter start-up, whose time
# swings by half from one run to the next.
WARMUP_NEAR_TREE = (500, 3, 7)  # near_tree(n, n // 2, fen, Random(seed))
WARMUP_DENSE = (16, 7, 6)  # tree_plus_chords(n, fen, Random(seed)); 33200 guesses
WARMUP_REDUCE = (2000, 3, 13)  # near_tree(n, n // 2, fen, Random(seed))
WARMUP_GADGET = (2, 1, 1, 5)  # k, m, alphabet, generator seed


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Check
    corruptions: tuple[Corrupt, ...] = ()
    out: str | None = None

    def spec(self) -> dict:
        return {"kind": self.kind, "argv": self.argv, "out": self.out}


@dataclass
class Plan:
    ops: list[Op]
    warmup: list[Op]
    notes: dict = field(default_factory=dict)


def load_optima() -> dict:
    with open(OPTIMA_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def warmup_dense() -> tuple[int, list]:
    """The dense-core warm-up graph, whose optimum ``optima.json`` stores."""
    n, fen, seed = WARMUP_DENSE
    return n, tree_plus_chords(n, fen, random.Random(seed))


def remake_optima() -> dict:
    """Recompute the stored optima with the benchmark's exhaustive search."""
    return {"dense-core": checks.min_geodetic_exhaustive(*warmup_dense())}


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _solve_op(path: str, n: int, edges, proof) -> Op:
    def check(record: dict) -> str | None:
        return checks.check_solve(record, n, edges, proof)

    def drop(record: dict) -> dict:
        return dict(record, stdout=checks.corrupt_witness_drop(record["stdout"]))

    def raise_optimum(record: dict) -> dict:
        return dict(record, stdout=checks.corrupt_optimum_up(record["stdout"], n))

    argv = ["solve", path, "--algo", "fpt", "--deterministic"]
    return Op("solve", argv, check, (drop, raise_optimum))


def _reduce_op(path: str, out: str, n: int, edges) -> Op:
    def check(record: dict) -> str | None:
        return checks.check_reduce(record, n, edges)

    return Op("reduce", ["reduce", path, "--out", out], check,
              (checks.corrupt_reduced_twins,), out=out)


def _warmup_solve(workdir: str, key: str, n: int, edges, proof) -> Op:
    path = _write(os.path.join(workdir, f"warmup-{key}.graph"), format_graph(n, edges))
    return _solve_op(path, n, edges, proof)


def build_near_tree(seed: int, workdir: str, cli_main) -> Plan:
    rng = random.Random(seed)
    ops = []
    for i, (n, fen) in enumerate(NEAR_TREE_SIZES):
        edges = near_tree(n, n // 2, fen, rng)
        path = _write(os.path.join(workdir, f"near-tree-{i}.graph"), format_graph(n, edges))
        ops.append(_solve_op(path, n, edges, checks.leaf_bound_proof))
    n, fen, wseed = WARMUP_NEAR_TREE
    edges = near_tree(n, n // 2, fen, random.Random(wseed))
    warm = _warmup_solve(workdir, "near-tree", n, edges, checks.leaf_bound_proof)
    return Plan(ops, [warm])


def _dense_draw(rng: random.Random) -> tuple[int, list, float]:
    """One draw of the dense-core rule: n uniform in 14..24, fen uniform in
    5..9, a random recursive tree plus fen chords.  Its key is the guess
    count plus a uniform number in [0, 1), which breaks ties at random."""
    n = rng.randint(14, 24)
    fen = rng.randint(5, 9)
    edges = tree_plus_chords(n, fen, rng)
    return n, edges, guess_space(n, edges) + rng.random()


def _decade(key: float) -> str:
    lo = 10 ** math.floor(math.log10(key))
    return f"[{lo}, {10 * lo})"


def remake_strata() -> dict:
    """Strata of equal share over a reference sample of the draw rule.

    Draws over ``DENSE_MEMORY_CAP`` guesses are left out; the rest, sorted
    by key, are cut into ``DENSE_SLOTS`` strata of equal size.  ``bounds``
    are the keys where strata 1.. begin and ``targets`` each stratum's
    median key.  ``shares`` gives the natural share of each decade of the
    guess count, over the whole sample.
    """
    seed, size = STRATA_SAMPLE
    rng = random.Random(seed)
    keys = sorted(_dense_draw(rng)[2] for _ in range(size))
    kept = [k for k in keys if int(k) <= DENSE_MEMORY_CAP]
    count = len(kept)
    shares: dict[str, float] = {}
    for k in keys:
        band = _decade(k) if int(k) <= DENSE_MEMORY_CAP else f"over the cap ({DENSE_MEMORY_CAP})"
        shares[band] = shares.get(band, 0) + 1 / size
    return {
        "sample": {"seed": seed, "draws": size, "over_cap": size - count},
        "bounds": [round(kept[i * count // DENSE_SLOTS], 3) for i in range(1, DENSE_SLOTS)],
        "targets": [round(kept[(2 * i + 1) * count // (2 * DENSE_SLOTS)], 3)
                    for i in range(DENSE_SLOTS)],
        "shares": {band: round(share, 5) for band, share in shares.items()},
    }


def draw_dense(seed: int) -> tuple[list[tuple[int, list]], dict]:
    """Dense-core instances: one from each stratum of ``strata.json``.

    Draws are made with ``_dense_draw``.  A draw over ``DENSE_MEMORY_CAP``
    guesses is left out (its guess list alone would need over a gigabyte
    today).  Every other draw joins the stratum its key falls in, until
    each stratum holds ``DENSE_CANDIDATES`` draws; later draws to a full
    stratum are passed over.  Each stratum then gives the draw whose key is
    nearest its target on a log scale.  The strata hold equal shares of the
    natural draws, so the instances follow the natural mix over the whole
    range, and the choice inside a stratum looks at the key only, never at
    the cost, so no draw is dropped for being slow.
    """
    with open(STRATA_PATH, encoding="utf-8") as fh:
        strata = json.load(fh)
    bounds, targets = strata["bounds"], strata["targets"]
    rng = random.Random(seed)
    candidates: list[list[tuple[int, list, float]]] = [[] for _ in targets]
    notes = {"draws": 0, "excluded_memory": 0, "passed_over": 0}
    while any(len(c) < DENSE_CANDIDATES for c in candidates):
        notes["draws"] += 1
        draw = _dense_draw(rng)
        if int(draw[2]) > DENSE_MEMORY_CAP:
            notes["excluded_memory"] += 1
            continue
        stratum = candidates[bisect.bisect_right(bounds, draw[2])]
        if len(stratum) < DENSE_CANDIDATES:
            stratum.append(draw)
        else:
            notes["passed_over"] += 1
    chosen = []
    for target, stratum in zip(targets, candidates):
        n, edges, key = min(stratum, key=lambda d: abs(math.log(d[2] / target)))
        chosen.append((n, edges))
        notes.setdefault("guesses", []).append(int(key))
    return chosen, notes


def build_dense_core(seed: int, workdir: str, cli_main) -> Plan:
    chosen, notes = draw_dense(seed)
    ops = []
    for i, (n, edges) in enumerate(chosen):
        path = _write(os.path.join(workdir, f"dense-{i}.graph"), format_graph(n, edges))
        ops.append(_solve_op(path, n, edges, _exhaustive_proof(n, edges)))
    n, edges = warmup_dense()
    proof = checks.exact_proof(load_optima()["dense-core"])
    return Plan(ops, [_warmup_solve(workdir, "dense-core", n, edges, proof)], notes)


def _exhaustive_proof(n: int, edges):
    """The optimum must equal the exhaustive one, which is computed on first
    use, after the timed run, so that it stays out of set-up."""
    optimum = functools.cache(lambda: checks.min_geodetic_exhaustive(n, edges))
    return lambda adj, claimed: checks.exact_proof(optimum())(adj, claimed)


def build_reduce_large(seed: int, workdir: str, cli_main) -> Plan:
    rng = random.Random(seed)
    ops = []
    for i, (n, fen) in enumerate(REDUCE_SIZES):
        edges = near_tree(n, n // 2, fen, rng)
        path = _write(os.path.join(workdir, f"reduce-{i}.graph"), format_graph(n, edges))
        ops.append(_reduce_op(path, os.path.join(workdir, f"reduce-{i}.out"), n, edges))
    n, fen, wseed = WARMUP_REDUCE
    edges = near_tree(n, n // 2, fen, random.Random(wseed))
    path = _write(os.path.join(workdir, "warmup-reduce.graph"), format_graph(n, edges))
    warm = _reduce_op(path, os.path.join(workdir, "warmup-reduce.out"), n, edges)
    return Plan(ops, [warm])


def _gadget_ops(cli_main, workdir: str, tag: str, k: int, m: int, alphabet: int,
                gen_seed: int) -> list[Op]:
    prefix = os.path.join(workdir, tag)
    argv = ["generate", "gadget", "--k", str(k), "--m", str(m), "--n", str(alphabet),
            "--planted", "yes", "--seed", str(gen_seed), "--out", prefix]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli_main(argv)
    problem = f"generate exit code {rc}" if rc != 0 else None
    try:
        with open(prefix + ".graph", encoding="utf-8") as fh:
            n, edges = checks.parse_graph_text(fh.read())
        with open(prefix + ".solution", encoding="utf-8") as fh:
            planted = [int(t) for t in fh.read().split()]
    except (OSError, ValueError) as exc:
        n, edges, planted, problem = 0, [], [], f"generate failed: {exc}"

    @functools.cache
    def input_problem() -> str | None:
        # checked on first use, after the timed run, to stay out of set-up
        return problem or checks.check_gadget_input(n, edges, planted, k, m, alphabet)

    def guarded(check: Check) -> Check:
        return lambda record: input_problem() or check(record)

    graph = prefix + ".graph"
    ops = [Op("verify", ["verify", graph, prefix + ".solution"], guarded(
        lambda r: checks.check_verify(r, n, edges, planted, True)))]
    pendant = min(v for v in planted if sum(1 for e in edges if v in e) == 1) if planted else 0
    short = [v for v in planted if v != pendant]
    short_path = _write(prefix + ".short", " ".join(map(str, short)) + "\n")
    ops.append(Op("verify", ["verify", graph, short_path], guarded(
        lambda r: checks.check_verify(r, n, edges, short, False)),
        (checks.corrupt_verify_flip,)))
    ops.append(Op("stats", ["stats", graph], guarded(
        lambda r: checks.check_stats(r, n, edges, m))))
    return ops


def build_gadget(seed: int, workdir: str, cli_main) -> Plan:
    rng = random.Random(seed)
    ops = []
    for i, (k, m, alphabet) in enumerate(GADGET_PARAMS):
        ops += _gadget_ops(cli_main, workdir, f"gadget-{i}", k, m, alphabet,
                           rng.randrange(2**32))
    k, m, alphabet, gen_seed = WARMUP_GADGET
    warm = _gadget_ops(cli_main, workdir, "warmup-gadget", k, m, alphabet, gen_seed)
    return Plan(ops, warm)


BUILDERS = {
    "near-tree": build_near_tree,
    "dense-core": build_dense_core,
    "reduce-large": build_reduce_large,
    "gadget": build_gadget,
}
