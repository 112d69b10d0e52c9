"""Output checks made apart from the program.

Nothing here imports ``geodetic``.  Geodecity is confirmed by one BFS per
member of the set followed by a backward sweep over the BFS order that
marks every vertex on a shortest path to some member, O(|S| m) in all.
Each ``check_*`` function returns ``None`` for a correct output or a short
reason for a wrong one.
"""

from __future__ import annotations

from collections import deque

from instances import adjacency


class Report:
    """The ``key value`` lines of one CLI report; ``RULE`` lines kept apart."""

    def __init__(self, text: str):
        self.values: dict[str, list[str]] = {}
        self.rules: list[list[str]] = []
        for line in text.splitlines():
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "RULE":
                self.rules.append(parts[1:])
            elif parts[0].isidentifier() or "-" in parts[0]:
                self.values.setdefault(parts[0], parts[1:])

    def get(self, key: str) -> list[str] | None:
        return self.values.get(key)

    def int(self, key: str) -> int | None:
        vals = self.values.get(key)
        if not vals or len(vals) != 1:
            return None
        try:
            return int(vals[0])
        except ValueError:
            return None


def parse_graph_text(text: str) -> tuple[int, list[tuple[int, int]]]:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    n, m = (int(t) for t in lines[0].split())
    edges = [tuple(int(t) for t in ln.split()) for ln in lines[1:]]
    if len(edges) != m:
        raise ValueError(f"header says {m} edges, found {len(edges)}")
    return n, edges


def bfs(adj: list[list[int]], source: int) -> tuple[list[int], list[int]]:
    """Distances (-1 if unreachable) and the BFS visiting order."""
    dist = [-1] * len(adj)
    dist[source] = 0
    order = [source]
    queue = deque(order)
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = du
                order.append(v)
                queue.append(v)
    return dist, order


def covered(adj: list[list[int]], chosen) -> list[bool]:
    """Which vertices lie on a shortest path between two members of ``chosen``."""
    members = set(chosen)
    cover = [False] * len(adj)
    for v in members:
        cover[v] = True
    left = len(adj) - len(members)
    for u in members:
        if left == 0:
            break
        dist, order = bfs(adj, u)
        on = [False] * len(adj)
        for v in members:
            on[v] = True
        for w in reversed(order):
            if on[w]:
                dw = dist[w] - 1
                for p in adj[w]:
                    if dist[p] == dw:
                        on[p] = True
                if not cover[w]:
                    cover[w] = True
                    left -= 1
    return cover


def is_geodetic(adj: list[list[int]], chosen) -> bool:
    return all(covered(adj, chosen))


def components(adj: list[list[int]]) -> int:
    seen = [False] * len(adj)
    count = 0
    for s in range(len(adj)):
        if not seen[s]:
            count += 1
            for v in bfs(adj, s)[1]:
                seen[v] = True
    return count


def leaves(adj: list[list[int]]) -> list[int]:
    return [v for v in range(len(adj)) if len(adj[v]) == 1]


def min_geodetic_exhaustive(n: int, edges) -> int:
    """Smallest geodetic set size, by search over supersets of the leaves.

    Every leaf is in every geodetic set, so sizes are tried upward from the
    leaf count, with bitmask intervals and an incremental union.
    """
    adj = adjacency(n, edges)
    if n == 1:
        return 1
    dist = [bfs(adj, s)[0] for s in range(n)]
    interval = [
        [sum(1 << w for w in range(n) if dist[u][w] + dist[w][v] == dist[u][v])
         for v in range(n)]
        for u in range(n)
    ]
    full = (1 << n) - 1
    forced = leaves(adj)
    base = 0
    for a in forced:
        for b in forced:
            base |= interval[a][b]
    free = [v for v in range(n) if v not in set(forced)]
    reach = {x: interval[x][x] for x in free}
    for x in free:
        for a in forced:
            reach[x] |= interval[x][a]

    def extend(cover: int, picked: list[int], start: int, extra: int) -> bool:
        if extra == 0:
            return cover == full
        for i in range(start, len(free) - extra + 1):
            x = free[i]
            grown = cover | reach[x]
            for y in picked:
                grown |= interval[x][y]
            picked.append(x)
            if extend(grown, picked, i + 1, extra - 1):
                return True
            picked.pop()
        return False

    for extra in range(len(free) + 1):
        if extend(base, [], 0, extra):
            return len(forced) + extra
    raise AssertionError("the whole vertex set is always geodetic")


def _solve_witness(text: str, n: int) -> tuple[int, list[int]] | str:
    rep = Report(text)
    if rep.get("status") != ["optimal"]:
        return f"status {rep.get('status')}"
    optimum = rep.int("optimum")
    witness_tokens = rep.get("witness")
    if optimum is None or witness_tokens is None:
        return "no optimum or witness line"
    witness = [int(t) for t in witness_tokens]
    if len(set(witness)) != len(witness) or not all(0 <= v < n for v in witness):
        return "witness has repeated or out-of-range vertices"
    if len(witness) != optimum:
        return f"witness size {len(witness)} != optimum {optimum}"
    return optimum, witness


def check_solve(record: dict, n: int, edges, optimum_proof) -> str | None:
    """A ``solve`` report: a geodetic witness holding every leaf, whose
    size equals the optimum, and an optimum that ``optimum_proof`` accepts."""
    if record["rc"] != 0:
        return f"exit code {record['rc']}"
    parsed = _solve_witness(record["stdout"], n)
    if isinstance(parsed, str):
        return parsed
    optimum, witness = parsed
    adj = adjacency(n, edges)
    if not set(leaves(adj)) <= set(witness):
        return "a degree-1 vertex is missing from the witness"
    if not is_geodetic(adj, witness):
        return "witness is not geodetic"
    return optimum_proof(adj, optimum)


def leaf_bound_proof(adj, optimum: int) -> str | None:
    """Optimality from the leaf lower bound: the optimum is the leaf count,
    or one more while the leaves alone are not geodetic."""
    forced = leaves(adj)
    if optimum == len(forced):
        return None
    if optimum == len(forced) + 1 and not is_geodetic(adj, forced):
        return None
    return f"optimum {optimum} not proven by the {len(forced)} leaves"


def exact_proof(expected: int):
    def proof(adj, optimum: int) -> str | None:
        if optimum != expected:
            return f"optimum {optimum} != exhaustive optimum {expected}"
        return None

    return proof


def check_reduce(record: dict, n: int, edges) -> str | None:
    """A ``reduce --out`` result: connected, at the collapse/twin fixpoint,
    fen lowered by exactly the loop-prune count and k-decrease equal to the
    sum of the rule budgets."""
    if record["rc"] != 0:
        return f"exit code {record['rc']}"
    if not record.get("out"):
        return "no reduced graph written"
    rep = Report(record["stdout"])
    rn, redges = parse_graph_text(record["out"])
    if (rep.int("n-after"), rep.int("m-after")) != (rn, len(redges)):
        return "n-after/m-after disagree with the reduced graph"
    if (rep.int("n-before"), rep.int("m-before")) != (n, len(edges)):
        return "n-before/m-before disagree with the input"
    radj = adjacency(rn, redges)
    if components(radj) != 1:
        return "reduced graph is disconnected"
    for v in range(rn):
        pendant = [u for u in radj[v] if len(radj[u]) == 1]
        if len(pendant) >= 2:
            return f"twin leaves {pendant[:2]} on support {v}"
        if len(radj[v]) == 1 and len(radj[radj[v][0]]) == 2:
            return f"leaf {v} on a degree-2 support"
    dk = 0
    for rule in rep.rules:
        field = [t for t in rule if t.startswith("dk=")]
        if len(field) != 1:
            return "RULE line without dk"
        dk += int(field[0][3:])
    if rep.int("k-decrease") != dk:
        return f"k-decrease {rep.int('k-decrease')} != sum of dk {dk}"
    fen_in = len(edges) - n + 1
    fen_out = len(redges) - rn + 1
    pruned = sum(1 for rule in rep.rules if rule[0] == "loop-prune")
    if fen_out != fen_in - pruned:
        return f"fen {fen_in} -> {fen_out} with {pruned} loop-prunes"
    return None


def gadget_size(k: int, m: int, alphabet: int) -> tuple[int, int]:
    """Vertex and edge counts of the hardness gadget, from the paper."""
    vertices = 8 + k * k * alphabet + 4 * k * k * (4 + 64 * m * alphabet)
    edges = 4 + 4 * k * k * (64 * m * alphabet + 8 * alphabet + 2)
    return vertices, edges


def check_gadget_input(n: int, edges, planted: list[int], k: int, m: int,
                       alphabet: int) -> str | None:
    if (n, len(edges)) != gadget_size(k, m, alphabet):
        return f"gadget has {n} vertices, {len(edges)} edges"
    adj = adjacency(n, edges)
    pendants = leaves(adj)
    if len(pendants) != 4:
        return f"{len(pendants)} degree-1 vertices, expected 4"
    if len(set(planted)) != k * k + 4 or not set(pendants) <= set(planted):
        return "planted set is not the pendants plus one tile per cell"
    if not is_geodetic(adj, planted):
        return "planted set is not geodetic"
    return None


def check_verify(record: dict, n: int, edges, chosen: list[int],
                 expect_geodetic: bool) -> str | None:
    rep = Report(record["stdout"])
    want = ("geodetic", 0) if expect_geodetic else ("not-geodetic", 1)
    if (rep.get("status"), record["rc"]) != ([want[0]], want[1]):
        return f"status {rep.get('status')} rc {record['rc']}, expected {want}"
    if not expect_geodetic:
        miss = rep.int("uncovered")
        if miss is None or not 0 <= miss < n or covered(adjacency(n, edges), chosen)[miss]:
            return f"reported uncovered vertex {miss} is covered"
    return None


def check_stats(record: dict, n: int, edges, m_param: int) -> str | None:
    if record["rc"] != 0:
        return f"exit code {record['rc']}"
    rep = Report(record["stdout"])
    if (rep.int("n"), rep.int("m"), rep.int("components")) != (n, len(edges), 1):
        return "n, m or components wrong"
    if rep.int("fen") != len(edges) - n + 1:
        return f"fen {rep.int('fen')} != {len(edges) - n + 1}"
    diam = rep.int("diameter")
    ecc = max(bfs(adjacency(n, edges), 0)[0])
    if diam is None or not ecc <= diam <= min(2 * ecc, 36 * m_param + 6):
        return f"diameter {diam} outside [{ecc}, min({2 * ecc}, {36 * m_param + 6})]"
    return None


# -- corrupted outputs that the checks above must reject ----------------------

def corrupt_witness_drop(text: str) -> str:
    """Drop the last witness vertex and lower the optimum to match."""
    out = []
    for ln in text.splitlines():
        if ln.startswith("witness "):
            ln = " ".join(ln.split()[:-1])
        elif ln.startswith("optimum "):
            ln = f"optimum {int(ln.split()[1]) - 1}"
        out.append(ln + "\n")
    return "".join(out)


def corrupt_optimum_up(text: str, n: int) -> str:
    """Claim one more than the optimum, with a witness grown to match."""
    rep = Report(text)
    witness = {int(t) for t in rep.get("witness")}
    extra = next(v for v in range(n) if v not in witness)
    out = []
    for ln in text.splitlines():
        if ln.startswith("optimum "):
            ln = f"optimum {len(witness) + 1}"
        elif ln.startswith("witness "):
            ln = "witness " + " ".join(str(v) for v in sorted(witness | {extra}))
        out.append(ln + "\n")
    return "".join(out)


def corrupt_reduced_twins(record: dict) -> dict:
    """Hang two new leaves off vertex 0 of the reduced graph."""
    rn, redges = parse_graph_text(record["out"])
    redges = redges + [(0, rn), (0, rn + 1)]
    out = f"{rn + 2} {len(redges)}\n" + "".join(f"{u} {v}\n" for u, v in redges)
    stdout = "".join(
        f"n-after {rn + 2}\n" if ln.startswith("n-after ")
        else f"m-after {len(redges)}\n" if ln.startswith("m-after ")
        else ln + "\n"
        for ln in record["stdout"].splitlines()
    )
    return dict(record, out=out, stdout=stdout)


def corrupt_verify_flip(record: dict) -> dict:
    """Report a non-geodetic set as geodetic."""
    return dict(record, rc=0, stdout=record["stdout"].replace("not-geodetic", "geodetic"))
