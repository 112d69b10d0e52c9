"""Benchmark of the ``geodetic`` command line tool: one workload, one seed.

Run from the repository root::

    python3 perfbench/run.py --workload near-tree --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --remake-optima   # rewrite perfbench/optima.json
    python3 perfbench/run.py --remake-strata   # rewrite perfbench/strata.json

Set-up makes the workload's inputs from the seed, writes them under
``perfbench/.work/`` and starts a fresh op runner (``worker.py``) that
imports ``geodetic`` from ``src/`` and does one warm-up op of each kind.
Set-up is done ``SETUP_REPEATS`` times, the last ``SETUP_AFTER`` of them
after the timed run, and ``setup_s`` is its median.  For the timed run a
fresh runner does the warm-up again and then makes whole passes over the op
list for ``--seconds`` seconds, one op at a time (a closed loop with one
caller); with ``--trace 1`` it adds one pass under the per-layer tracer.
Every output is checked by ``checks.py``, which does not import
``geodetic``, and a wrong output counts as a failed op.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a fuller record goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 7
# set-ups made after the timed run rather than before it, so that one slow
# period of the shared host does not set the median
SETUP_AFTER = 3
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_MARGIN_S = 90
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


@functools.cache
def _program_cli():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from geodetic import cli

    return cli


def program_main(argv: list[str]) -> int:
    """``geodetic.cli.main`` from ``src/``, imported on first use."""
    return _program_cli().main(argv)


def run_worker(workdir: str, plan: workloads.Plan, seconds: int, trace: bool) -> dict:
    tag = "setup" if seconds == 0 else "timed"
    spec_path = os.path.join(workdir, f"spec-{tag}.json")
    result_path = os.path.join(workdir, f"result-{tag}.json")
    spec = {
        "warmup": [op.spec() for op in plan.warmup],
        "ops": [op.spec() for op in plan.ops],
        "seconds": seconds,
        "trace": trace,
        "result": result_path,
    }
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=HERE)
    timeout = (SETUP_TIMEOUT_S if seconds == 0 else
               seconds + RUN_TIMEOUT_MARGIN_S)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
            env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"op runner passed its {timeout} s limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"op runner exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def set_up(name: str, seed: int, workdir: str) -> tuple[float, workloads.Plan, dict]:
    """Inputs, input files, op runner start-up, imports and warm-up, timed.

    ``workdir`` must be new: every file is written fresh, never overwritten.
    """
    started = time.perf_counter()
    os.makedirs(workdir)
    plan = workloads.BUILDERS[name](seed, workdir, program_main)
    warm = run_worker(workdir, plan, 0, False)
    return time.perf_counter() - started, plan, warm


def failures(ops: list[workloads.Op], outputs: list[list[dict]],
             executions: list[dict]) -> list[str]:
    """One reason per op execution whose output fails its op's check.

    ``outputs[i]`` holds op i's distinct outputs; each execution names, for
    every op, the index of its output there.
    """
    verdicts = [[op.check(rec) for rec in recs] for op, recs in zip(ops, outputs)]
    return [f"op {i} {' '.join(ops[i].argv)}: {verdicts[i][k]}"
            for p in executions for i, k in enumerate(p["outputs"])
            if verdicts[i][k] is not None]


def check_warmup(plan: workloads.Plan, records: list[dict]) -> tuple[list[str], dict]:
    """Problems with the warm-up outputs, and the self-check: every
    corrupted copy of a correct warm-up output must count as a failed op."""
    once = [{"outputs": [0] * len(records)}]
    problems = failures(plan.warmup, [[r] for r in records], once)
    good = [(op, r) for op, r in zip(plan.warmup, records) if op.check(r) is None]
    ops = [op for op, _r in good for _c in op.corruptions]
    corrupted = [[corrupt(r)] for op, r in good for corrupt in op.corruptions]
    counted = len(failures(ops, corrupted, [{"outputs": [0] * len(ops)}]))
    if counted != len(ops):
        problems.append(f"self-check: {len(ops) - counted} of {len(ops)} "
                        "corrupted outputs not counted as failed")
    return problems, {"corrupted": len(ops), "counted_failed": counted}


def tail(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it, and
    its value (nearest rank); None below forty samples."""
    n = len(samples)
    if n < 40:
        return None
    pct = math.floor(100 * (n - 10) / n)
    while n - math.ceil(pct * n / 100) < 10:
        pct -= 1
    return pct, sorted(samples)[math.ceil(pct * n / 100) - 1]


def latency_by_kind(plan: workloads.Plan, passes: list[dict]) -> dict:
    out = {}
    for kind in sorted({op.kind for op in plan.ops}):
        ms = [p["op_ns"][i] / 1e6 for p in passes
              for i, op in enumerate(plan.ops) if op.kind == kind]
        entry = {"samples": len(ms), "p50": statistics.median(ms)}
        high = tail(ms)
        if high is not None:
            entry[f"p{high[0]}"] = high[1]
        out[f"{kind}_ms"] = entry
    return out


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--remake-optima", action="store_true",
                        help="recompute perfbench/optima.json and exit")
    parser.add_argument("--remake-strata", action="store_true",
                        help="recompute perfbench/strata.json and exit")
    args = parser.parse_args(argv)
    if not (args.remake_optima or args.remake_strata) and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.remake_optima or args.remake_strata:
        path, data = ((workloads.OPTIMA_PATH, workloads.remake_optima()) if args.remake_optima
                      else (workloads.STRATA_PATH, workloads.remake_strata()))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(json.dumps(data, sort_keys=True))
        return 0
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "geodetic", "cli.py")):
        print("error: run from the repository root; src/geodetic/cli.py not found",
              file=sys.stderr)
        return 2
    workdir = os.path.relpath(
        os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}"), root)
    try:
        record, line = measure(args, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(line))
    return 0


def measure(args: argparse.Namespace, workdir: str) -> tuple[dict, dict]:
    setup_s, problems = [], []

    def one_set_up(i: int) -> tuple[str, workloads.Plan]:
        inputs = os.path.join(workdir, f"setup{i}")
        took, plan, warm = set_up(args.workload, args.seed, inputs)
        setup_s.append(took)
        problems.extend(check_warmup(plan, warm["warmup"])[0])
        return inputs, plan

    for i in range(SETUP_REPEATS - SETUP_AFTER):
        inputs, plan = one_set_up(i)
    timed = run_worker(inputs, plan, args.seconds, bool(args.trace))
    for i in range(SETUP_REPEATS - SETUP_AFTER, SETUP_REPEATS):
        one_set_up(i)
    warm_problems, self_check = check_warmup(plan, timed["warmup"])
    problems += warm_problems

    executions = timed["passes"] + ([timed["traced_pass"]] if args.trace else [])
    failed_ops = failures(plan.ops, timed["outputs"], executions)
    failed = len(failed_ops)
    problems += failed_ops
    for reason in sorted(set(problems))[:20]:
        print(reason, file=sys.stderr)

    passes = timed["passes"]
    # the unhindered pass: each op's fastest time over the run's passes,
    # summed.  An op is deterministic, so load from other tenants of the
    # host can only add to its time, and the fastest time carries the
    # least of it.  The gc.collect() run between ops is left out.
    wall_s = sum(min(p["op_ns"][i] for p in passes)
                 for i in range(len(plan.ops))) / 1e9
    e2e = {
        "setup_s": statistics.median(setup_s),
        "wall_s": wall_s,
        "peak_rss_mb": timed["peak_rss_kb"] / 1024,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "ops_per_pass": len(plan.ops),
        "passes": len(passes),
        "pass_wall_s": [sum(p["op_ns"]) / 1e9 for p in passes],
        "setup_samples_s": setup_s,
        "latency": latency_by_kind(plan, passes),
        "op_ms": [[p["op_ns"][i] / 1e6 for p in passes] for i in range(len(plan.ops))],
        "inputs": plan.notes,
        "self_check": self_check,
        "end_to_end": e2e,
        "problems": sorted(set(problems)),
    }
    if args.trace:
        traced = timed["traced_pass"]
        layers = tracing.layer_metrics(timed["trace"], sum(traced["op_ns"]) / 1e9, wall_s)
        record["per_layer"] = layers
        record["trace"] = timed["trace"]
        metrics = {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    line = {
        "correct": not problems,
        "attempted": len(executions) * len(plan.ops),
        "failed": failed,
        "metrics": metrics,
    }
    return record, line


if __name__ == "__main__":
    sys.exit(main())
