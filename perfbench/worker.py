"""Op runner: one fresh process that calls ``geodetic.cli.main`` in-process.

Usage: ``python3 perfbench/worker.py SPEC.json`` from the repository root.
The spec (written by ``run.py``) names the warm-up ops, the timed op list,
how long to keep making whole passes over it and whether to add a traced
pass.  The runner imports ``geodetic`` from ``src/`` of the current
directory only, writes its timings and every distinct output to the spec's
result path, and exits.  Peak resident memory is this process's own, so
input generation and output checking (both in ``run.py``) cannot set it.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback


def load_cli():
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    from geodetic import cli  # noqa: E402  (the path above decides which copy)

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ImportError(f"geodetic imported from {cli.__file__}, not {src}")
    return cli


def run_op(cli, op: dict) -> tuple[int, dict]:
    """Run one op; returns (elapsed ns, output record)."""
    out, err = io.StringIO(), io.StringIO()
    if op.get("out"):
        # a fresh file each time: on ext4, truncating a file whose blocks
        # are not yet written back forces a flush inside the timed region
        with contextlib.suppress(FileNotFoundError):
            os.unlink(op["out"])
    gc.collect()  # outside the timed region
    started = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op["argv"])
    except Exception:  # an op that crashes is recorded and counted as failed
        rc = "exception"
        err.write(traceback.format_exc())
    elapsed = time.perf_counter_ns() - started
    record = {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if op.get("out"):
        try:
            with open(op["out"], encoding="utf-8") as fh:
                record["out"] = fh.read()
        except OSError:
            record["out"] = None
    return elapsed, record


def run_pass(cli, ops: list[dict], seen: list[list[dict]]) -> dict:
    """One pass over the op list.

    Keeps each op's distinct outputs in ``seen`` and returns the op times
    and the index of each op's output in ``seen``.
    """
    op_ns, outputs = [], []
    for i, op in enumerate(ops):
        elapsed, record = run_op(cli, op)
        op_ns.append(elapsed)
        if record not in seen[i]:
            seen[i].append(record)
        outputs.append(seen[i].index(record))
    return {"op_ns": op_ns, "outputs": outputs}


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    cli = load_cli()
    result: dict = {"warmup": [run_op(cli, op)[1] for op in spec["warmup"]]}
    if spec["seconds"] > 0:
        ops = spec["ops"]
        seen: list[list[dict]] = [[] for _ in ops]
        passes: list[dict] = []
        began = time.perf_counter()
        longest = 0.0
        # whole passes only, and none that would end past the deadline
        while not passes or time.perf_counter() - began + longest <= spec["seconds"]:
            t0 = time.perf_counter()
            passes.append(run_pass(cli, ops, seen))
            longest = max(longest, time.perf_counter() - t0)
        result["passes"] = passes
        if spec["trace"]:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            try:
                result["traced_pass"] = run_pass(cli, ops, seen)
            finally:
                tracer.uninstall()
            result["trace"] = tracer.summary()
        result["outputs"] = seen
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
