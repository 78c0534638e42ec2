"""Child process that runs a workload's ops in-process and reports samples.

Reads one JSON job from stdin and writes one JSON result to stdout. Each
job gets a fresh interpreter, so caches start cold, peak RSS belongs to
the workload alone, and a traced run cannot reuse what an untraced run
built.

job keys:
    workload, seed, order   select the op stream (see workloads.py)
    passes                  run exactly this many passes, or
    seconds                 start passes while the last one would still fit
    trace                   run under the outside-in tracer

A traced run is given a fixed number of passes so that its counters repeat
exactly for a given seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from fractions import Fraction

import workloads


def _param(value):
    return Fraction(value) if isinstance(value, str) else value


def _run_verify(op, verify):
    """One verify() call; returns (id, status)."""
    params = {k: _param(v) for k, v in op["params"].items()}
    try:
        report = verify(op["id"], order=op["order"], params=params, seed=op["seed"])
    except Exception as exc:  # counted as a failed op, not a crashed run
        return op["id"], f"raised {type(exc).__name__}: {exc}"
    return report.id, report.status


def _run_cli_main(op):
    """One in-process `qrs verify-all` through cli.main; returns its reports."""
    import qrs.cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = qrs.cli.main(workloads.cli_argv(op))
    reports = json.loads(out.getvalue()) if code == 0 else []
    return code, [(r["id"], r["status"]) for r in reports]


def run(job: dict) -> dict:
    import qrs.idverify as idverify
    stream = workloads.passes(job["workload"], job["seed"], idverify.registry(), job["order"])
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
    clock = time.perf_counter
    pass_s, op_ms, statuses, processes = [], [], [], []
    start = clock()
    with tracer if tracer is not None else contextlib.nullcontext():
        for done, ops in enumerate(stream):
            if done == job["passes"] or (job["passes"] is None and pass_s
                                         and clock() - start + pass_s[-1] > job["seconds"]):
                break
            t0 = clock()
            for op in ops:
                t = clock()
                if job["workload"] == "cli-verify-all":
                    processes.append(_run_cli_main(op))
                else:
                    # module attribute, so a traced run goes through the wrapper
                    statuses.append(_run_verify(op, idverify.verify))
                op_ms.append((clock() - t) * 1000)
            pass_s.append(clock() - t0)
    result = {"elapsed_s": clock() - start, "pass_s": pass_s, "op_ms": op_ms,
              "statuses": statuses, "processes": processes}
    if tracer is not None:
        hits, misses, entries = tracer.cache_stats()
        result["layers"] = {
            "calls": dict(tracer.calls), "self_s": dict(tracer.self_s),
            "counters": dict(tracer.counters), "bits_max": tracer.bits_max,
            "cache": [hits, misses, entries], "missing": tracer.missing}
    return result


if __name__ == "__main__":
    json.dump(run(json.load(sys.stdin)), sys.stdout)
