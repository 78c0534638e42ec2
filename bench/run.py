#!/usr/bin/env python3
"""qrs benchmark: closed-loop workloads, end-to-end metrics, and an
outside-in trace of every package module.

    python3 bench/run.py --workload numeric-quad --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all            # every workload, one table each
    python3 bench/run.py --smoke                   # fast self-test of the harness

Run it from the repository root (any checkout with `src/qrs`); it needs
nothing beyond the standard library. The workloads are described in
workloads.py; BENCHMARK.json gates cli-verify-all and numeric-quad. With
`--trace 0` the run measures for `--seconds` and reports the end-to-end
metrics; with `--trace 1` it runs a fixed op list twice, once untraced and
once under tracer.py, and reports the per-layer metrics. Either
way the last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are a table of
the same metrics with units and sample counts.

Every run checks its results outside the timed region: each op must give
`exact-pass` (exact modes) or `pass`, each case's `--perturb` negative
control must give `fail`, and four polynomial families must match the
independent oracle in oracle.py coefficient by coefficient. Every failure
counts in `failed`; `pass_ratio` is 1 - failed/attempted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

import oracle
import workloads
from tracer import LAYERS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

RUN_BUDGET_S = 170          # children are killed past this, per workload
SETUP_SPAWNS = 21
TRACE_PASSES = {"cli-verify-all": 1, "series-deep": 1, "numeric-quad": 10}
SMOKE_ORDER = {"cli-verify-all": 2, "series-deep": 3, "numeric-quad": None}
CONTROL_ORDER = 2
ORACLE_NMAX = 6
EXACT_MODES = ("exact-series", "exact-poly")
SETUP_CODE = ("import time; t = time.perf_counter(); import qrs; qrs.registry(); "
              "print(time.perf_counter() - t)")


class BenchError(RuntimeError):
    """The run could not produce a result."""


# -- child processes -----------------------------------------------------------


def spawn(argv, deadline: float, stdin: bytes = b"") -> dict:
    """Run a child to completion: exit code, output, wall time, peak RSS.

    The child is killed once the run's deadline passes. It is reaped with
    wait4 so that its own peak RSS can be read.
    """
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    timer = threading.Timer(max(deadline - started, 0.1), proc.kill)
    timer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        proc.stdin.write(stdin)
        proc.stdin.close()
        out = proc.stdout.read()
    finally:
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    if time.perf_counter() >= deadline:
        raise BenchError(f"{' '.join(argv[1:3])} overran the {RUN_BUDGET_S} s budget")
    return {"code": proc.returncode, "out": out.decode(), "err": err[0].decode(),
            "wall_s": time.perf_counter() - started, "rss_mb": usage.ru_maxrss / 1024}


def measure_setup(deadline: float) -> list:
    """Seconds from `import qrs` to a ready registry, in fresh interpreters."""
    argv = [sys.executable, "-c", SETUP_CODE]
    spawn(argv, deadline)  # writes bytecode caches, so every sample reads them
    samples = []
    for _ in range(SETUP_SPAWNS):
        child = spawn(argv, deadline)
        if child["code"] != 0:
            raise BenchError(f"import qrs failed: {child['err'].strip()}")
        samples.append(float(child["out"]))
    return samples


def cli_process(op: dict, deadline: float) -> dict:
    """One `python -m qrs verify-all --timings` process."""
    child = spawn([sys.executable, "-m", "qrs"] + workloads.cli_argv(op), deadline)
    try:
        reports = json.loads(child["out"]) if child["code"] == 0 else []
    except json.JSONDecodeError:
        reports = []
    child["reports"] = reports
    return child


def run_cli(stream, seconds: float, deadline: float) -> dict:
    """The cli-verify-all closed loop: one process after another."""
    samples = {"pass_s": [], "op_ms": [], "processes": [], "statuses": [], "rss_mb": []}
    start = time.perf_counter()
    for (op,) in stream:
        if samples["pass_s"] and time.perf_counter() - start + samples["pass_s"][-1] > seconds:
            break
        child = cli_process(op, deadline)
        samples["pass_s"].append(child["wall_s"])
        samples["rss_mb"].append(child["rss_mb"])
        samples["op_ms"].extend(r["elapsed_ms"] for r in child["reports"])
        samples["processes"].append(
            [child["code"], [[r["id"], r["status"]] for r in child["reports"]]])
    samples["elapsed_s"] = time.perf_counter() - start
    return samples


def run_worker(job: dict, deadline: float) -> dict:
    child = spawn([sys.executable, os.path.join(BENCH, "worker.py")], deadline,
                  json.dumps(job).encode())
    if child["code"] != 0:
        raise BenchError(f"worker failed: {child['err'].strip()[-2000:]}")
    result = json.loads(child["out"])
    result["rss_mb"] = [child["rss_mb"]]
    return result


# -- correctness gate ----------------------------------------------------------


def op_failures(samples: dict, cases) -> list:
    """One entry per failed op; a verify-all process must exit 0 with
    exactly one report per registered case, in registry order."""
    want = {c.id: "exact-pass" if c.mode in EXACT_MODES else "pass" for c in cases}
    ids = [c.id for c in cases]
    failures = []
    for code, reports in samples["processes"]:
        if code != 0 or [r[0] for r in reports] != ids:
            failures += [f"verify-all exited {code} with {len(reports)} reports"] * len(ids)
        else:
            failures += [f"{i}: {s}" for i, s in reports if s != want[i]]
    failures += [f"{i}: {s}" for i, s in samples["statuses"] if s != want.get(i)]
    return failures


def op_count(samples: dict, cases) -> int:
    return len(samples["processes"]) * len(cases) + len(samples["statuses"])


def gate_checks(seed: int, cases) -> tuple:
    """Negative controls and oracle comparisons: (attempted, failure list)."""
    from qrs import verify
    failures, attempted = [], 0
    for case in cases:
        attempted += 1
        try:
            status = verify(case.id, order=CONTROL_ORDER, perturb=True).status
        except Exception as exc:  # a control that cannot run does not bite
            status = f"raised {type(exc).__name__}: {exc}"
        if status != "fail":
            failures.append(f"{case.id} --perturb gave {status}")
    rng = random.Random(f"oracle:{seed}")
    q = Fraction(rng.randint(1, 99), rng.randint(100, 200))
    a = Fraction(rng.randint(-9, 9), rng.randint(10, 20))
    for qq, aa in ((Fraction(1, 2), Fraction(1, 4)), (q, a)):
        for label, bad in oracle.checks(qq, aa, ORACLE_NMAX):
            attempted += 1
            if bad:
                failures.append(f"oracle {label}: {bad}")
    return attempted, failures


# -- metrics -------------------------------------------------------------------


def nearest_rank(values, p: float):
    """p-th percentile by nearest rank, with the number of samples above it."""
    s = sorted(values)
    k = max(1, math.ceil(p * len(s)))
    return s[k - 1], len(s) - k


def end_to_end(samples: dict, setup: list, n_ops: int, attempted: int, failed: int) -> dict:
    p50, _ = nearest_rank(samples["op_ms"], 0.5)
    p90, beyond = nearest_rank(samples["op_ms"], 0.9)
    n, passes = len(samples["op_ms"]), len(samples["pass_s"])
    tail = "" if beyond >= 10 else f", only {beyond} beyond: indicative"
    return {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} spawns"),
        "wall_s": (statistics.median(samples["pass_s"]), "s", f"median of {passes} passes"),
        "ops_per_s": (n_ops / samples["elapsed_s"], "1/s",
                      f"{n_ops} verify() calls in {samples['elapsed_s']:.1f} s"),
        "op_ms_p50": (p50, "ms", f"n={n}"),
        "op_ms_p90": (p90, "ms", f"n={n}{tail}"),
        "pass_ratio": (1 - failed / attempted, "ratio",
                       f"fail_ratio = {failed}/{attempted} = {failed / attempted:.4g}"),
        "peak_rss_mb": (statistics.median(samples["rss_mb"]), "MB",
                        f"median of {len(samples['rss_mb'])} processes"),
    }


CALL_LAYERS = ("qcore.mul", "qcore.add", "fps.series_mul", "fps.series_inv",
               "fps.phi_series", "fps.phi_sum", "families.qhermite_eval",
               "quadrature.integrate", "quadrature.qpoch_inf")
COUNTERS = ("qcore.mul.term_pairs", "qcore.add.terms_in", "fps.series_mul.coef_pairs",
            "quadrature.integrate.evals")


def per_layer(layers: dict, case_ms: dict, overhead_s: float) -> dict:
    m = {f"{name}.self_s": (layers["self_s"].get(name, 0.0), "s", "") for name in LAYERS}
    m.update({f"{name}.calls": (layers["calls"].get(name, 0), "count", "") for name in CALL_LAYERS})
    m.update({name: (layers["counters"].get(name, 0), "count", "") for name in COUNTERS})
    hits, misses, entries = layers["cache"]
    m["qcore.coef_bits_max"] = (layers["bits_max"], "bits", "")
    m["families.cache_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio",
                                     f"{hits} hits, {misses} misses")
    m["families.cache_entries"] = (entries, "count", "")
    m.update({f"idverify.case.{cid}.ms": (ms, "ms", "untraced verify-all")
              for cid, ms in case_ms.items()})
    m["trace.overhead_s"] = (overhead_s, "s", "traced minus untraced wall_s")
    return m


# -- one workload ----------------------------------------------------------------


def source_sha256() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "qrs")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 order: int | None = None) -> dict:
    """Measure one workload; returns metrics, counts and the failure list."""
    from qrs import registry
    deadline = time.perf_counter() + RUN_BUDGET_S
    cases = registry()
    meta = {"workload": workload, "seed": seed, "trace": int(trace),
            "op_list_sha256": workloads.op_list_sha256(workload, seed, cases, order),
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "commit": commit(), "source_sha256": source_sha256()}
    print("meta " + json.dumps(meta), flush=True)
    job = {"workload": workload, "seed": seed, "order": order, "trace": False,
           "passes": None, "seconds": seconds}
    if not trace:
        setup = measure_setup(deadline)
        if workload == "cli-verify-all":
            samples = run_cli(workloads.passes(workload, seed, cases, order), seconds, deadline)
        else:
            samples = run_worker(job, deadline)
        failures = op_failures(samples, cases)
        n_ops = op_count(samples, cases)
        attempted, gate_failures = gate_checks(seed, cases)
        failures += gate_failures
        attempted += n_ops
        metrics = end_to_end(samples, setup, n_ops, attempted, len(failures))
        return {"metrics": metrics, "attempted": attempted, "failures": failures}

    job["passes"] = TRACE_PASSES[workload]
    untraced = run_worker(job, deadline)
    traced = run_worker(dict(job, trace=True), deadline)
    (cli_op,) = next(workloads.passes("cli-verify-all", seed, cases, order))
    reference = cli_process(cli_op, deadline)
    ref_samples = {"processes": [[reference["code"],
                                  [[r["id"], r["status"]] for r in reference["reports"]]]],
                   "statuses": []}
    failures = []
    for samples in (untraced, traced, ref_samples):
        failures += op_failures(samples, cases)
    attempted = sum(op_count(s, cases) for s in (untraced, traced, ref_samples)) + 1
    if (untraced["statuses"], untraced["processes"]) != (traced["statuses"], traced["processes"]):
        failures.append("traced and untraced runs gave different statuses")
    if traced["layers"]["missing"]:
        print("note: not traced (absent): " + ", ".join(traced["layers"]["missing"]))
    gate_attempted, gate_failures = gate_checks(seed, cases)
    failures += gate_failures
    attempted += gate_attempted
    overhead = statistics.median(traced["pass_s"]) - statistics.median(untraced["pass_s"])
    case_ms = {r["id"]: r["elapsed_ms"] for r in reference["reports"]}
    metrics = per_layer(traced["layers"], case_ms, overhead)
    return {"metrics": metrics, "attempted": attempted, "failures": failures}


def print_table(workload: str, result: dict) -> None:
    print(f"== {workload}")
    for name, (value, unit, note) in result["metrics"].items():
        print(f"  {name:36s} {value:>14.6g} {unit:6s} {note}")
    for failure in result["failures"][:20]:
        print(f"  FAILED {failure}")


def summary(results: dict) -> dict:
    """The final JSON line; metric names are prefixed when several workloads ran."""
    prefix = len(results) > 1
    metrics = {(f"{wl}.{name}" if prefix else name): {"value": value, "unit": unit}
               for wl, res in results.items()
               for name, (value, unit, _) in res["metrics"].items()}
    failed = sum(len(r["failures"]) for r in results.values())
    return {"correct": failed == 0, "attempted": sum(r["attempted"] for r in results.values()),
            "failed": failed, "metrics": metrics}


# -- self-test -------------------------------------------------------------------


def smoke() -> int:
    """Each workload on a few small ops in both modes, then injected faults."""
    from qrs import registry, verify
    from qrs.qcore import MultiPoly
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    cases = registry()
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            res = run_workload(workload, 0, 0.5, bool(trace), SMOKE_ORDER[workload])
            print_table(workload, res)
            if set(res["metrics"]) != declared[trace]:
                problems.append(f"{workload} trace {trace}: metric names differ from "
                                f"BENCHMARK.json: {sorted(set(res['metrics']) ^ declared[trace])}")
            if res["failures"]:
                problems.append(f"{workload} trace {trace}: {res['failures'][:3]}")
    # a wrong status from one op must be counted
    tampered = {"processes": [], "statuses": [["mehler-rs", "fail"], ["gf-big", "pass"]]}
    if len(op_failures(tampered, cases)) != 1:
        problems.append("gate missed an injected wrong status")
    # a kernel whose products are all zero still passes some identities...
    original = MultiPoly.__mul__
    zero = lambda self, other: MultiPoly(self.vars, {})  # noqa: E731
    MultiPoly.__mul__ = MultiPoly.__rmul__ = zero
    try:
        fooled = verify("hlm-relation", order=2).status
        _, failures = gate_checks(0, cases)
    finally:
        MultiPoly.__mul__ = MultiPoly.__rmul__ = original
    print(f"zero-product kernel: hlm-relation reports {fooled}; "
          f"gate finds {len(failures)} failures")
    if not any(f.startswith("oracle ") for f in failures):
        problems.append("oracle missed a zero-product kernel")
    for p in problems:
        print(f"SMOKE FAILED {p}")
    print("smoke ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="fast self-test of the harness")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qrs", "__init__.py")):
        print(f"bench: no qrs package under {SRC}; run from a qrs checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {wl: run_workload(wl, args.seed, args.seconds, bool(args.trace))
                   for wl in names}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for wl, res in results.items():
        print_table(wl, res)
    final = summary(results)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
