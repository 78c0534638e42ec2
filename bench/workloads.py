"""Seeded op streams for the three benchmark workloads.

A workload is an endless sequence of passes; a pass is the workload's op
set with fresh inputs drawn from a `random.Random(seed)`, so the same seed
always yields the same ops. All three are closed loops with one client:
the next op starts when the previous one has returned.

cli-verify-all  each op is one `python -m qrs verify-all --timings --seed S`
    process at default orders. It is the run a CLI user waits on, with cold
    caches and interpreter start-up; exact-poly sweeps in qcore dominate and
    the 36 cases share family caches at q = 1/2.
series-deep     the 9 exact-series cases at order 10, each op with a fresh
    rational q in [1/2, 1) with denominator 100..200. fps series products,
    series_inv and phi_series do most of the work on taller coefficients
    than at q = 1/2, and no family cache entry is reused across ops.
numeric-quad    the 8 numeric-complex and 6 quadrature cases, each op with a
    fresh seed; quadrature parameters are drawn inside each case's domain
    with q in [0.1, 0.7]. Only the float layers work here (integrate,
    inf_product, phi_sum, qhermite_eval), so an exact-kernel change should
    leave it unmoved.

BENCHMARK.json lists cli-verify-all and numeric-quad. series-deep stays
runnable but is not among them: its memory-heavy mehler-brs ops slow down
most when the host is busy, so its timings spread past their bounds from
one set of runs to the next, and fewer than ten of its ops lie beyond p90.
Every layer it drives is traced on cli-verify-all too.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("cli-verify-all", "series-deep", "numeric-quad")
SERIES_ORDER = 10
# Above q ~ 0.7 askey-wilson with |a|..|d| near 0.5 cannot meet its absolute
# 1e-10 quadrature tolerance and runs to the 2M-evaluation budget (minutes
# per op), so the q draw stops there.
QUAD_Q = (0.1, 0.7)
HASH_PASSES = 32


def _rational_q(rng) -> str:
    """q = num/den in [1/2, 1) with den in 100..200: a numerator this size
    keeps every op's coefficient height alike, so no op is much cheaper."""
    den = rng.randint(100, 200)
    while True:
        num = rng.randint((den + 1) // 2, den - 1)
        if math.gcd(num, den) == 1:
            return f"{num}/{den}"


def _quad_params(rng, defaults: dict) -> dict:
    out = {}
    for name, default in sorted(defaults.items()):
        if name == "tol":
            continue
        if name == "q":
            out[name] = rng.uniform(*QUAD_Q)
        elif isinstance(default, int):
            out[name] = rng.randint(0, 8)
        else:
            out[name] = rng.uniform(-0.5, 0.5)
    return out


def passes(workload: str, seed: int, cases, order: int | None = None):
    """Endless stream of passes; `cases` is qrs.registry(), `order` a
    smoke-test override of the exact orders."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli-verify-all":
        while True:
            yield [{"seed": rng.randrange(2 ** 31), "order": order}]
    elif workload == "series-deep":
        ids = [c.id for c in cases if c.mode == "exact-series"]
        while True:
            yield [{"id": cid, "order": order or SERIES_ORDER,
                    "params": {"q": _rational_q(rng)}, "seed": 0} for cid in ids]
    elif workload == "numeric-quad":
        chosen = [c for c in cases if c.mode in ("numeric-complex", "quadrature")]
        while True:
            yield [{"id": c.id, "order": None, "seed": rng.randrange(2 ** 31),
                    "params": _quad_params(rng, c.defaults) if c.mode == "quadrature" else {}}
                   for c in chosen]
    else:
        raise ValueError(f"unknown workload {workload!r}")


def cli_argv(op: dict) -> list:
    """Arguments after `qrs` for one cli-verify-all op."""
    argv = ["verify-all", "--timings", "--seed", str(op["seed"])]
    return argv + ["--order", str(op["order"])] if op["order"] is not None else argv


def op_list_sha256(workload: str, seed: int, cases, order: int | None = None) -> str:
    """Hash of the first HASH_PASSES passes, identifying the generated inputs."""
    stream = passes(workload, seed, cases, order)
    ops = [next(stream) for _ in range(HASH_PASSES)]
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()
