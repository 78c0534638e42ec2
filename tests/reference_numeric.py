"""Frozen references for the numeric-complex left sides.

The left sides of `rogers-big`, `gen-big-1` and `gen-big-2` as
`qrs.idverify` summed them before each coefficient came from a forward
recurrence: every coefficient is its defining finite sum, O(N) per term,
over float (q; q)_k ladders and power ladders extended once per draw. The
code is copied unchanged, with its own float ladder in place of the one
`qcore.qfacs` kept for floats, so test_idverify.py can hold the recurrences
to these sums on the same draws.

Each function takes the runner's (rng, q, tol), makes the same draws in the
same order and returns the left side only. It is not part of the package
and nothing outside the tests imports it; do not optimise it.
"""

from __future__ import annotations

import math

from qrs.families import qhermite_circle
from qrs.fps import _sum_terms
from qrs.idverify import _draw_complex
from qrs.qcore import tri

_LADDERS: dict = {}


def qfacs(q: float, n: int) -> dict:
    """The table k -> (q; q)_k in floats, filled through k = n."""
    table = _LADDERS.setdefault(q, {})
    if n not in table:
        table.setdefault(0, q ** 0)
        for k in range(1, n + 1):
            if k not in table:
                table[k] = table[k - 1] * (1 - q ** k)
    return table


def _powers(ladder: list, x, top: int, exponent=None) -> None:
    """Extend ladder in place through index top, entry j being
    x ** exponent(j) (x ** j by default): a draw's sums take each power from
    the ladder rather than raising x afresh in every term."""
    for j in range(len(ladder), top + 1):
        ladder.append(x ** (exponent(j) if exponent else j))


def rogers_big_lhs(rng, q, tol):
    theta = 0.3 + 2.5 * rng.random()
    a = _draw_complex(rng, 0.05, 0.5)
    s = _draw_complex(rng, 0.05, 0.4)
    t = _draw_complex(rng, 0.05, 0.4)
    hermite = qhermite_circle(a, q, theta)
    tp, sp = [], []

    def term(big):
        qq = qfacs(q, big)
        _powers(tp, t, big)
        _powers(sp, s, big)
        return hermite(big) * sum(
            tp[n] * sp[big - n] / (qq[n] * qq[big - n]) for n in range(big + 1))

    return _sum_terms((term(big) for big in range(10 ** 9)),
                      max(abs(s), abs(t)), tol)


def gen_big_1_lhs(rng, q, tol):
    q2 = q * q
    theta = 0.3 + 2.5 * rng.random()
    a = _draw_complex(rng, 0.05, 0.5)
    t = _draw_complex(rng, 0.05, 0.4)

    qt, ap, tp = [], [], []

    def coef(n):
        qq, qq2 = qfacs(q, n), qfacs(q2, n)
        _powers(qt, q, n, tri)
        _powers(ap, a, n)
        _powers(tp, t, n)
        return sum(qt[n - 2 * k] * ap[n - 2 * k] * tp[n - k]
                   / (qq2[k] * qq[n - 2 * k]) for k in range(n // 2 + 1))

    hermite = qhermite_circle(a, q, theta)
    return _sum_terms((coef(n) * hermite(n) for n in range(10 ** 9)),
                      math.sqrt(abs(t)), tol)


def gen_big_2_lhs(rng, q, tol):
    q2 = q * q
    theta = 0.3 + 2.5 * rng.random()
    a = _draw_complex(rng, 0.05, 0.5)
    t = _draw_complex(rng, 0.05, 0.4)

    sg, qs, ap, tp = [], [], [], []

    def coef(n):
        qq, qq2 = qfacs(q, n), qfacs(q2, n)
        _powers(sg, -1, n)
        _powers(qs, q, n, lambda k: k * k)
        _powers(ap, a, n)
        _powers(tp, t, 2 * n)
        return sum(sg[k] * qs[k] * ap[k] * tp[n + k]
                   / (qq2[k] * qq[n - k]) for k in range(n + 1))

    hermite = qhermite_circle(a, q2, theta)
    return _sum_terms((coef(n) * hermite(n) for n in range(10 ** 9)),
                      abs(t), tol)
