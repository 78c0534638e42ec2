"""Numeric infinite products and deterministic quadrature for the
weight-function integrals attached to the q-Hermite families.

Every integral here (Askey-Wilson, big q-Hermite orthogonality, the
mixed-base J/H/I integrals) is a circle integral over theta in [0, pi] of
the weight (e^{2i t}, e^{-2i t}; wbase)_oo over conjugate pole pairs
(c e^{ik t}, c e^{-ik t}; base)_oo, built by circle_integrand (times H_n H_m
for orthogonality). With c and base real, float complex multiplication maps
conjugated operands to the conjugated result bit for bit (round-to-nearest
is symmetric under negation), so each pair is p * p.conjugate() for the one
product p = (c e^{ik t}; base)_oo, over a base^k ladder cached by base.
circle_integrand therefore passes c and base through float(), which raises
TypeError on a complex value, and needs |c| < 1.

Those integrands are even, of period 2 pi and analytic in a strip, so
`integrate` has one rule, the endpoint trapezoidal rule on [0, pi], which
converges geometrically (Trefethen and Weideman, SIAM Review 56, 2014).
N doubles from 8, each sum T_2N reuses the N + 1 points of T_N, the sums
are math.fsum, and the rule stops when |T_2N - T_N| <= tol. When that
difference is down to the rounding floor of the sums but still above tol,
no larger N can help, and it raises QuadratureError instead of running on
towards the evaluation budget EVAL_BUDGET.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .families import qhermite_circle

EVAL_BUDGET = 2_000_000
_PROD_EPS = 1e-17
# The trapezoidal rule's first N, and its rounding floor
# _FLOOR_ULPS * eps * h * sum |f_k| (trapezoid weights included).
_TRAP_START = 8
_FLOOR_ULPS = 16

def _truncation(absbase: float) -> int:
    """Factors kept of (c; base)_oo when |base| is absbase:
    K = ceil(log(eps)/log(absbase)) + 8, past which the remaining factors
    differ from 1 by less than eps = 1e-17 relative."""
    if absbase >= 1:
        raise ValueError("(c; base)_oo needs |base| < 1")
    if absbase == 0:
        return 1
    return math.ceil(math.log(_PROD_EPS) / math.log(absbase)) + 8


def qpoch_inf(c, base) -> complex:
    """Numeric (c; base)_oo for |base| < 1, truncated after
    _truncation(|base|) factors."""
    return qpoch_n(c, base, _truncation(abs(base)))


def qpoch_n(c, base, n: int) -> complex:
    """Finite numeric (c; base)_n."""
    c = complex(c)
    total = 1.0 + 0j
    bk = 1.0
    for _ in range(n):
        total *= 1 - c * bk
        bk *= base
    return total


class QuadratureError(RuntimeError):
    pass


@dataclass
class IntegralSpec:
    """The circle integral prefactor * (integral of integrand over [0, pi]),
    wanted to within tol before the prefactor. The integrand is a function
    of theta, smooth, even and of period 2 pi, as every circle integrand is.
    """

    integrand: object
    prefactor: float = 1.0
    tol: float = 1e-10


def _fsum(vals) -> float:
    """math.fsum, or NaN where fsum raises (on inf - inf, or an overflow)."""
    try:
        return math.fsum(vals)
    except (ValueError, OverflowError):
        return math.nan


def integrate(spec: IntegralSpec):
    """(prefactor * T_2N, |T_2N - T_N|) for the nested endpoint trapezoid
    sums T_N of spec.integrand on [0, pi], N = 8, 16, 32, ..., at the first N
    with |T_2N - T_N| <= spec.tol.

    Raises ValueError unless tol is finite and positive, and QuadratureError
    at the first sum that is not finite, or if the tolerance cannot be met
    inside EVAL_BUDGET evaluations, or above the rounding floor of the sums.
    """
    f, tol = spec.integrand, spec.tol
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    n = _TRAP_START
    h = math.pi / n
    # trapezoid-weighted values f_k: the two ends halved, every point kept
    vals = [0.5 * f(0.0), 0.5 * f(math.pi)] + [f(k * h) for k in range(1, n)]
    prev, diff = h * _fsum(vals), math.inf
    while True:
        if not math.isfinite(prev):
            raise QuadratureError(f"the trapezoid sum T_{n} = {prev} is not finite")
        if len(vals) + n > EVAL_BUDGET:
            raise QuadratureError(
                f"evaluation budget {EVAL_BUDGET} exhausted: error {diff:.3e} > tol {tol:.3e} "
                f"with {n} trapezoid panels")
        h *= 0.5
        vals += [f(k * h) for k in range(1, 2 * n, 2)]
        n *= 2
        cur = h * _fsum(vals)
        diff = abs(cur - prev)
        if diff <= tol:
            return spec.prefactor * cur, diff
        floor = _FLOOR_ULPS * math.ulp(1.0) * h * _fsum(map(abs, vals))
        if diff <= floor < math.inf:     # an infinite sum is reported as not finite
            raise QuadratureError(
                f"rounding floor reached: |T_{n} - T_{n // 2}| = {diff:.3e} is within "
                f"the rounding floor {floor:.3e} of the sums but above tol {tol:.3e}")
        prev = cur


# -- circle integrands ----------------------------------------------------------


@lru_cache(maxsize=64, typed=True)
def _ladder(base: float) -> tuple:
    """base^k for k < K, by qpoch_inf's bk *= base steps and truncation:
    the factor ladder of (c; base)_oo for every c, at a real base. typed:
    a complex base equal to a real one must still reach float() and raise."""
    base = float(base)
    ladder, bk = [], 1.0
    for _ in range(_truncation(abs(base))):
        ladder.append(bk)
        bk *= base
    return tuple(ladder)


def _param_factor(theta: float, c: float, ladder: tuple) -> complex:
    """(c e^{i t}; base)_oo (c e^{-i t}; base)_oo for real c and the ladder of
    a real base: one product p, returned as p * p.conjugate()."""
    c *= complex(math.cos(theta), math.sin(theta))
    p = 1.0 + 0j
    for bk in ladder:
        p *= 1 - c * bk
    return p * p.conjugate()


def circle_integrand(wbase: float, poles: list):
    """theta -> (e^{2i t}, e^{-2i t}; wbase)_oo / prod (c e^{ik t}, c e^{-ik t}; base)_oo
    over the poles (c, k, base), as a float; a pole with c = 0 is skipped.
    Raises TypeError for a complex c or base, and ValueError unless every
    |c| < 1 (a NaN fails) and every |base| < 1."""
    weight, pairs = _ladder(wbase), []
    for c, k, base in poles:
        c, ladder = float(c), _ladder(base)
        if not abs(c) < 1:
            raise ValueError(f"a pole (c e^(+-ik t); base)_oo needs |c| < 1, got c = {c}")
        if c:
            pairs.append((c, k, ladder))

    def f(theta: float) -> float:
        den = 1.0 + 0j
        for c, k, ladder in pairs:
            den *= _param_factor(k * theta, c, ladder)
        return (_param_factor(2 * theta, 1.0, weight).real / den).real
    return f


def _circle_quad(f, pref: float, tol: float) -> float:
    """pref / (2 pi) times the integral of f over [0, pi], to within tol."""
    val, _ = integrate(IntegralSpec(f, prefactor=pref / (2 * math.pi), tol=tol))
    return val


# -- Askey-Wilson integral and big q-Hermite orthogonality ----------------------


def askey_wilson_quad(a: float, b: float, c: float, d: float, q: float,
                      tol: float = 1e-10) -> float:
    """Left side: (q;q)_oo/(2 pi) times the integral over [0, pi] of the
    weight at base q over the poles a, b, c, d at base q."""
    f = circle_integrand(q, [(s, 1, q) for s in (a, b, c, d)])
    return _circle_quad(f, qpoch_inf(q, q).real, tol)


def askey_wilson_closed(a: float, b: float, c: float, d: float, q: float) -> float:
    """Right side: (abcd;q)_oo over the six (uv;q)_oo of the pairs u, v of
    a, b, c, d. Raises ValueError unless |a|, |b|, |c|, |d|, |q| < 1."""
    if not all(abs(u) < 1 for u in (a, b, c, d, q)):     # a NaN fails too
        raise ValueError(f"a, b, c, d, q must lie in (-1, 1), got {(a, b, c, d, q)}")
    num = qpoch_inf(a * b * c * d, q)
    den = 1.0 + 0j
    for u, v in ((a, b), (a, c), (a, d), (b, c), (b, d), (c, d)):
        den *= qpoch_inf(u * v, q)
    return (num / den).real


def ortho_quad(n: int, m: int, a: float, q: float, tol: float = 1e-10) -> float:
    """Left side of the orthogonality relation: (q;q)_oo/(2 pi) times the
    integral over [0, pi] of H_n H_m times the weight at base q over the
    pole a at base q."""
    a, q = float(a), float(q)
    w = circle_integrand(q, [(a, 1, q)])

    def f(theta: float) -> float:
        hermite = qhermite_circle(a, q, theta)
        hn = hermite(n)
        return (w(theta) * hn * (hn if m == n else hermite(m))).real
    return _circle_quad(f, qpoch_inf(q, q).real, tol)


# kind -> (p, q, a, t) -> (weight base, poles (c, k, base), prefactor) of the
# three mixed-base weight integrals; the weight and the a-pole share one base.
_JHI = {
    "J": lambda p, q, a, t: (q, [(a, 1, q), (t, 2, p * p)],
                             qpoch_inf(q, q) * qpoch_inf(a * a * t, p * p) * qpoch_inf(-t, p)),
    "H": lambda p, q, a, t: (q * q, [(a, 1, q * q), (t, 1, p)],
                             qpoch_inf(q * q, q * q) * qpoch_inf(a * t, p)
                             * qpoch_inf(p * t * t, p * p)),
    "I": lambda p, q, a, t: (q, [(a, 1, q), (t, 1, p)], qpoch_inf(q, q) * qpoch_inf(a * t, p)),
}


def jhi_eval(kind: str, p: float, q: float, a: float, t: float,
             tol: float = 1e-10) -> float:
    """The mixed-base weight integral J, H or I: its prefactor / (2 pi) times
    the integral over [0, pi] of its circle integrand, both from _JHI."""
    p, q, a, t = float(p), float(q), float(a), float(t)
    if kind not in _JHI:
        raise ValueError(f"unknown integral kind {kind!r}")
    wbase, poles, pref = _JHI[kind](p, q, a, t)
    return _circle_quad(circle_integrand(wbase, poles), pref.real, tol)
