"""Numeric infinite products and deterministic quadrature for the
weight-function integrals attached to the q-Hermite families.

Every integral here (Askey-Wilson, big q-Hermite orthogonality, the
mixed-base J/H/I integrals) is a circle integral over theta in [0, pi] whose
integrand is even, of period 2 pi and analytic in a strip. `integrate` has
one rule for them, the endpoint trapezoidal rule on [0, pi], which then
converges geometrically (Trefethen and Weideman, SIAM Review 56, 2014).
N doubles from 8, each sum T_2N reuses the N + 1 points of T_N, the sums
are math.fsum, and the rule stops when |T_2N - T_N| <= tol. When that
difference is down to the rounding floor of the sums but still above tol,
no larger N can help, and it raises QuadratureError instead of running on
towards the evaluation budget EVAL_BUDGET.

Every circle weight here is a product of conjugate pairs
(c e^{i t}, c e^{-i t}; base)_oo. With c and base real, the factors of the
second product are the conjugates of the first's, and float complex
multiplication maps conjugated operands to the conjugated result bit for
bit (round-to-nearest is symmetric under negation), so each pair is
computed as p * p.conjugate() from the one product p = (c e^{i t}; base)_oo.
That shortcut is only valid for real parameters and bases, so the integrand
builders pass them through float(), which raises TypeError on a complex
value. The base^k ladder of each base is built once per integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def integrate(spec: IntegralSpec):
    """(prefactor * T_2N, |T_2N - T_N|) for the nested endpoint trapezoid
    sums T_N of spec.integrand on [0, pi], N = 8, 16, 32, ..., at the first N
    with |T_2N - T_N| <= spec.tol.

    Raises ValueError unless tol is finite and positive, and
    QuadratureError if the tolerance cannot be met inside EVAL_BUDGET
    evaluations, or above the rounding floor of the sums.
    """
    f, tol = spec.integrand, spec.tol
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    n = _TRAP_START
    h = math.pi / n
    # trapezoid-weighted values f_k: the two ends halved, every point kept
    vals = [0.5 * f(0.0), 0.5 * f(math.pi)] + [f(k * h) for k in range(1, n)]
    prev, diff = h * math.fsum(vals), math.inf
    while True:
        if len(vals) + n > EVAL_BUDGET:
            raise QuadratureError(
                f"evaluation budget {EVAL_BUDGET} exhausted: error {diff:.3e} > tol {tol:.3e} "
                f"with {n} trapezoid panels")
        h *= 0.5
        vals += [f(k * h) for k in range(1, 2 * n, 2)]
        n *= 2
        cur = h * math.fsum(vals)
        diff = abs(cur - prev)
        if diff <= tol:
            return spec.prefactor * cur, diff
        floor = _FLOOR_ULPS * math.ulp(1.0) * h * math.fsum(map(abs, vals))
        if diff <= floor:
            raise QuadratureError(
                f"rounding floor reached: |T_{n} - T_{n // 2}| = {diff:.3e} is within "
                f"the rounding floor {floor:.3e} of the sums but above tol {tol:.3e}")
        prev = cur


# -- Askey-Wilson integral ----------------------------------------------------


def _ladder(base: float) -> list:
    """base^k for k < K, by qpoch_inf's bk *= base steps and truncation:
    the factor ladder of (c; base)_oo for every c, built once per integral.
    base must be real (float() raises TypeError on a complex one)."""
    base = float(base)
    ladder, bk = [], 1.0
    for _ in range(_truncation(abs(base))):
        ladder.append(bk)
        bk *= base
    return ladder


def _param_factor(theta: float, c: float, ladder: list) -> complex:
    """(c e^{i t}; base)_oo (c e^{-i t}; base)_oo for real c and the ladder of
    a real base: one product p, returned as p * p.conjugate()."""
    c = float(c) * complex(math.cos(theta), math.sin(theta))
    p = 1.0 + 0j
    for bk in ladder:
        p *= 1 - c * bk
    return p * p.conjugate()


def _aw_weight(theta: float, ladder: list) -> float:
    """(e^{2i t}, e^{-2i t}; q)_oo, the free weight of the circle measure."""
    return _param_factor(2 * theta, 1.0, ladder).real


def aw_integrand(a: float, b: float, c: float, d: float, q: float):
    shifts = [p for p in map(float, (a, b, c, d)) if p]
    ladder = _ladder(q)

    def f(theta: float) -> float:
        w = _aw_weight(theta, ladder)
        den = 1.0 + 0j
        for p in shifts:
            den *= _param_factor(theta, p, ladder)
        return (w / den).real
    return f


def askey_wilson_quad(a: float, b: float, c: float, d: float, q: float,
                      tol: float = 1e-10) -> float:
    """Left side: (q;q)_oo/(2 pi) times the weight integral over [0, pi]."""
    val, _ = integrate(IntegralSpec(aw_integrand(a, b, c, d, q), tol=tol,
                                    prefactor=qpoch_inf(q, q).real / (2 * math.pi)))
    return val


def askey_wilson_closed(a: float, b: float, c: float, d: float, q: float) -> float:
    num = qpoch_inf(a * b * c * d, q)
    den = 1.0 + 0j
    for u, v in ((a, b), (a, c), (a, d), (b, c), (b, d), (c, d)):
        den *= qpoch_inf(u * v, q)
    return (num / den).real


# -- big q-Hermite orthogonality ---------------------------------------------


def ortho_integrand(n: int, m: int, a: float, q: float):
    a, q = float(a), float(q)
    ladder = _ladder(q)

    def f(theta: float) -> float:
        w = _aw_weight(theta, ladder)
        den = _param_factor(theta, a, ladder) if a else 1.0
        hermite = qhermite_circle(a, q, theta)
        hn = hermite(n)
        return (w / den * hn * (hn if m == n else hermite(m))).real
    return f


def ortho_quad(n: int, m: int, a: float, q: float, tol: float = 1e-10) -> float:
    """Left side of the orthogonality relation: (q;q)_oo/(2 pi) times the
    weighted moment integral of H_n H_m over [0, pi]."""
    val, _ = integrate(IntegralSpec(ortho_integrand(n, m, a, q), tol=tol,
                                    prefactor=qpoch_inf(q, q).real / (2 * math.pi)))
    return val


# -- mixed-base integrals and their closed forms ------------------------------


def jhi_integrand(kind: str, p: float, q: float, a: float, t: float):
    """(prefactor, integrand) of one of the three mixed-base weight integrals.

    J: weight base q, poles (a e^{+-i t}; q), (t e^{+-2i t}; p^2),
       prefactor (q;q)_oo (a^2 t; p^2)_oo (-t; p)_oo / 2 pi.
    H: weight base q^2, poles (a e^{+-i t}; q^2), (t e^{+-i t}; p),
       prefactor (q^2;q^2)_oo (a t; p)_oo (p t^2; p^2)_oo / 2 pi.
    I: weight base q, poles (a e^{+-i t}; q), (t e^{+-i t}; p),
       prefactor (q;q)_oo (a t; p)_oo / 2 pi.

    The weight and the a-pair share one base in all three.
    """
    p, q, a, t = float(p), float(q), float(a), float(t)
    if kind == "J":
        wbase, tpair, tbase = q, 2, p * p
        pref = (qpoch_inf(q, q) * qpoch_inf(a * a * t, p * p) * qpoch_inf(-t, p)).real
    elif kind == "H":
        wbase, tpair, tbase = q * q, 1, p
        pref = (qpoch_inf(q * q, q * q) * qpoch_inf(a * t, p) * qpoch_inf(p * t * t, p * p)).real
    elif kind == "I":
        wbase, tpair, tbase = q, 1, p
        pref = (qpoch_inf(q, q) * qpoch_inf(a * t, p)).real
    else:
        raise ValueError(f"unknown integral kind {kind!r}")
    wladder, tladder = _ladder(wbase), _ladder(tbase)

    def f(theta: float) -> float:
        w = _aw_weight(theta, wladder)
        den = _param_factor(theta, a, wladder) if a else 1.0
        den *= _param_factor(tpair * theta, t, tladder)
        return (w / den).real
    return pref / (2 * math.pi), f


def jhi_eval(kind: str, p: float, q: float, a: float, t: float,
             tol: float = 1e-10) -> float:
    """The mixed-base weight integral of jhi_integrand."""
    pref, f = jhi_integrand(kind, p, q, a, t)
    val, _ = integrate(IntegralSpec(f, tol=tol, prefactor=pref))
    return val

