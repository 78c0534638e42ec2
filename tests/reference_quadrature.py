"""Frozen reference for the quadrature integrand tests: the integrands as
`qrs.quadrature` computed them before each conjugate pair was taken from a
single infinite product and the base^k ladders were built once per
integral, with H_n by the three-term recurrence (it was the circle sum
sum_k [n,k] (a z; q)_k z^(n-2k) until H_n moved to the recurrence).

Every integrand evaluation here multiplies out both halves of every pair,
rebuilds each ladder and runs the H_n recurrence from the start, with the
same float expressions, so test_quadrature.py can require float equality
between the two. It is self-contained (its own (c; base)_oo and H_n
evaluator), not part of the package, and nothing outside the tests imports
it; do not optimise it.
"""

from __future__ import annotations

import math

_PROD_EPS = 1e-17


def qpoch_inf(c, base) -> complex:
    """(c; base)_oo truncated after ceil(log(eps)/log|base|) + 8 factors."""
    if abs(base) >= 1:
        raise ValueError("inf_product needs |base| < 1")
    K = 1 if abs(base) == 0 else math.ceil(math.log(_PROD_EPS) / math.log(abs(base))) + 8
    total = 1.0 + 0j
    c = complex(c)
    bk = 1.0
    for _ in range(K):
        total *= 1 - c * bk
        bk *= base
    return total


def qhermite_eval(n: int, a, q, theta: float) -> complex:
    """H_n(cos theta; a|q) by the three-term recurrence, run from H_0 and H_1
    afresh for each call on the steps d_k = H_k - H_(k-1) (at -x with -a
    when cos theta < 0), as `qrs.families.qhermite_circle` runs it."""
    if n == 0:
        return 1.0 + 0j
    q, a = float(q), complex(a)
    flip = math.cos(theta) < 0
    if flip:
        a, s = -a, 4 * math.cos(0.5 * theta) ** 2
    else:
        s = 4 * math.sin(0.5 * theta) ** 2
    before, d, qk = 1.0 + 0j, 1 - s - a, q
    value = before + d
    for _ in range(1, n):
        d = d - (s + a * qk) * value + qk * before
        before, value = value, value + d
        qk *= q
    return -value if flip and n % 2 else value


def _aw_weight(theta: float, q: float) -> float:
    z2 = complex(math.cos(2 * theta), math.sin(2 * theta))
    return (qpoch_inf(z2, q) * qpoch_inf(z2.conjugate(), q)).real


def _param_factor(theta: float, c: complex, base: float) -> complex:
    z = complex(math.cos(theta), math.sin(theta))
    return qpoch_inf(c * z, base) * qpoch_inf(c * z.conjugate(), base)


def aw_integrand(a: float, b: float, c: float, d: float, q: float):
    def f(theta: float) -> float:
        w = _aw_weight(theta, q)
        den = 1.0 + 0j
        for p in (a, b, c, d):
            if p:
                den *= _param_factor(theta, p, q)
        return (w / den).real
    return f


def ortho_integrand(n: int, m: int, a: float, q: float):
    def f(theta: float) -> float:
        w = _aw_weight(theta, q)
        den = _param_factor(theta, a, q) if a else 1.0
        hn = qhermite_eval(n, a, q, theta)
        hm = qhermite_eval(m, a, q, theta)
        return (w / den * hn * hm).real
    return f


def jhi_integrand(kind: str, p: float, q: float, a: float, t: float):
    """(prefactor / 2 pi, integrand) of the J, H or I integral."""
    if kind == "J":
        wbase, abase, tpair, tbase = q, q, 2, p * p
        pref = (qpoch_inf(q, q) * qpoch_inf(a * a * t, p * p) * qpoch_inf(-t, p)).real
    elif kind == "H":
        wbase, abase, tpair, tbase = q * q, q * q, 1, p
        pref = (qpoch_inf(q * q, q * q) * qpoch_inf(a * t, p) * qpoch_inf(p * t * t, p * p)).real
    elif kind == "I":
        wbase, abase, tpair, tbase = q, q, 1, p
        pref = (qpoch_inf(q, q) * qpoch_inf(a * t, p)).real
    else:
        raise ValueError(f"unknown integral kind {kind!r}")

    def f(theta: float) -> float:
        w = _aw_weight(theta, wbase)
        den = _param_factor(theta, a, abase) if a else 1.0
        den *= _param_factor(tpair * theta, t, tbase)
        return (w / den).real
    return pref / (2 * math.pi), f
