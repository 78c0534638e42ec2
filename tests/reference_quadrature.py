"""Frozen references for the quadrature tests.

Adaptive Gauss-Kronrod 7/15 (`_adaptive_gk15`), the rule `qrs.quadrature`
ran on every integrand not marked periodic until the trapezoidal rule on
[0, pi] became its only rule. Its tables and code are copied unchanged, so
test_quadrature.py checks the trapezoidal sums against an independent rule
and keeps its peaked-integrand and budget tests.

The integrands as `qrs.quadrature` computed them before each conjugate
pair was taken from a single infinite product and the base^k ladders were
built once per integral, with H_n by the three-term recurrence (it was the
circle sum sum_k [n,k] (a z; q)_k z^(n-2k) until H_n moved to the
recurrence). Every integrand evaluation here multiplies out both halves of
every pair, rebuilds each ladder and runs the H_n recurrence from the
start, with the same float expressions, so test_quadrature.py can require
float equality between the two.

The module has its own (c; base)_oo and H_n evaluator and takes only
QuadratureError from the package, which the GK15 budget check raises. It is
not part of the package and nothing outside the tests imports it; do not
optimise it.
"""

from __future__ import annotations

import heapq
import math

from qrs.quadrature import QuadratureError

_PROD_EPS = 1e-17

# 15-point Kronrod abscissae/weights with the embedded 7-point Gauss rule.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _gk15(f, a: float, b: float):
    """Gauss-Kronrod 7/15 on [a, b]: (kronrod, |kronrod - gauss|)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(mid)
    kron = _WGK[7] * fc
    gauss = _WG[3] * fc
    for i in range(7):
        dx = half * _XGK[i]
        fsum = f(mid - dx) + f(mid + dx)
        kron += _WGK[i] * fsum
        if i % 2 == 1:
            gauss += _WG[i // 2] * fsum
    kron *= half
    gauss *= half
    return kron, abs(kron - gauss)


def _adaptive_gk15(f, lo: float, hi: float, tol: float, budget: int):
    """Adaptive GK15 on [lo, hi]: (value, error estimate). Panels are split
    worst-first; the value sums panels ordered by left endpoint."""
    evals = 0
    counter = 0
    val, err = _gk15(f, lo, hi)
    evals += 15
    heap = [(-err, counter, lo, hi, val, err)]
    total_err = err
    while total_err > tol:
        if evals + 30 > budget:
            raise QuadratureError(
                f"evaluation budget {budget} exhausted: error {total_err:.3e} > tol {tol:.3e} "
                f"with {len(heap)} panels")
        nerr, _, a, b, v, e = heapq.heappop(heap)
        m = 0.5 * (a + b)
        v1, e1 = _gk15(f, a, m)
        v2, e2 = _gk15(f, m, b)
        evals += 30
        total_err += e1 + e2 - e
        counter += 1
        heapq.heappush(heap, (-e1, counter, a, m, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, m, b, v2, e2))
    panels = sorted((a, v) for _, _, a, _, v, _ in heap)
    return math.fsum(v for _, v in panels), total_err


def qpoch_inf(c, base) -> complex:
    """(c; base)_oo truncated after ceil(log(eps)/log|base|) + 8 factors."""
    if abs(base) >= 1:
        raise ValueError("(c; base)_oo needs |base| < 1")
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
