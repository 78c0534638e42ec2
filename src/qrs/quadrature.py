"""Numeric infinite products and deterministic adaptive quadrature for the
weight-function integrals attached to the q-Hermite families.

The integrator is a Gauss-Kronrod 7/15 embedded pair with interval halving:
the worst panel (largest error estimate) is split until the error budget or
the evaluation budget is met, and the final sum runs over panels sorted by
left endpoint so results are reproducible run to run.

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

import cmath
import heapq
import math
from dataclasses import dataclass

from .families import _hermite_weights
from .reporting import IdentityReport

EVAL_BUDGET = 2_000_000
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


def _truncation(maxbase: float) -> int:
    """Factors kept per (c; base)_oo when the largest |base| is maxbase:
    K = ceil(log(eps)/log(maxbase)) + 8, past which the remaining factors
    differ from 1 by less than eps = 1e-17 relative."""
    if maxbase >= 1:
        raise ValueError("inf_product needs |base| < 1")
    if maxbase == 0:
        return 1
    return math.ceil(math.log(_PROD_EPS) / math.log(maxbase)) + 8


def inf_product(factors) -> complex:
    """Numeric (c1; b1)_oo (c2; b2)_oo ... over the (c, base) pairs in
    factors, for |b_i| < 1, each factor truncated after
    _truncation(max |b_i|) terms."""
    factors = tuple(factors)
    if not factors:
        return 1.0 + 0j
    K = _truncation(max(abs(b) for _, b in factors))
    total = 1.0 + 0j
    for c, base in factors:
        c = complex(c)
        bk = 1.0
        for _ in range(K):
            total *= 1 - c * bk
            bk *= base
    return total


def qpoch_inf(c, base) -> complex:
    """Single infinite factor (c; base)_oo."""
    return inf_product(((c, base),))


def qpoch_n(c, base, n: int) -> complex:
    """Finite numeric (c; base)_n."""
    total = 1.0 + 0j
    bk = 1.0
    for _ in range(n):
        total *= 1 - complex(c) * bk
        bk *= base
    return total


class QuadratureError(RuntimeError):
    pass


@dataclass
class IntegralSpec:
    """An integral of a smooth real integrand over [lo, hi]."""

    integrand: object
    lo: float = 0.0
    hi: float = math.pi
    prefactor: float = 1.0
    tol: float = 1e-10
    budget: int = EVAL_BUDGET


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


def integrate(spec, lo: float | None = None, hi: float | None = None,
              tol: float | None = None, budget: int | None = None):
    """Adaptive integral of a callable or an IntegralSpec.

    Returns (value, error_estimate). Panels are split worst-first; the
    final value sums panels ordered by left endpoint. Raises
    QuadratureError if the tolerance cannot be met inside the evaluation
    budget.
    """
    if isinstance(spec, IntegralSpec):
        f, lo, hi = spec.integrand, spec.lo, spec.hi
        tol = spec.tol if tol is None else tol
        budget = spec.budget if budget is None else budget
        pref = spec.prefactor
    else:
        f = spec
        lo = 0.0 if lo is None else lo
        hi = math.pi if hi is None else hi
        tol = 1e-10 if tol is None else tol
        budget = EVAL_BUDGET if budget is None else budget
        pref = 1.0
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
    total = math.fsum(v for _, v in panels)
    return pref * total, total_err


# -- Askey-Wilson integral ----------------------------------------------------


def _ladder(base: float) -> list:
    """base^k for k < K, by inf_product's bk *= base steps and truncation:
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
    val, _ = integrate(aw_integrand(a, b, c, d, q), 0.0, math.pi, tol)
    return qpoch_inf(q, q).real / (2 * math.pi) * val


def askey_wilson_closed(a: float, b: float, c: float, d: float, q: float) -> float:
    num = qpoch_inf(a * b * c * d, q)
    den = 1.0 + 0j
    for u, v in ((a, b), (a, c), (a, d), (b, c), (b, d), (c, d)):
        den *= qpoch_inf(u * v, q)
    return (num / den).real


def askey_wilson_check(a: float, b: float, c: float, d: float, q: float,
                       tol: float = 1e-8) -> IdentityReport:
    """Quadrature vs closed product for the Askey-Wilson integral: the
    registry case askey-wilson at these parameters."""
    from .idverify import verify
    return verify("askey-wilson", params={"a": a, "b": b, "c": c, "d": d, "q": q,
                                          "tol": tol})


# -- big q-Hermite orthogonality ---------------------------------------------


def _hermite_terms(n: int, q: float) -> list:
    """(weight, q^k, n - 2k) for k <= n: the theta-free part of
    families.qhermite_eval's sum, by the same float expressions."""
    return [(w, q ** k, n - 2 * k) for k, w in enumerate(_hermite_weights(n, q))]


def _hermite_at(terms: list, az: complex, zi: complex) -> complex:
    """qhermite_eval's sum over _hermite_terms at zi = e^{i t}, az = a zi."""
    total = 0j
    poch = 1.0 + 0j
    for binom, qpow, e in terms:
        total += binom * poch * zi ** e
        poch *= 1 - az * qpow
    return total


def ortho_integrand(n: int, m: int, a: float, q: float):
    a, q = float(a), float(q)
    ladder = _ladder(q)
    hn, hm = _hermite_terms(n, q), _hermite_terms(m, q)

    def f(theta: float) -> float:
        w = _aw_weight(theta, ladder)
        den = _param_factor(theta, a, ladder) if a else 1.0
        zi = cmath.exp(1j * theta)
        az = a * zi
        return (w / den * _hermite_at(hn, az, zi) * _hermite_at(hm, az, zi)).real
    return f


def ortho_check(n: int, m: int, a: float, q: float, tol: float = 1e-8) -> IdentityReport:
    """Orthogonality of H_n(x;a|q), the weighted moment being (q;q)_n delta_nm:
    the registry case ortho-big at these parameters."""
    from .idverify import verify
    return verify("ortho-big", params={"n": n, "m": m, "a": a, "q": q, "tol": tol})


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
    val, _ = integrate(f, 0.0, math.pi, tol)
    return pref * val


def closed_forms_suite(q: float, a: float, t: float, tol: float = 1e-7) -> list:
    """The four H-kind integrals that collapse to products: the registry
    cases closed-H-* at these parameters, in registry order.

    H_(q,q) = 1, H_(-q,q) = 1, H_(q^2,q) = (q^2 t^2; q^4)_oo and
    H_(q^2,q^3) = (a t^3 q^6; q^6)_oo / (t^2 q^4; q^4)_oo.
    """
    from .idverify import registry, verify
    params = {"q": q, "a": a, "t": t, "tol": tol}
    return [verify(case.id, params=params) for case in registry()
            if case.id.startswith("closed-H-")]
