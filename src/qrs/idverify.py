"""The identity registry: every checked identity is a named case that runs in
one of four modes.

exact-series   both sides built as truncated power series over polynomial
               coefficients; equality is coefficientwise and exact.
exact-poly     both sides are polynomials for each (n, m) in a sweep range;
               equality is exact.
numeric-complex  both sides evaluated at seeded complex parameter draws
               inside the convergence guards, with tail-bounded partial sums.
quadrature     one side is a circle integral, the other a closed product.

Each case states which symbols stay symbolic and which are bound; exact
modes ignore analytic magnitude constraints (polynomial coefficient
identities need none), numeric modes enforce them.

A case's runner only builds the sides; verify() owns everything else. It
parses q (exact modes), q and tol (numeric-complex) or tol (quadrature),
builds every side before comparing anything, and hands the sides to the
verdict of the case's mode, which does the comparison and applies the
--perturb negative control to the first left side. No runner sees perturb.
What a runner gets and returns, per mode:

exact-series, exact-poly  runner(order, q, params) yields (label, lhs, rhs)
               triples: truncated series, or polynomials.
numeric-complex  runner(rng, q, tol) returns one draw (label, values): the
               draw's parameters and the values that must agree. verify()
               runs NUMERIC_DRAWS draws and prefixes each label "draw i: ".
               The runner sums its series to tol = (the case's tol) / 10.
quadrature     runner(params, tol) returns (integral, closed value), compared
               relative to |closed value|; or (integral, closed value,
               witness template), compared absolutely, for a closed value
               that may be 0. The runner integrates to
               tol = min((the case's tol) * 1e-2, 1e-10).

The tolerance a runner gets is thus tighter than the one its verdict
compares against, so truncation and quadrature error stay well inside it.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .families import (big_qhermite_laurent, big_qhermite_poly, brs_poly,
                       cauchy_poly, change_base_big, change_base_c,
                       h_to_bivariate, qhermite_circle, qhermite_laurent,
                       qhermite_poly, rs_poly, ybinom_brs)
from .fps import (PhiSpec, TruncSeries, _sum_terms, euler_inv_series,
                  euler_series, phi_series, phi_sum, series_inv)
from .qcore import MultiPoly, frac, lincomb, qbinom, qfac, qfacs, qpochs, tri
from .qops import cauchy_operand, e_op_apply, t_op_graded, t_op_product_sides
from .quadrature import (IntegralSpec, askey_wilson_closed, askey_wilson_quad,
                         integrate, jhi_eval, ortho_integrand, qpoch_inf, qpoch_n)
from .reporting import IdentityReport, clip_witness

NUMERIC_TOL = 1e-10
QUAD_TOL = 1e-8
CLOSED_TOL = 1e-7
NUMERIC_DRAWS = 5


@dataclass(frozen=True)
class IdentityCase:
    """One registered identity check."""

    id: str
    description: str
    mode: str
    default_order: int
    symbols: str
    domain: str
    defaults: dict = field(default_factory=dict)
    runner: object = None


_REGISTRY: dict = {}


def _case(id, description, mode, default_order, symbols, domain, defaults=None):
    def wrap(fn):
        _REGISTRY[id] = IdentityCase(
            id=id, description=description, mode=mode,
            default_order=default_order, symbols=symbols, domain=domain,
            defaults=dict(defaults or {}), runner=fn)
        return fn
    return wrap


def registry() -> list:
    """All registered cases, in registration order."""
    return list(_REGISTRY.values())


def get_case(case_id: str) -> IdentityCase:
    case = _REGISTRY.get(case_id)
    if case is None:
        raise ValueError(f"unknown identity id: {case_id!r}")
    return case


def verify(case_id: str, order: int | None = None, params: dict | None = None,
           seed: int = 0, perturb: bool = False) -> IdentityReport:
    """Run one identity check and return its report.

    order defaults to the case's registered order (exact modes only; numeric
    and quadrature modes ignore it). params override the case defaults;
    unknown parameter names are rejected. seed fixes the parameter draws of
    numeric modes. perturb injects a deliberate error into the left side, as
    a negative control that the comparison actually bites.
    """
    case = get_case(case_id)
    merged = dict(case.defaults)
    for key, value in (params or {}).items():
        if key not in case.defaults:
            raise ValueError(f"{case_id} does not take a parameter {key!r}")
        merged[key] = value
    run_order = case.default_order if order is None else int(order)
    if run_order < 0:
        raise ValueError("order must be nonnegative")
    rng = _rng_for(case_id, seed)
    exact = case.mode in ("exact-series", "exact-poly")
    if case.mode == "numeric-complex":
        merged["seed"] = seed
    report = IdentityReport(
        id=case.id, mode=case.mode,
        order=run_order if exact else None,
        params=merged, description=case.description)
    started = time.perf_counter()
    if exact:
        tol, sides = None, list(case.runner(run_order, _exact_q(merged), merged))
    elif case.mode == "numeric-complex":
        q, tol = float(merged["q"]), float(merged["tol"])
        sides = []
        for i in range(NUMERIC_DRAWS):
            label, values = case.runner(rng, q, tol / 10)
            sides.append((f"draw {i}: {label}", values))
    else:
        tol = float(merged["tol"])
        sides = case.runner(merged, min(tol * 1e-2, 1e-10))
    report.status, report.residual, report.witness = \
        _VERDICTS[case.mode](sides, tol, perturb)
    report.elapsed_ms = (time.perf_counter() - started) * 1000
    return report


def verify_all(order: int | None = None, seed: int = 0,
               ids: list | None = None, perturb: bool = False) -> list:
    """Run every registered case (or the given ids) in registry order."""
    targets = [get_case(i).id for i in ids] if ids is not None else list(_REGISTRY)
    return [verify(i, order=order, seed=seed, perturb=perturb) for i in targets]


# -- shared machinery ---------------------------------------------------------


def _rng_for(case_id: str, seed: int) -> random.Random:
    digest = hashlib.sha256(f"{case_id}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _draw_complex(rng, rmin: float, rmax: float) -> complex:
    r = rmin + (rmax - rmin) * rng.random()
    return r * cmath.exp(2j * math.pi * rng.random())


def _exact_q(params, key="q") -> Fraction:
    q = frac(params[key])
    if not 0 < abs(q) < 1:
        raise ValueError(f"{key} must be a nonzero rational with |{key}| < 1")
    return q


def _series_sweep(triples, tol, perturb: bool):
    """Verdict over (label, lhs, rhs) series triples; exact, so tol is None."""
    for i, (label, lhs, rhs) in enumerate(triples):
        if perturb and i == 0:
            lhs = lhs + TruncSeries.const(Fraction(1), lhs.vars, lhs.order)
        d = lhs.diff_witness(rhs)
        if d is not None:
            idx, delta = d
            where = " ".join(f"{v}^{e}" for v, e in zip(lhs.vars, idx)) or "1"
            lab = f"{label}: " if label else ""
            return "fail", None, clip_witness(f"{lab}coefficient of {where}: {delta}")
    return "exact-pass", None, None


def _poly_sweep(triples, tol, perturb: bool):
    """Verdict over (label, lhs, rhs) polynomial triples; exact, so tol is None."""
    for i, (label, lhs, rhs) in enumerate(triples):
        if perturb and i == 0:
            lhs = lhs + 1
        if lhs != rhs:
            return "fail", None, clip_witness(f"{label}: difference {lhs - rhs}")
    return "exact-pass", None, None


def _perturbation(tol: float, scale: float = 1.0) -> float:
    """The offset a --perturb control adds to a numeric left side.

    1e-3 at the default tolerances, and ten times tol once that is larger,
    so the control fails whatever tol the caller passes. scale is |rhs|
    where the residual is relative to it, and 1 where it is absolute.
    """
    return max(1e-3, 10 * tol * scale)


def _numeric_verdict(rows, tol: float, perturb: bool):
    """Verdict over (label, [values...]) rows: all values in a row must agree."""
    worst = 0.0
    worst_label = None
    for i, (label, values) in enumerate(rows):
        base = values[0] + (_perturbation(tol) if perturb and i == 0 else 0.0)
        for other in values[1:]:
            err = abs(base - other)
            if err > worst:
                worst, worst_label = err, label
    status = "pass" if worst <= tol else "fail"
    witness = None if status == "pass" else clip_witness(
        f"{worst_label}: |difference| = {worst:.6e}")
    return status, worst, witness


def _gf_sum(coef, t: complex, base: float, tol: float) -> complex:
    """sum_n coef(n) t^n / (base;base)_n through _sum_terms, tail ratio |t|."""
    def terms():
        qq = 1.0
        tn = 1.0 + 0j
        n = 0
        while True:
            if n:
                qq *= 1 - base ** n
                tn *= t
            yield coef(n) * tn / qq
            n += 1

    return _sum_terms(terms(), abs(t), tol)


def _unit_params(params, names) -> list:
    """The named parameters as floats, each required to satisfy |p| < 1."""
    vals = [float(params[name]) for name in names]
    for name, val in zip(names, vals):
        if not abs(val) < 1:
            raise ValueError(f"parameter {name} must satisfy |{name}| < 1")
    return vals


def _quad_verdict(sides, tol: float, perturb: bool):
    """Verdict of a quadrature case over (lhs, rhs) or (lhs, rhs, witness):
    |lhs - rhs| relative to |rhs|, or absolute where the runner gives its own
    witness template, against tol. perturb first offsets lhs as a negative
    control; the witness is formatted with the (perturbed) lhs and rhs."""
    lhs, rhs, *absolute = sides
    if perturb:
        lhs += _perturbation(tol, 1.0 if absolute else abs(rhs))
    resid = abs(lhs - rhs) if absolute else abs(lhs - rhs) / max(abs(rhs), 1e-300)
    if resid <= tol:
        return "pass", resid, None
    witness = absolute[0] if absolute else "integral {lhs!r} vs product {rhs!r}"
    return "fail", resid, clip_witness(witness.format(lhs=lhs, rhs=rhs))


_VERDICTS = {"exact-series": _series_sweep, "exact-poly": _poly_sweep,
             "numeric-complex": _numeric_verdict, "quadrature": _quad_verdict}


_X, _Y, _U, _V, _A = (MultiPoly.var(n) for n in "xyuva")


def _inv_qfacs(q: Fraction, top: int) -> list:
    """[1/(q;q)_k for k <= top]."""
    return [1 / qfac(q, k) for k in range(top + 1)]


def _st_series(order: int, coef) -> TruncSeries:
    """The double series sum over i + j <= order of coef(i, j) s^i t^j."""
    return TruncSeries(("s", "t"), order, {
        (i, j): coef(i, j) for i in range(order + 1) for j in range(order + 1 - i)})


def _mehler_product(q: Fraction, order: int) -> TruncSeries:
    """(xyt^2;q)_oo / (t, xt, yt, xyt;q)_oo, the classical Poisson-kernel product."""
    t1 = TruncSeries.variable(("t",), order, "t")
    out = euler_series(TruncSeries.monomial(("t",), order, (2,), _X * _Y), q)
    for c in (Fraction(1), _X, _Y, _X * _Y):
        out = out * euler_inv_series(t1.scale(c), q)
    return out


def _rogers_product(family, q: Fraction, order: int) -> TruncSeries:
    """(xst;q)_oo times the family(i) family(j) s^i t^j / ((q;q)_i (q;q)_j)
    double sum: the right side of both Rogers-type formulas."""
    inv = _inv_qfacs(q, order)
    dbl = _st_series(order, lambda i, j: family(i, q) * family(j, q) * (inv[i] * inv[j]))
    return euler_series(TruncSeries.monomial(("s", "t"), order, (1, 1), _X), q) * dbl


# -- exact series: Poisson-kernel (Mehler-type) and Rogers-type families ------


@_case("mehler-rs",
       "Poisson kernel for h_n(x|q): the h_n(x)h_n(y) sum equals the "
       "four-factor Euler product with an (xyt^2;q)_oo numerator",
       "exact-series", 8,
       "x, y symbolic; q bound rational; t series variable",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_mehler_rs(order, q, params):
    inv = _inv_qfacs(q, order)
    lhs = TruncSeries(("t",), order, {
        (n,): rs_poly(n, q) * rs_poly(n, q, "y") * inv[n] for n in range(order + 1)})
    yield "", lhs, _mehler_product(q, order)


@_case("rogers-rs",
       "Rogers formula for h_n(x|q): the h_(n+m) double sum equals "
       "(xst;q)_oo times the h_n h_m double sum",
       "exact-series", 8,
       "x symbolic; q bound rational; t, s series variables",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_rogers_rs(order, q, params):
    inv = _inv_qfacs(q, order)
    lhs = _st_series(order, lambda i, j: rs_poly(i + j, q) * (inv[i] * inv[j]))
    yield "", lhs, _rogers_product(rs_poly, q, order)


@_case("mehler-brs",
       "Poisson kernel for h_n(x,y|q): the h_n(x,y)h_n(u,v) sum equals the "
       "Euler-product prefactor times a 3phi2 in argument ut",
       "exact-series", 8,
       "x, y, u, v symbolic; q bound rational; t series variable",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_mehler_brs(order, q, params):
    inv = _inv_qfacs(q, order)
    t1 = TruncSeries.variable(("t",), order, "t")
    lhs = TruncSeries(("t",), order, {
        (n,): brs_poly(n, q) * brs_poly(n, q, "u", "v") * inv[n] for n in range(order + 1)})
    pre = euler_series(t1.scale(_Y), q) * euler_series(t1.scale(_V * _X), q) \
        * euler_inv_series(t1, q) * euler_inv_series(t1.scale(_X), q) \
        * euler_inv_series(t1.scale(_U * _X), q)
    spec = PhiSpec(
        upper=(_Y, t1.scale(_X)),
        ratio_upper=((_V, _U),),
        lower=(t1.scale(_Y), t1.scale(_V * _X)),
        q=q, argument=t1)
    yield "", lhs, pre * phi_series(spec)


@_case("mehler-reduction",
       "specializing the bivariate Poisson kernel at y=0, v=0, u->y "
       "reproduces the classical h_n(x|q) Poisson-kernel product",
       "exact-series", 8,
       "x, y symbolic; q bound rational; t series variable",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_mehler_reduction(order, q, params):
    t1 = TruncSeries.variable(("t",), order, "t")
    pre = euler_inv_series(t1, q) * euler_inv_series(t1.scale(_X), q) \
        * euler_inv_series(t1.scale(_Y * _X), q)
    spec = PhiSpec(
        upper=(t1.scale(_X),),
        ratio_upper=((Fraction(0), _Y),),
        q=q, argument=t1)
    yield "", pre * phi_series(spec), _mehler_product(q, order)


@_case("rogers-brs",
       "Rogers formula for h_n(x,y|q): the h_(n+m) double sum equals the "
       "Euler prefactor times a 2phi1 in argument t",
       "exact-series", 8,
       "x, y symbolic; q bound rational; t, s series variables",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_rogers_brs(order, q, params):
    inv = _inv_qfacs(q, order)
    s1 = TruncSeries.variable(("s", "t"), order, "s")
    t1 = TruncSeries.variable(("s", "t"), order, "t")
    lhs = _st_series(order, lambda i, j: brs_poly(i + j, q) * (inv[i] * inv[j]))
    pre = euler_series(s1.scale(_Y), q) * euler_inv_series(s1, q) \
        * euler_inv_series(s1.scale(_X), q) * euler_inv_series(t1.scale(_X), q)
    spec = PhiSpec(upper=(_Y, s1.scale(_X)), lower=(s1.scale(_Y),),
                   q=q, argument=t1)
    yield "", lhs, pre * phi_series(spec)


@_case("rogers2-brs",
       "second Rogers-type formula: the y-alternating triple sum over "
       "h_(n+m-k) equals (xst;q)_oo times the h_n h_m double sum",
       "exact-series", 7,
       "x, y symbolic; q bound rational; t, s series variables",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_rogers2_brs(order, q, params):
    inv = _inv_qfacs(q, order)
    lhs = _st_series(order, lambda i, j: lincomb(
        (Fraction((-1) ** k) * q ** tri(k) * inv[k] * inv[i - k] * inv[j - k],
         _Y ** k, brs_poly(i + j - k, q)) for k in range(min(i, j) + 1)))
    yield "", lhs, _rogers_product(brs_poly, q, order)


# -- exact series: operator lemmas --------------------------------------------


@_case("lemma-2.2",
       "q-exponential operator on a two-pole Euler kernel: T(bD_q) image "
       "equals the closed product times a 2phi1 in argument at",
       "exact-series", 8,
       "a, b graded series variables; s, t, v, q bound rationals",
       "0 < |q| < 1; t nonzero (it divides the v/t parameter)",
       defaults={"s": Fraction(1, 3), "t": Fraction(1, 4), "v": Fraction(1, 5),
                 "q": Fraction(1, 2)})
def _run_lemma_22(order, q, params):
    s, t, v = frac(params["s"]), frac(params["t"]), frac(params["v"])
    if t == 0:
        raise ValueError("t must be nonzero")
    a1 = TruncSeries.variable(("a",), order, "a")
    operand = euler_series(a1.scale(v), q) * euler_inv_series(a1.scale(s), q) \
        * euler_inv_series(a1.scale(t), q)
    lhs = t_op_graded(operand, q, bvar="b")
    av = TruncSeries.variable(("a", "b"), order, "a")
    bv = TruncSeries.variable(("a", "b"), order, "b")
    pre = euler_series(bv.scale(v), q) * euler_inv_series(av.scale(s), q) \
        * euler_inv_series(bv.scale(s), q) * euler_inv_series(bv.scale(t), q)
    spec = PhiSpec(upper=(v / t, bv.scale(s)), lower=(bv.scale(v),),
                   q=q, argument=av.scale(t))
    yield "", lhs, pre * phi_series(spec)


@_case("zhang-wang",
       "q-exponential operator on a three-pole Euler kernel: T(bD_q) image "
       "equals the closed product times a 3phi2 in argument abstw/v",
       "exact-series", 8,
       "a, b graded series variables; s, t, v, w, q bound rationals",
       "0 < |q| < 1; |s|,|t|,|v|,|w|,|b| < 1; v nonzero; w = 0 allowed",
       defaults={"b": Fraction(1, 7), "s": Fraction(1, 3), "t": Fraction(1, 4),
                 "v": Fraction(1, 5), "w": Fraction(1, 6), "q": Fraction(1, 2)})
def _run_zhang_wang(order, q, params):
    vals = {k: frac(params[k]) for k in ("b", "s", "t", "v", "w")}
    for name, val in vals.items():
        if not abs(val) < 1:
            raise ValueError(f"parameter {name} must lie in (-1, 1)")
    yield ("", *t_op_product_sides(vals["s"], vals["t"], vals["v"], vals["w"], q, order))


@_case("lemma-2.3",
       "homogeneous shift operator on the Cauchy kernel times "
       "P_n/(yt;q)_n: the image equals the h-generating prefactor times a "
       "finite (y,xt;q)_k/(yt;q)_k sum",
       "exact-series", 8,
       "x, y symbolic; q bound rational; t series variable; n swept to nmax",
       "0 < |q| < 1; nmax >= 0",
       defaults={"q": Fraction(1, 2), "nmax": 6})
def _run_lemma_23(order, q, params):
    nmax = int(params["nmax"])
    t1 = TruncSeries.variable(("t",), order, "t")
    kernel = euler_series(t1.scale(_Y), q) * euler_inv_series(t1.scale(_X), q)
    pre = euler_series(t1.scale(_Y), q) * euler_inv_series(t1, q) \
        * euler_inv_series(t1.scale(_X), q)
    # (y;q)_k, 1/(yt;q)_k and (xt;q)_k/(yt;q)_k for k <= nmax, as running products
    ypochs = qpochs(_Y, q, nmax)
    one = TruncSeries.one(("t",), order)
    yinvs, ratios = [one], [one]
    for k in range(nmax):
        step = series_inv(one - t1.scale(_Y * q ** k))
        yinvs.append(yinvs[-1] * step)
        ratios.append(ratios[-1] * (one - t1.scale(_X * q ** k)) * step)
    for n in range(nmax + 1):
        op = (kernel * yinvs[n]).scale(cauchy_poly(n, q))
        lhs = e_op_apply(cauchy_operand(dict(op.coeffs), q, order), route="basis")
        ksum = TruncSeries.zero(("t",), order)
        for k in range(n + 1):
            coef = qbinom(n, k, q) * ypochs[k] * _X ** (n - k)
            ksum = ksum + ratios[k].scale(coef)
        yield f"n={n}", lhs, pre * ksum


# -- exact polynomial sweeps ---------------------------------------------------


@_case("linear-rs",
       "linearization of h_n(x|q)h_m(x|q) into single h polynomials with "
       "[n,k][m,k](q;q)_k x^k weights",
       "exact-poly", 6,
       "x symbolic; q bound rational; n, m swept to the order bound",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_linear_rs(order, q, params):
    rs_pairs = _pair_products(rs_poly, q, order)
    for n in range(order + 1):
        for m in range(order + 1):
            yield f"n={n}, m={m}", rs_pairs[n][m], _lin_sum(
                n, m, q, lambda k: rs_poly(n + m - 2 * k, q))


def _lin_sum(n: int, m: int, q: Fraction, factor, alternating: bool = False,
             var: MultiPoly = _X) -> MultiPoly:
    """sum_k [n,k][m,k](q;q)_k var^k factor(k) over k <= min(n, m), each
    weight times (-1)^k q^(k(k-1)/2) when alternating: the linearization sums."""
    def weight(k):
        w = qbinom(n, k, q) * qbinom(m, k, q) * qfac(q, k)
        return w * q ** tri(k) * Fraction((-1) ** k) if alternating else w

    return lincomb((weight(k), var ** k, factor(k)) for k in range(min(n, m) + 1))


@_case("linear-brs-double",
       "double-sum linearization for h_n(x,y|q): the (y;q)_k P_l weights "
       "balance h_(n+m-k-l) against h_(n-k) h_(m-l) products",
       "exact-poly", 6,
       "x, y symbolic; q bound rational; n, m swept to the order bound",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_linear_brs_double(order, q, params):
    span = range(order + 1)
    ypoch = qpochs(_Y, q, order)
    yp = [[ypoch[k] * cauchy_poly(l, q) for l in span] for k in span]
    yh = [[ypoch[k] * brs_poly(j, q) for j in range(order + 1 - k)] for k in span]
    # d[k][m] = sum_l [m,l] q^(kl) P_l h_(m-l), the right side's inner sum
    d = [[lincomb((qbinom(m, l, q) * q ** (k * l), cauchy_poly(l, q), brs_poly(m - l, q))
                  for l in range(m + 1)) for m in span] for k in span]
    for n in span:
        for m in span:
            # the left side grouped by s = k + l, which fixes h_(n+m-s)
            lhs = lincomb((lincomb((qbinom(n, k, q) * qbinom(m, s - k, q), yp[k][s - k])
                                   for k in range(max(0, s - m), min(n, s) + 1)),
                           brs_poly(n + m - s, q)) for s in range(n + m + 1))
            rhs = lincomb((qbinom(n, k, q), yh[k][n - k], d[k][m]) for k in range(n + 1))
            yield f"n={n}, m={m}", lhs, rhs


@_case("linear-brs-simple",
       "simpler linearization for h_n(x,y|q): the x^l y^k alternating "
       "double sum reproduces h_n h_m",
       "exact-poly", 6,
       "x, y symbolic; q bound rational; n, m swept to the order bound",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_linear_brs_simple(order, q, params):
    brs_pairs = _pair_products(brs_poly, q, order)
    for n in range(order + 1):
        for m in range(order + 1):
            rhs = _lin_sum(n, m, q, lambda l: _lin_sum(
                n - l, m - l, q, lambda k: brs_poly(n + m - 2 * l - k, q),
                alternating=True, var=_Y))
            yield f"n={n}, m={m}", brs_pairs[n][m], rhs


@_case("hlm-relation",
       "alternating x^k h_(n-k)h_(m-k) vs y^k h_(n+m-k) combination "
       "vanishes identically for h_n(x,y|q)",
       "exact-poly", 8,
       "x, y symbolic; q bound rational; n, m swept to the order bound",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_hlm(order, q, params):
    brs_pairs = _pair_products(brs_poly, q, order)
    for n in range(order + 1):
        for m in range(order + 1):
            terms = []
            for k in range(min(n, m) + 1):
                w = qbinom(n, k, q) * qbinom(m, k, q) * qfac(q, k) \
                    * Fraction((-1) ** k) * q ** tri(k)
                terms.append((w, _X ** k, brs_pairs[n - k][m - k]))
                terms.append((-w, _Y ** k, brs_poly(n + m - k, q)))
            yield f"n={n}, m={m}", lincomb(terms), MultiPoly.const(0)


@_case("linear-mixed",
       "the [n,k][m,k](q;q)_k x^k h_(n+m-2k)(x|q) sum factors into two "
       "y-binomial h(x,y|q) transforms",
       "exact-poly", 6,
       "x, y symbolic; q bound rational; n, m swept to the order bound",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_linear_mixed(order, q, params):
    yb = [ybinom_brs(n, q) for n in range(order + 1)]
    for n in range(order + 1):
        for m in range(order + 1):
            lhs = _lin_sum(n, m, q, lambda k: rs_poly(n + m - 2 * k, q))
            yield f"n={n}, m={m}", lhs, yb[n] * yb[m]


@_case("awilson-special",
       "h_n(x|q) expands as the y-binomial sum over h_(n-k)(x,y|q)",
       "exact-poly", 8,
       "x, y symbolic; q bound rational; n swept to the order bound",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_awilson_special(order, q, params):
    for n in range(order + 1):
        (lhs, rhs), _ = h_to_bivariate(n, q)
        yield f"n={n}", lhs, rhs


@_case("its-inverse",
       "h_n(x,y|q) expands as the alternating q-power y-binomial sum over "
       "h_(n-k)(x|q)",
       "exact-poly", 8,
       "x, y symbolic; q bound rational; n swept to the order bound",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_its_inverse(order, q, params):
    for n in range(order + 1):
        _, (lhs, rhs) = h_to_bivariate(n, q)
        yield f"n={n}", lhs, rhs


def _pair_products(family, q: Fraction, top: int) -> list:
    """table[i][j] = family(i, q) * family(j, q) for i, j <= top, each
    product built once; the sweeps meet every pair many times."""
    table = [[None] * (top + 1) for _ in range(top + 1)]
    for i in range(top + 1):
        for j in range(i, top + 1):
            table[i][j] = table[j][i] = family(i, q) * family(j, q)
    return table


def _mixed_sides(n: int, m: int, q: Fraction, brs_pairs: list):
    """Both sides of the mixed alternating identity linking h(x|q) and
    h(x,y|q) products; brs_pairs is _pair_products(brs_poly, q, >= max(n, m))."""
    a = [qbinom(n, j, q) * q ** tri(j) for j in range(n + 1)]
    b = [qbinom(m, k, q) * q ** tri(k) for k in range(m + 1)]
    # the (j, k) double sum grouped by s = j + k, which fixes (-y)^s h_(n+m-s)
    lhs = lincomb((Fraction((-1) ** s) * sum(a[j] * b[s - j]
                                             for j in range(max(0, s - m), min(n, s) + 1)),
                   _Y ** s, rs_poly(n + m - s, q)) for s in range(n + m + 1))
    return lhs, _lin_sum(n, m, q, lambda k: brs_pairs[n - k][m - k], alternating=True)


@_case("mixed-identity",
       "alternating (-y)^(j+k) h_(n+m-j-k)(x|q) double sum equals the "
       "alternating (-x)^k h_(n-k)(x,y)h_(m-k)(x,y) sum",
       "exact-poly", 6,
       "x, y symbolic; q bound rational; n, m swept to the order bound",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_mixed_identity(order, q, params):
    brs_pairs = _pair_products(brs_poly, q, order)
    for n in range(order + 1):
        for m in range(order + 1):
            yield (f"n={n}, m={m}", *_mixed_sides(n, m, q, brs_pairs))


@_case("askey-ismail",
       "inverse linearization: h_(m+n)(x|q) as the alternating (-x)^k "
       "h_(n-k)h_(m-k) sum; also the y=0 shadow of the mixed identity",
       "exact-poly", 6,
       "x symbolic; q bound rational; n, m swept to the order bound",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_askey_ismail(order, q, params):
    zero = Fraction(0)
    rs_pairs = _pair_products(rs_poly, q, order)
    brs_pairs = _pair_products(brs_poly, q, order)
    for n in range(order + 1):
        for m in range(order + 1):
            lhs = rs_poly(n + m, q)
            rhs = _lin_sum(n, m, q, lambda k: rs_pairs[n - k][m - k], alternating=True)
            yield f"n={n}, m={m}", lhs, rhs
            ml, mr = _mixed_sides(n, m, q, brs_pairs)
            yield f"n={n}, m={m} (y=0 shadow, left)", ml.substitute({"y": zero}), lhs
            yield f"n={n}, m={m} (y=0 shadow, right)", mr.substitute({"y": zero}), rhs


# -- exact: q-Hermite connections ----------------------------------------------


@_case("hxa-hx",
       "the shift-parameter q-Hermite expands over plain q-Hermite "
       "polynomials with alternating q-power a-binomial weights",
       "exact-poly", 8,
       "a symbolic; q bound rational; z Laurent variable; n swept",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_hxa_hx(order, q, params):
    for n in range(order + 1):
        lhs = big_qhermite_laurent(n, "a", q).to_x_poly()
        rhs = lincomb((qbinom(n, k, q) * Fraction((-1) ** k) * q ** tri(k), _A ** k,
                       qhermite_laurent(n - k, q).to_x_poly()) for k in range(n + 1))
        yield f"n={n}", lhs, rhs


@_case("hx-hxa",
       "plain q-Hermite expands over shift-parameter q-Hermite polynomials "
       "with a-binomial weights",
       "exact-poly", 8,
       "a symbolic; q bound rational; z Laurent variable; n swept",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_hx_hxa(order, q, params):
    for n in range(order + 1):
        lhs = qhermite_laurent(n, q).to_x_poly()
        rhs = lincomb((qbinom(n, k, q), _A ** k, big_qhermite_laurent(n - k, "a", q).to_x_poly())
                      for k in range(n + 1))
        yield f"n={n}", lhs, rhs


@_case("cb-hermite",
       "q-Hermite change of base: H_n(x|p) equals the c_(n,n-2j)(p,q) "
       "combination of H_(n-2j)(x|q)",
       "exact-poly", 8,
       "x symbolic; p, q bound rationals; n swept to the order bound",
       "0 < |p| < 1, 0 < |q| < 1",
       defaults={"p": Fraction(1, 3), "q": Fraction(1, 2)})
def _run_cb_hermite(order, q, params):
    p = _exact_q(params, "p")
    for n in range(order + 1):
        lhs = qhermite_poly(n, p)
        rhs = lincomb((change_base_c(n, j, p, q), qhermite_poly(n - 2 * j, q))
                      for j in range(n // 2 + 1))
        yield f"n={n}", lhs, rhs


@_case("cb-big",
       "change of base for the shift-parameter q-Hermite family via the "
       "three-step composition of expansions",
       "exact-poly", 6,
       "x symbolic; a, p, q bound rationals; n swept to the order bound",
       "0 < |p| < 1, 0 < |q| < 1",
       defaults={"a": Fraction(1, 4), "p": Fraction(1, 3), "q": Fraction(1, 2)})
def _run_cb_big(order, q, params):
    p = _exact_q(params, "p")
    a = frac(params["a"])
    for n in range(order + 1):
        lhs = big_qhermite_poly(n, a, p)
        rhs = lincomb((e, big_qhermite_poly(m, a, q)) for m, e in change_base_big(n, a, p, q) if e)
        yield f"n={n}", lhs, rhs


# -- numeric-complex checks ----------------------------------------------------


@_case("phi32-transform",
       "three-term transformation of a 3phi2 at argument de/(abc) into one "
       "at argument e/a with an infinite-product prefactor",
       "numeric-complex", 0,
       "a, b, c, d, e drawn complex; q bound",
       "|q| < 1; draw guards keep both arguments below 0.9",
       defaults={"q": 0.3, "tol": NUMERIC_TOL})
def _run_phi32(rng, q, tol):
    a = _draw_complex(rng, 0.6, 0.9)
    b = _draw_complex(rng, 0.6, 0.9)
    c = _draw_complex(rng, 0.6, 0.9)
    d = _draw_complex(rng, 0.1, 0.25)
    e = _draw_complex(rng, 0.1, 0.25)
    z1 = d * e / (a * b * c)
    lhs = phi_sum([a, b, c], [d, e], q, z1)
    pref = qpoch_inf(e / a, q) * qpoch_inf(d * e / (b * c), q) \
        / (qpoch_inf(e, q) * qpoch_inf(z1, q))
    rhs = pref * phi_sum([a, d / b, d / c], [d, d * e / (b * c)], q, e / a)
    return f"a={a:.4f} b={b:.4f} c={c:.4f} d={d:.4f} e={e:.4f}", [lhs, rhs]


@_case("nonsym-poisson",
       "nonsymmetric Poisson kernel for the shift-parameter q-Hermite "
       "family: H_n(x;a)H_n(y;b) sum vs its 3phi2 product form, and vs the "
       "circle substitution into the bivariate kernel formula",
       "numeric-complex", 0,
       "theta, beta, a, b, t drawn; q bound",
       "|q| < 1; |t| <= 0.4; 0.05 <= |a|,|b| <= 0.5",
       defaults={"q": 0.3, "tol": NUMERIC_TOL})
def _run_nonsym_poisson(rng, q, tol):
    theta = 0.3 + 2.5 * rng.random()
    beta = 0.3 + 2.5 * rng.random()
    a = _draw_complex(rng, 0.05, 0.5)
    b = _draw_complex(rng, 0.1, 0.5)
    t = _draw_complex(rng, 0.05, 0.4)
    zt = cmath.exp(1j * theta)
    zb = cmath.exp(1j * beta)
    ha, hb = qhermite_circle(a, q, theta), qhermite_circle(b, q, beta)
    lhs = _gf_sum(lambda n: ha(n) * hb(n), t, q, tol)
    pref = qpoch_inf(a * t * zb, q) * qpoch_inf(b / zb, q) * qpoch_inf(t * t, q) \
        / (qpoch_inf(t * zt * zb, q) * qpoch_inf(t * zt / zb, q)
           * qpoch_inf(t / (zt * zb), q) * qpoch_inf(t * zb / zt, q))
    rhs1 = pref * phi_sum([t * zt * zb, t * zb / zt, a * t / b],
                          [a * t * zb, t * t], q, b / zb)
    xs, ys, us, vs = zt ** -2, a / zt, zb ** -2, b / zb
    ts = t * zt * zb
    pref2 = qpoch_inf(ys * ts, q) * qpoch_inf(vs * xs * ts, q) \
        / (qpoch_inf(ts, q) * qpoch_inf(xs * ts, q) * qpoch_inf(us * xs * ts, q))
    rhs2 = pref2 * phi_sum([ys, xs * ts, vs / us],
                           [ys * ts, vs * xs * ts], q, us * ts)
    return (f"theta={theta:.4f} beta={beta:.4f} a={a:.4f} b={b:.4f} t={t:.4f}",
            [lhs, rhs1, rhs2])


@_case("rogers-big",
       "Rogers formula on the circle: the H_(n+m)(x;a|q) double sum equals "
       "the (as;q)_oo prefactor times a 2phi1 in argument t e^(i theta)",
       "numeric-complex", 0,
       "theta, a, s, t drawn; q bound",
       "|q| < 1; |s|,|t| <= 0.4; |a| <= 0.5",
       defaults={"q": 0.3, "tol": NUMERIC_TOL})
def _run_rogers_big(rng, q, tol):
    theta = 0.3 + 2.5 * rng.random()
    a = _draw_complex(rng, 0.05, 0.5)
    s = _draw_complex(rng, 0.05, 0.4)
    t = _draw_complex(rng, 0.05, 0.4)
    z = cmath.exp(1j * theta)
    hermite = qhermite_circle(a, q, theta)

    def term(big):
        qq = qfacs(q, big)
        return hermite(big) * sum(
            t ** n * s ** (big - n) / (qq[n] * qq[big - n]) for n in range(big + 1))

    lhs = _sum_terms((term(big) for big in range(10 ** 9)),
                     max(abs(s), abs(t)), tol)
    rhs = qpoch_inf(a * s, q) \
        / (qpoch_inf(s * z, q) * qpoch_inf(s / z, q) * qpoch_inf(t / z, q)) \
        * phi_sum([a / z, s / z], [a * s], q, t * z)
    return f"theta={theta:.4f} a={a:.4f} s={s:.4f} t={t:.4f}", [lhs, rhs]


@_case("gf-its-1",
       "even-index q-Hermite generating function: H_(2n) sum with base-q^2 "
       "factorials equals (-t;q)_oo over the (te^(2i theta);q^2) pair",
       "numeric-complex", 0,
       "theta, t drawn; q bound",
       "|q| < 1; |t| <= 0.4",
       defaults={"q": 0.3, "tol": NUMERIC_TOL})
def _run_gf_its_1(rng, q, tol):
    q2 = q * q
    theta = 0.3 + 2.5 * rng.random()
    t = _draw_complex(rng, 0.05, 0.4)
    z2 = cmath.exp(2j * theta)
    hermite = qhermite_circle(0.0, q, theta)
    lhs = _gf_sum(lambda n: hermite(2 * n), t, q2, tol)
    rhs = qpoch_inf(-t, q) / (qpoch_inf(t * z2, q2) * qpoch_inf(t / z2, q2))
    return f"theta={theta:.4f} t={t:.4f}", [lhs, rhs]


@_case("gf-its-2",
       "base-q^2 q-Hermite generating function: H_n(x|q^2) sum with base-q "
       "factorials equals (qt^2;q^2)_oo over the (te^(i theta);q) pair",
       "numeric-complex", 0,
       "theta, t drawn; q bound",
       "|q| < 1; |t| <= 0.4",
       defaults={"q": 0.3, "tol": NUMERIC_TOL})
def _run_gf_its_2(rng, q, tol):
    q2 = q * q
    theta = 0.3 + 2.5 * rng.random()
    t = _draw_complex(rng, 0.05, 0.4)
    z = cmath.exp(1j * theta)
    lhs = _gf_sum(qhermite_circle(0.0, q2, theta), t, q, tol)
    rhs = qpoch_inf(q * t * t, q2) / (qpoch_inf(t * z, q) * qpoch_inf(t / z, q))
    return f"theta={theta:.4f} t={t:.4f}", [lhs, rhs]


@_case("gen-big-1",
       "even-type generating identity for the shift-parameter family: the "
       "a^(n-2k) t^(n-k) coefficient sum against H_n(x;a|q) equals the "
       "(a^2 t;q^2)(-t;q) product over the (te^(2i theta);q^2) pair",
       "numeric-complex", 0,
       "theta, a, t drawn; q bound",
       "|q| < 1; |t| <= 0.4; |a| <= 0.5",
       defaults={"q": 0.3, "tol": NUMERIC_TOL})
def _run_gen_big_1(rng, q, tol):
    q2 = q * q
    theta = 0.3 + 2.5 * rng.random()
    a = _draw_complex(rng, 0.05, 0.5)
    t = _draw_complex(rng, 0.05, 0.4)
    z2 = cmath.exp(2j * theta)

    def coef(n):
        qq, qq2 = qfacs(q, n), qfacs(q2, n)
        return sum(q ** tri(n - 2 * k) * a ** (n - 2 * k) * t ** (n - k)
                   / (qq2[k] * qq[n - 2 * k]) for k in range(n // 2 + 1))

    hermite = qhermite_circle(a, q, theta)
    lhs = _sum_terms((coef(n) * hermite(n) for n in range(10 ** 9)),
                     math.sqrt(abs(t)), tol)
    rhs = qpoch_inf(a * a * t, q2) * qpoch_inf(-t, q) \
        / (qpoch_inf(t * z2, q2) * qpoch_inf(t / z2, q2))
    return f"theta={theta:.4f} a={a:.4f} t={t:.4f}", [lhs, rhs]


@_case("gen-big-2",
       "odd-type generating identity: the (-1)^k q^(k^2) a^k t^(n+k) "
       "coefficient sum against H_n(x;a|q^2) equals the (at;q)(qt^2;q^2) "
       "product over the (te^(i theta);q) pair",
       "numeric-complex", 0,
       "theta, a, t drawn; q bound",
       "|q| < 1; |t| <= 0.4; |a| <= 0.5",
       defaults={"q": 0.3, "tol": NUMERIC_TOL})
def _run_gen_big_2(rng, q, tol):
    q2 = q * q
    theta = 0.3 + 2.5 * rng.random()
    a = _draw_complex(rng, 0.05, 0.5)
    t = _draw_complex(rng, 0.05, 0.4)
    z = cmath.exp(1j * theta)

    def coef(n):
        qq, qq2 = qfacs(q, n), qfacs(q2, n)
        return sum((-1) ** k * q ** (k * k) * a ** k * t ** (n + k)
                   / (qq2[k] * qq[n - k]) for k in range(n + 1))

    hermite = qhermite_circle(a, q2, theta)
    lhs = _sum_terms((coef(n) * hermite(n) for n in range(10 ** 9)),
                     abs(t), tol)
    rhs = qpoch_inf(a * t, q) * qpoch_inf(q * t * t, q2) \
        / (qpoch_inf(t * z, q) * qpoch_inf(t / z, q))
    return f"theta={theta:.4f} a={a:.4f} t={t:.4f}", [lhs, rhs]


@_case("gf-big",
       "generating function of the shift-parameter q-Hermite family: the "
       "H_n(x;a|q) sum equals (at;q)_oo over the (te^(i theta);q) pair",
       "numeric-complex", 0,
       "theta, a, t drawn; q bound",
       "|q| < 1; |t| <= 0.4; |a| <= 0.5",
       defaults={"q": 0.3, "tol": NUMERIC_TOL})
def _run_gf_big(rng, q, tol):
    theta = 0.3 + 2.5 * rng.random()
    a = _draw_complex(rng, 0.05, 0.5)
    t = _draw_complex(rng, 0.05, 0.4)
    z = cmath.exp(1j * theta)
    lhs = _gf_sum(qhermite_circle(a, q, theta), t, q, tol)
    rhs = qpoch_inf(a * t, q) / (qpoch_inf(t * z, q) * qpoch_inf(t / z, q))
    return f"theta={theta:.4f} a={a:.4f} t={t:.4f}", [lhs, rhs]


# -- quadrature checks ----------------------------------------------------------


@_case("askey-wilson",
       "four-parameter circle weight integral against its closed "
       "(abcd;q)_oo over pairwise-products form",
       "quadrature", 0,
       "a, b, c, d, q bound floats",
       "|a|,|b|,|c|,|d|,|q| < 1",
       defaults={"a": 0.3, "b": 0.25, "c": 0.2, "d": 0.1, "q": 0.5,
                 "tol": QUAD_TOL})
def _run_askey_wilson(params, tol):
    a, b, c, d, q = _unit_params(params, "abcdq")
    lhs = askey_wilson_quad(a, b, c, d, q, tol=tol)
    return lhs, askey_wilson_closed(a, b, c, d, q)


@_case("ortho-big",
       "orthogonality of the shift-parameter q-Hermite family: the "
       "weighted moment integral equals (q;q)_n on the diagonal, 0 off it",
       "quadrature", 0,
       "n, m, a, q bound",
       "n, m <= 8; |a| < 1; |q| < 1",
       defaults={"n": 3, "m": 3, "a": 0.3, "q": 0.4, "tol": QUAD_TOL})
def _run_ortho_big(params, tol):
    n, m = int(params["n"]), int(params["m"])
    a, q = _unit_params(params, "aq")
    lhs, _ = integrate(IntegralSpec(ortho_integrand(n, m, a, q), tol=tol,
                                    prefactor=qpoch_inf(q, q).real / (2 * math.pi),
                                    periodic=True))
    rhs = qpoch_n(q, q, n).real if n == m else 0.0
    return lhs, rhs, f"moment({n},{m}) = {{lhs!r}}, expected {{rhs!r}}"


# closed-H-<variant>: description, and (q, a, t) -> (p, inner base, closed value)
_CLOSED_H = (
    ("qq", "equal bases: the mixed-base moment integral collapses to 1",
     lambda q, a, t: (q, q, 1.0)),
    ("mqq", "negated base: the mixed-base moment integral collapses to 1",
     lambda q, a, t: (-q, q, 1.0)),
    ("q2q", "squared base: the moment integral equals (q^2 t^2; q^4)_oo",
     lambda q, a, t: (q * q, q, qpoch_inf(q * q * t * t, q ** 4).real)),
    ("q2q3", "squared/cubed bases: the moment integral equals "
             "(at^3 q^6;q^6)_oo / (t^2 q^4;q^4)_oo",
     lambda q, a, t: (q * q, q ** 3, (qpoch_inf(a * t ** 3 * q ** 6, q ** 6)
                                      / qpoch_inf(t * t * q ** 4, q ** 4)).real)),
)


def _run_closed_h(bases):
    def run(params, tol):
        q, a, t = _unit_params(params, "qat")
        p, sub, rhs = bases(q, a, t)
        return jhi_eval("H", p, sub, a, t, tol=tol), rhs
    return run


for _variant, _blurb, _bases in _CLOSED_H:
    _case(f"closed-H-{_variant}", _blurb, "quadrature", 0,
          "a, t, q bound floats", "|q|, |a|, |t| < 1",
          defaults={"q": 0.3, "a": 0.1, "t": 0.2, "tol": CLOSED_TOL})(_run_closed_h(_bases))
