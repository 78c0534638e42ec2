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
There are two verdicts. The exact modes share _exact_sweep: a pair passes
when lhs == rhs, the --perturb control is lhs + 1, and a failure's witness
is lhs - rhs, for a series its lexicographically first coefficient. The
float modes share _float_verdict over (witness template, values, scale)
rows, each value within tol of values[0] in |difference| / scale. verify()
also makes each integer parameter (one whose default is an int) an int.
What a runner gets and returns, per mode:

exact-series, exact-poly  runner(order, q, params) yields (label, lhs, rhs)
               triples: truncated series, each of exactly the requested
               order (else RuntimeError), or polynomials. A sweep over
               (n, m) whose sides are symmetric in n and m builds each
               unordered pair once and reports it under both labels,
               "n=..., m=..." in row-major order (_symmetric_sweep).
numeric-complex  runner(rng, q, tol) returns one draw (label, values): the
               parameters it drew with _draw and the values that must
               agree. verify() makes NUMERIC_DRAWS draws, each an absolute
               row "draw i: label: |difference| = ...", and raises
               RuntimeError on a value that is not finite. The runner sums its
               series to tol = (the case's tol) / 10; where a term's
               coefficient is itself a finite sum, a forward recurrence
               gives it at O(1) per term.
quadrature     runner(params, tol) returns one row: _relative(integral,
               closed value), or an absolute row for a closed value that
               may be 0. The runner integrates to tol = (the case's tol) *
               1e-2, so a case tol loosens the integral as well as
               tightening it.

The tolerance a runner gets is thus a fixed factor tighter than the one its
verdict compares against, so truncation and quadrature error stay well
inside it.

Exact sides come from three builders: _egf, a q-exponential generating
function (the left side of every Mehler and Rogers formula); _euler, a dense
series times Euler factors; and the weighted power sums sum_k w_k v^k f_k of
one variable v: _lin_sum, a linearization sum, and _binomial_sum, a
q-binomial transform. Both read their weights w_k from one memoised row
per (q, n, m, sign) (_weights) and hand them to qcore.power_sum, which
packs each v^k over the sum's variables, so no term rebuilds a weight or a
power. rogers2-brs's left side is the _egf of hlm-relation's y-side. No
exact side divides or inverts a series.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .families import (big_qhermite_polys, brs_poly, cauchy_poly,
                       change_base_big, change_base_c, qhermite_circle,
                       rs_poly)
from .fps import TruncSeries, _sum_terms, euler_inv_series, euler_series, phi_series, phi_sum
from .qcore import (MultiPoly, frac, lincomb, memo_table, power_sum, qbinom, qfac,
                    qpochs, tri)
from .qops import e_op_apply, t_op_graded
from .quadrature import (askey_wilson_closed, askey_wilson_quad, jhi_eval,
                         ortho_quad, qpoch_inf, qpoch_n)
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
    a negative control that the comparison actually bites. A numeric case's
    params["tol"] is its verdict's tolerance; its runner works to a tighter
    one, tol / 10 (numeric-complex) or tol * 1e-2 (quadrature).
    """
    case = get_case(case_id)
    merged = dict(case.defaults)
    for key, value in (params or {}).items():
        if key not in case.defaults:
            raise ValueError(f"{case_id} does not take a parameter {key!r}")
        merged[key] = _nonneg_int(value, f"parameter {key}") \
            if type(case.defaults[key]) is int else value
    run_order = case.default_order if order is None else _nonneg_int(order, "order")
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
        for label, *pair in sides:   # series compare through the lower order
            if any(isinstance(s, TruncSeries) and s.order != run_order for s in pair):
                raise RuntimeError(f"{label or case_id}: a series side is not of the "
                                   f"reported order {run_order}")
    elif case.mode == "numeric-complex":
        (q,), tol = _unit_params(merged, "q"), _tol_param(merged)
        rng = _rng_for(case_id, seed)
        draws = (case.runner(rng, q, tol / 10) for _ in range(NUMERIC_DRAWS))
        sides = [(f"draw {i}: {label}: |difference| = {{resid:.6e}}",
                  _finite(f"draw {i}: {label}", values), 1.0)
                 for i, (label, values) in enumerate(draws)]
    else:
        tol = _tol_param(merged)
        sides = [case.runner(merged, tol * 1e-2)]
    report.status, report.residual, report.witness = \
        _VERDICTS[case.mode](sides, tol, perturb)
    report.elapsed_ms = (time.perf_counter() - started) * 1000
    return report


def verify_all(order: int | None = None, seed: int = 0, perturb: bool = False) -> list:
    """Run every registered case in registry order."""
    return [verify(i, order=order, seed=seed, perturb=perturb) for i in _REGISTRY]


# -- shared machinery ---------------------------------------------------------


def _rng_for(case_id: str, seed: int) -> random.Random:
    digest = hashlib.sha256(f"{case_id}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _draw_complex(rng, rmin: float, rmax: float) -> complex:
    r = rmin + (rmax - rmin) * rng.random()
    return r * cmath.exp(2j * math.pi * rng.random())


def _draw(rng, **ranges):
    """One draw per keyword, in keyword order: an angle 0.3 + 2.5u where the
    range is None, else _draw_complex(rng, *range). Returns the values, then
    the label "name=value ..." at four decimals."""
    values = [0.3 + 2.5 * rng.random() if r is None else _draw_complex(rng, *r)
              for r in ranges.values()]
    return (*values, " ".join(f"{k}={v:.4f}" for k, v in zip(ranges, values)))


def _exact_q(params, key="q") -> Fraction:
    q = frac(params[key])
    if not 0 < abs(q) < 1:
        raise ValueError(f"{key} must be a nonzero rational with |{key}| < 1")
    return q


def _exact_sweep(triples, tol, perturb: bool):
    """Verdict over (label, lhs, rhs) series or polynomial triples; exact,
    so tol is None."""
    for i, (label, lhs, rhs) in enumerate(triples):
        if perturb and i == 0:
            lhs = lhs + 1
        if lhs == rhs:
            continue
        diff = lhs - rhs
        if isinstance(diff, TruncSeries):
            idx, delta = min(diff.coeffs.items())
            where = " ".join(f"{v}^{e}" for v, e in zip(diff.vars, idx))
            found = f"coefficient of {where}: {delta}"
        else:
            found = f"difference {diff}"
        return "fail", None, clip_witness(f"{label}: {found}" if label else found)
    return "exact-pass", None, None


def _float_verdict(rows, tol: float, perturb: bool):
    """Verdict over (witness template, values, scale) rows: every value in a
    row must lie within tol of values[0], in |values[0] - v| / scale (scale 1
    for an absolute residual). perturb first adds max(1e-3, 10 tol scale) to
    the first row's values[0], so the control fails whatever tol the caller
    passes. The residual is the worst pair's (the first of equals; a NaN
    counts as worst), and a failure's witness is its row's template filled
    with lhs, rhs and resid."""
    worst = None
    for i, (template, values, scale) in enumerate(rows):
        lhs = values[0]
        if perturb and i == 0:
            lhs += max(1e-3, 10 * tol * scale)
        for rhs in values[1:]:
            resid = abs(lhs - rhs) / scale
            if worst is None or resid > worst[0] or resid != resid:
                worst = resid, template, lhs, rhs
    resid, template, lhs, rhs = worst
    if resid <= tol:
        return "pass", resid, None
    return "fail", resid, clip_witness(template.format(lhs=lhs, rhs=rhs, resid=resid))


def _finite(where: str, values: list) -> list:
    """values, once every one is a finite number. An infinite or NaN value
    is a float overflow in the sums, not a violated identity, so it raises
    RuntimeError, which the CLI reports as a check that could not run."""
    for v in values:
        if not cmath.isfinite(v):
            raise RuntimeError(f"{where}: the float value {v!r} is not finite")
    return values


def _relative(lhs, rhs):
    """The verdict row of an integral against a nonzero closed value rhs."""
    return "integral {lhs!r} vs product {rhs!r}", [lhs, rhs], max(abs(rhs), 1e-300)


def _gf_sum(coef, t: complex, base: float, tol: float) -> complex:
    """sum_n coef(n) t^n / (base;base)_n through _sum_terms, tail ratio |t|.
    RuntimeError once the float (base;base)_n underflows to 0."""
    def terms():
        qq = 1.0
        tn = 1.0 + 0j
        n = 0
        while True:
            if n:
                qq *= 1 - base ** n
                tn *= t
                if not qq:
                    raise RuntimeError(f"the float ({base};{base})_{n} underflows to 0")
            yield coef(n) * tn / qq
            n += 1

    return _sum_terms(terms(), abs(t), tol)


def _pair(c, z, base) -> complex:
    """(cz, c/z; base)_oo, the pole pair of a circle generating function."""
    return qpoch_inf(c * z, base) * qpoch_inf(c / z, base)


def _nonneg_int(value, name: str) -> int:
    """value as an int. Only a nonnegative integral value (an int, or a
    float or Fraction equal to one, but not a bool) is accepted: anything
    else raises rather than being truncated or giving an empty sweep."""
    try:
        n = None if isinstance(value, bool) else int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value or n < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value}")
    return n


def _tol_param(params) -> float:
    """The tol parameter as a float. It must be finite and positive: no
    comparison meets a tol <= 0 or NaN, so the case would read as failed."""
    tol = float(params["tol"])
    if not 0 < tol < math.inf:
        raise ValueError(f"parameter tol must be finite and positive, got {params['tol']}")
    return tol


def _unit_params(params, names) -> list:
    """The named parameters as floats, each required to satisfy |p| < 1."""
    vals = [float(params[name]) for name in names]
    for name, val in zip(names, vals):
        if not abs(val) < 1:
            raise ValueError(f"parameter {name} must satisfy |{name}| < 1")
    return vals


_VERDICTS = {"exact-series": _exact_sweep, "exact-poly": _exact_sweep,
             "numeric-complex": _float_verdict, "quadrature": _float_verdict}


_X, _Y, _U, _V, _A = (MultiPoly.var(n) for n in "xyuva")


def _egf(variables: tuple, order: int, q: Fraction, coef) -> TruncSeries:
    """The q-exponential generating function sum coef(*idx) prod_i
    v_i^(idx_i) / (q;q)_(idx_i) over the exponent tuples idx of total degree
    <= order in `variables`, as in the Mehler and Rogers formulas."""
    inv = [1 / qfac(q, k) for k in range(order + 1)]
    return TruncSeries(variables, order, {
        idx: coef(*idx) * math.prod(inv[i] for i in idx)
        for idx in product(range(order + 1), repeat=len(variables)) if sum(idx) <= order})


def _euler(dense: TruncSeries, q: Fraction, num=(), den=()) -> TruncSeries:
    """dense times (z;q)_oo for each one-term series z in num, then 1/(z;q)_oo
    for each z in den: one sparse factor at a time, in the order given."""
    for z in num:
        dense = dense * euler_series(z, q)
    for z in den:
        dense = dense * euler_inv_series(z, q)
    return dense


def _mehler_product(q: Fraction, order: int) -> TruncSeries:
    """(xyt^2;q)_oo / (t, xt, yt, xyt;q)_oo, the classical Poisson-kernel product."""
    t1 = TruncSeries.variable(("t",), order, "t")
    return _euler(euler_series(TruncSeries.monomial(("t",), order, (2,), _X * _Y), q), q,
                  den=[t1.scale(c) for c in (Fraction(1), _X, _Y, _X * _Y)])


def _rogers_product(family, q: Fraction, order: int) -> TruncSeries:
    """(xst;q)_oo times the family(i) family(j) s^i t^j / ((q;q)_i (q;q)_j)
    double sum: the right side of both Rogers-type formulas."""
    dbl = _egf(("s", "t"), order, q, lambda i, j: family(i, q) * family(j, q))
    return _euler(dbl, q, num=[TruncSeries.monomial(("s", "t"), order, (1, 1), _X)])


# -- exact series: Poisson-kernel (Mehler-type) and Rogers-type families ------


@_case("mehler-rs",
       "Poisson kernel for h_n(x|q): the h_n(x)h_n(y) sum equals the "
       "four-factor Euler product with an (xyt^2;q)_oo numerator",
       "exact-series", 8,
       "x, y symbolic; q bound rational; t series variable",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_mehler_rs(order, q, params):
    lhs = _egf(("t",), order, q, lambda n: rs_poly(n, q) * rs_poly(n, q, "y"))
    yield "", lhs, _mehler_product(q, order)


@_case("rogers-rs",
       "Rogers formula for h_n(x|q): the h_(n+m) double sum equals "
       "(xst;q)_oo times the h_n h_m double sum",
       "exact-series", 8,
       "x symbolic; q bound rational; t, s series variables",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_rogers_rs(order, q, params):
    lhs = _egf(("s", "t"), order, q, lambda i, j: rs_poly(i + j, q))
    yield "", lhs, _rogers_product(rs_poly, q, order)


@_case("mehler-brs",
       "Poisson kernel for h_n(x,y|q): the h_n(x,y)h_n(u,v) sum equals the "
       "Euler-product prefactor times a 3phi2 in argument ut",
       "exact-series", 8,
       "x, y, u, v symbolic; q bound rational; t series variable",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_mehler_brs(order, q, params):
    t1 = TruncSeries.variable(("t",), order, "t")
    lhs = _egf(("t",), order, q, lambda n: brs_poly(n, q) * brs_poly(n, q, "u", "v"))
    phi = phi_series((_Y, t1.scale(_X)), (t1.scale(_Y), t1.scale(_V * _X)), q, t1,
                     ratio_upper=((_V, _U),))
    yield "", lhs, _euler(phi, q, num=[t1.scale(_Y), t1.scale(_V * _X)],
                          den=[t1, t1.scale(_X), t1.scale(_U * _X)])


@_case("mehler-reduction",
       "specializing the bivariate Poisson kernel at y=0, v=0, u->y "
       "reproduces the classical h_n(x|q) Poisson-kernel product",
       "exact-series", 8,
       "x, y symbolic; q bound rational; t series variable",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_mehler_reduction(order, q, params):
    t1 = TruncSeries.variable(("t",), order, "t")
    lhs = _euler(phi_series((t1.scale(_X),), (), q, t1, ratio_upper=((Fraction(0), _Y),)),
                 q, den=[t1, t1.scale(_X), t1.scale(_Y * _X)])
    yield "", lhs, _mehler_product(q, order)


@_case("rogers-brs",
       "Rogers formula for h_n(x,y|q): the h_(n+m) double sum equals the "
       "Euler prefactor times a 2phi1 in argument t",
       "exact-series", 8,
       "x, y symbolic; q bound rational; t, s series variables",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_rogers_brs(order, q, params):
    s1 = TruncSeries.variable(("s", "t"), order, "s")
    t1 = TruncSeries.variable(("s", "t"), order, "t")
    lhs = _egf(("s", "t"), order, q, lambda i, j: brs_poly(i + j, q))
    yield "", lhs, _euler(phi_series((_Y, s1.scale(_X)), (s1.scale(_Y),), q, t1), q,
                          num=[s1.scale(_Y)], den=[s1, s1.scale(_X), t1.scale(_X)])


@_case("rogers2-brs",
       "second Rogers-type formula: the y-alternating triple sum over "
       "h_(n+m-k) equals (xst;q)_oo times the h_n h_m double sum",
       "exact-series", 7,
       "x, y symbolic; q bound rational; t, s series variables",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_rogers2_brs(order, q, params):
    # hlm-relation's y-side at (i, j): 1/((q;q)_k (q;q)_(i-k) (q;q)_(j-k))
    # is [i,k][j,k](q;q)_k / ((q;q)_i (q;q)_j)
    lhs = _egf(("s", "t"), order, q, lambda i, j: _lin_sum(
        i, j, q, lambda k: brs_poly(i + j - k, q), alternating=True, var=_Y))
    yield "", lhs, _rogers_product(brs_poly, q, order)


# -- exact series: operator lemmas --------------------------------------------


def _t_op_euler_kernel(s, t, v, w, q: Fraction, order: int) -> TruncSeries:
    """T(bD_q){(av;q)_oo / ((as,at,aw;q)_oo)}, the operator side of `lemma-2.2`
    (w = 0) and `zhang-wang`: the graded T action on the a-series operand, an
    exact series in (a, b) truncated at total degree `order`."""
    a1 = TruncSeries.variable(("a",), order, "a")
    operand = _euler(euler_series(a1.scale(v), q), q, den=[a1.scale(c) for c in (s, t, w)])
    return t_op_graded(operand, q)


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
    lhs = _t_op_euler_kernel(s, t, v, Fraction(0), q, order)
    av, bv = (TruncSeries.variable(("a", "b"), order, c) for c in "ab")
    yield "", lhs, _euler(phi_series((v / t, bv.scale(s)), (bv.scale(v),), q, av.scale(t)), q,
                          num=[bv.scale(v)], den=[av.scale(s), bv.scale(s), bv.scale(t)])


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
    s, t, v, w = (vals[k] for k in "stvw")
    if not v:
        raise ValueError("v must be nonzero (it divides the 3phi2 argument)")
    av, bv = (TruncSeries.variable(("a", "b"), order, c) for c in "ab")
    abm = TruncSeries.monomial(("a", "b"), order, (1, 1))
    # v/s, v/t and v/w are homogenized ratios, so s, t or w = 0 stays polynomial
    phi = phi_series((), (av.scale(v), bv.scale(v)), q, abm.scale(1 / v),
                     ratio_upper=((v, s), (v, t), (v, w)))
    rhs = _euler(phi, q, num=[av.scale(v), bv.scale(v), abm.scale(s * t * w / v)],
                 den=[z.scale(c) for c in (s, t, w) for z in (av, bv)])
    yield "", _t_op_euler_kernel(s, t, v, w, q, order), rhs


@_case("lemma-2.3",
       "homogeneous shift operator on the Cauchy kernel times "
       "P_n/(yt;q)_n: the image equals the h-generating prefactor times a "
       "finite (y,xt;q)_k/(yt;q)_k sum",
       "exact-series", 8,
       "x, y symbolic; q bound rational; t series variable; n swept to nmax",
       "0 < |q| < 1; nmax >= 0",
       defaults={"q": Fraction(1, 2), "nmax": 6})
def _run_lemma_23(order, q, params):
    nmax = params["nmax"]
    t1 = TruncSeries.variable(("t",), order, "t")
    ypochs = qpochs(_Y, q, nmax)
    # (xt;q)_k/(yt;q)_k times the kernel (yt;q)_oo/(xt;q)_oo is (ytq^k;q)_oo/(xtq^k;q)_oo
    shifted = [_euler(euler_series(t1.scale(_Y * q ** k), q), q, den=[t1.scale(_X * q ** k)])
               for k in range(nmax + 1)]
    for n in range(nmax + 1):   # the kernel over (yt;q)_n is (ytq^n;q)_oo/(xt;q)_oo
        kernel = _euler(euler_series(t1.scale(_Y * q ** n), q), q, den=[t1.scale(_X)])
        lhs = e_op_apply(kernel.scale(cauchy_poly(n, q)), q)
        ksum = TruncSeries.zero(("t",), order)
        for k in range(n + 1):
            ksum = ksum + shifted[k].scale(qbinom(n, k, q) * ypochs[k] * _X ** (n - k))
        yield f"n={n}", lhs, _euler(ksum, q, den=[t1])


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
    return _symmetric_sweep(order, lambda n, m: (rs_pairs[n, m], _lin_sum(
        n, m, q, lambda k: rs_poly(n + m - 2 * k, q))))


def _symmetric_sweep(order: int, sides):
    """The triples (f"n={n}, m={m}", lhs, rhs) for n, m <= order in
    row-major order, for a case whose sides are symmetric in (n, m).

    sides(n, m) returns (lhs, rhs). It runs once per unordered pair, at
    n <= m, and (m, n) reports the sides built for (n, m), which are the
    same polynomials.
    """
    built = {}
    for n in range(order + 1):
        for m in range(order + 1):
            if m < n:
                lhs, rhs = built.pop((m, n))
            else:
                lhs, rhs = sides(n, m)
                if n < m:
                    built[n, m] = lhs, rhs
            yield f"n={n}, m={m}", lhs, rhs


def _weights(q: Fraction, n: int, m: int | None, alternating: bool) -> tuple:
    """The weights [n,k][m,k](q;q)_k for k <= min(n, m), each times
    (-1)^k q^(k(k-1)/2) when alternating. m = None stands for m = oo, where
    [m,k](q;q)_k = 1 and the weights are the q-binomial transform's [n,k].
    A row is built once per q and kept in a memo table under (n, m) sorted,
    as the weights are symmetric in n and m."""
    table = memo_table(("weights", alternating), q)
    key = (n, m) if m is None or n <= m else (m, n)
    row = table.get(key)
    if row is None:
        row = []
        for k in range((n if m is None else min(n, m)) + 1):
            w = qbinom(n, k, q) if m is None else qbinom(n, k, q) * qbinom(m, k, q) * qfac(q, k)
            if alternating:
                w = (-w if k % 2 else w) * q ** tri(k)
            row.append(w)
        row = table[key] = tuple(row)
    return row


def _lin_sum(n: int, m: int, q: Fraction, factor, alternating: bool = False,
             var: MultiPoly = _X) -> MultiPoly:
    """sum_k [n,k][m,k](q;q)_k var^k factor(k) over k <= min(n, m), each
    weight times (-1)^k q^(k(k-1)/2) when alternating: the linearization sums,
    as one power_sum over the memoised _weights row."""
    return power_sum(var, _weights(q, n, m, alternating),
                     [factor(k) for k in range(min(n, m) + 1)])


def _binomial_sum(n: int, q: Fraction, var, values, alternating: bool = False) -> MultiPoly:
    """sum_k [n,k] var^k values[n-k], each term times (-1)^k q^(k(k-1)/2) when
    alternating: the q-binomial transform and its inverse, which carry h_n(x,y|q)
    to h_n(x|q) at var = y and H_n(x;a|q) to H_n(x|q) at var = a, and back."""
    return power_sum(var, _weights(q, n, None, alternating), values[n::-1])


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
    yh = [[ypoch[k] * brs_poly(j, q) for j in range(order + 1 - k)] for k in span]
    # d[k][m] = sum_l [m,l] q^(kl) P_l h_(m-l), the right side's inner sum, and
    # e[m][j - m] = sum_l [m,l] P_l h_(j-l) for m <= j <= m + order, the left's
    d = [[lincomb((qbinom(m, l, q), q ** (k * l), cauchy_poly(l, q), brs_poly(m - l, q))
                  for l in range(m + 1)) for m in span] for k in span]
    e = [[lincomb((qbinom(m, l, q), cauchy_poly(l, q), brs_poly(j - l, q))
                  for l in range(m + 1)) for j in range(m, m + order + 1)] for m in span]
    for n in span:
        for m in span:
            # the left side's sum over l taken first, which fixes e[m][n+m-k]
            lhs = lincomb((qbinom(n, k, q), ypoch[k], e[m][n - k]) for k in range(n + 1))
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
    return _symmetric_sweep(order, lambda n, m: (brs_pairs[n, m], _lin_sum(
        n, m, q, lambda l: _lin_sum(
            n - l, m - l, q, lambda k: brs_poly(n + m - 2 * l - k, q),
            alternating=True, var=_Y))))


@_case("hlm-relation",
       "alternating x^k h_(n-k)h_(m-k) vs y^k h_(n+m-k) combination "
       "vanishes identically for h_n(x,y|q)",
       "exact-poly", 8,
       "x, y symbolic; q bound rational; n, m swept to the order bound",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_hlm(order, q, params):
    brs_pairs = _pair_products(brs_poly, q, order)
    return _symmetric_sweep(order, lambda n, m: (
        _lin_sum(n, m, q, lambda k: brs_pairs[n - k, m - k], alternating=True),
        _lin_sum(n, m, q, lambda k: brs_poly(n + m - k, q), alternating=True, var=_Y)))


@_case("linear-mixed",
       "the [n,k][m,k](q;q)_k x^k h_(n+m-2k)(x|q) sum factors into two "
       "y-binomial h(x,y|q) transforms",
       "exact-poly", 6,
       "x, y symbolic; q bound rational; n, m swept to the order bound",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_linear_mixed(order, q, params):
    brs = [brs_poly(n, q) for n in range(order + 1)]
    yb = [_binomial_sum(n, q, _Y, brs) for n in range(order + 1)]
    return _symmetric_sweep(order, lambda n, m: (
        _lin_sum(n, m, q, lambda k: rs_poly(n + m - 2 * k, q)), yb[n] * yb[m]))


@_case("awilson-special",
       "h_n(x|q) expands as the y-binomial sum over h_(n-k)(x,y|q)",
       "exact-poly", 8,
       "x, y symbolic; q bound rational; n swept to the order bound",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_awilson_special(order, q, params):
    brs = [brs_poly(n, q) for n in range(order + 1)]
    for n in range(order + 1):
        yield f"n={n}", rs_poly(n, q), _binomial_sum(n, q, _Y, brs)


@_case("its-inverse",
       "h_n(x,y|q) expands as the alternating q-power y-binomial sum over "
       "h_(n-k)(x|q)",
       "exact-poly", 8,
       "x, y symbolic; q bound rational; n swept to the order bound",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_its_inverse(order, q, params):
    rs = [rs_poly(n, q) for n in range(order + 1)]
    for n in range(order + 1):
        yield f"n={n}", brs_poly(n, q), _binomial_sum(n, q, _Y, rs, alternating=True)


def _pair_products(family, q: Fraction, top: int) -> dict:
    """The memo table (i, j) -> family(i, q) * family(j, q), filled for
    i, j <= top. Each product is built once per q, and every sweep over the
    family at that q shares it."""
    table = memo_table(("pairs", family.__name__), q)
    for i in range(top + 1):
        for j in range(i, top + 1):
            if (i, j) not in table:
                table[i, j] = table[j, i] = family(i, q) * family(j, q)
    return table


def _mixed_sides(n: int, m: int, q: Fraction, pairs: dict):
    """Both sides of the mixed alternating identity linking h(x|q) and
    h(x,y|q) products; pairs is _pair_products(brs_poly, q, >= max(n, m))."""
    a = [qbinom(n, j, q) * q ** tri(j) for j in range(n + 1)]
    b = [qbinom(m, k, q) * q ** tri(k) for k in range(m + 1)]
    # the (j, k) double sum grouped by s = j + k, which fixes (-y)^s h_(n+m-s)
    lhs = power_sum(_Y, [(-1) ** s * sum(a[j] * b[s - j]
                                          for j in range(max(0, s - m), min(n, s) + 1))
                         for s in range(n + m + 1)],
                    [rs_poly(n + m - s, q) for s in range(n + m + 1)])
    return lhs, _lin_sum(n, m, q, lambda k: pairs[n - k, m - k], alternating=True)


@_case("mixed-identity",
       "alternating (-y)^(j+k) h_(n+m-j-k)(x|q) double sum equals the "
       "alternating (-x)^k h_(n-k)(x,y)h_(m-k)(x,y) sum",
       "exact-poly", 6,
       "x, y symbolic; q bound rational; n, m swept to the order bound",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_mixed_identity(order, q, params):
    brs_pairs = _pair_products(brs_poly, q, order)
    return _symmetric_sweep(order, lambda n, m: _mixed_sides(n, m, q, brs_pairs))


@_case("askey-ismail",
       "inverse linearization: h_(m+n)(x|q) as the alternating (-x)^k "
       "h_(n-k)h_(m-k) sum; also the y=0 shadow of the mixed identity",
       "exact-poly", 6,
       "x symbolic; q bound rational; n, m swept to the order bound",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_askey_ismail(order, q, params):
    rs_pairs = _pair_products(rs_poly, q, order)
    return _symmetric_sweep(order, lambda n, m: (rs_poly(n + m, q), _lin_sum(
        n, m, q, lambda k: rs_pairs[n - k, m - k], alternating=True)))


# -- exact: q-Hermite connections ----------------------------------------------


@_case("hxa-hx",
       "the shift-parameter q-Hermite expands over plain q-Hermite "
       "polynomials with alternating q-power a-binomial weights",
       "exact-poly", 8,
       "a symbolic; q bound rational; x symbolic; n swept",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_hxa_hx(order, q, params):
    big, plain = big_qhermite_polys(order, "a", q), big_qhermite_polys(order, 0, q)
    for n in range(order + 1):
        yield f"n={n}", big[n], _binomial_sum(n, q, _A, plain, alternating=True)


@_case("hx-hxa",
       "plain q-Hermite expands over shift-parameter q-Hermite polynomials "
       "with a-binomial weights",
       "exact-poly", 8,
       "a symbolic; q bound rational; x symbolic; n swept",
       "0 < |q| < 1",
       defaults={"q": Fraction(1, 2)})
def _run_hx_hxa(order, q, params):
    big, plain = big_qhermite_polys(order, "a", q), big_qhermite_polys(order, 0, q)
    for n in range(order + 1):
        yield f"n={n}", plain[n], _binomial_sum(n, q, _A, big)


@_case("cb-hermite",
       "q-Hermite change of base: H_n(x|p) equals the c_(n,n-2j)(p,q) "
       "combination of H_(n-2j)(x|q)",
       "exact-poly", 8,
       "x symbolic; p, q bound rationals; n swept to the order bound",
       "0 < |p| < 1, 0 < |q| < 1",
       defaults={"p": Fraction(1, 3), "q": Fraction(1, 2)})
def _run_cb_hermite(order, q, params):
    p = _exact_q(params, "p")
    at_p, at_q = big_qhermite_polys(order, 0, p), big_qhermite_polys(order, 0, q)
    for n in range(order + 1):
        rhs = lincomb((change_base_c(n, j, p, q), at_q[n - 2 * j]) for j in range(n // 2 + 1))
        yield f"n={n}", at_p[n], rhs


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
    at_p, at_q = big_qhermite_polys(order, a, p), big_qhermite_polys(order, a, q)
    for n in range(order + 1):
        rhs = lincomb((e, at_q[m]) for m, e in change_base_big(n, a, p, q) if e)
        yield f"n={n}", at_p[n], rhs


# -- numeric-complex checks ----------------------------------------------------

# The coefficient sequences of the left sides that are finite sums, each
# run forward by a three-term recurrence at O(1) per term. They compute in
# the number type of their arguments: complex in the runners, Fraction in
# the tests that hold them to the sums.


def _rogers_weights(s, t, q):
    """g_N = sum_n t^n s^(N-n) / ((q;q)_n (q;q)_(N-n)) = h_N(t,s|q)/(q;q)_N,
    N = 0, 1, ..., by g_N (1 - q^N) = (t + s) g_(N-1) - ts g_(N-2)."""
    plus, times = t + s, t * s
    before, g, qn = 0, 1, 1
    while True:
        yield g
        qn *= q
        before, g = g, (plus * g - times * before) / (1 - qn)


def _gen_big_1_coefs(a, t, q):
    """c_n = sum_k q^C(n-2k,2) a^(n-2k) t^(n-k) / ((q^2;q^2)_k (q;q)_(n-2k))
    = [u^n] (-atu;q)_oo / (tu^2;q^2)_oo, n = 0, 1, ..., by that quotient's
    q-difference equation: c_n (1 - q^n) = at q^(n-1) c_(n-1) + t c_(n-2)."""
    at = a * t
    before, c, qn = 0, 1, 1   # qn = q^(n-1) for the next n
    while True:
        yield c
        before, c = c, (at * qn * c + t * before) / (1 - qn * q)
        qn *= q


def _gen_big_2_coefs(a, t, q):
    """t^n c_n = sum_k (-1)^k q^(k^2) a^k t^(n+k) / ((q^2;q^2)_k (q;q)_(n-k)),
    n = 0, 1, ..., where c_n = [u^n] F(u), F(u) = (bu;q^2)_oo / (u;q)_oo and
    b = aqt. F(u)(1 - u)(1 - qu) = F(q^2 u)(1 - bu) gives
    c_n (1 - q^(2n)) = (1 + q - b q^(2n-2)) c_(n-1) - q c_(n-2)."""
    b, q2 = a * q * t, q * q
    before, c, q2n, tn = 0, 1, 1, 1   # q2n = q^(2n-2) for the next n
    while True:
        yield tn * c
        before, c = c, ((1 + q - b * q2n) * c - q * before) / (1 - q2n * q2)
        q2n *= q2
        tn *= t


@_case("phi32-transform",
       "three-term transformation of a 3phi2 at argument de/(abc) into one "
       "at argument e/a with an infinite-product prefactor",
       "numeric-complex", 0,
       "a, b, c, d, e drawn complex; q bound",
       "|q| < 1; draw guards keep both arguments below 0.9",
       defaults={"q": 0.3, "tol": NUMERIC_TOL})
def _run_phi32(rng, q, tol):
    big, small = (0.6, 0.9), (0.1, 0.25)
    a, b, c, d, e, label = _draw(rng, a=big, b=big, c=big, d=small, e=small)
    z1 = d * e / (a * b * c)
    lhs = phi_sum([a, b, c], [d, e], q, z1)
    pref = qpoch_inf(e / a, q) * qpoch_inf(d * e / (b * c), q) \
        / (qpoch_inf(e, q) * qpoch_inf(z1, q))
    rhs = pref * phi_sum([a, d / b, d / c], [d, d * e / (b * c)], q, e / a)
    return label, [lhs, rhs]


@_case("nonsym-poisson",
       "nonsymmetric Poisson kernel for the shift-parameter q-Hermite "
       "family: H_n(x;a)H_n(y;b) sum vs its 3phi2 product form, and vs the "
       "circle substitution into the bivariate kernel formula",
       "numeric-complex", 0,
       "theta, beta, a, b, t drawn; q bound",
       "|q| < 1; |t| <= 0.4; 0.05 <= |a|,|b| <= 0.5",
       defaults={"q": 0.3, "tol": NUMERIC_TOL})
def _run_nonsym_poisson(rng, q, tol):
    theta, beta, a, b, t, label = _draw(rng, theta=None, beta=None, a=(0.05, 0.5),
                                        b=(0.1, 0.5), t=(0.05, 0.4))
    zt = cmath.exp(1j * theta)
    zb = cmath.exp(1j * beta)
    ha, hb = qhermite_circle(a, q, theta), qhermite_circle(b, q, beta)
    lhs = _gf_sum(lambda n: ha(n) * hb(n), t, q, tol)
    pref = qpoch_inf(a * t * zb, q) * qpoch_inf(b / zb, q) * qpoch_inf(t * t, q) \
        / (_pair(t * zt, zb, q) * qpoch_inf(t / (zt * zb), q) * qpoch_inf(t * zb / zt, q))
    rhs1 = pref * phi_sum([t * zt * zb, t * zb / zt, a * t / b],
                          [a * t * zb, t * t], q, b / zb)
    xs, ys, us, vs = zt ** -2, a / zt, zb ** -2, b / zb
    ts = t * zt * zb
    pref2 = qpoch_inf(ys * ts, q) * qpoch_inf(vs * xs * ts, q) \
        / (qpoch_inf(ts, q) * qpoch_inf(xs * ts, q) * qpoch_inf(us * xs * ts, q))
    rhs2 = pref2 * phi_sum([ys, xs * ts, vs / us],
                           [ys * ts, vs * xs * ts], q, us * ts)
    return label, [lhs, rhs1, rhs2]


@_case("rogers-big",
       "Rogers formula on the circle: the H_(n+m)(x;a|q) double sum equals "
       "the (as;q)_oo prefactor times a 2phi1 in argument t e^(i theta)",
       "numeric-complex", 0,
       "theta, a, s, t drawn; q bound",
       "|q| < 1; |s|,|t| <= 0.4; |a| <= 0.5",
       defaults={"q": 0.3, "tol": NUMERIC_TOL})
def _run_rogers_big(rng, q, tol):
    theta, a, s, t, label = _draw(rng, theta=None, a=(0.05, 0.5), s=(0.05, 0.4),
                                  t=(0.05, 0.4))
    z = cmath.exp(1j * theta)
    hermite = qhermite_circle(a, q, theta)
    lhs = _sum_terms((hermite(n) * g for n, g in enumerate(_rogers_weights(s, t, q))),
                     max(abs(s), abs(t)), tol)
    rhs = qpoch_inf(a * s, q) / (_pair(s, z, q) * qpoch_inf(t / z, q)) \
        * phi_sum([a / z, s / z], [a * s], q, t * z)
    return label, [lhs, rhs]


@_case("gf-its-1",
       "even-index q-Hermite generating function: H_(2n) sum with base-q^2 "
       "factorials equals (-t;q)_oo over the (te^(2i theta);q^2) pair",
       "numeric-complex", 0,
       "theta, t drawn; q bound",
       "|q| < 1; |t| <= 0.4",
       defaults={"q": 0.3, "tol": NUMERIC_TOL})
def _run_gf_its_1(rng, q, tol):
    q2 = q * q
    theta, t, label = _draw(rng, theta=None, t=(0.05, 0.4))
    hermite = qhermite_circle(0.0, q, theta)
    lhs = _gf_sum(lambda n: hermite(2 * n), t, q2, tol)
    return label, [lhs, qpoch_inf(-t, q) / _pair(t, cmath.exp(2j * theta), q2)]


@_case("gf-its-2",
       "base-q^2 q-Hermite generating function: H_n(x|q^2) sum with base-q "
       "factorials equals (qt^2;q^2)_oo over the (te^(i theta);q) pair",
       "numeric-complex", 0,
       "theta, t drawn; q bound",
       "|q| < 1; |t| <= 0.4",
       defaults={"q": 0.3, "tol": NUMERIC_TOL})
def _run_gf_its_2(rng, q, tol):
    q2 = q * q
    theta, t, label = _draw(rng, theta=None, t=(0.05, 0.4))
    lhs = _gf_sum(qhermite_circle(0.0, q2, theta), t, q, tol)
    return label, [lhs, qpoch_inf(q * t * t, q2) / _pair(t, cmath.exp(1j * theta), q)]


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
    theta, a, t, label = _draw(rng, theta=None, a=(0.05, 0.5), t=(0.05, 0.4))
    z2 = cmath.exp(2j * theta)
    hermite = qhermite_circle(a, q, theta)
    lhs = _sum_terms((c * hermite(n) for n, c in enumerate(_gen_big_1_coefs(a, t, q))),
                     math.sqrt(abs(t)), tol)
    return label, [lhs, qpoch_inf(a * a * t, q2) * qpoch_inf(-t, q) / _pair(t, z2, q2)]


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
    theta, a, t, label = _draw(rng, theta=None, a=(0.05, 0.5), t=(0.05, 0.4))
    z = cmath.exp(1j * theta)
    hermite = qhermite_circle(a, q2, theta)
    lhs = _sum_terms((c * hermite(n) for n, c in enumerate(_gen_big_2_coefs(a, t, q))),
                     abs(t), tol)
    return label, [lhs, qpoch_inf(a * t, q) * qpoch_inf(q * t * t, q2) / _pair(t, z, q)]


@_case("gf-big",
       "generating function of the shift-parameter q-Hermite family: the "
       "H_n(x;a|q) sum equals (at;q)_oo over the (te^(i theta);q) pair",
       "numeric-complex", 0,
       "theta, a, t drawn; q bound",
       "|q| < 1; |t| <= 0.4; |a| <= 0.5",
       defaults={"q": 0.3, "tol": NUMERIC_TOL})
def _run_gf_big(rng, q, tol):
    theta, a, t, label = _draw(rng, theta=None, a=(0.05, 0.5), t=(0.05, 0.4))
    lhs = _gf_sum(qhermite_circle(a, q, theta), t, q, tol)
    return label, [lhs, qpoch_inf(a * t, q) / _pair(t, cmath.exp(1j * theta), q)]


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
    return _relative(askey_wilson_quad(a, b, c, d, q, tol=tol),
                     askey_wilson_closed(a, b, c, d, q))


@_case("ortho-big",
       "orthogonality of the shift-parameter q-Hermite family: the "
       "weighted moment integral equals (q;q)_n on the diagonal, 0 off it",
       "quadrature", 0,
       "n, m, a, q bound",
       "n, m <= 8; |a| < 1; |q| < 1",
       defaults={"n": 3, "m": 3, "a": 0.3, "q": 0.4, "tol": QUAD_TOL})
def _run_ortho_big(params, tol):
    n, m = params["n"], params["m"]
    if max(n, m) > 8:
        raise ValueError(f"parameters n and m must be at most 8, got n={n}, m={m}")
    a, q = _unit_params(params, "aq")
    lhs = ortho_quad(n, m, a, q, tol=tol)
    rhs = qpoch_n(q, q, n).real if n == m else 0.0
    return f"moment({n},{m}) = {{lhs!r}}, expected {{rhs!r}}", [lhs, rhs], 1.0


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
        return _relative(jhi_eval("H", p, sub, a, t, tol=tol), rhs)
    return run


for _variant, _blurb, _bases in _CLOSED_H:
    _case(f"closed-H-{_variant}", _blurb, "quadrature", 0,
          "a, t, q bound floats", "|q|, |a|, |t| < 1",
          defaults={"q": 0.3, "a": 0.1, "t": 0.2, "tol": CLOSED_TOL})(_run_closed_h(_bases))
