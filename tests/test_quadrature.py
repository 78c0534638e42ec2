"""Unit tests for infinite products and the trapezoidal rule on [0, pi]
that integrates every circle integral, checked against scipy and against
the frozen adaptive GK15 of reference_quadrature.py."""

import cmath
import dataclasses
import itertools
import math
import random
import sys
from unittest import mock

import pytest

import reference_quadrature as ref
from qrs import quadrature
from qrs.cli import main
from qrs.idverify import registry, verify
from qrs.quadrature import (EVAL_BUDGET, IntegralSpec, QuadratureError,
                            askey_wilson_closed, askey_wilson_quad,
                            circle_integrand, integrate, jhi_eval, ortho_quad,
                            qpoch_inf, qpoch_n)

RNG_SEED = 131071


def _spec(quad, *args) -> IntegralSpec:
    """The IntegralSpec that a public integral (askey_wilson_quad, ortho_quad,
    jhi_eval) hands to integrate, caught before any evaluation."""
    specs = []
    with mock.patch.object(quadrature, "integrate",
                           lambda spec: specs.append(spec) or (0.0, 0.0)):
        quad(*args)
    return specs[0]


def _aw(a, b, c, d, q):
    """The Askey-Wilson integrand, as askey_wilson_quad builds it."""
    return _spec(askey_wilson_quad, a, b, c, d, q).integrand


def test_qq_infinite_product_frozen_value():
    # (1/2; 1/2)_oo, computed independently from the raw partial product
    # with an explicit tail bound below 1e-12
    got = qpoch_inf(0.5, 0.5).real
    partial = 1.0
    for k in range(60):
        partial *= 1 - 0.5 ** (k + 1)
    assert abs(got - partial) < 1e-12
    assert abs(got - 0.2887880951) < 1e-9


def test_infinite_product_edge_cases():
    assert qpoch_inf(0.0, 0.3) == 1.0
    assert qpoch_inf(0.4, 0.0) == pytest.approx(0.6)  # only the k=0 factor
    with pytest.raises(ValueError):
        qpoch_inf(0.5, 1.0)
    with pytest.raises(ValueError):
        qpoch_inf(0.5, 1.2)


def test_telescoping_quotient():
    # (c; q)_oo / (c q; q)_oo == 1 - c
    rng = random.Random(RNG_SEED)
    for _ in range(10):
        q = rng.uniform(0.05, 0.8)
        c = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.3, 0.3))
        got = qpoch_inf(c, q) / qpoch_inf(c * q, q)
        assert abs(got - (1 - c)) < 1e-12


def test_qpoch_n_matches_finite_product():
    rng = random.Random(RNG_SEED + 1)
    for _ in range(10):
        q = rng.uniform(0.1, 0.7)
        c = rng.uniform(-0.8, 0.8)
        n = rng.randint(0, 6)
        prod = 1.0
        for k in range(n):
            prod *= 1 - c * q ** k
        assert abs(qpoch_n(c, q, n) - prod) < 1e-13
    # the factorial-style special value used by the orthogonality check
    q = 0.4
    assert qpoch_n(q, q, 3).real == pytest.approx(0.6 * 0.84 * 0.936, abs=1e-15)


def test_integrate_known_integrals():
    val, err = integrate(IntegralSpec(lambda t: 1.0, tol=1e-12))
    assert abs(val - math.pi) < 1e-12
    val, _ = integrate(IntegralSpec(lambda t: math.cos(t) ** 2, tol=1e-12))
    assert abs(val - math.pi / 2) < 1e-12
    # a sharply peaked integrand exercises the reference GK15's splitting
    val, _ = ref._adaptive_gk15(lambda t: 1.0 / (1e-4 + t * t), -1.0, 1.0, 1e-10,
                                EVAL_BUDGET)
    expect = 2.0 / 1e-2 * math.atan(1.0 / 1e-2)
    assert abs(val - expect) < 1e-6 * expect


def test_integrate_accepts_spec_and_enforces_budget():
    # the integral of e^(cos t) over [0, pi] is pi I_0(1); prefactor 1/pi
    spec = IntegralSpec(integrand=lambda t: math.exp(math.cos(t)),
                        prefactor=1 / math.pi, tol=1e-12)
    val, err = integrate(spec)
    assert abs(val - 1.2660658777520082) < 1e-12 and err <= 1e-12
    with pytest.raises(QuadratureError):
        ref._adaptive_gk15(lambda t: 1.0 / (1e-9 + t * t), -1.0, 1.0, 1e-14, 60)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_integrate_rejects_a_tol_it_cannot_meet(tol):
    # no |T_2N - T_N| is <= a tol of 0 or less, or NaN; one of inf would
    # accept the first sums whatever they are
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        integrate(IntegralSpec(lambda t: 1.0, tol=tol))


def test_integrand_cross_check_against_scipy():
    # scipy is a test-only oracle for the weight integrand
    from scipy.integrate import quad as scipy_quad
    f = _aw(0.3, 0.25, 0.2, 0.1, 0.5)
    ours, _ = integrate(IntegralSpec(f, tol=1e-11))
    ref, ref_err = scipy_quad(f, 0.0, math.pi, epsabs=1e-12, epsrel=1e-12)
    assert abs(ours - ref) < 1e-9


def test_weight_integral_zero_parameters_normalizes_to_one():
    got = askey_wilson_quad(0.0, 0.0, 0.0, 0.0, 0.5)
    assert abs(got - 1.0) < 1e-10
    assert askey_wilson_closed(0.0, 0.0, 0.0, 0.0, 0.5) == pytest.approx(1.0)


def _askey_wilson(a, b, c, d, q):
    return verify("askey-wilson", params={"a": a, "b": b, "c": c, "d": d, "q": q})


def _ortho(n, m, a, q):
    return verify("ortho-big", params={"n": n, "m": m, "a": a, "q": q})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("after, points", [(0, 9), (9, 17)])
def test_integrate_fails_at_the_first_sum_that_is_not_finite(value, after, points):
    # no tol is met by a NaN or infinite sum, and no larger N mends it: the
    # rule raises at T_8 (9 points) or at T_16 (17) when the first `after`
    # values are finite, rather than doubling on towards the budget
    seen = []

    def f(theta):
        seen.append(theta)
        return 1.0 if len(seen) <= after else value

    with pytest.raises(QuadratureError, match="not finite"):
        integrate(IntegralSpec(f))
    assert len(seen) == points


@pytest.mark.parametrize("f", [lambda t: math.inf if t < 1 else -math.inf,
                               lambda t: 1e308], ids=["inf-minus-inf", "overflow"])
def test_integrate_reports_a_sum_fsum_cannot_form_as_not_finite(f):
    # math.fsum raises ValueError for inf + -inf and OverflowError for a
    # running sum past the float range; both are sums that are not finite
    with pytest.raises(QuadratureError, match="T_8 = nan is not finite"):
        integrate(IntegralSpec(f))


@pytest.mark.parametrize("slot", range(5))
@pytest.mark.parametrize("bad", [1.5, -1.0, math.nan])
def test_askey_wilson_closed_rejects_parameters_off_the_open_unit_disk(slot, bad):
    # the closed product stands for the integral only where the integral
    # converges, and askey_wilson_quad refuses the same parameters
    args = [0.3, 0.25, 0.2, 0.1, 0.5]
    args[slot] = bad
    with pytest.raises(ValueError, match=r"must lie in \(-1, 1\)"):
        askey_wilson_closed(*args)
    with pytest.raises(ValueError):
        askey_wilson_quad(*args)


def _closed_forms(q, a, t, **tol):
    """The closed-H-* registry cases at one (q, a, t), in registry order."""
    return [verify(case.id, params={"q": q, "a": a, "t": t, **tol})
            for case in registry() if case.id.startswith("closed-H-")]


def test_weight_integral_matches_closed_product():
    rep = _askey_wilson(0.3, 0.25, 0.2, 0.1, 0.5)
    assert rep.passed()
    assert rep.residual is not None and rep.residual <= 1e-8
    # three-parameter reduction: d = 0 drops every d-pair from the product
    rep0 = _askey_wilson(0.3, 0.25, 0.2, 0.0, 0.5)
    assert rep0.passed()
    # negative parameter stays inside the unit disk and still matches
    repn = _askey_wilson(-0.35, 0.25, 0.2, 0.1, 0.4)
    assert repn.passed()


def test_weight_integral_rejects_out_of_domain():
    with pytest.raises(ValueError):
        _askey_wilson(1.1, 0.2, 0.2, 0.1, 0.5)


def test_orthogonality_matrix_witnesses():
    q, a = 0.4, 0.3
    rep = _ortho(0, 0, 0.0, q)
    assert rep.passed()
    rep = _ortho(2, 3, a, q)
    assert rep.passed() and rep.residual <= 1e-8
    rep = _ortho(3, 3, a, q)
    assert rep.passed()
    spec = _spec(ortho_quad, 3, 3, a, q)
    assert spec.prefactor == qpoch_inf(q, q).real / (2 * math.pi)
    val, _ = integrate(IntegralSpec(spec.integrand, tol=1e-12))
    moment = spec.prefactor * val
    assert moment == pytest.approx(0.6 * 0.84 * 0.936, abs=1e-8)
    assert ortho_quad(3, 3, a, q, tol=1e-12) == moment


def test_jhi_same_base_reduction_is_one():
    # at p = q the J and I integrals normalize exactly to 1
    for kind in ("J", "I"):
        got = jhi_eval(kind, 0.3, 0.3, 0.1, 0.2)
        assert abs(got - 1.0) < 1e-10, kind


def test_jhi_h_at_t_zero_is_one():
    assert abs(jhi_eval("H", 0.09, 0.3, 0.1, 0.0) - 1.0) < 1e-10


def test_jhi_rejects_bad_kind():
    with pytest.raises(ValueError):
        jhi_eval("Q", 0.3, 0.3, 0.1, 0.2)


def test_closed_forms_suite_all_pass():
    reports = _closed_forms(0.3, 0.1, 0.2)
    assert len(reports) == 4
    ids = [r.id for r in reports]
    assert ids == ["closed-H-qq", "closed-H-mqq", "closed-H-q2q",
                   "closed-H-q2q3"]
    for r in reports:
        assert r.passed(), r.id
        assert r.residual <= 1e-7


def test_closed_forms_suite_reports_carry_the_callers_parameters():
    reports = _closed_forms(0.3, 0.1, 0.2, tol=2e-7)
    for r in reports:
        assert r.params == {"q": 0.3, "a": 0.1, "t": 0.2, "tol": 2e-7}, r.id


@pytest.mark.parametrize("a, q", [(1.5, 0.4), (-1.0, 0.4), (0.3, 1.0), (0.3, -1.2)])
def test_orthogonality_rejects_out_of_domain(a, q):
    with pytest.raises(ValueError):
        _ortho(2, 2, a, q)


# -- bit-exactness against the frozen integrands (reference_quadrature.py) ----


def _theta_grid(rng, size=16):
    return [0.0, math.pi, math.pi / 2, *(rng.uniform(0.0, math.pi) for _ in range(size))]


def _shift(rng):
    """A shift parameter in [-0.5, 0.5], exactly 0 one time in four."""
    return 0.0 if rng.random() < 0.25 else rng.uniform(-0.5, 0.5)


def test_conjugate_pair_is_the_conjugated_product_bit_for_bit():
    rng = random.Random(RNG_SEED + 2)
    for _ in range(200):
        c, b = rng.uniform(-0.95, 0.95), rng.uniform(-0.9, 0.9)
        z = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        assert qpoch_inf(c * z.conjugate(), b) == qpoch_inf(c * z, b).conjugate()


# Every integrand below is the one a public integral hands to integrate,
# built by circle_integrand. Each grid follows its random draws with zero
# poles, which circle_integrand skips: all four shifts 0, a = 0, t = 0.


@pytest.mark.parametrize("q", [0.1, 0.37, 0.62, 0.9])
def test_aw_integrand_matches_the_reference_bit_for_bit(q):
    rng = random.Random(f"aw:{q}")
    draws = ([_shift(rng) for _ in range(4)] for _ in range(6))
    for shifts in itertools.chain(draws, [[0.0] * 4]):
        new, old = _aw(*shifts, q), ref.aw_integrand(*shifts, q)
        for theta in _theta_grid(rng):
            assert new(theta) == old(theta), (shifts, theta)


@pytest.mark.parametrize("q", [0.1, 0.45, 0.8, 0.9])
def test_ortho_integrand_matches_the_reference_bit_for_bit(q):
    rng = random.Random(f"ortho:{q}")
    draws = ((rng.randint(0, 8), rng.randint(0, 8), _shift(rng)) for _ in range(6))
    for n, m, a in itertools.chain(draws, [(4, 4, 0.0), (6, 3, 0.0)]):
        new = _spec(ortho_quad, n, m, a, q).integrand
        old = ref.ortho_integrand(n, m, a, q)
        for theta in _theta_grid(rng, 8):
            assert new(theta) == old(theta), (n, m, a, theta)


def _jhi_draws(rng):
    for _ in range(10):
        q = rng.uniform(0.1, 0.9)
        # equal and negated bases (closed-H-qq, closed-H-mqq), then free ones
        p = rng.choice([q, -q, q * q, rng.uniform(-0.9, 0.9)])
        yield p, q, _shift(rng), _shift(rng)
    yield from ((0.27, 0.45, 0.0, 0.3), (-0.45, 0.45, 0.2, 0.0), (0.3, 0.45, 0.0, 0.0))


@pytest.mark.parametrize("kind", ["J", "H", "I"])
def test_jhi_integrand_matches_the_reference_bit_for_bit(kind):
    rng = random.Random(f"jhi:{kind}")
    for p, q, a, t in _jhi_draws(rng):
        new = _spec(jhi_eval, kind, p, q, a, t)
        old_pref, old = ref.jhi_integrand(kind, p, q, a, t)
        assert new.prefactor == old_pref
        for theta in _theta_grid(rng, 8):
            assert new.integrand(theta) == old(theta), (p, q, a, t, theta)


# each public integral with one of its poles' parameters c left free
POLE_CALLS = {
    "askey-wilson": lambda c: askey_wilson_quad(0.3, c, 0.2, 0.1, 0.5),
    "ortho": lambda c: ortho_quad(2, 2, c, 0.5),
    **{f"{kind} a": lambda c, kind=kind: jhi_eval(kind, 0.3, 0.4, c, 0.2) for kind in "JHI"},
    **{f"{kind} t": lambda c, kind=kind: jhi_eval(kind, 0.3, 0.4, 0.1, c) for kind in "JHI"},
}


def test_integrands_reject_complex_parameters_and_bases():
    # the conjugate-pair shortcut holds for real shifts and bases only
    with pytest.raises(TypeError):
        circle_integrand(0.5, [(0.3, 1, 0.5), (0.2j, 1, 0.5)])
    with pytest.raises(TypeError):
        circle_integrand(0.5 + 0j, [(0.3, 1, 0.5)])
    with pytest.raises(TypeError):
        circle_integrand(0.5, [(0.3, 2, complex(0.4, 0.0))])
    with pytest.raises(TypeError):
        askey_wilson_quad(0.3, 0.2, 0.1, 0.0, 0.5 + 0j)
    with pytest.raises(TypeError):
        ortho_quad(3, 2, 0.3, complex(0.4, 0.0))
    for bad in range(4):
        args = [0.3, 0.4, 0.1, 0.2]
        args[bad] = complex(args[bad], 0.1)
        with pytest.raises(TypeError):
            jhi_eval("H", *args)
    for call in POLE_CALLS.values():
        with pytest.raises(TypeError):
            call(0.2j)


@pytest.mark.parametrize("name", POLE_CALLS)
@pytest.mark.parametrize("c", [1.0, -1.5, math.nan])
def test_public_integrals_reject_a_pole_off_the_open_unit_disk(name, c):
    # (c e^(+-ik t); base)_oo vanishes on the circle at |c| = 1, and past it
    # the integral is no longer the one the closed forms evaluate
    with pytest.raises(ValueError, match=r"needs \|c\| < 1"):
        POLE_CALLS[name](c)


# -- the trapezoidal rule for the circle integrals ------------------------------


def _circle_integrands():
    """(label, integrand) over q up to 0.9: Askey-Wilson weights, q-Hermite
    moments on and off the diagonal, and the J/H/I mixed-base weights."""
    for q in (0.1, 0.5, 0.7, 0.9):
        for shifts in ((0.3, 0.25, 0.2, 0.1), (0.45, -0.3, 0.2, 0.05), (0.0,) * 4):
            yield f"aw{shifts} q={q}", _aw(*shifts, q)
        for n, m, a in ((3, 3, 0.3), (8, 7, -0.4), (5, 5, 0.0)):
            yield f"ortho({n},{m}) a={a} q={q}", _spec(ortho_quad, n, m, a, q).integrand
        for kind in "JHI":
            for p, a, t in ((0.6 * q, 0.2, 0.3), (-q, -0.35, 0.45)):
                yield f"{kind} p={p} a={a} t={t} q={q}", _spec(jhi_eval, kind, p, q, a, t).integrand


CIRCLE_INTEGRANDS = list(_circle_integrands())


@pytest.mark.parametrize("label, f", CIRCLE_INTEGRANDS,
                         ids=[label for label, _ in CIRCLE_INTEGRANDS])
def test_periodic_rule_agrees_with_gk15_and_scipy(label, f):
    from scipy.integrate import quad as scipy_quad
    # the scale is sqrt(pi * integral of f^2) >= integral of |f| (the moments
    # off the diagonal are 0); a few digits of it are enough
    square, _ = scipy_quad(lambda t: f(t) ** 2, 0.0, math.pi, epsabs=0.0, epsrel=1e-6)
    scale = math.sqrt(math.pi * square)
    oracle, _ = scipy_quad(f, 0.0, math.pi, epsabs=1e-13 * scale, epsrel=0.0, limit=200)
    tol = 1e-13 * scale
    trap, err = integrate(IntegralSpec(f, tol=tol))
    gk15, _ = ref._adaptive_gk15(f, 0.0, math.pi, tol, EVAL_BUDGET)
    assert err <= tol
    assert abs(trap - gk15) <= 1e-12 * scale
    assert abs(trap - oracle) <= 1e-12 * scale


def _counted(f, log):
    def g(theta):
        log[-1] += 1
        return f(theta)
    return g


@pytest.fixture
def integrate_log(monkeypatch):
    """Every call of quadrature.integrate, wherever a qrs module binds it, as
    its number of evaluations."""
    log = []

    def recording(spec):
        log.append(0)
        return integrate(dataclasses.replace(spec, integrand=_counted(spec.integrand, log)))

    for name, module in list(sys.modules.items()):
        if (name == "qrs" or name.startswith("qrs.")) and vars(module).get("integrate") is integrate:
            monkeypatch.setattr(module, "integrate", recording)
    return log


def test_circle_integrals_go_through_integrate_as_periodic(integrate_log):
    askey_wilson_quad(0.3, 0.25, 0.2, 0.1, 0.5)
    for kind in "JHI":
        jhi_eval(kind, 0.35, 0.55, -0.25, 0.4)
    assert verify("ortho-big").passed()
    assert all(r.passed() for r in _closed_forms(0.3, 0.1, 0.2))
    assert len(integrate_log) == 1 + 3 + 1 + 4


def test_default_askey_wilson_integral_takes_at_most_65_evaluations(integrate_log):
    # nested sums at N = 8, 16, 32, 64 cost 9, 17, 33, 65 points in all;
    # adaptive GK15 took 135 on this integral
    got = askey_wilson_quad(0.3, 0.25, 0.2, 0.1, 0.5)
    assert len(integrate_log) == 1 and integrate_log[0] <= 65
    assert abs(got - askey_wilson_closed(0.3, 0.25, 0.2, 0.1, 0.5)) < 1e-12


def test_periodic_rule_reuses_every_point_and_is_exact_on_trig_polynomials():
    seen = []

    def f(theta):
        seen.append(theta)
        return 2.0 + math.cos(2 * theta) + 0.5 * math.cos(7 * theta)

    val, err = integrate(IntegralSpec(f, tol=1e-14))
    assert abs(val - 2 * math.pi) < 1e-14 and err <= 1e-14
    # T_8 and T_16 already agree: 17 distinct points, none evaluated twice
    assert len(seen) == len(set(seen)) == 17
    assert seen[:2] == [0.0, math.pi]


def test_periodic_rule_enforces_the_budget(monkeypatch):
    f = _aw(0.45, -0.3, 0.2, 0.05, 0.68)
    monkeypatch.setattr(quadrature, "EVAL_BUDGET", 40)
    with pytest.raises(QuadratureError, match="budget 40 exhausted"):
        integrate(IntegralSpec(f, tol=1e-14))


def test_periodic_rule_stops_at_the_rounding_floor():
    # at q = 0.8 with every shift 0.5 the weight integral is about 4.5e6, so
    # its sums round at ~1e-8 and an absolute 1e-10 cannot be met; the rule
    # says so after 129 points instead of doubling towards the budget
    f = _aw(0.5, 0.5, 0.5, 0.5, 0.8)
    seen = []

    def counted(theta):
        seen.append(theta)
        return f(theta)

    with pytest.raises(QuadratureError, match=r"rounding floor .* above tol 1\.000e-10"):
        integrate(IntegralSpec(counted, tol=1e-10))
    assert len(seen) == 129


def test_cli_reports_the_rounding_floor_and_exits_one(capsys):
    code = main(["verify", "--identity", "askey-wilson", "--q", "0.8", "--set", "a=0.5",
                 "--set", "b=0.5", "--set", "c=0.5", "--set", "d=0.5"])
    err = capsys.readouterr().err
    assert code == 1
    assert "rounding floor" in err and "above tol" in err
