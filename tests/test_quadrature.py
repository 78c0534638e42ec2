"""Unit tests for infinite products and adaptive quadrature."""

import cmath
import math
import random

import pytest

import reference_quadrature as ref
from qrs.quadrature import (IntegralSpec, QuadratureError, askey_wilson_check,
                            askey_wilson_closed, askey_wilson_quad,
                            aw_integrand, closed_forms_suite, inf_product,
                            integrate, jhi_eval, jhi_integrand, ortho_check,
                            ortho_integrand, qpoch_inf, qpoch_n)

RNG_SEED = 131071


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
        inf_product(((0.5, 1.0),))
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
    val, err = integrate(lambda t: 1.0, 0.0, math.pi, 1e-12)
    assert abs(val - math.pi) < 1e-12
    val, _ = integrate(lambda t: math.cos(t) ** 2, 0.0, math.pi, 1e-12)
    assert abs(val - math.pi / 2) < 1e-12
    # a sharply peaked integrand exercises adaptive splitting
    val, _ = integrate(lambda t: 1.0 / (1e-4 + t * t), -1.0, 1.0, 1e-10)
    expect = 2.0 / 1e-2 * math.atan(1.0 / 1e-2)
    assert abs(val - expect) < 1e-6 * expect


def test_integrate_accepts_spec_and_enforces_budget():
    spec = IntegralSpec(integrand=lambda t: math.sin(t), lo=0.0, hi=math.pi,
                        tol=1e-12)
    val, err = integrate(spec)
    assert abs(val - 2.0) < 1e-12
    with pytest.raises(QuadratureError):
        integrate(lambda t: 1.0 / (1e-9 + t * t), -1.0, 1.0, 1e-14, budget=60)


def test_integrand_cross_check_against_scipy():
    # scipy is a test-only oracle for the weight integrand
    from scipy.integrate import quad as scipy_quad
    f = aw_integrand(0.3, 0.25, 0.2, 0.1, 0.5)
    ours, _ = integrate(f, 0.0, math.pi, 1e-11)
    ref, ref_err = scipy_quad(f, 0.0, math.pi, epsabs=1e-12, epsrel=1e-12)
    assert abs(ours - ref) < 1e-9


def test_weight_integral_zero_parameters_normalizes_to_one():
    got = askey_wilson_quad(0.0, 0.0, 0.0, 0.0, 0.5)
    assert abs(got - 1.0) < 1e-10
    assert askey_wilson_closed(0.0, 0.0, 0.0, 0.0, 0.5) == pytest.approx(1.0)


def test_weight_integral_matches_closed_product():
    rep = askey_wilson_check(0.3, 0.25, 0.2, 0.1, 0.5)
    assert rep.passed()
    assert rep.residual is not None and rep.residual <= 1e-8
    # three-parameter reduction: d = 0 drops every d-pair from the product
    rep0 = askey_wilson_check(0.3, 0.25, 0.2, 0.0, 0.5)
    assert rep0.passed()
    # negative parameter stays inside the unit disk and still matches
    repn = askey_wilson_check(-0.35, 0.25, 0.2, 0.1, 0.4)
    assert repn.passed()


def test_weight_integral_rejects_out_of_domain():
    with pytest.raises(ValueError):
        askey_wilson_check(1.1, 0.2, 0.2, 0.1, 0.5)


def test_orthogonality_matrix_witnesses():
    q, a = 0.4, 0.3
    rep = ortho_check(0, 0, 0.0, q)
    assert rep.passed()
    rep = ortho_check(2, 3, a, q)
    assert rep.passed() and rep.residual <= 1e-8
    rep = ortho_check(3, 3, a, q)
    assert rep.passed()
    val, _ = integrate(ortho_integrand(3, 3, a, q), 0.0, math.pi, 1e-12)
    moment = qpoch_inf(q, q).real / (2 * math.pi) * val
    assert moment == pytest.approx(0.6 * 0.84 * 0.936, abs=1e-8)


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
    reports = closed_forms_suite(0.3, 0.1, 0.2)
    assert len(reports) == 4
    ids = [r.id for r in reports]
    assert ids == ["closed-H-qq", "closed-H-mqq", "closed-H-q2q",
                   "closed-H-q2q3"]
    for r in reports:
        assert r.passed(), r.id
        assert r.residual <= 1e-7


def test_closed_forms_suite_reports_carry_the_callers_parameters():
    reports = closed_forms_suite(0.3, 0.1, 0.2, tol=2e-7)
    for r in reports:
        assert r.params == {"q": 0.3, "a": 0.1, "t": 0.2, "tol": 2e-7}, r.id


@pytest.mark.parametrize("a, q", [(1.5, 0.4), (-1.0, 0.4), (0.3, 1.0), (0.3, -1.2)])
def test_orthogonality_rejects_out_of_domain(a, q):
    with pytest.raises(ValueError):
        ortho_check(2, 2, a, q)


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


@pytest.mark.parametrize("q", [0.1, 0.37, 0.62, 0.9])
def test_aw_integrand_matches_the_reference_bit_for_bit(q):
    rng = random.Random(f"aw:{q}")
    for _ in range(6):
        shifts = [_shift(rng) for _ in range(4)]
        new, old = aw_integrand(*shifts, q), ref.aw_integrand(*shifts, q)
        for theta in _theta_grid(rng):
            assert new(theta) == old(theta), (shifts, theta)


@pytest.mark.parametrize("q", [0.1, 0.45, 0.8, 0.9])
def test_ortho_integrand_matches_the_reference_bit_for_bit(q):
    rng = random.Random(f"ortho:{q}")
    for _ in range(6):
        n, m, a = rng.randint(0, 8), rng.randint(0, 8), _shift(rng)
        new, old = ortho_integrand(n, m, a, q), ref.ortho_integrand(n, m, a, q)
        for theta in _theta_grid(rng, 8):
            assert new(theta) == old(theta), (n, m, a, theta)


@pytest.mark.parametrize("kind", ["J", "H", "I"])
def test_jhi_integrand_matches_the_reference_bit_for_bit(kind):
    rng = random.Random(f"jhi:{kind}")
    for _ in range(10):
        q = rng.uniform(0.1, 0.9)
        # equal and negated bases (closed-H-qq, closed-H-mqq), then free ones
        p = rng.choice([q, -q, q * q, rng.uniform(-0.9, 0.9)])
        a, t = _shift(rng), _shift(rng)
        (pref, new), (old_pref, old) = jhi_integrand(kind, p, q, a, t), \
            ref.jhi_integrand(kind, p, q, a, t)
        assert pref == old_pref
        for theta in _theta_grid(rng, 8):
            assert new(theta) == old(theta), (p, q, a, t, theta)


def test_integrands_reject_complex_parameters_and_bases():
    # the conjugate-pair shortcut holds for real shifts and bases only
    with pytest.raises(TypeError):
        aw_integrand(0.3, 0.2j, 0.1, 0.0, 0.5)
    with pytest.raises(TypeError):
        aw_integrand(0.3, 0.2, 0.1, 0.0, 0.5 + 0j)
    with pytest.raises(TypeError):
        askey_wilson_quad(0.3 + 0.1j, 0.2, 0.1, 0.0, 0.5)
    with pytest.raises(TypeError):
        ortho_integrand(3, 2, 0.3j, 0.4)
    with pytest.raises(TypeError):
        ortho_integrand(3, 2, 0.3, complex(0.4, 0.0))
    for bad in range(4):
        args = [0.3, 0.4, 0.1, 0.2]
        args[bad] = complex(args[bad], 0.1)
        with pytest.raises(TypeError):
            jhi_eval("H", *args)
