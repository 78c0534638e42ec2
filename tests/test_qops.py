"""Unit tests for the q-operator calculus."""

import random
from fractions import Fraction

import pytest
from reference_operators import (dq_apply, dxy_apply, dxy_poly, e_apply_by_operator,
                                 t_op_apply, to_poly)
from reference_series import truncate

from qrs.families import brs_poly, cauchy_poly
from qrs.fps import TruncSeries, euler_inv_series
from qrs.qcore import MultiPoly, lincomb, qbinom
from qrs.idverify import verify
from qrs.qops import e_op_apply, t_op_graded

RNG_SEED = 90125

X = MultiPoly.var("x")
Y = MultiPoly.var("y")


def rand_q(rng) -> Fraction:
    den = rng.randint(2, 9)
    return Fraction(rng.randint(1, den - 1), den)


def rand_series(rng, order) -> TruncSeries:
    coeffs = {(k,): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
              for k in range(order + 1)}
    return TruncSeries(("a",), order, coeffs)


def test_dq_on_monomials():
    q = Fraction(1, 3)
    f = TruncSeries(("a",), 5, {(n,): Fraction(1) for n in range(6)})
    g = dq_apply(f, q)
    assert g.order == 4
    for n in range(1, 6):
        assert g.coeffs.get((n - 1,), 0) == 1 - q ** n


def test_dq_is_difference_quotient():
    # a * (D_q f) == f(a) - f(qa), coefficientwise
    rng = random.Random(RNG_SEED)
    for _ in range(15):
        q = rand_q(rng)
        f = rand_series(rng, rng.randint(1, 7))
        g = dq_apply(f, q)
        lhs = g * TruncSeries.monomial(g.vars, g.order, (1,))
        # f(qa): scale the coefficient of a^n by q^n
        scaled = TruncSeries(f.vars, f.order,
                             {idx: c * q ** idx[0] for idx, c in f.coeffs.items()})
        assert lhs == truncate(f - scaled, lhs.order)


def test_dq_leibniz_rule():
    # D_q(fg)(a) = f(a) (D_q g)(a) + (D_q f)(a) g(qa)
    rng = random.Random(RNG_SEED + 1)
    for _ in range(12):
        q = rand_q(rng)
        order = rng.randint(2, 6)
        f = rand_series(rng, order)
        g = rand_series(rng, order)
        lhs = dq_apply(f * g, q)
        g_shift = TruncSeries(g.vars, g.order,
                              {idx: c * q ** idx[0] for idx, c in g.coeffs.items()})
        rhs = truncate(f, order - 1) * dq_apply(g, q) \
            + dq_apply(f, q) * truncate(g_shift, order - 1)
        assert lhs == rhs


def test_t_op_scalar_on_monomial_gives_binomial_weights():
    # T(b D_q) a^n = sum_k [n,k] b^k a^(n-k) when the series order
    # accommodates every operator term
    q = Fraction(2, 5)
    b = Fraction(1, 7)
    n = 4
    f = TruncSeries.monomial(("a",), 2 * n, (n,))
    img = t_op_apply(b, f, q)
    for k in range(n + 1):
        assert img.coeffs.get((n - k,), 0) == qbinom(n, k, q) * b ** k


def test_t_op_graded_coefficients_are_binomials():
    q = Fraction(1, 2)
    n = 5
    f = TruncSeries.monomial(("a",), n, (n,))
    img = t_op_graded(f, q)
    assert img.vars == ("a", "b")
    for k in range(n + 1):
        assert img.coeffs.get((n - k, k), 0) == qbinom(n, k, q)


def test_t_op_graded_single_pole_generating_function():
    # T(b D_q) 1/(a s; q)_oo = 1/((a s; q)_oo (b s; q)_oo)
    q = Fraction(1, 3)
    s = Fraction(1, 4)
    order = 8
    a1 = TruncSeries.variable(("a",), order, "a")
    lhs = t_op_graded(euler_inv_series(a1.scale(s), q), q)
    av = TruncSeries.variable(("a", "b"), order, "a")
    bv = TruncSeries.variable(("a", "b"), order, "b")
    rhs = euler_inv_series(av.scale(s), q) * euler_inv_series(bv.scale(s), q)
    assert lhs == rhs


def test_t_op_graded_collapses_to_scalar_application():
    # reading the graded image at b -> scalar reproduces t_op_apply: the
    # a^m coefficient of either route keeps operator terms n <= order - m
    rng = random.Random(RNG_SEED + 2)
    for _ in range(10):
        q = rand_q(rng)
        b = Fraction(rng.randint(1, 4), 5)
        order = rng.randint(2, 8)
        f = rand_series(rng, order)
        graded = t_op_graded(f, q)
        direct = t_op_apply(b, f, q)
        for m in range(order + 1):
            total = sum((graded.coeffs.get((m, n), 0) * b ** n
                         for n in range(order - m + 1)), Fraction(0))
            assert direct.coeffs.get((m,), 0) == total, f"m={m} q={q}"


def test_t_op_graded_with_b_sorting_first_matches_t_op_apply():
    # over ("z",) the image's variables are ("b", "z"), so b^n z^m is the
    # index (n, m): the reverse of the ("a", "b") layout
    rng = random.Random(RNG_SEED + 8)
    for _ in range(10):
        q = rand_q(rng)
        b = Fraction(rng.randint(1, 4), 5)
        order = rng.randint(2, 8)
        fa = rand_series(rng, order)
        fz = TruncSeries(("z",), order, dict(fa.coeffs))
        graded = t_op_graded(fz, q)
        assert graded.vars == ("b", "z")
        swapped = t_op_graded(fa, q)
        direct = t_op_apply(b, fz, q)
        for m in range(order + 1):
            for n in range(order - m + 1):
                assert graded.coeffs.get((n, m), 0) == swapped.coeffs.get((m, n), 0)
            total = sum((graded.coeffs.get((n, m), 0) * b ** n
                         for n in range(order - m + 1)), Fraction(0))
            assert direct.coeffs.get((m,), 0) == total, f"m={m} q={q}"


def test_dxy_poly_lowers_cauchy_basis():
    # the divided difference sends P_n to (1 - q^n) P_(n-1)
    rng = random.Random(RNG_SEED + 3)
    for _ in range(10):
        q = rand_q(rng)
        for n in range(1, 6):
            got = dxy_poly(cauchy_poly(n, q), q)
            expect = cauchy_poly(n - 1, q) * (1 - q ** n)
            assert got == expect, f"n={n} q={q}"
    assert not dxy_poly(MultiPoly.const(1, ("x", "y")), Fraction(1, 2))


def test_dxy_apply_matches_polynomial_route():
    rng = random.Random(RNG_SEED + 4)
    for _ in range(12):
        q = rand_q(rng)
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(rng.randint(1, 6))]
        assert to_poly(dxy_apply(coeffs, q), q) == dxy_poly(to_poly(coeffs, q), q)


def test_dxy_poly_rejects_off_span_input():
    with pytest.raises(ValueError):
        dxy_poly(Y, Fraction(1, 2))


def test_e_op_routes_agree_and_map_basis_to_brs():
    # each coefficient sum_k c_k P_k of a random series goes to sum_k c_k h_k,
    # as the operator sum gives; the h_k are independent, so this also checks
    # that e_op_apply reads every c_k off correctly
    rng = random.Random(RNG_SEED + 5)
    for _ in range(10):
        q = rand_q(rng)
        order = rng.randint(0, 3)
        lists = {(i,): [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                        for _ in range(rng.randint(1, 6))] for i in range(order + 1)}
        image = e_op_apply(
            TruncSeries(("t",), order, {i: to_poly(c, q) for i, c in lists.items()}), q)
        for idx, coeffs in lists.items():
            via_operator = e_apply_by_operator(coeffs, q)
            assert image.coeffs.get(idx, 0) == via_operator
            expect = lincomb((c, brs_poly(k, q)) for k, c in enumerate(coeffs))
            assert via_operator == expect


def test_e_op_apply_respects_series_structure():
    q = Fraction(1, 2)
    order = 3
    polys = {(k,): cauchy_poly(k, q) for k in range(order + 1)}
    image = e_op_apply(TruncSeries(("t",), order, polys), q)
    assert image.vars == ("t",) and image.order == order
    for k in range(order + 1):
        assert image.coeffs.get((k,), 0) == brs_poly(k, q)
        assert image.coeffs.get((k,), 0) == e_apply_by_operator([0] * k + [1], q)


def test_e_op_apply_lifts_rational_coefficients():
    # P_0 = h_0 = 1, so a rational coefficient is its own image; with no
    # polynomial coefficient in the series, coeffs hands out Fractions
    q = Fraction(1, 3)
    f = TruncSeries(("t",), 3, {(0,): Fraction(3), (2,): Fraction(-1, 2)})
    assert isinstance(f.coeffs[(0,)], Fraction)
    image = e_op_apply(f, q)
    assert image == f
    assert image.coeffs.get((0,), 0) == 3
    # and sum_k c_k P_k t^k goes to sum_k c_k h_k t^k
    cs = [Fraction(3), Fraction(-2, 5), Fraction(7), Fraction(1, 4)]
    f = TruncSeries(("t",), 3, {(k,): cauchy_poly(k, q) * c for k, c in enumerate(cs)})
    g = TruncSeries(("t",), 3, {(k,): brs_poly(k, q) * c for k, c in enumerate(cs)})
    assert e_op_apply(f, q) == g


def test_e_op_apply_rejects_off_span_coefficients():
    q = Fraction(1, 2)
    for bad in (Y, X * Y, cauchy_poly(2, q) + Y * Y * X):
        f = TruncSeries(("t",), 2, {(0,): cauchy_poly(1, q), (1,): bad})
        with pytest.raises(ValueError, match="not in the Cauchy basis span"):
            e_op_apply(f, q)


def test_zhang_wang_check_reports():
    q = Fraction(1, 2)
    params = {"b": Fraction(1, 7), "s": Fraction(1, 3), "t": Fraction(1, 4),
              "v": Fraction(1, 5), "w": Fraction(1, 6), "q": q}
    rep = verify("zhang-wang", order=5, params=params)
    assert rep.passed() and rep.status == "exact-pass"
    with pytest.raises(ValueError):
        verify("zhang-wang", order=4, params={**params, "v": Fraction(0)})


@pytest.mark.parametrize("zeros", [("s",), ("t",), ("s", "t")])
def test_zhang_wang_accepts_zero_s_and_t(zeros):
    # the 3phi2 has the upper parameters v/s and v/t, taken as homogenized
    # ratios, so s = 0 or t = 0, which the domain allows, needs no division
    params = {name: Fraction(0) for name in zeros}
    assert verify("zhang-wang", order=5, params=params).status == "exact-pass"
    assert verify("zhang-wang", order=5, params=params, perturb=True).status == "fail"
