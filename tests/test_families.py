"""Unit tests for the polynomial families and their conversions."""

import math
import random
from fractions import Fraction

import pytest

from qrs import qcore
import reference_quadrature as ref
from qrs.families import (CauchyExpansion, big_qhermite_laurent,
                          big_qhermite_poly, brs_combo_to_rs, brs_poly,
                          brs_to_rs_coeffs, cauchy_poly, change_base_big,
                          change_base_c, h_to_bivariate, poly_to_cauchy,
                          qhermite_circle, qhermite_eval, qhermite_laurent,
                          qhermite_poly, rs_combo_to_brs, rs_poly,
                          rs_to_brs_coeffs)
from qrs.qcore import (LaurentPoly, MultiPoly, lincomb, poly_eval, qbinom, qfac,
                       qpoch)

RNG_SEED = 550211

X = MultiPoly.var("x")
Y = MultiPoly.var("y")
A = MultiPoly.var("a")


def rand_q(rng) -> Fraction:
    den = rng.randint(2, 9)
    return Fraction(rng.randint(1, den - 1), den)


def test_cauchy_poly_frozen_values():
    q = Fraction(1, 2)
    assert cauchy_poly(0, q) == MultiPoly.const(1, ("x", "y"))
    assert cauchy_poly(1, q) == X - Y
    assert cauchy_poly(2, q) == X * X - Fraction(3, 2) * X * Y + Fraction(1, 2) * Y * Y


def test_cauchy_poly_at_degree_1200():
    # at q = -1 the factors pair up: P_1200 = ((x - y)(x + y))^600
    p = cauchy_poly(1200, Fraction(-1))
    want = {(1200 - 2 * j, 2 * j): Fraction((-1) ** j * math.comb(600, j)) for j in range(601)}
    assert dict(p.terms) == want


def test_cauchy_poly_shifted_product_rule():
    # P_{m+n}(x, y) = P_m(x, y) * P_n(x, q^m y)
    rng = random.Random(RNG_SEED)
    for _ in range(15):
        q = rand_q(rng)
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        lhs = cauchy_poly(m + n, q)
        rhs = cauchy_poly(m, q) * cauchy_poly(n, q).substitute({"y": Y * q ** m})
        assert lhs == rhs, f"m={m} n={n} q={q}"


def test_rs_poly_is_binomial_sum():
    rng = random.Random(RNG_SEED + 1)
    for _ in range(10):
        q = rand_q(rng)
        n = rng.randint(0, 7)
        expect = MultiPoly.const(0)
        for k in range(n + 1):
            expect = expect + X ** k * qbinom(n, k, q)
        assert rs_poly(n, q) == expect


def test_brs_poly_frozen_degree_two():
    n2 = brs_poly(2, Fraction(1, 3))
    expect = (1 + Fraction(4, 3) * X - Fraction(4, 3) * Y + X * X
              - Fraction(4, 3) * X * Y + Fraction(1, 3) * Y * Y)
    assert n2 == expect


def test_brs_specializations():
    rng = random.Random(RNG_SEED + 2)
    for _ in range(10):
        q = rand_q(rng)
        n = rng.randint(0, 7)
        b = brs_poly(n, q)
        # y = 0 collapses to the one-variable family
        assert b.substitute({"y": Fraction(0)}) == rs_poly(n, q)
        # monic of degree n in x
        assert b.partial_coefficient({"x": n, "y": 0}) == MultiPoly.const(1)
        assert b.degree_in("x") == n


def test_brs_is_binomial_cauchy_sum():
    q = Fraction(2, 5)
    for n in range(7):
        expect = MultiPoly.const(0, ("x", "y"))
        for k in range(n + 1):
            expect = expect + cauchy_poly(k, q) * qbinom(n, k, q)
        assert brs_poly(n, q) == expect


def test_rs_brs_coefficient_conversions_invert():
    rng = random.Random(RNG_SEED + 3)
    for _ in range(12):
        q = rand_q(rng)
        n = rng.randint(0, 6)
        combo = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(n + 1)]
        there = rs_combo_to_brs(combo, q)
        back = brs_combo_to_rs(there, q)
        assert all(c.is_constant() for c in back)
        assert [c.constant_value() for c in back] == combo
        # and the conversions really express the same polynomial
        direct = MultiPoly.const(0)
        for k, c in enumerate(combo):
            direct = direct + rs_poly(k, q) * c
        via = MultiPoly.const(0)
        for k, c in enumerate(there):
            via = via + brs_poly(k, q) * c
        assert direct == via


def test_single_basis_conversions_match_h_to_bivariate():
    q = Fraction(1, 2)
    for n in range(6):
        (lhs_a, rhs_a), (lhs_b, rhs_b) = h_to_bivariate(n, q)
        assert lhs_a == rs_poly(n, q)
        assert lhs_b == brs_poly(n, q)
        assert lhs_a == rhs_a
        assert lhs_b == rhs_b
        coeffs = rs_to_brs_coeffs(n, q)
        rebuilt = MultiPoly.const(0)
        for k, c in enumerate(coeffs):
            rebuilt = rebuilt + brs_poly(k, q) * c
        assert rebuilt == rs_poly(n, q)
        coeffs = brs_to_rs_coeffs(n, q)
        rebuilt = MultiPoly.const(0)
        for k, c in enumerate(coeffs):
            rebuilt = rebuilt + rs_poly(k, q) * c
        assert rebuilt == brs_poly(n, q)


def test_qhermite_three_term_recurrence():
    # H_{n+1}(x|q) = 2x H_n(x|q) - (1 - q^n) H_{n-1}(x|q)
    rng = random.Random(RNG_SEED + 4)
    for _ in range(8):
        q = rand_q(rng)
        for n in range(1, 8):
            lhs = qhermite_poly(n + 1, q)
            rhs = 2 * X * qhermite_poly(n, q) \
                - (1 - q ** n) * qhermite_poly(n - 1, q)
            assert lhs == rhs, f"n={n} q={q}"


def test_big_qhermite_three_term_recurrence():
    # H_{n+1}(x;a|q) = (2x - a q^n) H_n(x;a|q) - (1 - q^n) H_{n-1}(x;a|q)
    rng = random.Random(RNG_SEED + 5)
    for _ in range(8):
        q = rand_q(rng)
        for a, top in ((Fraction(rng.randint(-3, 3), 4), 6), (A, 8)):
            for n in range(1, top + 1):
                lhs = big_qhermite_poly(n + 1, a, q)
                rhs = (2 * X - a * q ** n) * big_qhermite_poly(n, a, q) \
                    - (1 - q ** n) * big_qhermite_poly(n - 1, a, q)
                assert lhs == rhs, f"n={n} q={q} a={a}"


def test_big_qhermite_frozen_low_degrees():
    q = Fraction(2, 5)
    lp1 = big_qhermite_laurent(1, "a", q).to_x_poly()
    assert lp1 == 2 * X - A
    lp2 = big_qhermite_laurent(2, "a", q).to_x_poly()
    expect = 4 * X * X - 2 * (1 + q) * A * X + q * A * A + (q - 1)
    assert lp2 == expect


def test_big_qhermite_running_poch_matches_qpoch_for_every_k():
    # the circle form takes (az;q)_k from one running product; rebuilt with
    # qpoch for every k its terms print, key and serialise the same
    z = MultiPoly.var("z")
    for q in (Fraction(1, 2), Fraction(2, 5), Fraction(-3, 7)):
        for a in ("a", 0, Fraction(1, 4), Fraction(-2, 3)):
            az = z * (A if a == "a" else a)
            for n in range(11):
                shifted = lincomb((qbinom(n, k, q), qpoch(az, q, k), z ** (2 * n - 2 * k))
                                  for k in range(n + 1))
                want = LaurentPoly({d - n: c for d, c in shifted.as_univariate("z").items()})
                got = big_qhermite_laurent(n, a, q)
                assert str(got) == str(want)
                assert sorted(got.terms) == sorted(want.terms)
                for d, c in got.terms.items():
                    assert c.key() == want.terms[d].key()
                    assert c.to_json_dict() == want.terms[d].to_json_dict()


def test_big_qhermite_a_zero_is_plain_family():
    q = Fraction(1, 3)
    for n in range(8):
        assert big_qhermite_poly(n, Fraction(0), q) == qhermite_poly(n, q)
        assert big_qhermite_laurent(n, Fraction(0), q) == qhermite_laurent(n, q)


def test_qhermite_eval_matches_exact_laurent():
    rng = random.Random(RNG_SEED + 6)
    q = Fraction(2, 5)
    for n in range(11):
        a = Fraction(rng.randint(-2, 2), 5)
        theta = rng.uniform(0.05, math.pi - 0.05)
        z = complex(math.cos(theta), math.sin(theta))
        exact = big_qhermite_laurent(n, a, q).eval(z)
        fast = qhermite_eval(n, complex(a), float(q), theta)
        assert abs(exact - fast) < 1e-10, f"n={n}"


def test_qhermite_eval_is_x_polynomial_value():
    q = Fraction(1, 2)
    theta = 1.1
    for n in range(7):
        via_poly = poly_eval(qhermite_poly(n, q), {"x": math.cos(theta)})
        via_eval = qhermite_eval(n, 0.0, 0.5, theta)
        assert abs(via_poly - via_eval) < 1e-12


def test_qhermite_circle_is_the_frozen_circle_sum_bit_for_bit():
    # one qhermite_circle per (a, q, theta) serves every n, in any order,
    # with the floats of a sum built afresh for each n
    rng = random.Random(RNG_SEED + 13)
    for draw in range(24):
        q = rng.uniform(0.05, 0.95)
        a = rng.choice([0.0, rng.uniform(-0.6, 0.6),
                        complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))])
        theta = rng.uniform(-3.5, 3.5)
        hermite = qhermite_circle(a, q, theta)
        ns = list(range(81))
        if draw % 2:
            rng.shuffle(ns)
        for n in ns:
            expect = ref.qhermite_eval(n, a, q, theta)
            assert hermite(n) == expect, (n, a, q, theta)
            assert qhermite_eval(n, a, q, theta) == expect, (n, a, q, theta)


def test_change_base_c_spot_values():
    p, q = Fraction(1, 3), Fraction(1, 2)
    assert change_base_c(2, 1, p, q) == p - q
    # same base: expansion is the identity
    for n in range(6):
        assert change_base_c(n, 0, q, q) == 1
        for k in range(1, n // 2 + 1):
            assert change_base_c(n, k, q, q) == 0


def test_change_base_big_same_base_is_identity():
    q = Fraction(1, 2)
    a = Fraction(1, 4)
    for n in range(6):
        for m, e in change_base_big(n, a, q, q):
            assert e == (1 if m == n else 0), f"n={n} m={m}"


def test_change_base_big_a_zero_reduces_to_plain_coefficients():
    p, q = Fraction(1, 3), Fraction(1, 2)
    for n in range(7):
        pairs = dict(change_base_big(n, Fraction(0), p, q))
        for m, e in pairs.items():
            if (n - m) % 2 == 1:
                assert e == 0, f"odd offset n={n} m={m}"
            else:
                assert e == change_base_c(n, (n - m) // 2, p, q), f"n={n} m={m}"


def test_poly_to_cauchy_round_trip():
    rng = random.Random(RNG_SEED + 7)
    for _ in range(12):
        q = rand_q(rng)
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(rng.randint(1, 6))]
        f = MultiPoly.const(0, ("x", "y"))
        for k, c in enumerate(coeffs):
            f = f + cauchy_poly(k, q) * c
        exp = poly_to_cauchy(f, q)
        assert exp.to_poly() == f
        got = [exp.coefficient(k) for k in range(len(coeffs))]
        trimmed = list(coeffs)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        assert got[:len(trimmed)] == trimmed


def test_poly_to_cauchy_rejects_off_span_input():
    q = Fraction(1, 2)
    with pytest.raises(ValueError):
        poly_to_cauchy(Y, q)


def test_cauchy_expansion_is_linear_not_a_ring():
    q = Fraction(1, 2)
    f = CauchyExpansion([Fraction(1), Fraction(2)], q)
    g = CauchyExpansion([Fraction(0), Fraction(1), Fraction(3)], q)
    s = f + g
    assert [s.coefficient(k) for k in range(3)] == [1, 3, 3]
    assert (f - f).to_poly().is_zero()
    doubled = f.scale(Fraction(2))
    assert doubled.coefficient(1) == 4
    assert 2 * f == doubled
    with pytest.raises(TypeError):
        f * g


def _per_n_ladder(q: float, n: int) -> tuple:
    # the ladder as one (q, n)-keyed entry built it, prefix and all
    out = [1.0]
    for k in range(1, n + 1):
        out.append(out[-1] * (1 - q ** k))
    return tuple(out)


def test_qfac_ladder_cache_is_bounded_and_bit_equal_to_the_per_n_ladder():
    tables = qcore._table
    bound = tables.cache_info().maxsize
    assert bound == qcore.MEMO_KEYS
    qs = [0.05 + 0.9 * i / (bound + 10) for i in range(bound + 10)]
    for q in qs:
        for n in (5, 0, 12, 3):
            qhermite_eval(n, 0.25 + 0.1j, q, 0.7)
            assert tables.cache_info().currsize <= bound
        for n in range(13):
            ladder = qcore.qfacs(q, n)
            assert tuple(ladder[k] for k in range(n + 1)) == _per_n_ladder(q, n)
    assert tables.cache_info().currsize == bound


def test_memo_tables_stay_bounded_and_rebuild_equal_values():
    bound = qcore.MEMO_KEYS
    qs = [Fraction(i + 2, 2 * i + 7) for i in range(bound + 5)]

    def values(q):
        return qfac(q, 6), qbinom(8, 3, q), cauchy_poly(5, q), brs_poly(5, q)

    first = {}
    for q in qs:
        first[q] = values(q)
        assert qcore._table.cache_info().currsize <= bound
    for q in qs[:3]:
        again = values(q)
        assert again == first[q]
        # the first q's tables were evicted, so these are rebuilt objects
        assert again[2] is not first[q][2] and again[3] is not first[q][3]
