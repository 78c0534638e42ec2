"""Unit tests for the polynomial families and their conversions."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from reference_multipoly import (as_univariate, degree_in, partial_coefficient, poly_eval,
                                 substitute, total_degree)

from qrs import qcore
from qrs.families import (big_qhermite_poly, big_qhermite_polys, brs_poly,
                          cauchy_poly, change_base_big, change_base_c,
                          qhermite_circle, qhermite_poly, rs_poly)
from qrs.qcore import MultiPoly, lincomb, qbinom, qfac, qpochs

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
        rhs = cauchy_poly(m, q) * substitute(cauchy_poly(n, q), {"y": Y * q ** m})
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
        assert substitute(b, {"y": Fraction(0)}) == rs_poly(n, q)
        # monic of degree n in x
        assert partial_coefficient(b, {"x": n, "y": 0}) == MultiPoly.const(1)
        assert degree_in(b, "x") == n


def test_brs_is_binomial_cauchy_sum():
    q = Fraction(2, 5)
    for n in range(7):
        expect = MultiPoly.const(0, ("x", "y"))
        for k in range(n + 1):
            expect = expect + cauchy_poly(k, q) * qbinom(n, k, q)
        assert brs_poly(n, q) == expect


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


def test_big_qhermite_frozen_low_degrees():
    q = Fraction(2, 5)
    assert big_qhermite_poly(1, "a", q) == 2 * X - A
    expect = 4 * X * X - 2 * (1 + q) * A * X + q * A * A + (q - 1)
    assert big_qhermite_poly(2, "a", q) == expect


def test_big_qhermite_matches_its_circle_definition():
    # at x = (z + 1/z)/2 the definition reads
    # z^n H_n(x;a|q) = sum_k [n,k]_q (a z; q)_k z^(2n-2k)
    z = MultiPoly.var("z")
    for q in (Fraction(1, 2), Fraction(-3, 7), Fraction(151, 197)):
        for a in ("a", 0, Fraction(1, 4), Fraction(-2, 3)):
            az = z * (A if a == "a" else a)
            for n, poly in enumerate(big_qhermite_polys(10, a, q)):
                circle = lincomb((c, ((z * z + 1) * Fraction(1, 2)) ** j, z ** (n - j))
                                 for j, c in as_univariate(poly, "x").items())
                pochs = qpochs(az, q, n)
                want = lincomb((qbinom(n, k, q), pochs[k], z ** (2 * n - 2 * k))
                               for k in range(n + 1))
                assert circle == want, (n, a, q)


def test_big_qhermite_polys_match_the_defining_sums_at_cos_theta():
    # the exact polynomials at x = cos theta, evaluated in rationals, against
    # the 90-digit defining sums; theta near 0 and near pi included
    for q in (Fraction(1, 2), Fraction(-3, 7), Fraction(151, 197)):
        for a in (0, Fraction(1, 4), Fraction(-2, 3)):
            polys = big_qhermite_polys(16, a, q)
            for theta in (0.03, 1.1, 2.4, math.pi - 0.02):
                exact = _defining_sums(range(17), float(a), float(q), theta, 90)
                x = Fraction(math.cos(theta))
                for n, poly in enumerate(polys):
                    got = complex(poly_eval(poly, {"x": x}))
                    assert _hermite_error(got, exact, n) <= 1e-12, (n, a, q, theta)


def test_big_qhermite_a_zero_is_plain_family():
    q = Fraction(1, 3)
    assert big_qhermite_polys(7, Fraction(0), q) == [qhermite_poly(n, q) for n in range(8)]
    for n, poly in enumerate(big_qhermite_polys(7, "a", q)):
        assert substitute(poly, {"a": 0}) == qhermite_poly(n, q)


def test_big_qhermite_polys_at_degree_120():
    q = Fraction(1, 2)
    polys = big_qhermite_polys(120, Fraction(1, 3), q)
    top = polys[120]
    assert len(polys) == 121 and total_degree(top) == 120
    assert top.terms[(120,)] == 2 ** 120
    # H_n(-x; a|q) = (-1)^n H_n(x; -a|q)
    assert substitute(top, {"x": -X}) == big_qhermite_poly(120, Fraction(-1, 3), q)


def test_qhermite_eval_matches_exact_laurent():
    # the exact value: the rational x-polynomial H_n(x; a|q) at x = cos theta
    rng = random.Random(RNG_SEED + 6)
    q = Fraction(2, 5)
    for n in range(11):
        a = Fraction(rng.randint(-2, 2), 5)
        theta = rng.uniform(0.05, math.pi - 0.05)
        exact = poly_eval(big_qhermite_poly(n, a, q), {"x": math.cos(theta)})
        fast = qhermite_circle(complex(a), float(q), theta)(n)
        assert abs(exact - fast) < 1e-10, f"n={n}"


def test_qhermite_eval_is_x_polynomial_value():
    q = Fraction(1, 2)
    theta = 1.1
    for n in range(7):
        via_poly = poly_eval(qhermite_poly(n, q), {"x": math.cos(theta)})
        via_eval = qhermite_circle(0.0, 0.5, theta)(n)
        assert abs(via_poly - via_eval) < 1e-12


def _defining_sums(ns, a, q: float, theta: float, dps: int) -> dict:
    """{n: H_n(cos theta; a|q) for n in ns} from the defining sum
    sum_k [n,k] (a z; q)_k z^(n-2k), z = e^(i theta), in mpmath at dps
    digits, each rounded to complex once at the end."""
    top = max(ns)
    with mpmath.workdps(dps):
        q, z = mpmath.mpf(q), mpmath.expj(mpmath.mpf(theta))
        az = mpmath.mpc(a) * z
        qfac, poch, qk = [mpmath.mpf(1)], [mpmath.mpc(1)], mpmath.mpf(1)
        for _ in range(top):
            poch.append(poch[-1] * (1 - az * qk))
            qk *= q
            qfac.append(qfac[-1] * (1 - qk))
        zpow = {e: z ** e for e in range(-top, top + 1)}
        return {n: complex(mpmath.fsum(qfac[n] / (qfac[k] * qfac[n - k]) * poch[k]
                                       * zpow[n - 2 * k] for k in range(n + 1)))
                for n in ns}


def _hermite_error(got: complex, exact: dict, n: int) -> float:
    """|got - H_n| relative to max(|H_n|, |H_(n-1)|), the size of the terms
    the recurrence combines. A real H_n has n real zeros, and next to one
    no float evaluation is accurate relative to |H_n| alone."""
    return abs(got - exact[n]) / max(abs(exact[n]), abs(exact.get(n - 1, 0.0)))


def test_qhermite_circle_matches_the_defining_sum_to_1e_12():
    # 90-digit defining sums as the oracle; a = 0, real and complex, q up to
    # 0.95, and theta anywhere, near 0 and near pi included
    rng = random.Random(RNG_SEED + 13)
    for draw in range(24):
        q = rng.uniform(0.05, 0.95)
        a = (0.0, rng.uniform(-0.6, 0.6),
             complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))[draw % 3]
        theta = rng.choice([rng.uniform(-3.5, 3.5), rng.uniform(-0.1, 0.1),
                            math.pi - rng.uniform(0.0, 0.1)])
        exact = _defining_sums(range(81), a, q, theta, 90)
        hermite = qhermite_circle(a, q, theta)
        for n in range(81):
            for got in (hermite(n), qhermite_circle(a, q, theta)(n)):
                assert _hermite_error(got, exact, n) <= 1e-12, (n, a, q, theta, got, exact[n])


@pytest.mark.parametrize("q, a, theta", [(0.35, -0.3, 0.04), (0.35, 0.3 + 0.2j, 3.09),
                                         (0.5, 0.45, 0.04), (0.5, -0.3, 3.09)])
def test_qhermite_circle_near_x_equal_to_plus_or_minus_1(q, a, theta):
    # here H_n stays large and the plain forward recurrence loses about
    # n^2 ulps (1.7e-12 to 2.9e-12 at n <= 80); the increments keep it near n
    exact = _defining_sums(range(81), a, q, theta, 90)
    hermite = qhermite_circle(a, q, theta)
    assert max(_hermite_error(hermite(n), exact, n) for n in range(81)) <= 1e-12


@pytest.mark.parametrize("a, theta", [(0.3 + 0.2j, 1.3), (-0.4, 2.0), (0.0, 0.7)])
def test_qhermite_eval_at_n_300_and_q_095(a, theta):
    # terms of the circle sum reach 1e11 to 1e14 here and H_300 at the first
    # point is about 5e-6: the sum cancels some 20 digits, the oracle keeps 200
    exact = _defining_sums((299, 300), a, 0.95, theta, 200)
    assert _hermite_error(qhermite_circle(a, 0.95, theta)(300), exact, 300) <= 1e-12


def test_qhermite_circle_gives_the_same_floats_in_any_order():
    # one qhermite_circle per (a, q, theta) serves every n, asked in any
    # order, with the floats a fresh qhermite_circle builds for each n alone
    rng = random.Random(RNG_SEED + 14)
    for draw in range(24):
        q = rng.uniform(0.05, 0.95)
        a = rng.choice([0.0, rng.uniform(-0.6, 0.6),
                        complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))])
        theta = rng.uniform(-3.5, 3.5)
        hermite = qhermite_circle(a, q, theta)
        ns = list(range(81))
        rng.shuffle(ns)
        for n in ns:
            assert hermite(n) == qhermite_circle(a, q, theta)(n), (n, a, q, theta)


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
    # P_k is the one Cauchy polynomial with the monomial x^k y^0, so the
    # x^k y^0 coefficients of f = sum_k c_k P_k give back the c_k, and they
    # rebuild f; qops.e_op_apply reads its operand in this basis this way
    rng = random.Random(RNG_SEED + 7)
    for _ in range(12):
        q = rand_q(rng)
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(rng.randint(1, 6))]
        f = lincomb((c, cauchy_poly(k, q)) for k, c in enumerate(coeffs))
        got = [partial_coefficient(f, {"x": k, "y": 0}) for k in range(len(coeffs))]
        assert got == coeffs
        assert lincomb((c, cauchy_poly(k, q)) for k, c in enumerate(got)) == f


def _per_n_ladder(q: Fraction, n: int) -> tuple:
    # the ladder as one (q, n)-keyed entry built it, prefix and all
    out = [Fraction(1)]
    for k in range(1, n + 1):
        out.append(out[-1] * (1 - q ** k))
    return tuple(out)


def test_qfac_ladder_cache_is_bounded_and_bit_equal_to_the_per_n_ladder():
    tables = qcore._table
    bound = tables.cache_info().maxsize
    assert bound == qcore.MEMO_KEYS
    qs = [Fraction(i + 1, 2 * i + 5) * (-1) ** i for i in range(bound + 10)]
    first = {}
    for q in qs:
        for n in (5, 0, 12, 3):
            qcore.qfacs(q, n)
            assert tables.cache_info().currsize <= bound
        for n in range(13):
            ladder = qcore.qfacs(q, n)
            first[q] = tuple(ladder[k] for k in range(n + 1))
            assert first[q] == _per_n_ladder(q, n)
            assert {type(v) for v in first[q]} == {Fraction}
    assert tables.cache_info().currsize == bound
    # the first q's tables were evicted; a rebuild gives equal values
    for q in qs[:3]:
        ladder = qcore.qfacs(q, 12)
        assert tuple(ladder[k] for k in range(13)) == first[q]


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
