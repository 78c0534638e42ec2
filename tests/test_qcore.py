"""Unit tests for the exact polynomial kernel."""

import random
import sys
import threading
from fractions import Fraction

import pytest
from reference_multipoly import (as_univariate, constant_value, from_json_dict,
                                 is_constant, partial_coefficient, poly_eval,
                                 substitute, total_degree)

from qrs import qcore
from qrs.qcore import MultiPoly, frac, qbinom, qfac, qfacs, qpochs, tri

RNG_SEED = 20240811


def rand_poly(rng, variables=("x", "y"), max_deg=3, max_terms=5) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(0, max_deg) for _ in variables)
        terms[exp] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return MultiPoly(variables, terms)


def rand_q(rng) -> Fraction:
    den = rng.randint(2, 9)
    num = rng.randint(1, den - 1)
    return Fraction(num, den)


def test_frac_accepts_exact_rejects_float():
    assert frac(3) == Fraction(3)
    assert frac("2/7") == Fraction(2, 7)
    assert frac(Fraction(-1, 3)) == Fraction(-1, 3)
    with pytest.raises((TypeError, ValueError)):
        frac(0.5)


def test_tri_triangular_numbers():
    assert [tri(k) for k in range(6)] == [0, 0, 1, 3, 6, 10]


def test_multipoly_ring_laws():
    rng = random.Random(RNG_SEED)
    for _ in range(40):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == MultiPoly.const(0)
        assert a * 1 == a and 1 * a == a
        assert not a * 0


def test_multipoly_scalar_coercion_and_pow():
    x = MultiPoly.var("x")
    assert 2 * x - x == x
    assert (x + 1) ** 2 == x * x + 2 * x + 1
    assert x ** 0 == MultiPoly.const(1, ("x",))
    assert Fraction(1, 2) * (x + x) == x


def test_multipoly_substitute_matches_eval():
    rng = random.Random(RNG_SEED + 1)
    for _ in range(25):
        p = rand_poly(rng)
        bx, by = Fraction(rng.randint(-4, 4), 3), Fraction(rng.randint(-4, 4), 5)
        sub = substitute(p, {"x": bx, "y": by})
        assert is_constant(sub)
        assert constant_value(sub) == poly_eval(p, {"x": bx, "y": by})


def test_multipoly_substitute_polynomial_composition():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    p = x * x - y
    assert substitute(p, {"x": y + 1}) == (y + 1) * (y + 1) - y
    # untouched variables stay symbolic
    assert substitute(p, {"y": Fraction(0)}) == x * x


def test_partial_coefficient_and_univariate_view_agree():
    rng = random.Random(RNG_SEED + 2)
    for _ in range(20):
        p = rand_poly(rng)
        by_deg = as_univariate(p, "x")
        rebuilt = MultiPoly.const(0)
        x = MultiPoly.var("x")
        for d, coef in by_deg.items():
            assert coef == partial_coefficient(p, {"x": d})
            rebuilt = rebuilt + x ** d * coef
        assert rebuilt == p


def test_multipoly_json_round_trip():
    rng = random.Random(RNG_SEED + 3)
    for _ in range(10):
        p = rand_poly(rng)
        assert from_json_dict(p.to_json_dict(), MultiPoly) == p


def test_multipoly_immutable():
    p = MultiPoly.var("x")
    with pytest.raises(AttributeError):
        p.terms = {}


def test_qfac_frozen_values():
    q = Fraction(1, 2)
    assert qfac(q, 0) == 1
    assert qfac(q, 1) == Fraction(1, 2)
    assert qfac(q, 2) == Fraction(3, 8)
    assert qfac(q, 3) == Fraction(21, 64)


def test_qpoch_matches_product_definition():
    rng = random.Random(RNG_SEED + 6)
    for _ in range(20):
        q = rand_q(rng)
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        n = rng.randint(0, 6)
        prod = Fraction(1)
        for k in range(n):
            prod *= 1 - a * q ** k
        assert qpochs(a, q, n)[n] == prod


def test_qbinom_polynomial_witness():
    q = MultiPoly.var("q")
    expect = 1 + q + 2 * q ** 2 + q ** 3 + q ** 4
    assert qbinom(4, 2, q) == expect


def test_qbinom_out_of_range_is_zero():
    q = Fraction(1, 3)
    assert qbinom(3, 5, q) == 0
    assert qbinom(3, -1, q) == 0
    assert qbinom(-2, 0, q) == 0
    assert qbinom(0, 0, q) == 1


def test_qbinom_pascal_recurrences():
    rng = random.Random(RNG_SEED + 8)
    for _ in range(30):
        q = rand_q(rng)
        n = rng.randint(1, 8)
        k = rng.randint(0, n)
        assert qbinom(n, k, q) == qbinom(n - 1, k - 1, q) + q ** k * qbinom(n - 1, k, q)
        assert qbinom(n, k, q) == q ** (n - k) * qbinom(n - 1, k - 1, q) + qbinom(n - 1, k, q)


def test_qbinom_symmetry():
    rng = random.Random(RNG_SEED + 9)
    for _ in range(20):
        q = rand_q(rng)
        n = rng.randint(0, 9)
        k = rng.randint(0, n)
        assert qbinom(n, k, q) == qbinom(n, n - k, q)


def test_poly_eval_numeric_and_exact_paths():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    p = x * y + 2 * x
    assert poly_eval(p, {"x": Fraction(1, 2), "y": Fraction(3)}) == Fraction(5, 2)
    assert abs(poly_eval(p, {"x": 0.5, "y": 3.0}) - 2.5) < 1e-15
    with pytest.raises(ValueError):
        poly_eval(p, {"x": 1})


def test_exact_and_float_factorials_keep_their_own_types():
    # 0.5 == Fraction(1, 2) and both hash alike, yet the float key has its
    # own memo table, which the exact factorials never fill; qfac refuses a
    # float q rather than building a float ladder
    half = Fraction(1, 2)
    for exact_first in (True, False):
        qcore._table.cache_clear()
        if exact_first:
            table, floats = qfacs(half, 6), qcore.memo_table("qfac", 0.5)
        else:
            floats, table = qcore.memo_table("qfac", 0.5), qfacs(half, 6)
        exact = qfac(half, 6)
        assert type(exact) is Fraction and exact == Fraction(3 * 7 * 15 * 31 * 63, 2 ** 21)
        assert [type(table[k]) for k in range(7)] == [Fraction] * 7
        assert table[6] == exact
        assert floats is not table and floats == {}
    with pytest.raises(TypeError):
        qfac(0.5, 6)


def test_qpochs_is_the_running_product():
    q = Fraction(1, 3)
    a = MultiPoly.var("a")
    for elem in (Fraction(2, 5), a):
        pochs = qpochs(elem, q, 5)
        assert len(pochs) == 6
        prod = 1
        for k in range(6):
            assert pochs[k] == prod
            prod = prod * (1 - elem * q ** k)
    assert qpochs(a, q, 0) == [MultiPoly.const(1, ("a",))]
    assert qpochs(a, q, 0)[0].vars == ("a",)


def test_threads_growing_shared_tables_agree_with_the_product():
    # entries are keyed by n, so racing fills can only recompute an entry
    qs = [Fraction(1, 3), Fraction(-2, 5), Fraction(3, 7)]
    ns = (150, 20, 250, 90)
    want = {}
    for q in qs:
        prod = Fraction(1)
        for k in range(1, max(ns) + 1):
            prod *= 1 - q ** k
            want[q, k] = prod
    results = []
    start = threading.Barrier(4)

    def work():
        start.wait(timeout=30)
        for q in qs:
            results.extend((q, n, qfac(q, n)) for n in ns)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            qcore._table.cache_clear()
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert len(results) == 5 * 4 * len(qs) * len(ns)
    assert all(value == want[q, n] for q, n, value in results)


# -- degrees far past the interpreter's recursion limit ----------------------


def test_qfac_at_degree_1500():
    # at q = -1 every value stays small ((q;q)_n = 0 from n = 2 on), so the
    # memoised recurrence is walked 1500 levels deep in milliseconds
    assert qfac(Fraction(-1), 1500) == 0
    q = Fraction(1, 2)
    want = Fraction(1)
    for k in range(1, 301):
        want *= 1 - q ** k
    assert qfac(q, 300) == want


def test_qbinom_rational_at_degree_1200():
    q = Fraction(1, 2)
    want = Fraction(1)
    for i in range(1, 4):
        want *= (1 - q ** (1200 - 3 + i)) / (1 - q ** i)
    assert qbinom(1200, 3, q) == want
    assert qbinom(1200, 1197, q) == want
    assert qbinom(1200, 3, q) == qbinom(1199, 2, q) + q ** 3 * qbinom(1199, 3, q)


def test_qbinom_polynomial_at_degree_1100():
    q = MultiPoly.var("q")
    p = qbinom(1100, 2, q)
    assert total_degree(p) == 2 * 1098
    third = Fraction(1, 3)
    assert constant_value(substitute(p, {"q": third})) == qbinom(1100, 2, third)
