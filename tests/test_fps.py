"""Unit tests for truncated power series and basic hypergeometric expansion."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_series as ref
from qrs.fps import (TruncSeries, _poch, _powers, euler_inv_series, euler_series,
                     phi_series, phi_sum)
from qrs.qcore import _FIELD, MultiPoly, _unpack, qfac, qpochs, tri
from qrs.quadrature import qpoch_inf
from reference_series import (cauchy_expand, euler_expand, euler_inv_expand,
                              poch_series, power_sum, truncate)

RNG_SEED = 77103


def rand_series(rng, variables, order) -> TruncSeries:
    coeffs = {}
    nvars = len(variables)
    for _ in range(rng.randint(1, 2 * order + 2)):
        idx = tuple(rng.randint(0, order) for _ in range(nvars))
        coeffs[idx] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return TruncSeries(variables, order, coeffs)


def brute_mul(f: TruncSeries, g: TruncSeries) -> dict:
    out = {}
    for i1, c1 in f.coeffs.items():
        for i2, c2 in g.coeffs.items():
            idx = tuple(a + b for a, b in zip(i1, i2))
            if sum(idx) <= min(f.order, g.order):
                out[idx] = out.get(idx, Fraction(0)) + c1 * c2
    return {k: v for k, v in out.items() if v}


def test_mul_matches_brute_force_convolution():
    rng = random.Random(RNG_SEED)
    for variables in (("t",), ("s", "t")):
        for _ in range(25):
            f = rand_series(rng, variables, rng.randint(1, 6))
            g = rand_series(rng, variables, f.order)
            assert (f * g).coeffs == brute_mul(f, g)


def test_order_propagates_as_minimum():
    t = TruncSeries.variable(("t",), 7, "t")
    g = truncate(1 + t, 4)
    assert ((1 + t) * g).order == 4
    assert ((1 + t) + g).order == 4


def ref_inverse(f: TruncSeries) -> TruncSeries:
    """1/f for a series whose constant term is a nonzero rational, through
    the frozen per-coefficient reference: no package code divides."""
    inv = ref.series_inv(ref.TruncSeries(f.vars, f.order, dict(f.coeffs)))
    return TruncSeries(f.vars, f.order, inv.coeffs)


def test_euler_expansion_frozen_coefficients():
    # (t; q)_oo and 1/(t; q)_oo at q = 1/2, through order 2
    e = euler_expand(1, Fraction(1, 2), 2)
    assert e.coeffs.get((0,), 0) == 1
    assert e.coeffs.get((1,), 0) == Fraction(-2)
    assert e.coeffs.get((2,), 0) == Fraction(4, 3)
    ei = euler_inv_expand(1, Fraction(1, 2), 2)
    assert ei.coeffs.get((1,), 0) == Fraction(2)
    assert ei.coeffs.get((2,), 0) == Fraction(8, 3)


def _euler_loops(q):
    """The repeated-product Euler expansions, keyed by the builders they
    must agree with."""
    return {
        euler_series: lambda z: power_sum(
            z, lambda k: Fraction((-1) ** k) * q ** tri(k) / qfac(q, k), "euler_series"),
        euler_inv_series: lambda z: power_sum(
            z, lambda k: Fraction(1) / qfac(q, k), "euler_inv_series"),
    }


@pytest.mark.parametrize("idx", [(1,), (1, 0), (0, 1), (1, 1), (0, 2)])
def test_euler_series_match_the_repeated_products(idx):
    # written down term by term from the one-term argument c s^i t^j
    variables = ("t",) if len(idx) == 1 else ("s", "t")
    xy = MultiPoly.var("x") * MultiPoly.var("y")
    for q in (Fraction(1, 2), Fraction(-3, 7), Fraction(97, 100)):
        for build, loop in _euler_loops(q).items():
            for c in (Fraction(2, 5), Fraction(-3), Fraction(-7, 4), xy, Fraction(0)):
                for order in range(11):
                    z = TruncSeries.monomial(variables, order, idx, c)
                    got, want = build(z, q), loop(z)
                    assert got.order == want.order and dict(got.coeffs) == dict(want.coeffs)
                    assert got == want and canonical(got)


def test_euler_series_need_a_one_term_argument():
    t = TruncSeries.variable(("t",), 6, "t")
    for build in (euler_series, euler_inv_series):
        for z in (t + t * t, 1 + t, TruncSeries.one(("t",), 6)):
            with pytest.raises(ValueError, match="one-term series"):
                build(z, Fraction(1, 2))


POCH_BASES = (Fraction(1, 2), Fraction(97, 100), Fraction(-3, 7))


@pytest.mark.parametrize("q", POCH_BASES)
def test_finite_pochhammers_match_qpochs_at_scalar_z(q):
    # (ct; q)_j written down by the q-binomial theorem, read at t = 1
    t = TruncSeries.variable(("t",), 9, "t")
    for c in (Fraction(2, 5), Fraction(-3), Fraction(7, 4), Fraction(0)):
        z = t.scale(c)
        for j in range(9):
            written = _poch(z, _powers(z, "z"), q, j, False)
            assert sum(written.coeffs.values()) == qpochs(c, q, j)[j]
            assert canonical(written)


@pytest.mark.parametrize("q", POCH_BASES)
@pytest.mark.parametrize("idx", [(1,), (2,), (1, 0), (1, 1), (0, 2)])
def test_finite_pochhammers_match_their_products(q, idx):
    # (z; q)_j is prod_{k<j} (1 - z q^k), and 1/(z; q)_j times it is 1
    variables = ("t",) if len(idx) == 1 else ("s", "t")
    xy = MultiPoly.var("x") * MultiPoly.var("y")
    for c in (Fraction(2, 5), Fraction(-7, 4), xy, Fraction(0)):
        z = TruncSeries.monomial(variables, 8, idx, c)
        one = TruncSeries.one(variables, 8)
        product = one
        for j in range(9):
            finite = _poch(z, _powers(z, "z"), q, j, False)
            assert finite == product and canonical(finite)
            inverse = _poch(z, _powers(z, "z"), q, j, True)
            assert inverse * product == one and canonical(inverse)
            product = product * (one - z.scale(q ** j))


def test_euler_product_times_inverse_is_one():
    rng = random.Random(RNG_SEED + 2)
    for _ in range(10):
        q = Fraction(rng.randint(1, 5), rng.randint(6, 9))
        order = rng.randint(2, 7)
        z = TruncSeries.variable(("t",), order, "t").scale(
            Fraction(rng.randint(1, 3), rng.randint(1, 3)))
        prod = euler_series(z, q) * euler_inv_series(z, q)
        assert prod == TruncSeries.one(("t",), order)


def test_euler_inverse_functional_equation():
    # 1/(z;q)_oo == 1/(1-z) * 1/(zq;q)_oo
    q = Fraction(2, 5)
    order = 8
    z = TruncSeries.variable(("t",), order, "t")
    lhs = euler_inv_series(z, q)
    rhs = ref_inverse(TruncSeries.one(("t",), order) - z) \
        * euler_inv_series(z.scale(q), q)
    assert lhs == rhs


def test_cauchy_series_is_quotient_of_euler_products():
    # (az; q)_oo / (z; q)_oo
    q = Fraction(1, 3)
    order = 7
    z = TruncSeries.variable(("t",), order, "t")
    a = Fraction(3, 4)
    lhs = cauchy_expand(a, 1, q, order)
    rhs = euler_series(z.scale(a), q) * ref_inverse(euler_series(z, q))
    assert lhs == rhs


def test_cauchy_expand_q_binomial_theorem_coefficients():
    # sum_n (a;q)_n / (q;q)_n t^n
    q = Fraction(1, 2)
    a = Fraction(1, 5)
    s = cauchy_expand(a, 1, q, 6)
    for n in range(7):
        assert s.coeffs.get((n,), 0) == qpochs(a, q, n)[n] / qfac(q, n)


def test_poch_series_finite_product():
    q = Fraction(1, 2)
    order = 6
    t = TruncSeries.variable(("t",), order, "t")
    x = MultiPoly.var("x")
    s = poch_series(t.scale(x), q, 3, ("t",), order)
    expect = TruncSeries.one(("t",), order)
    for k in range(3):
        expect = expect * (TruncSeries.one(("t",), order) - t.scale(x * q ** k))
    assert s == expect


def test_phi_series_one_phi_zero_is_cauchy_kernel():
    # 1phi0(a; -; q, z) = (az;q)_oo / (z;q)_oo
    q = Fraction(1, 3)
    order = 8
    z = TruncSeries.variable(("t",), order, "t")
    a = Fraction(2, 7)
    lhs = phi_series((a,), (), q, z)
    rhs = cauchy_expand(a, 1, q, order)
    assert lhs == rhs


def test_phi_series_matches_direct_pochhammer_sum():
    # 2phi1 with scalar parameters against a hand-rolled term sum
    q = Fraction(2, 5)
    order = 7
    a, b, c = Fraction(1, 2), Fraction(-1, 3), Fraction(1, 7)
    z = TruncSeries.variable(("t",), order, "t")
    got = phi_series((a, b), (c,), q, z)
    for n in range(order + 1):
        expect = (qpochs(a, q, n)[n] * qpochs(b, q, n)[n]
                  / (qfac(q, n) * qpochs(c, q, n)[n]))
        assert got.coeffs.get((n,), 0) == expect


def test_phi_series_ratio_mechanism_matches_plain_parameter():
    # a ratio pair (num, den) with argument pre-divided by den must equal
    # the plain parameter num/den at the true argument
    q = Fraction(1, 2)
    order = 7
    num, den = Fraction(1, 3), Fraction(2, 3)
    other = Fraction(1, 5)
    lower = Fraction(1, 7)
    z = TruncSeries.variable(("t",), order, "t")
    via_ratio = phi_series((other,), (lower,), q, z, ratio_upper=((num, den),))
    plain = phi_series((other, num / den), (lower,), q, z.scale(den))
    assert via_ratio == plain


def test_phi_series_ratio_mechanism_zero_denominator():
    # (num/den; q)_j den^j at den=0 degenerates to (-num)^j q^(j(j-1)/2);
    # the engine must stay finite and exact
    q = Fraction(1, 2)
    order = 6
    num = Fraction(1, 4)
    z = TruncSeries.variable(("t",), order, "t")
    got = phi_series((), (), q, z, ratio_upper=((num, Fraction(0)),))
    for j in range(order + 1):
        expect = (-num) ** j * q ** (j * (j - 1) // 2) / qfac(q, j)
        assert got.coeffs.get((j,), 0) == expect


def test_phi_series_with_series_parameters():
    # upper parameter x*t: (xt;q)_n enters each term exactly
    q = Fraction(1, 2)
    order = 6
    x = MultiPoly.var("x")
    t = TruncSeries.variable(("t",), order, "t")
    got = phi_series((t.scale(x),), (), q, t)
    expect = TruncSeries.zero(("t",), order)
    for n in range(order + 1):
        term = poch_series(t.scale(x), q, n, ("t",), order) \
            .scale(Fraction(1) / qfac(q, n)) * TruncSeries.monomial(("t",), order, (n,))
        expect = expect + term
    assert got == expect


def test_phi_series_needs_an_argument_without_constant_term():
    # a constant term would make every power of the argument dense: the
    # truncated sum is then not the series, and must not pass for it
    t = TruncSeries.variable(("t",), 4, "t")
    for argument in (TruncSeries.const(Fraction(1, 2), ("t",), 4), 1 + t):
        with pytest.raises(ValueError, match="zero constant term"):
            phi_series((), (), Fraction(1, 2), argument)


def test_phi_series_rejects_parameters_it_cannot_write_down():
    q = Fraction(1, 2)
    x = MultiPoly.var("x")
    t = TruncSeries.variable(("t",), 5, "t")
    with pytest.raises(ValueError, match="upper parameter 1 needs a one-term series"):
        phi_series((Fraction(1, 3), t.scale(x) + t * t), (), q, t)
    with pytest.raises(ValueError, match="lower parameter 0 needs a one-term series"):
        phi_series((), (t * t + t,), q, t)
    # 1/(x; q)_j is not a polynomial
    with pytest.raises(ValueError, match=r"lower parameter 0 \(x\): 1 - l q\^0 is not a nonzero"):
        phi_series((), (x,), q, t)
    # 1 - 4 q^2 = 0 at the third term
    with pytest.raises(ValueError, match=r"lower parameter 1 \(4\): 1 - l q\^2 is not a nonzero"):
        phi_series((), (t, Fraction(4)), q, t)


def test_phi_sum_against_infinite_products():
    # numeric 1phi0(a; -; q, z) = (az;q)_oo/(z;q)_oo
    rng = random.Random(RNG_SEED + 3)
    for _ in range(10):
        q = rng.uniform(0.1, 0.6)
        a = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3))
        got = phi_sum([a], [], q, z)
        expect = qpoch_inf(a * z, q) / qpoch_inf(z, q)
        assert abs(got - expect) < 1e-11


def test_phi_sum_rejects_divergent_argument():
    with pytest.raises(ValueError):
        phi_sum([0.5], [0.25], 0.3, 1.2)


def test_phi_sum_term_cap_and_pole_guards():
    with pytest.raises(RuntimeError):
        phi_sum([0.5], [], 0.3, 0.9, max_terms=5)
    with pytest.raises(ZeroDivisionError):
        phi_sum([0.5], [1 / 0.3 ** 2], 0.3, 0.5)   # 1 - l q^2 vanishes
    with pytest.raises(ZeroDivisionError):
        phi_sum([0.5], [], -1.0, 0.5)              # 1 - q^2 vanishes


def test_first_coefficient_of_a_difference_is_the_first_lexicographic_one():
    f = TruncSeries(("s", "t"), 3, {(0, 0): Fraction(1), (1, 1): Fraction(2)})
    g = TruncSeries(("s", "t"), 3, {(0, 0): Fraction(1), (1, 1): Fraction(3),
                                    (0, 2): Fraction(5)})
    assert f != g
    assert min((f - g).coeffs.items()) == ((0, 2), Fraction(-5))
    assert f == f and not (f - f).coeffs


# -- ring properties with polynomial coefficients ------------------------------

SERIES = settings(max_examples=40, deadline=None, derandomize=True, database=None)

small_polys = st.sampled_from([("x",), ("y",), ("x", "y")]).flatmap(
    lambda names: st.dictionaries(
        st.tuples(*(st.integers(0, 2) for _ in names)),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        max_size=3).map(lambda terms: MultiPoly(names, terms)))
coefficient_elems = st.one_of(small_polys, st.fractions(min_value=-3, max_value=3,
                                                         max_denominator=4))


@st.composite
def poly_series(draw, variables):
    order = draw(st.integers(0, 6))
    idx = st.tuples(*(st.integers(0, order) for _ in variables))
    coeffs = draw(st.dictionaries(idx, coefficient_elems, max_size=6))
    return TruncSeries(variables, order, coeffs)


frames = st.sampled_from([("t",), ("s", "t")])


@SERIES
@given(frames.flatmap(lambda v: st.tuples(poly_series(v), poly_series(v), poly_series(v))))
def test_series_ring_axioms_with_polynomial_coefficients(abc):
    a, b, c = abc
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a * b).order == min(a.order, b.order)
    assert (a + b).order == min(a.order, b.order)
    assert (a * b).coeffs == brute_mul(a, b)


def phi_direct(upper, lower, q, argument, ratio_upper, order: int) -> TruncSeries:
    """The defining term sum of phi_series, inverting each term's lower
    Pochhammer product afresh, through `order`."""
    variables = argument.vars
    arg = truncate(argument, order)
    out = TruncSeries.one(variables, arg.order)
    for j in range(1, arg.order + 1):
        num = TruncSeries.one(variables, arg.order)
        for u in upper:
            num = num * poch_series(u, q, j, variables, arg.order)
        den = TruncSeries.one(variables, arg.order)
        for low in lower:
            den = den * poch_series(low, q, j, variables, arg.order)
        ratio = Fraction(1)
        for rnum, rden in ratio_upper:
            for k in range(j):
                ratio = ratio * (rden - rnum * q ** k)
        power = TruncSeries.one(variables, arg.order)
        for _ in range(j):
            power = power * arg
        out = out + (num * ref_inverse(den) * power).scale(ratio * (Fraction(1) / qfac(q, j)))
    return out


@pytest.mark.parametrize("order", range(7))
def test_phi_series_matches_the_direct_sum(order):
    q = Fraction(1, 2)
    x, y, u, v = (MultiPoly.var(n) for n in "xyuv")
    t = TruncSeries.variable(("t",), order, "t")
    s2, t2 = (TruncSeries.variable(("s", "t"), order, n) for n in "st")
    sums = [
        ((y, t.scale(x)), (t.scale(y), t.scale(v * x)), q, t, ((v, u),)),
        ((y, s2.scale(x)), (s2.scale(y), Fraction(1, 3)), q, t2, ()),
    ]
    for args in sums:
        assert phi_series(*args) == phi_direct(*args, order)


# -- the layered packed storage against the per-coefficient reference ---------
#
# Each test builds the same coefficient dicts into a qrs.fps.TruncSeries and
# into the frozen reference of reference_series.py, runs one operation on
# both, and requires the same order and the same coefficients, index by
# index. Rationals reach denominators of 100-200, as the bases q do.

LAYERS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

wide_q = st.integers(100, 200).flatmap(
    lambda d: st.integers(1 - d, d - 1).filter(bool).map(lambda n: Fraction(n, d)))
wide_scalars = st.one_of(wide_q, st.fractions(min_value=-3, max_value=3, max_denominator=200))
wide_polys = st.sampled_from([("x",), ("y",), ("u", "x"), ("x", "y")]).flatmap(
    lambda names: st.dictionaries(
        st.tuples(*(st.integers(0, 3) for _ in names)), wide_scalars,
        max_size=4).map(lambda terms: MultiPoly(names, terms)))
# one draw of coefficients is all rational or mixes in polynomials
coefficient_kinds = st.sampled_from([wide_scalars, st.one_of(wide_scalars, wide_polys)])


@st.composite
def operands(draw, count=2):
    """count (variables, order, coeffs) triples over one frame and one kind
    of coefficient, at independent orders, with indices up to one past the
    order so that construction has something to drop."""
    variables = draw(frames)
    elems = draw(coefficient_kinds)
    out = []
    for _ in range(count):
        order = draw(st.integers(0, 6))
        idx = st.tuples(*(st.integers(0, order + 1) for _ in variables))
        coeffs = draw(st.dictionaries(idx, elems, max_size=8))
        out.append((variables, order, coeffs))
    return out


def both(operand):
    """The operand as a package series and as a reference series."""
    return TruncSeries(*operand), ref.TruncSeries(*operand)


def canonical(s: TruncSeries) -> bool:
    """One MultiPoly layer per degree through the order, all over the same
    variables, each holding only exponents of its degree, reduced, with no
    zero numerator."""
    shift = _FIELD * len(s.cvars)
    return len(s._layers) == s.order + 1 and all(
        type(layer) is MultiPoly and layer.vars == s._layers[0].vars
        and layer._den > 0 and 0 not in layer._num.values()
        and gcd(layer._den, *layer._num.values()) == 1
        and all(sum(_unpack(e >> shift, len(s.vars))) == d for e in layer._num)
        for d, layer in enumerate(s._layers))


def assert_same(got: TruncSeries, want: "ref.TruncSeries"):
    assert got.vars == want.vars and got.order == want.order
    assert dict(got.coeffs) == want.coeffs
    assert canonical(got)


@LAYERS
@given(operands())
def test_layered_mul_add_sub_match_the_reference(ops):
    (a, ra), (b, rb) = both(ops[0]), both(ops[1])
    assert_same(a * b, ra * rb)
    assert_same(a + b, ra + rb)
    assert_same(a - b, ra - rb)
    assert_same(-a, -ra)
    assert_same(a * a, ra * ra)


@LAYERS
@given(operands(), st.one_of(wide_scalars, wide_polys, st.just(Fraction(0))),
       st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_layered_scale_shift_truncate_match_the_reference(ops, elem, idx):
    a, ra = both(ops[0])
    idx = idx[:len(a.vars)]
    assert_same(a.scale(elem), ra.scale(elem))
    assert_same(a * elem, ra * elem)
    assert_same(a + elem, ra + elem)
    # the package shifts a series by multiplying it by a monomial
    shifted = a * TruncSeries.monomial(a.vars, a.order, idx)
    assert_same(shifted, ra.shift(idx))
    assert_same(shifted * a, ra.shift(idx) * ra)
    assert_same(truncate(a, ops[1][1]), ra.truncate(ops[1][1]))


@LAYERS
@given(operands())
def test_sums_that_cancel_match_the_reference(ops):
    (variables, order, coeffs), (_, _, extra) = ops
    minus = {i: -c for i, c in coeffs.items()}
    for i, c in extra.items():
        minus[i] = minus[i] + c if i in minus else c
    a, ra = both((variables, order, coeffs))
    b, rb = both((variables, order, minus))
    assert_same(a + b, ra + rb)
    assert_same(b + a, rb + ra)
    zero = a * b - b * a
    assert zero.is_zero() and not zero.coeffs
    assert_same(zero, ra * rb - rb * ra)
    assert (a - a).is_zero() and a - a == TruncSeries.zero(variables, order)


@LAYERS
@given(operands(), st.data())
def test_layered_diff_witness_matches_the_reference(ops, data):
    (variables, order, coeffs), (_, _, other) = ops
    # b differs from a at a few indices, or not at all
    changed = dict(coeffs)
    for i, c in data.draw(st.sampled_from([{}, other])).items():
        changed[i] = changed[i] + c if i in changed else c
    (a, ra), (b, rb) = both((variables, order, coeffs)), both((variables, order, changed))
    want = ra.diff_witness(rb)
    assert (a == b) == (want is None)
    if want is not None:
        idx = min((a - b).coeffs)
        assert idx == want[0] and (a - b).coeffs[idx] == want[1]


def _linear(data, variables, order, elems, max_terms=2) -> tuple:
    """A series of degree 1 with zero constant term and at most max_terms
    terms, as a package series and as a reference series."""
    units = [tuple(int(i == k) for i in range(len(variables))) for k in range(len(variables))]
    picked = data.draw(st.lists(st.sampled_from(units), min_size=1, max_size=max_terms,
                                unique=True))
    return both((variables, order, {idx: data.draw(elems) for idx in picked}))


def _param(data, variables, order, elems) -> tuple:
    """A phi parameter, a rational or polynomial or a one-term `_linear`
    series."""
    if data.draw(st.booleans()):
        return _linear(data, variables, order, elems, max_terms=1)
    value = data.draw(elems)
    return value, value


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_layered_phi_series_matches_the_reference(data):
    variables = data.draw(frames)
    order = data.draw(st.integers(0, 4))
    q = data.draw(wide_q)
    elems = data.draw(coefficient_kinds)
    uppers = [_param(data, variables, order, elems) for _ in range(data.draw(st.integers(0, 2)))]
    # a lower parameter keeps 1 - l q^k a unit: |l| < 1, or no constant term
    lowers = [_param(data, variables, order, wide_q) for _ in range(data.draw(st.integers(0, 1)))]
    ratios = tuple((data.draw(elems), data.draw(elems))
                   for _ in range(data.draw(st.integers(0, 1))))
    arg, rarg = _linear(data, variables, order + data.draw(st.integers(0, 1)), elems)
    got = phi_series(tuple(u for u, _ in uppers), tuple(low for low, _ in lowers),
                     q, arg, ratio_upper=ratios)
    want = ref.phi_series(tuple(r for _, r in uppers), tuple(r for _, r in lowers),
                          q, rarg, ratio_upper=ratios)
    assert_same(got, want)
