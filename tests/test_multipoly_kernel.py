"""Property tests for the packed integer MultiPoly kernel.

Every result is checked against two references that share no code with
the kernel: the dict-of-Fraction implementation it replaced (kept in
reference_multipoly.py) and sympy.Poly. Coefficients get large numerators
and denominators, and sums are built to cancel, because those are the
cases a common-denominator representation can get wrong.
"""

from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_multipoly import MultiPoly as RefPoly
from reference_multipoly import degree_in, partial_coefficient

from qrs.qcore import EXP_LIMIT, MultiPoly, _split, lincomb

VARS = ("u", "v", "x", "y")
BIG = 10 ** 30

# a fixed example set per test, and nothing written to a .hypothesis/ database
KERNEL = settings(max_examples=60, deadline=None, derandomize=True, database=None)

variables = st.lists(st.sampled_from(VARS), min_size=1, max_size=4, unique=True).map(tuple)
coefficients = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)


@st.composite
def polys(draw, over=None):
    """(variables, {exponent tuple: Fraction}) over 1-4 variables."""
    names = over if over is not None else draw(variables)
    exps = st.tuples(*(st.integers(0, 5) for _ in names))
    return names, draw(st.dictionaries(exps, coefficients, max_size=7))


def both(spec):
    names, terms = spec
    return MultiPoly(names, terms), RefPoly(names, terms)


def agrees(p: MultiPoly, ref: RefPoly) -> bool:
    return p.vars == ref.vars and dict(p.terms) == ref.terms


def canonical(p: MultiPoly) -> bool:
    return p._den > 0 and 0 not in p._num.values() and gcd(p._den, *p._num.values()) == 1


def to_sympy(p: MultiPoly, names):
    """p as a sympy.Poly over QQ in the variables `names` (a superset)."""
    gens = sympy.symbols(names)
    where = [names.index(v) for v in p.vars]
    terms = {}
    for exp, c in p.terms.items():
        full = [0] * len(names)
        for i, e in zip(where, exp):
            full[i] = e
        terms[tuple(full)] = sympy.Rational(c.numerator, c.denominator)
    return sympy.Poly.from_dict(terms, *gens, domain=sympy.QQ) if terms else \
        sympy.Poly(0, *gens, domain=sympy.QQ)


@KERNEL
@given(polys(), polys(), coefficients)
def test_operations_match_fraction_reference(a_spec, b_spec, s):
    (a, ra), (b, rb) = both(a_spec), both(b_spec)
    for got, want in ((a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb),
                      (-a, -ra), (a * s, ra * s), (s - a, s - ra), (a ** 3, ra ** 3)):
        assert agrees(got, want)
        assert canonical(got)
    assert (a == b) == (ra == rb)
    assert a.key() == ra.key() and str(a) == str(ra)
    assert a.to_json_dict() == ra.to_json_dict()
    assert all(degree_in(a, v) == degree_in(ra, v) for v in VARS)


@KERNEL
@given(polys(), st.lists(st.sampled_from(("a",) + VARS + ("z",)), unique=True))
def test_split_matches_partial_coefficients(spec, names):
    # names may be empty, and may hold names that p lacks
    names = tuple(sorted(names))
    p, rp = both(spec)
    want = {}
    for exp in rp.terms:
        named = dict(zip(rp.vars, exp))
        idx = tuple(named.get(v, 0) for v in names)
        want[idx] = partial_coefficient(rp, dict(zip(names, idx)))
    got = _split(p, names)
    assert list(got) == sorted(want)
    for idx, c in got.items():
        assert c and canonical(c) and agrees(c, want[idx])


@KERNEL
@given(st.data())
def test_products_and_sums_match_sympy(data):
    names = data.draw(variables)
    a, _ = both(data.draw(polys(names)))
    b, _ = both(data.draw(polys(names)))
    pa, pb = to_sympy(a, names), to_sympy(b, names)
    assert to_sympy(a * b, names) == pa * pb
    assert to_sympy(a + b, names) == pa + pb
    assert to_sympy(a - b, names) == pa - pb


@KERNEL
@given(polys(), polys(), polys())
def test_ring_axioms(a_spec, b_spec, c_spec):
    a, b, c = (MultiPoly(*spec) for spec in (a_spec, b_spec, c_spec))
    zero, one = MultiPoly.const(0), MultiPoly.const(1)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a
    assert not a - a and not a * zero


@KERNEL
@given(polys(), polys(), polys(), coefficients)
def test_equal_values_have_equal_canonical_forms(a_spec, b_spec, c_spec, s):
    a, b, c = (MultiPoly(*spec) for spec in (a_spec, b_spec, c_spec))
    names, terms = a_spec
    routes = [
        ((a + b) * c, a * c + b * c),
        # the sum cancels back to a; multiplying b by 0 widens a to the same variables
        ((a + b) - b, a + b * 0),
        (a + c - c - a, (a - a) * c),
        (MultiPoly(tuple(reversed(names)), {e[::-1]: t for e, t in reversed(terms.items())}), a),
    ]
    if s:
        routes.append(((a * s) * (1 / s), a))
    for left, right in routes:
        assert left == right
        assert canonical(left) and canonical(right)
        assert left.key() == right.key() and hash(left) == hash(right)
        assert left.to_json_dict() == right.to_json_dict()
        assert str(left) == str(right)


@st.composite
def lincomb_terms(draw):
    """Terms (scalar, factor specs) with their own 1-4 variables each; zero
    scalars and zero factors come up, and some sums cancel to zero."""
    terms = draw(st.lists(st.tuples(st.one_of(st.just(Fraction(0)), coefficients),
                                    st.lists(polys(), max_size=4)), max_size=5))
    if terms and draw(st.booleans()):
        c, specs = terms[0]
        terms.append((-c, specs))
    return terms


@KERNEL
@given(lincomb_terms())
def test_lincomb_matches_the_sum_of_products(terms):
    got = lincomb([(c, *(MultiPoly(*spec) for spec in specs)) for c, specs in terms])
    want = RefPoly((), {})
    want_sympy = to_sympy(MultiPoly((), {}), VARS)
    for c, specs in terms:
        prod = RefPoly.const(c)
        prod_sympy = to_sympy(MultiPoly.const(c), VARS)
        for spec in specs:
            prod = prod * RefPoly(*spec)
            prod_sympy = prod_sympy * to_sympy(MultiPoly(*spec), VARS)
        want = want + prod
        want_sympy = want_sympy + prod_sympy
    assert agrees(got, want)
    assert canonical(got)
    assert to_sympy(got, VARS) == want_sympy


def test_lincomb_of_nothing_is_zero():
    assert not lincomb([]) and lincomb([]).vars == ()
    x = MultiPoly.var("x")
    assert not lincomb([(x,), (-1, x)])
    assert lincomb([(Fraction(3, 4),), (2, 1)]) == Fraction(11, 4)


def test_lincomb_product_past_the_field_limit_raises():
    top = EXP_LIMIT - 1
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    near = MultiPoly(("x", "y"), {(top - 1, top - 1): 1})
    assert dict(lincomb([(1, near, x, y)]).terms) == {(top, top): Fraction(1)}
    with pytest.raises(OverflowError):
        lincomb([(1, x), (2, near, y, y)])
    # cubing y^top would carry out of y's field into x's and clear the
    # guard bit, so the intermediate product must be caught
    ytop = MultiPoly(("x", "y"), {(0, top): 1})
    with pytest.raises(OverflowError):
        lincomb([(1, ytop, ytop, ytop)])


@KERNEL
@given(polys(), st.integers(0, 6))
def test_power_matches_repeated_multiplication(spec, n):
    names, terms = spec
    for p in (MultiPoly(names, terms), MultiPoly(names, dict(list(terms.items())[:1]))):
        want = MultiPoly.const(1, p.vars)
        for _ in range(n):
            want = want * p
        got = p ** n
        assert got == want and got.vars == want.vars and canonical(got)


def test_terms_is_a_read_only_fraction_view():
    p = MultiPoly(("y", "x"), {(1, 2): Fraction(3, 4), (0, 0): 2})
    assert dict(p.terms) == {(2, 1): Fraction(3, 4), (0, 0): Fraction(2)}
    with pytest.raises(TypeError):
        p.terms[(0, 0)] = Fraction(1)


def test_exponent_past_its_field_raises_overflow():
    x = MultiPoly.var("x")
    with pytest.raises(OverflowError):
        x ** (2 ** 31)
    assert (x * MultiPoly.var("y") ** 2) ** (2 ** 30 - 1) == \
        MultiPoly(("x", "y"), {(2 ** 30 - 1, 2 ** 31 - 2): 1})
    with pytest.raises(OverflowError):
        (x * MultiPoly.var("y") ** 2) ** (2 ** 30)
    with pytest.raises(OverflowError):
        MultiPoly(("x",), {(EXP_LIMIT,): 1})
    with pytest.raises(ValueError):
        MultiPoly(("x",), {(-1,): 1})


def test_two_variable_product_at_the_field_limit():
    top = EXP_LIMIT - 1
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    at_limit = MultiPoly(("x", "y"), {(top - 1, top - 1): 1})
    assert dict((at_limit * x * y).terms) == {(top, top): Fraction(1)}
    # one more in either field must not carry into the other variable
    for factor in (x * x, y * y):
        with pytest.raises(OverflowError):
            at_limit * factor
