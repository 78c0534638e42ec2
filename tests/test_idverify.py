"""Unit tests for the identity registry and verification driver."""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest
import reference_numeric
from hypothesis import given, settings
from hypothesis import strategies as st

from qrs import idverify, qcore
from qrs.families import brs_poly
from qrs.fps import TruncSeries
from qrs.idverify import get_case, registry, verify, verify_all
from qrs.qcore import MultiPoly, power_sum, qbinom, qfac, tri
from qrs.quadrature import QuadratureError

MODES = {"exact-poly", "exact-series", "numeric-complex", "quadrature"}


def test_registry_shape():
    cases = registry()
    assert len(cases) >= 28
    ids = [c.id for c in cases]
    assert len(set(ids)) == len(ids)
    for c in cases:
        assert c.mode in MODES
        assert c.description
        assert c.symbols
        assert c.domain
        assert isinstance(c.default_order, int) and c.default_order >= 0
        assert get_case(c.id) is c


def test_every_case_passes_with_defaults():
    reports = verify_all()
    cases = registry()
    assert [r.id for r in reports] == [c.id for c in cases]
    for rep in reports:
        assert rep.passed(), f"{rep.id}: {rep.witness}"
        assert rep.elapsed_ms is not None and rep.elapsed_ms >= 0


def test_exact_cases_pass_at_three_rational_q():
    for case in registry():
        if not case.mode.startswith("exact"):
            continue
        for q in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)):
            rep = verify(case.id, params={"q": q})
            assert rep.passed(), f"{case.id} at q={q}: {rep.witness}"
            assert rep.status == "exact-pass"


def test_change_of_base_accepts_negative_p():
    # the second base may be the negative of the first
    for cid, params in (
            ("cb-hermite", {"p": Fraction(-2, 5), "q": Fraction(2, 5)}),
            ("cb-big", {"p": Fraction(-1, 2), "q": Fraction(1, 2)}),
            ("cb-big", {"p": Fraction(-1, 3), "q": Fraction(1, 3)})):
        rep = verify(cid, order=5, params=params)
        assert rep.passed(), f"{cid} {params}: {rep.witness}"


def test_exact_pass_is_truncation_monotone():
    # a pass at order N forces identical coefficients at every lower order
    for cid in ("mehler-brs", "rogers-brs"):
        for order in (3, 4, 5, 6):
            assert verify(cid, order=order).passed(), (cid, order)
    for cid in ("linear-brs-double", "hlm-relation"):
        for order in (2, 3, 4, 5):
            assert verify(cid, order=order).passed(), (cid, order)


def test_verify_all_is_deterministic():
    a = [r.to_json_dict() for r in verify_all(order=4, seed=0)]
    b = [r.to_json_dict() for r in verify_all(order=4, seed=0)]
    assert a == b


def test_numeric_draws_depend_on_seed_but_always_pass():
    one = verify("nonsym-poisson", seed=0)
    two = verify("nonsym-poisson", seed=1)
    assert one.passed() and two.passed()
    assert one.params["seed"] == 0 and two.params["seed"] == 1
    assert one.residual != two.residual  # different deterministic draws


def test_perturbation_fails_with_witness_in_every_mode():
    for cid in ("mehler-rs", "linear-rs", "gf-big", "closed-H-qq",
                "askey-wilson", "ortho-big"):
        rep = verify(cid, order=4, perturb=True)
        assert not rep.passed(), cid
        assert rep.status == "fail"
        assert rep.witness
        assert len(rep.witness) <= 500
        clean = verify(cid, order=4)
        assert clean.passed(), cid


@pytest.mark.parametrize("tol", [1e-6, 0.1, 1.0, 10.0])
def test_numeric_negative_controls_fail_at_any_tolerance(tol):
    cases = [c.id for c in registry() if c.mode in ("numeric-complex", "quadrature")]
    assert len(cases) == 14
    for cid in cases:
        rep = verify(cid, params={"tol": tol}, perturb=True)
        assert rep.status == "fail", (cid, rep.residual)


def test_every_negative_control_fails_at_order_2():
    reports = verify_all(order=2, perturb=True)
    assert len(reports) == 36
    assert [r.id for r in reports if r.status != "fail"] == []


def test_series_witness_names_first_bad_coefficient():
    rep = verify("mehler-rs", order=4, perturb=True)
    assert rep.witness.startswith("coefficient of t^0")
    rep = verify("linear-rs", order=3, perturb=True)
    assert rep.witness.startswith("n=0, m=0")


def test_report_json_schema():
    rep = verify("linear-rs", order=2)
    d = rep.to_json_dict()
    assert sorted(d.keys()) == ["elapsed_ms", "id", "mode", "order",
                                "paper_ref", "params", "residual", "status",
                                "witness"]
    assert d["id"] == "linear-rs"
    assert d["status"] == "exact-pass"
    assert d["params"]["q"] == "1/2"
    assert d["elapsed_ms"] is None  # timing excluded unless asked for
    dt = rep.to_json_dict(include_timing=True)
    assert dt["elapsed_ms"] >= 0


def test_unknown_id_and_bad_params_raise():
    with pytest.raises(ValueError):
        get_case("no-such-identity")
    with pytest.raises(ValueError):
        verify("no-such-identity")
    with pytest.raises(ValueError):
        verify("mehler-rs", params={"bogus": 1})
    with pytest.raises(ValueError):
        verify("mehler-rs", params={"q": Fraction(3, 2)})


@pytest.mark.parametrize("case_id, name, params", [
    ("ortho-big", "n", {"n": 2.5, "m": 3}),
    ("ortho-big", "n", {"n": 3.9, "m": 3}),
    ("ortho-big", "m", {"n": 3, "m": 3.9}),
    ("lemma-2.3", "nmax", {"nmax": Fraction(5, 2)}),
    ("lemma-2.3", "nmax", {"nmax": -1}),
])
def test_integer_parameters_reject_fractional_and_negative_values(case_id, name, params):
    # int() would truncate these, and the check would run at another degree;
    # nmax = -1 would sweep nothing and report exact-pass
    with pytest.raises(ValueError, match=f"parameter {name} must be a nonnegative integer"):
        verify(case_id, params=params)


def test_integer_parameters_accept_integral_values():
    assert verify("ortho-big", params={"n": 3, "m": 3}).passed()
    assert verify("ortho-big", params={"n": 2, "m": 3.0}).passed()
    # the CLI parses --set nmax=6 as Fraction(6)
    assert verify("lemma-2.3", params={"nmax": Fraction(6)}).status == "exact-pass"


def test_exact_sweep_reports_the_first_coefficient_of_a_bivariate_difference():
    x = MultiPoly.var("x")
    a = TruncSeries(("s", "t"), 3, {(0, 0): Fraction(1), (1, 1): x, (0, 2): 2 * x})
    b = TruncSeries(("s", "t"), 3, {(0, 0): Fraction(1), (1, 1): x + 1, (2, 0): Fraction(3)})
    # a - b is 2x at (0, 2), -1 at (1, 1) and -3 at (2, 0): (0, 2) comes first
    sweep = idverify._VERDICTS["exact-series"]
    assert sweep([("n=0", a, a), ("n=1", a, b)], None, False) \
        == ("fail", None, "n=1: coefficient of s^0 t^2: 2*x")
    assert sweep([("", a, a)], None, False) == ("exact-pass", None, None)
    assert sweep([("", a, a)], None, True) == ("fail", None, "coefficient of s^0 t^0: 1")
    assert idverify._VERDICTS["exact-poly"] is sweep


@pytest.mark.parametrize("order", [2.9, True, -1, "2"])
def test_order_rejects_non_integral_values(order):
    # int() would run 2.9 as order 2 and True as order 1, and report that
    with pytest.raises(ValueError, match="order must be a nonnegative integer"):
        verify("mehler-rs", order=order)
    with pytest.raises(ValueError, match="order must be a nonnegative integer"):
        verify_all(order=order)   # the first case rejects it before any work


def test_order_accepts_integral_values():
    for order in (2, 2.0, Fraction(2)):
        rep = verify("mehler-rs", order=order)
        assert rep.status == "exact-pass" and rep.order == 2
        assert type(rep.order) is int


def test_series_sides_must_reach_the_reported_order(monkeypatch):
    # an order-8 side against an order-4 one that differs only at t^6 would
    # compare equal through order 4 and read as an exact pass at order 8
    t8 = TruncSeries.variable(("t",), 8, "t")
    t4 = TruncSeries.variable(("t",), 4, "t")

    def runner(order, q, params):
        yield "n=0", t8, t8
        yield "n=1", 1 + t8 + TruncSeries.monomial(("t",), 8, (6,)), 1 + t4

    stub = idverify.IdentityCase(
        id="stub", description="stub", mode="exact-series", default_order=8,
        symbols="t", domain="any", defaults={"q": Fraction(1, 2)}, runner=runner)
    monkeypatch.setitem(idverify._REGISTRY, "stub", stub)
    with pytest.raises(RuntimeError, match="n=1: a series side is not of the reported order 8"):
        verify("stub")
    with pytest.raises(RuntimeError, match="n=0: a series side is not of the reported order 6"):
        verify("stub", order=6)


def test_only_numeric_draws_build_a_random_generator(monkeypatch):
    drawn = []
    rng_for = idverify._rng_for
    monkeypatch.setattr(idverify, "_rng_for",
                        lambda case_id, seed: drawn.append(case_id) or rng_for(case_id, seed))
    reports = verify_all(order=2)
    assert drawn == [r.id for r in reports if r.mode == "numeric-complex"]


@pytest.mark.parametrize("case_id", ["gf-big", "askey-wilson", "ortho-big"])
@pytest.mark.parametrize("tol", [-1, 0, -0.0, float("nan"), float("inf")])
def test_tol_must_be_finite_and_positive(case_id, tol):
    # a tol no residual can meet would read as a failed identity
    with pytest.raises(ValueError, match="parameter tol must be finite and positive"):
        verify(case_id, params={"tol": tol})


NUMERIC_IDS = [c.id for c in registry() if c.mode == "numeric-complex"]


@pytest.mark.parametrize("case_id", NUMERIC_IDS)
@pytest.mark.parametrize("q", [1.0, -1.0, float("inf"), float("nan")])
def test_numeric_q_must_lie_in_the_unit_disc(case_id, q):
    # every numeric-complex case declares |q| < 1: at |q| = 1 its sums
    # divide by zero, and at inf or NaN they never settle, which would read
    # as a failed identity
    assert len(NUMERIC_IDS) == 8
    with pytest.raises(ValueError, match=r"parameter q must satisfy \|q\| < 1"):
        verify(case_id, params={"q": q})


@pytest.mark.parametrize("case_id", NUMERIC_IDS)
@pytest.mark.parametrize("q", [0.999, 1 - 1e-9])
def test_numeric_q_near_one_reports_or_fails_the_check(case_id, q):
    # near q = 1 the float (q;q)_n underflows to 0, the series stop
    # settling and the sums may overflow: a case must then report a finite
    # residual, or raise the RuntimeError the CLI prints as "check failed",
    # never a ZeroDivisionError traceback or an infinite or NaN residual
    # (phi32-transform at q = 0.999 read "fail" with residual inf)
    try:
        rep = verify(case_id, params={"q": q})
    except RuntimeError:   # QuadratureError included
        return
    assert rep.status in ("pass", "fail")
    assert math.isfinite(rep.residual), rep.witness


@pytest.mark.parametrize("n, m", [(9, 3), (3, 9), (400, 400)])
def test_ortho_big_rejects_degrees_above_its_domain(n, m):
    # orthogonality holds at every degree, but past n, m = 8 the float
    # moment integral drifts from (q;q)_n: at n = m = 400 it read
    # 0.45186042 against 0.45186055, a wrong failure
    with pytest.raises(ValueError, match="parameters n and m must be at most 8"):
        verify("ortho-big", params={"n": n, "m": m})
    assert verify("ortho-big", params={"n": 8, "m": 8}).passed()


def test_a_looser_tol_reaches_the_quadrature():
    # at q = 0.9 the askey-wilson weight integral is large enough that its
    # trapezoid sums round at about 2e-7, so under the default tol (integral
    # tol 1e-10) the rule stops at its rounding floor. The runner integrates
    # to tol * 1e-2, so tol = 1e-4 lets the rule stop before the floor, and
    # the verdict still holds the result to 1e-4 relative.
    with pytest.raises(QuadratureError, match="rounding floor"):
        verify("askey-wilson", params={"q": 0.9})
    rep = verify("askey-wilson", params={"q": 0.9, "tol": 1e-4})
    assert rep.status == "pass" and rep.residual <= 1e-12


# -- cross-identity consistency -----------------------------------------------


def test_two_linearizations_express_the_same_product():
    # both cases check an expansion of h_n h_m with exact coefficients, so
    # a simultaneous pass at shared q pins their right sides to each other
    for q in (Fraction(1, 2), Fraction(2, 5)):
        simple = verify("linear-brs-simple", order=6, params={"q": q})
        double = verify("linear-brs-double", order=6, params={"q": q})
        assert simple.status == "exact-pass"
        assert double.status == "exact-pass"


def test_product_and_expansion_transforms_are_mutual_inverses():
    # substituting one triangular transform into the other telescopes to
    # the identity: sum over k+j=r of A_k(n,m) L_j(n-k,m-k) = [r = 0],
    # in both composition orders, as polynomials in x
    x = MultiPoly.var("x")

    def a_weight(n, m, k, q):
        return qbinom(n, k, q) * qbinom(m, k, q) * qfac(q, k) \
            * q ** tri(k) * (-x) ** k

    def l_weight(n, m, k, q):
        return qbinom(n, k, q) * qbinom(m, k, q) * qfac(q, k) * x ** k

    for q in (Fraction(1, 2), Fraction(2, 5)):
        for n in range(7):
            for m in range(7):
                for r in range(min(n, m) + 1):
                    al = MultiPoly.const(0)
                    la = MultiPoly.const(0)
                    for k in range(r + 1):
                        j = r - k
                        if j > min(n - k, m - k):
                            continue
                        al = al + a_weight(n, m, k, q) \
                            * l_weight(n - k, m - k, j, q)
                        la = la + l_weight(n, m, k, q) \
                            * a_weight(n - k, m - k, j, q)
                    want = MultiPoly.const(1 if r == 0 else 0)
                    assert al == want, (n, m, r)
                    assert la == want, (n, m, r)


_OFF_DEFAULT_CASES = [
    ("askey_wilson", "askey-wilson", None,
     {"a": -0.35, "b": 0.25, "c": 0.2, "d": 0.1, "q": 0.4, "tol": 1e-9}),
    ("ortho_diagonal", "ortho-big", None, {"n": 3, "m": 3, "a": 0.3, "q": 0.4, "tol": 1e-8}),
    ("ortho_off_diagonal", "ortho-big", None,
     {"n": 2, "m": 4, "a": -0.2, "q": 0.35, "tol": 1e-9}),
] + [
    (cid, cid, None, {"q": 0.45, "a": 0.3, "t": 0.4, "tol": 1e-7})
    for cid in ("closed-H-qq", "closed-H-mqq", "closed-H-q2q", "closed-H-q2q3")
] + [
    ("zhang_wang", "zhang-wang", 4,
     {"b": Fraction(1, 7), "s": Fraction(1, 3), "t": Fraction(1, 4),
      "v": Fraction(1, 5), "w": Fraction(0), "q": Fraction(2, 5)}),
]


@pytest.mark.parametrize("case_id, order, params", [c[1:] for c in _OFF_DEFAULT_CASES],
                         ids=[c[0] for c in _OFF_DEFAULT_CASES])
def test_check_helpers_report_exactly_what_verify_reports(case_id, order, params):
    # a registered check runs at off-default parameters through
    # verify(id, params=...) alone: it passes, reports exactly the caller's
    # parameters, and a second call repeats its report field for field
    rep = verify(case_id, order=order, params=params)
    assert rep.passed(), rep.witness
    assert rep.params == params
    assert rep.to_json_dict() == verify(case_id, order=order, params=params).to_json_dict()


# -- symmetric (n, m) sweeps ---------------------------------------------------

SYMMETRIC = ["linear-rs", "linear-brs-simple", "hlm-relation", "linear-mixed",
             "mixed-identity", "askey-ismail"]


def _sides_of(case_id, q, monkeypatch):
    """The sides(n, m) a case hands to idverify._symmetric_sweep, or None if
    its runner does not call it."""
    caught = {}
    monkeypatch.setattr(idverify, "_symmetric_sweep",
                        lambda order, sides: caught.update(sides=sides))
    case = get_case(case_id)
    case.runner(4, q, {**case.defaults, "q": q})
    monkeypatch.undo()
    return caught.get("sides")


def test_symmetric_sweeps_are_the_listed_cases(monkeypatch):
    swept = [c.id for c in registry() if c.mode == "exact-poly"
             and _sides_of(c.id, Fraction(1, 2), monkeypatch) is not None]
    assert swept == SYMMETRIC


@pytest.mark.parametrize("case_id", SYMMETRIC)
@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(-3, 7)])
def test_symmetric_sides_agree_when_n_and_m_swap(case_id, q, monkeypatch):
    # the sweep reports (m, n) with the sides built at (n, m); both are built
    # here, each on its own
    sides = _sides_of(case_id, q, monkeypatch)
    for m in range(5):
        for n in range(m):
            assert sides(n, m) == sides(m, n), (n, m)


@pytest.mark.parametrize("case_id", SYMMETRIC)
def test_symmetric_sweeps_report_every_ordered_pair(case_id):
    case = get_case(case_id)
    labels = [label for label, _, _ in case.runner(4, Fraction(1, 2), case.defaults)]
    assert labels == [f"n={n}, m={m}" for n in range(5) for m in range(5)]


# -- numeric coefficient recurrences --------------------------------------------


def _rogers_sum(s, t, q, big):
    return sum(t ** n * s ** (big - n) / (qfac(q, n) * qfac(q, big - n))
               for n in range(big + 1))


def _gen_big_1_sum(a, t, q, n):
    return sum(q ** tri(n - 2 * k) * a ** (n - 2 * k) * t ** (n - k)
               / (qfac(q * q, k) * qfac(q, n - 2 * k)) for k in range(n // 2 + 1))


def _gen_big_2_sum(a, t, q, n):
    return sum((-1) ** k * q ** (k * k) * a ** k * t ** (n + k)
               / (qfac(q * q, k) * qfac(q, n - k)) for k in range(n + 1))


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(97, 100), Fraction(-3, 7)])
@pytest.mark.parametrize("a, s, t", [
    (Fraction(2, 3), Fraction(-1, 5), Fraction(3, 7)),
    (Fraction(-5, 4), Fraction(7, 3), Fraction(-2, 9)),
])
def test_coefficient_recurrences_equal_their_defining_sums(q, a, s, t):
    # exact over Q, term by term: the forward recurrences and the finite
    # double sums they replace are the same sequences
    top = 30
    assert list(islice(idverify._rogers_weights(s, t, q), top + 1)) == [
        _rogers_sum(s, t, q, n) for n in range(top + 1)]
    assert list(islice(idverify._gen_big_1_coefs(a, t, q), top + 1)) == [
        _gen_big_1_sum(a, t, q, n) for n in range(top + 1)]
    assert list(islice(idverify._gen_big_2_coefs(a, t, q), top + 1)) == [
        _gen_big_2_sum(a, t, q, n) for n in range(top + 1)]


def test_binomial_sum_and_its_alternating_form_invert():
    # q-binomial inversion: the plain transform of the alternating one, and
    # the alternating transform of the plain one, give back the sequence
    rng = random.Random(20061)
    x, y, a = (MultiPoly.var(v) for v in "xya")
    for _ in range(10):
        den = rng.randint(2, 9)
        q = Fraction(rng.choice((-1, 1)) * rng.randint(1, den - 1), den)
        var = rng.choice((y, a))
        top = rng.randint(0, 6)
        values = [MultiPoly(("x", "y"), {(i, j): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                         for i in range(3) for j in range(2)})
                  for _ in range(top + 1)]
        for alternating in (False, True):
            there = [idverify._binomial_sum(n, q, var, values, alternating)
                     for n in range(top + 1)]
            back = [idverify._binomial_sum(n, q, var, there, not alternating)
                    for n in range(top + 1)]
            assert back == values
    # the weights at n = 2: [2,1] = 1 + q, and q^C(2,2) = q on the alternating side
    q, v = Fraction(1, 3), [MultiPoly.const(1), x, x * x]
    assert idverify._binomial_sum(2, q, y, v) == x * x + (1 + q) * y * x + y * y
    assert idverify._binomial_sum(2, q, y, v, alternating=True) == \
        x * x - (1 + q) * y * x + q * y * y


# a fixed example set, and nothing written to a .hypothesis/ database
POWER_SUMS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@st.composite
def factor_lists(draw):
    """Eight polynomials over x, y, both or neither, some of them zero."""
    names = draw(st.sampled_from([(), ("x",), ("y",), ("x", "y")]))
    exps = st.tuples(*(st.integers(0, 3) for _ in names))
    coefs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    return [MultiPoly(names, draw(st.dictionaries(exps, coefs, max_size=4)))
            for _ in range(8)]


def _gauss(n, k, q):
    """[n,k] by its product formula, apart from qcore's Pascal recurrence."""
    return math.prod((1 - q ** (n - k + i)) / (1 - q ** i) for i in range(1, k + 1))


def _literal_sum(q, n, m, alternating, var, factors):
    """sum_k w_k var^k factors[k], one `+` at a time, with w_k = [n,k][m,k](q;q)_k
    ([n,k] when m is None), times (-1)^k q^(k(k-1)/2) when alternating."""
    total = MultiPoly.const(0)
    for k, f in enumerate(factors):
        w = _gauss(n, k, q)
        if m is not None:
            w *= _gauss(m, k, q) * math.prod(1 - q ** i for i in range(1, k + 1))
        if alternating:
            w *= (-1) ** k * q ** (k * (k - 1) // 2)
        total = total + Fraction(w) * var ** k * f
    return total


@POWER_SUMS
@given(n=st.integers(0, 7), m=st.integers(0, 7),
       q=st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(2, 5), Fraction(-3, 7),
                          Fraction(5, 6), Fraction(-1, 9)]),
       alternating=st.booleans(), name=st.sampled_from("xy"), factors=factor_lists())
def test_power_sums_match_their_literal_sums(n, m, q, alternating, name, factors):
    # _lin_sum and _binomial_sum read memoised weight rows, (n, m) sorted,
    # and pack var^k straight over the sum's variables
    var = MultiPoly.var(name)
    top = min(n, m)
    got = idverify._lin_sum(n, m, q, factors.__getitem__, alternating, var)
    assert got == _literal_sum(q, n, m, alternating, var, factors[:top + 1])
    got = idverify._binomial_sum(n, q, var, factors, alternating)
    assert got == _literal_sum(q, n, None, alternating, var, factors[n::-1])


def test_power_sum_takes_a_single_variable():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    for not_a_variable in (x * y, x * x, 2 * x, x + 1, MultiPoly(("x", "y"), {(0, 1): 1})):
        with pytest.raises(ValueError, match="is not a single variable"):
            power_sum(not_a_variable, [1], [y])


RECURRENCE_CASES = {"rogers-big": reference_numeric.rogers_big_lhs,
                    "gen-big-1": reference_numeric.gen_big_1_lhs,
                    "gen-big-2": reference_numeric.gen_big_2_lhs}


@pytest.mark.parametrize("case_id", sorted(RECURRENCE_CASES))
def test_recurrence_left_sides_match_the_frozen_sums(case_id):
    # the same draws through the runner and through the O(N^2) sums it
    # replaced, at the case's default q and the tol verify() hands it
    case = get_case(case_id)
    q, tol = case.defaults["q"], case.defaults["tol"] / 10
    for seed in range(60):
        new = case.runner(random.Random(seed), q, tol)[1][0]
        old = RECURRENCE_CASES[case_id](random.Random(seed), q, tol)
        assert abs(new - old) <= 1e-12 * abs(old), (seed, new, old)


@pytest.mark.parametrize("case_id", sorted(RECURRENCE_CASES))
def test_recurrence_cases_pass_at_twenty_seeds(case_id):
    for seed in range(20):
        rep = verify(case_id, seed=seed)
        assert rep.status == "pass", (seed, rep.witness)


# -- work -----------------------------------------------------------------------


def test_exact_term_pairs_stay_at_their_counts(monkeypatch):
    # a timing-free guard on the exact cases: every product of two term dicts,
    # series layers included, goes through qcore._mul_into. Before the
    # Euler prefactors met their dense series one factor at a time, the
    # symmetric sweeps built each unordered pair once and linear-brs-double
    # summed its left side over l first, verify_all() took 339,964 pairs:
    # mehler-brs 96,911, linear-brs-double 75,082, lemma-2.3 62,723 and
    # hlm-relation 40,145. lemma-2.3 took 27,023 before its right side became
    # a sum of Euler chains over shifted arguments. Before phi_series wrote
    # its Pochhammer factors down and lemma-2.3's left side became an Euler
    # chain, rather than dividing series, they took 183,211: mehler-brs
    # 47,778, lemma-2.3 17,251, rogers-brs 6,932, zhang-wang 1,832,
    # mehler-reduction 1,963 and lemma-2.2 1,013.
    counts = Counter()
    current = [None]
    mul_into, verify_one = qcore._mul_into, idverify.verify

    def counted(acc, small, big):
        counts[current[0]] += len(small) * len(big)
        return mul_into(acc, small, big)

    def verify_counted(case_id, **kwargs):
        current[0] = case_id
        return verify_one(case_id, **kwargs)

    monkeypatch.setattr(qcore, "_mul_into", counted)
    monkeypatch.setattr(idverify, "verify", verify_counted)
    # memo tables that earlier tests filled would hide the cost of the families
    qcore._table.cache_clear()
    assert all(rep.passed() for rep in verify_all())
    assert sum(counts.values()) <= 179_366
    assert counts["mehler-brs"] <= 46_459
    assert counts["lemma-2.3"] <= 16_210
    assert counts["linear-brs-double"] <= 56_658
    assert counts["hlm-relation"] <= 25_733
    assert counts["rogers-brs"] <= 6_035
    assert counts["mehler-reduction"] <= 1_867
    assert counts["zhang-wang"] <= 1_512
    assert counts["lemma-2.2"] <= 841
    # each pair product is built once per q: a second table costs nothing
    before = sum(counts.values())
    idverify._pair_products(brs_poly, Fraction(1, 2), 8)
    assert sum(counts.values()) == before
