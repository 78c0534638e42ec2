"""Acceptance gate: the eleven release criteria, one test per criterion.

Every test runs the shipped verification path at the contractual order,
tolerance, and time budget, and prints a single PASS line with the headline
numbers. Orders and tolerances here are the release contract; they must
not be loosened to make a failing check pass.
"""

import json
import subprocess
import time
from fractions import Fraction

from reference_multipoly import substitute

from qrs.families import (big_qhermite_poly, brs_poly, cauchy_poly,
                          change_base_c, rs_poly)
from qrs.fps import TruncSeries, euler_inv_series, euler_series, phi_series
from qrs.idverify import verify
from qrs.qcore import MultiPoly, qbinom, qfac, tri

Q_SET = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))

X = MultiPoly.var("x")
Y = MultiPoly.var("y")


def _pass(n: int, msg: str) -> None:
    print(f"criterion {n:02d} PASS: {msg}")


def _timed_verify(cid, order, params):
    started = time.perf_counter()
    rep = verify(cid, order=order, params=params)
    return rep, time.perf_counter() - started


def test_criterion_01_bilinear_kernel_exact_at_order_8():
    worst = 0.0
    for q in Q_SET:
        rep, dt = _timed_verify("mehler-brs", 8, {"q": q})
        assert rep.status == "exact-pass", f"q={q}: {rep.witness}"
        assert dt <= 60.0, f"q={q} took {dt:.1f}s (limit 60s)"
        worst = max(worst, dt)
    _pass(1, f"mehler-brs exact at order 8 for q=1/2, 1/3, 2/5 "
             f"(slowest {worst:.2f}s <= 60s)")


def test_criterion_02_rogers_formulas_exact():
    for q in Q_SET:
        rep, _ = _timed_verify("rogers-brs", 8, {"q": q})
        assert rep.status == "exact-pass", f"rogers-brs q={q}: {rep.witness}"
        rep, _ = _timed_verify("rogers2-brs", 7, {"q": q})
        assert rep.status == "exact-pass", f"rogers2-brs q={q}: {rep.witness}"
    _pass(2, "rogers-brs exact at total order 8 and rogers2-brs at total "
             "order 7 for q=1/2, 1/3, 2/5")


def test_criterion_03_polynomial_identities_to_degree_6():
    ids = ("linear-brs-double", "linear-brs-simple", "linear-mixed",
           "hlm-relation", "askey-ismail", "mixed-identity")
    worst = 0.0
    for cid in ids:
        for q in (Fraction(1, 2), Fraction(1, 3)):
            rep, dt = _timed_verify(cid, 6, {"q": q})
            assert rep.status == "exact-pass", f"{cid} q={q}: {rep.witness}"
            assert dt <= 10.0, f"{cid} q={q} took {dt:.1f}s (limit 10s)"
            worst = max(worst, dt)
    _pass(3, f"six h_n(x,y|q) polynomial identities exact for n,m <= 6 at "
             f"q=1/2, 1/3 (slowest {worst:.2f}s <= 10s)")


def test_criterion_04_y_zero_specializations():
    order = 8
    # (a) the bivariate Poisson kernel collapses to the classical product;
    # both the specialized closed form and the one-variable kernel pass
    for q in (Fraction(1, 2), Fraction(2, 5)):
        rep, _ = _timed_verify("mehler-reduction", order, {"q": q})
        assert rep.status == "exact-pass", f"mehler-reduction q={q}: {rep.witness}"
        rep, _ = _timed_verify("mehler-rs", order, {"q": q})
        assert rep.status == "exact-pass", f"mehler-rs q={q}: {rep.witness}"

    # (b) the double Rogers sum at y = 0: the h_(n+m)(x|q) double sum, the
    # surviving phi sum, and the classical four-factor product all agree
    for q in (Fraction(1, 2), Fraction(2, 5)):
        inv = [Fraction(1)]
        for n in range(1, order + 1):
            inv.append(inv[-1] / (1 - q ** n))
        dbl = TruncSeries(("s", "t"), order, {
            (i, j): rs_poly(i + j, q) * (inv[i] * inv[j])
            for i in range(order + 1) for j in range(order + 1 - i)})
        s1 = TruncSeries.variable(("s", "t"), order, "s")
        t1 = TruncSeries.variable(("s", "t"), order, "t")
        classical = euler_series(
            TruncSeries.monomial(("s", "t"), order, (1, 1), X), q)
        for c in (Fraction(1), X):
            classical = classical * euler_inv_series(s1.scale(c), q) \
                * euler_inv_series(t1.scale(c), q)
        reduced = euler_inv_series(s1, q) * euler_inv_series(s1.scale(X), q) \
            * euler_inv_series(t1.scale(X), q) \
            * phi_series((s1.scale(X),), (), q, t1)
        assert dbl == classical, f"double sum vs product at q={q}"
        assert reduced == classical, f"reduced phi form vs product at q={q}"

    # (c) both two-index linearization expansions collapse to the classical
    # linearization of h_n(x|q) h_m(x|q) when y = 0
    q = Fraction(1, 2)
    nmax = 8
    rs = [rs_poly(n, q) for n in range(2 * nmax + 1)]
    brs = [brs_poly(n, q) for n in range(2 * nmax + 1)]
    zero = {"y": Fraction(0)}
    for n in range(nmax + 1):
        for m in range(nmax + 1):
            lin = MultiPoly.const(0)
            for k in range(min(n, m) + 1):
                w = qbinom(n, k, q) * qbinom(m, k, q) * qfac(q, k)
                lin = lin + X ** k * rs[n + m - 2 * k] * w
            # the linearization formula itself
            assert lin == rs[n] * rs[m], (n, m)
            # simple two-index expansion, specialized
            rhs = MultiPoly.const(0)
            top = min(n, m)
            for l in range(top + 1):
                wl = qbinom(m, l, q) * qbinom(n, l, q) * qfac(q, l)
                for k in range(top + 1):
                    w = wl * qbinom(m - l, k, q) * qbinom(n - l, k, q) \
                        * qfac(q, k) * Fraction((-1) ** k) * q ** tri(k)
                    if not w:
                        continue
                    rhs = rhs + X ** l * Y ** k * brs[n + m - 2 * l - k] * w
            assert substitute(rhs, zero) == lin, (n, m)
            # double-sum expansion, specialized on both sides
            lhs2 = MultiPoly.const(0)
            rhs2 = MultiPoly.const(0)
            for k in range(n + 1):
                for l in range(m + 1):
                    w = qbinom(n, k, q) * qbinom(m, l, q)
                    lhs2 = lhs2 + X ** l * rs[n + m - k - l] * w
                    rhs2 = rhs2 + X ** l * rs[n - k] * rs[m - l] \
                        * (w * q ** (k * l))
            assert lhs2 == rhs2, (n, m)
    _pass(4, "y=0 collapses at order 8: Poisson kernel to the classical "
             "product, Rogers double sum to the four-factor product, both "
             "linearization expansions to the classical linearization")


def test_criterion_05_hermite_change_of_base():
    for p, q in ((Fraction(1, 3), Fraction(1, 2)),
                 (Fraction(-2, 5), Fraction(2, 5))):
        rep, _ = _timed_verify("cb-hermite", 8, {"p": p, "q": q})
        assert rep.status == "exact-pass", f"(p,q)=({p},{q}): {rep.witness}"
        assert change_base_c(2, 1, p, q) == p - q
    _pass(5, "base change for h_n(x|q) exact to n=8 at (p,q)=(1/3,1/2) and "
             "(-2/5,2/5); c_{2,0} = p - q")


def test_criterion_06_big_hermite_change_of_base():
    a, p, q = Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)
    rep, _ = _timed_verify("cb-big", 6, {"a": a, "p": p, "q": q})
    assert rep.status == "exact-pass", rep.witness
    expected = 4 * X ** 2 - 2 * (1 + p) * a * X \
        + MultiPoly.const(p * a ** 2 + p - 1)
    assert big_qhermite_poly(2, a, p) == expected
    _pass(6, "base change for H_n(x;a|p) exact to n=6 at a=1/4, "
             "(p,q)=(1/3,1/2); H_2 witness matches")


def test_criterion_07_operator_lemmas():
    rep, _ = _timed_verify("lemma-2.2", 8, None)
    assert rep.status == "exact-pass", rep.witness
    rep, _ = _timed_verify("zhang-wang", 8, None)
    assert rep.status == "exact-pass", rep.witness
    rep, _ = _timed_verify("zhang-wang", 8, {"w": Fraction(0)})
    assert rep.status == "exact-pass", f"w=0 reduction: {rep.witness}"
    rep, _ = _timed_verify("lemma-2.3", 8, {"nmax": 6})
    assert rep.status == "exact-pass", rep.witness
    _pass(7, "operator lemmas exact at series order 8 with n <= 6, "
             "including the w=0 reduction")


def test_criterion_08_poisson_kernel_numeric():
    rep = verify("nonsym-poisson", params={"q": 0.3}, seed=0)
    assert rep.passed(), rep.witness
    assert rep.residual <= 1e-10
    rep2 = verify("phi32-transform", params={"q": 0.3}, seed=0)
    assert rep2.passed(), rep2.witness
    assert rep2.residual <= 1e-10
    _pass(8, f"asymmetric Poisson kernel at q=0.3, five seeded draws, "
             f"residual {rep.residual:.2e} <= 1e-10; transformed form "
             f"{rep2.residual:.2e}")


def test_criterion_09_quadrature_integral_and_orthogonality():
    started = time.perf_counter()
    rep = verify("askey-wilson", params={"a": 0.3, "b": 0.25, "c": 0.2, "d": 0.1,
                                         "q": 0.5, "tol": 1e-8})
    dt = time.perf_counter() - started
    assert rep.passed(), rep.witness
    assert rep.residual <= 1e-8
    assert dt <= 5.0, f"weight integral took {dt:.1f}s (limit 5s)"
    q, a = 0.4, 0.3
    for n in range(6):
        for m in range(6):
            orep = verify("ortho-big", params={"n": n, "m": m, "a": a, "q": q, "tol": 1e-8})
            assert orep.passed(), f"(n,m)=({n},{m}): {orep.witness}"
    _pass(9, f"four-parameter weight integral within 1e-8 in {dt:.2f}s; "
             f"orthogonality matrix n,m <= 5 at q=0.4, a=0.3 within 1e-8")


def test_criterion_10_closed_product_integrals():
    worst = 0.0
    for cid in ("closed-H-qq", "closed-H-mqq", "closed-H-q2q",
                "closed-H-q2q3"):
        rep = verify(cid, params={"q": 0.3, "a": 0.1, "t": 0.2})
        assert rep.passed(), f"{cid}: {rep.witness}"
        assert rep.residual <= 1e-7
        worst = max(worst, rep.residual)
    _pass(10, f"all four closed product integrals at q=0.3, a=0.1, t=0.2 "
              f"within 1e-7 (worst residual {worst:.2e})")


def test_criterion_11_full_run_reproducible(tmp_path):
    outs = []
    worst = 0.0
    for name in ("one.json", "two.json"):
        path = tmp_path / name
        started = time.perf_counter()
        proc = subprocess.run(
            ["qrs", "verify-all", "--order", "6", "--seed", "0",
             "--output", str(path)],
            capture_output=True, text=True, timeout=600)
        dt = time.perf_counter() - started
        assert proc.returncode == 0, proc.stderr
        assert dt <= 600.0
        worst = max(worst, dt)
        outs.append(path.read_bytes())
    assert outs[0] == outs[1], "full-run JSON is not byte-identical"
    rows = json.loads(outs[0])
    assert len(rows) >= 28
    failures = [r["id"] for r in rows if r["status"] not in ("exact-pass", "pass")]
    assert not failures, failures
    _pass(11, f"verify-all at order 6, seed 0: {len(rows)} checks, zero "
              f"failures, byte-identical JSON twice (slowest run {worst:.1f}s "
              f"<= 600s)")
