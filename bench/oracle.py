"""Independent oracle for the polynomial families.

Both sides of an exact identity are built by the same qrs kernel, so a
kernel that is fast but consistently wrong (say, one whose products all
come out zero) could still report exact-pass. These definitions share no
code with qrs: they expand the defining sums and products over plain
`fractions.Fraction`, with polynomials as dicts from exponent tuples to
coefficients, and the big q-Hermite family comes from its three-term
recurrence rather than from the circle representation qrs uses.
"""

from __future__ import annotations

from fractions import Fraction


def _mul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _add(a: dict, b: dict, scale=1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + scale * c
    return {e: c for e, c in out.items() if c}


def gauss_binom(n: int, k: int, q: Fraction) -> Fraction:
    """[n, k]_q = prod_{i=1..k} (1 - q^(n-k+i)) / (1 - q^i)."""
    if k < 0 or k > n:
        return Fraction(0)
    out = Fraction(1)
    for i in range(1, k + 1):
        out = out * (1 - q ** (n - k + i)) / (1 - q ** i)
    return out


def cauchy(n: int, q: Fraction) -> dict:
    """P_n(x, y) = prod_{k<n} (x - q^k y), exponents (x, y)."""
    out = {(0, 0): Fraction(1)}
    for k in range(n):
        out = _mul(out, {(1, 0): Fraction(1), (0, 1): -q ** k})
    return out


def rs(n: int, q: Fraction) -> dict:
    """h_n(x|q) = sum_k [n, k]_q x^k, exponents (x,)."""
    return {(k,): gauss_binom(n, k, q) for k in range(n + 1)}


def brs(n: int, q: Fraction) -> dict:
    """h_n(x, y|q) = sum_k [n, k]_q P_k(x, y), exponents (x, y)."""
    out = {}
    for k in range(n + 1):
        out = _add(out, cauchy(k, q), gauss_binom(n, k, q))
    return out


def big_qhermite(n: int, a: Fraction, q: Fraction) -> dict:
    """H_n(x; a|q) from 2x H_k = H_(k+1) + a q^k H_k + (1 - q^k) H_(k-1)."""
    prev, cur = {}, {(0,): Fraction(1)}
    for k in range(n):
        nxt = _add(_mul(cur, {(1,): Fraction(2), (0,): -a * q ** k}), prev, -(1 - q ** k))
        prev, cur = cur, nxt
    return cur


def _canonical(variables, terms: dict) -> dict:
    """Key each term by its (variable, exponent) pairs with exponent > 0."""
    return {tuple((v, e) for v, e in zip(variables, exp) if e): c
            for exp, c in terms.items() if c}


def _from_qrs(poly) -> dict:
    d = poly.to_json_dict()
    return _canonical(d["vars"], {tuple(t["exp"]): Fraction(t["coef"])
                                  for t in d["terms"]})


def checks(q: Fraction, a: Fraction, nmax: int):
    """(label, mismatch or None) for each family and degree 0..nmax."""
    from qrs import big_qhermite_poly, brs_poly, cauchy_poly, rs_poly
    pairs = [
        ("cauchy_poly", lambda n: cauchy_poly(n, q), lambda n: _canonical("xy", cauchy(n, q))),
        ("rs_poly", lambda n: rs_poly(n, q), lambda n: _canonical("x", rs(n, q))),
        ("brs_poly", lambda n: brs_poly(n, q), lambda n: _canonical("xy", brs(n, q))),
        ("big_qhermite_poly", lambda n: big_qhermite_poly(n, a, q),
         lambda n: _canonical("x", big_qhermite(n, a, q))),
    ]
    for name, ours, theirs in pairs:
        for n in range(nmax + 1):
            got, want = _from_qrs(ours(n)), theirs(n)
            bad = None
            for key in sorted(set(got) | set(want)):
                if got.get(key, 0) != want.get(key, 0):
                    bad = f"coefficient {key}: qrs {got.get(key, 0)} vs oracle {want.get(key, 0)}"
                    break
            yield f"{name}(n={n}, q={q}, a={a})", bad
