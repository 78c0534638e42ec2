"""Frozen reference for the MultiPoly kernel tests: the dict-of-Fraction
implementation that `qrs.qcore.MultiPoly` replaced.

Terms are a dict from exponent tuples to nonzero Fractions and every
operation works term by term in Fraction arithmetic. It is slow but
obviously right, so the property tests in test_multipoly_kernel.py check
the packed integer kernel against it. The functions at the end work on a
polynomial of either kind through its `vars`, `terms`, constructors and
arithmetic: `poly_eval` evaluates one, and the others are the queries,
views and substitutions that tests and test references take of a polynomial
but the package itself never needs. None of this is part of the package and nothing
outside the tests imports it; do not optimise it.
"""

from __future__ import annotations

from fractions import Fraction


def _is_scalar(v) -> bool:
    return isinstance(v, (int, Fraction))


class MultiPoly:
    """Multivariate polynomial with Fraction coefficients.

    Terms are stored sparsely as a dict from exponent tuples to nonzero
    coefficients. The variable list is sorted by name at construction and
    exponent tuples are dense with respect to it. Operations on polynomials
    over different variable sets promote both to the sorted union.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        order = tuple(sorted(variables))
        if order != variables:
            pos = [variables.index(v) for v in order]
            terms = {tuple(e[p] for p in pos): c for e, c in terms.items()}
        clean = {}
        for exp, coef in terms.items():
            coef = coef if isinstance(coef, Fraction) else Fraction(coef)
            if coef:
                clean[tuple(exp)] = coef
        object.__setattr__(self, "vars", order)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, c, variables=()) -> "MultiPoly":
        c = c if isinstance(c, Fraction) else Fraction(c)
        if not c:
            return cls(variables, {})
        return cls(variables, {(0,) * len(tuple(variables)): c})

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        return cls((name,), {(1,): Fraction(1)})

    # -- alignment ----------------------------------------------------

    def _remap(self, newvars) -> "MultiPoly":
        if newvars == self.vars:
            return self
        pos = {v: i for i, v in enumerate(newvars)}
        terms = {}
        for exp, c in self.terms.items():
            new = [0] * len(newvars)
            for v, e in zip(self.vars, exp):
                new[pos[v]] = e
            terms[tuple(new)] = c
        return MultiPoly(newvars, terms)

    @staticmethod
    def _aligned(a: "MultiPoly", b: "MultiPoly"):
        if a.vars == b.vars:
            return a, b
        union = tuple(sorted(set(a.vars) | set(b.vars)))
        return a._remap(union), b._remap(union)

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            return other
        if _is_scalar(other):
            return MultiPoly.const(other, self.vars)
        return None

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = MultiPoly._aligned(self, other)
        terms = dict(a.terms)
        for exp, c in b.terms.items():
            s = terms.get(exp, Fraction(0)) + c
            if s:
                terms[exp] = s
            else:
                terms.pop(exp, None)
        return MultiPoly(a.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_scalar(other):
            other = Fraction(other)
            if not other:
                return MultiPoly(self.vars, {})
            return MultiPoly(self.vars, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = MultiPoly._aligned(self, other)
        if not a.terms or not b.terms:
            return MultiPoly(a.vars, {})
        acc = {}
        bitems = list(b.terms.items())
        for e1, c1 in a.terms.items():
            for e2, c2 in bitems:
                key = tuple(x + y for x, y in zip(e1, e2))
                s = acc.get(key)
                acc[key] = c1 * c2 if s is None else s + c1 * c2
        return MultiPoly(a.vars, acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.const(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = MultiPoly._aligned(self, other)
        return a.terms == b.terms

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self):
        return hash(self.key())

    def __bool__(self):
        return bool(self.terms)

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def key(self):
        """Hashable canonical form (unused variables dropped)."""
        used = [i for i, v in enumerate(self.vars) if any(e[i] for e in self.terms)]
        names = tuple(self.vars[i] for i in used)
        items = tuple(sorted((tuple(e[i] for i in used), c) for e, c in self.terms.items()))
        return (names, items)

    # -- serialization / display --------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [
                {"exp": list(e), "coef": f"{c.numerator}/{c.denominator}"}
                for e, c in sorted(self.terms.items())
            ],
        }

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, c in sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True):
            factors = []
            for v, e in zip(self.vars, exp):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self):
        return f"MultiPoly({self})"


def poly_eval(p, bindings: dict):
    """Evaluate with every variable bound; exact iff all bindings are exact."""
    missing = [v for v in p.vars if v not in bindings]
    if missing:
        raise ValueError(f"unbound variables in poly_eval: {missing}")
    numeric = any(isinstance(bindings[v], (float, complex)) for v in p.vars)
    total = 0j if numeric else Fraction(0)
    for exp, c in p.terms.items():
        term = complex(c) if numeric else c
        for v, e in zip(p.vars, exp):
            if e:
                term *= bindings[v] ** e
        total += term
    return total


def is_constant(p) -> bool:
    """Whether p has no term of positive degree."""
    return all(not any(e) for e in p.terms)


def constant_value(p) -> Fraction:
    """The value of a constant polynomial; ValueError for any other."""
    if not is_constant(p):
        raise ValueError(f"not a constant polynomial: {p}")
    return next(iter(p.terms.values()), Fraction(0))


def total_degree(p) -> int:
    """The largest total degree of a term of p; 0 for the zero polynomial."""
    return max((sum(e) for e in p.terms), default=0)


def as_univariate(p, var: str) -> dict:
    """p as a polynomial in `var`: degree -> coefficient, a polynomial of
    p's kind in the other variables, in increasing degree."""
    if var not in p.vars:
        return {0: p}
    i = p.vars.index(var)
    out = {}
    for exp, c in p.terms.items():
        out.setdefault(exp[i], {})[exp[:i] + exp[i + 1:]] = c
    rest = p.vars[:i] + p.vars[i + 1:]
    return {d: type(p)(rest, t) for d, t in sorted(out.items())}


def degree_in(p, var: str) -> int:
    """The degree of p in var, read from its terms; 0 for a variable p
    lacks."""
    if var not in p.vars:
        return 0
    i = p.vars.index(var)
    return max((e[i] for e in p.terms), default=0)


def partial_coefficient(p, fixed: dict):
    """The coefficient of prod var^e over {var: e} = `fixed` in p, a
    polynomial of p's kind in the other variables."""
    keep = [i for i, v in enumerate(p.vars) if v not in fixed]
    out = {}
    for exp, c in p.terms.items():
        named = dict(zip(p.vars, exp))
        if all(named.get(v, 0) == e for v, e in fixed.items()):
            out[tuple(exp[i] for i in keep)] = c
    return type(p)(tuple(p.vars[i] for i in keep), out)


def substitute(p, bindings: dict):
    """p with each variable in `bindings` replaced by its value, a rational
    or a polynomial of p's kind; the other variables stay. Every variable is
    replaced at once, so a value may hold a variable that is itself bound."""
    poly = type(p)
    terms = []
    for exp, c in p.terms.items():
        term = poly.const(c)
        for v, e in zip(p.vars, exp):
            if e:
                term = term * (bindings[v] if v in bindings else poly.var(v)) ** e
        terms.append(term)
    return sum(terms, poly.const(0))


def from_json_dict(d: dict, poly=MultiPoly):
    """The polynomial of class `poly` that `to_json_dict` wrote as d."""
    return poly(tuple(d["vars"]), {tuple(t["exp"]): Fraction(t["coef"]) for t in d["terms"]})
