"""Exact arithmetic kernel: rationals, multivariate polynomials, q-shifted
factorials and Gaussian binomials.

Exact scalars are arbitrary-precision rationals (fractions.Fraction). A
MultiPoly keeps its coefficients over the integers instead: one positive
denominator shared by the whole polynomial and an int numerator per term,
keyed by the term's exponent vector packed into a single int (the packed
monomials of Monagan & Pearce), so products and sums run on plain ints and
reduce by one gcd per result. The packed format is private to this module:
`terms` reads as exponent tuples mapped to Fractions, and `_split` reads out
the coefficients of a polynomial in some of its variables.

One accumulator, `_accumulate`, builds every sum and product: its terms
are a scale (an int numerator and denominator) times at most two
polynomials, added into one dict at the common denominator and normalised
once (accumulate, then reduce). `+` is its sum of two one-factor terms, `*`
its single two-factor term, and the layer products of `fps` call it
directly. `lincomb` parses rationals and polynomials into such terms, and
`power_sum` builds the terms of a weighted sum of powers of one variable,
each power packed over the sum's variables. Code that sums many products
calls `lincomb` rather than chaining `acc = acc + a * b`, which
re-normalises and copies the whole accumulator at every step.

Polynomials are immutable once built; every operation returns a new object,
so cached values can be shared freely between threads and callers.

Sequences at a base q, such as (q; q)_n, the Gaussian binomials, the
Cauchy and Rogers-Szego families built on them, those families' pair
products and the weight rows of the linearization sums, are memoised in
tables index -> value held by one LRU of MEMO_KEYS tables (`memo_table`).
Recurrences fill a table lowest n first in a loop, so no degree is too
deep for the recursion limit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm
from operator import index, mul, or_
from types import MappingProxyType

# A packed exponent gives every variable a _FIELD-bit field, the first
# variable (in sorted order) in the most significant one, so that integer
# order is the lexicographic order of exponent tuples and a monomial
# product is one integer addition. The top bit of each field is a guard:
# exponents stay below EXP_LIMIT, so the sum of two never carries into the
# next field, and a product that sets a guard bit raises OverflowError.
_FIELD = 32
_FIELD_MASK = (1 << _FIELD) - 1
EXP_LIMIT = 1 << (_FIELD - 1)

# How many memo tables the shared LRU keeps; see memo_table.
MEMO_KEYS = 64


def frac(value) -> Fraction:
    """Coerce ints, Fractions or 'num/den' strings to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def tri(k: int) -> int:
    """Triangular exponent k(k-1)/2, as appears in q^(k choose 2) factors."""
    return k * (k - 1) // 2


def _is_scalar(v) -> bool:
    return isinstance(v, (int, Fraction))


def _pack(exp) -> int:
    packed = 0
    for e in exp:
        e = index(e)
        if e < 0:
            raise ValueError(f"negative exponent in {tuple(exp)}")
        if e >= EXP_LIMIT:
            raise OverflowError(f"exponent {e} does not fit below {EXP_LIMIT}")
        packed = packed << _FIELD | e
    return packed


def _unpack(packed: int, n: int) -> tuple:
    return tuple(packed >> s & _FIELD_MASK for s in range(_FIELD * (n - 1), -1, -_FIELD))


@lru_cache(maxsize=256)
def _guard_bits(n: int) -> int:
    return sum(1 << (_FIELD * i + _FIELD - 1) for i in range(n))


@lru_cache(maxsize=256)
def _sorted_vars(variables: tuple) -> tuple:
    if len(set(variables)) != len(variables):
        raise ValueError("duplicate variable names")
    return tuple(sorted(variables))


@lru_cache(maxsize=256)
def _union(a: tuple, b: tuple) -> tuple:
    return tuple(sorted(set(a) | set(b)))


@lru_cache(maxsize=256)
def _moves(old: tuple, new: tuple):
    """How a packed exponent over `old` becomes one over `new`.

    Both are sorted, so the variables they share keep their order and fall
    into runs that are adjacent in both. Returns a shift when a single run
    holds every variable of `old` (the usual widening to a union), else
    one (old shift, mask, new shift) triple per run; fields of variables
    missing from `new` are dropped.
    """
    if not old:
        return 0
    runs = []
    last = None
    for i, v in enumerate(old):
        if v not in new:
            last = None
            continue
        j = new.index(v)
        lo, nlo = _FIELD * (len(old) - 1 - i), _FIELD * (len(new) - 1 - j)
        if last == (i - 1, j - 1):
            runs[-1] = (lo, runs[-1][1] + 1, nlo)   # the run grows toward the low fields
        else:
            runs.append((lo, 1, nlo))
        last = (i, j)
    if len(runs) == 1 and runs[0][1] == len(old):
        return runs[0][2]
    return tuple((lo, (1 << _FIELD * width) - 1, nlo) for lo, width, nlo in runs)


def _mover(moves):
    """The function that re-keys one packed exponent by a `_moves` result."""
    if isinstance(moves, int):
        return lambda e: e << moves
    if len(moves) == 1:
        ((lo, mask, nlo),) = moves
        return lambda e: (e >> lo & mask) << nlo
    return lambda e: sum((e >> lo & mask) << nlo for lo, mask, nlo in moves)


def _repack(num: dict, moves) -> dict:
    """num re-keyed by a `_moves` result; returned as is when nothing moves."""
    if moves == 0:
        return num
    move = _mover(moves)
    return {move(e): c for e, c in num.items()}


def _build(variables: tuple, den: int, num: dict) -> "MultiPoly":
    """Wrap an already canonical form: den > 0, nonzero numerators, gcd 1."""
    p = _new(MultiPoly)
    _set_vars(p, variables)
    _set_den(p, den)
    _set_num(p, num)
    return p


def _normal(variables: tuple, den: int, num: dict) -> "MultiPoly":
    """Canonical form of num/den: drop zero numerators, divide out the gcd."""
    if 0 in num.values():
        num = {e: c for e, c in num.items() if c}
    g = gcd(den, *num.values()) if den != 1 else 1
    if g != 1:
        den //= g
        num = {e: c // g for e, c in num.items()}
    return _build(variables, den, num)


def _joint(a: "MultiPoly", b: "MultiPoly") -> tuple:
    """The sorted union of a's and b's variables."""
    return a.vars if a.vars == b.vars else _union(a.vars, b.vars)


def _widen(p: "MultiPoly", variables: tuple) -> "MultiPoly":
    """p over the sorted `variables`, a superset of p.vars."""
    if p.vars == variables:
        return p
    return _build(variables, p._den, _repack(p._num, _moves(p.vars, variables)))


def _split(p: "MultiPoly", names: tuple) -> dict:
    """p as a polynomial in the sorted `names`: {exponent tuple over names:
    nonzero MultiPoly over p's other variables}, in lexicographic order. A
    name that p lacks has exponent 0."""
    keep = tuple(v for v in p.vars if v not in names)
    key, rest = _mover(_moves(p.vars, names)), _mover(_moves(p.vars, keep))
    parts = {}
    for e, c in p._num.items():
        parts.setdefault(key(e), {})[rest(e)] = c
    return {_unpack(k, len(names)): _normal(keep, p._den, g) for k, g in sorted(parts.items())}


def _mul_into(acc: dict, small: dict, big: dict) -> dict:
    """acc plus every product of a term of `small` with a term of `big`.

    Numerators and packed exponents over one variable list; nothing is
    normalised and no guard bit is checked. Returns the updated dict, which
    is a new one when acc was empty and `small` has a single term.
    """
    if len(small) == 1 and not acc:
        ((e1, c1),) = small.items()
        return {e1 + e2: c1 * c2 for e2, c2 in big.items()}
    items = list(big.items()) if len(small) > 1 else big.items()
    get = acc.get
    for e1, c1 in small.items():
        for e2, c2 in items:
            e = e1 + e2
            acc[e] = get(e, 0) + c1 * c2
    return acc


def lincomb(terms) -> "MultiPoly":
    """The sum over `terms` of the product of each term's factors.

    A term is a sequence of factors, each a rational or a MultiPoly, so
    (c, p1, p2) stands for c * p1 * p2. The rationals' numerators and
    denominators multiply as ints; a term of three or more polynomials is
    multiplied out with `*` down to two first. Every product runs on raw
    int numerators over the union of all the variables and is added into
    one dict at the common denominator of the terms; the result is
    normalised once. A term with a zero factor adds nothing but its
    variables, as the chain of `+` and `*` it replaces would.
    """
    parsed = []
    var_lists = set()
    for term in terms:
        cn = cd = 1
        polys = []
        for f in term:
            if type(f) is MultiPoly:
                polys.append(f)
            elif _is_scalar(f):
                cn *= f.numerator
                cd *= f.denominator
            else:
                raise TypeError(f"cannot use {f!r} as a polynomial factor")
        if len(polys) > 2:
            polys = [reduce(mul, polys[:-1]), polys[-1]]
        for p in polys:
            var_lists.add(p.vars)
            cd *= p._den
        a, b = polys + [None] * (2 - len(polys))
        parsed.append((cn, cd, a, b))
    variables = next(iter(var_lists)) if len(var_lists) == 1 else reduce(_union, var_lists, ())
    return _accumulate(parsed, variables)


def power_sum(var: "MultiPoly", weights, factors) -> "MultiPoly":
    """The sum over k of weights[k] * var^k * factors[k], for a variable var
    (a `MultiPoly.var`), rational weights and polynomial factors.

    Each var^k is packed straight over the sum's variables, the union of
    var's and the factors', so no term is re-keyed on its way in, and each
    term goes to `_accumulate` as the product of var^k and its factor.
    """
    if len(var.vars) != 1 or var._den != 1 or var._num != {1: 1}:
        raise ValueError(f"{var} is not a single variable")
    variables = reduce(_union, {f.vars for f in factors}, var.vars)
    shift = _FIELD * (len(variables) - 1 - variables.index(var.vars[0]))
    return _accumulate([(w.numerator, w.denominator * f._den,
                         _build(variables, 1, {k << shift: 1}), f)
                        for k, (w, f) in enumerate(zip(weights, factors, strict=True))], variables)


def _accumulate(terms: list, variables: tuple) -> "MultiPoly":
    """The sum of the terms (cn, cd, a, b), each cn/cd times the product of
    the polynomials a and b, as a polynomial over `variables`, a superset
    of every polynomial's. b is None for a one-polynomial term, and a too
    for a rational one.

    cd is positive and already holds the polynomials' denominators, so every
    term adds its int numerators into one dict at the lcm of the cd, and the
    sum is normalised once. A product's scale rides on its smaller factor.
    A lone polynomial with scale 1 that meets an empty sum is copied whole
    at C speed, so callers summing plain polynomials put the largest first.
    """
    den = lcm(*[term[1] for term in terms])
    acc = {}
    multiplied = False
    for cn, cd, a, b in terms:
        scale = cn if cd == den else cn * (den // cd)
        if not scale:
            continue
        if b is not None:
            small, big = a._num, b._num
            if a.vars != variables:
                small = _repack(small, _moves(a.vars, variables))
            if b.vars != variables:
                big = _repack(big, _moves(b.vars, variables))
            if len(small) > len(big):
                small, big = big, small
            if scale != 1:
                small = {e: c * scale for e, c in small.items()}
            acc = _mul_into(acc, small, big)
            multiplied = True
        elif a is not None:
            num = a._num if a.vars == variables else _repack(a._num, _moves(a.vars, variables))
            if not acc:
                acc = dict(num) if scale == 1 else {e: c * scale for e, c in num.items()}
                continue
            for e, c in num.items():
                if e in acc:
                    acc[e] += c * scale
                else:
                    acc[e] = c * scale
        else:
            acc[0] = acc.get(0, 0) + scale
    # the guard bits: no product exponent reached EXP_LIMIT
    if multiplied and reduce(or_, acc, 0) & _guard_bits(len(variables)):
        raise OverflowError(f"a product exponent reached {EXP_LIMIT} in {variables}")
    return _normal(variables, den, acc)


class MultiPoly:
    """Multivariate polynomial with exact rational coefficients.

    The variable list is sorted by name at construction. The polynomial is
    stored as one positive int denominator and a dict from packed exponents
    to nonzero int numerators, reduced so that the denominator and all the
    numerators share no factor; equal polynomials over the same variables
    therefore have equal representations. `terms` is the read-only view
    {exponent tuple: Fraction}, built on first use. Operations on
    polynomials over different variable sets promote both to the sorted
    union.
    """

    __slots__ = ("vars", "_den", "_num", "_terms", "_key")

    def __init__(self, variables, terms):
        variables = tuple(variables)
        order = _sorted_vars(variables)
        pos = None if order == variables else [variables.index(v) for v in order]
        coefs = {}
        for exp, coef in terms.items():
            exp = tuple(exp)
            if len(exp) != len(order):
                raise ValueError(f"exponent {exp} does not match variables {order}")
            coef = coef if isinstance(coef, Fraction) else Fraction(coef)
            if coef:
                coefs[_pack(exp if pos is None else [exp[p] for p in pos])] = coef
        # with reduced coefficients, the lcm of their denominators already
        # shares no factor with every numerator
        den = lcm(*(c.denominator for c in coefs.values()))
        _set_vars(self, order)
        _set_den(self, den)
        _set_num(self, {e: c.numerator * (den // c.denominator) for e, c in coefs.items()})

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @property
    def terms(self):
        """Read-only mapping from exponent tuples to nonzero Fractions."""
        try:
            return self._terms
        except AttributeError:
            n, den = len(self.vars), self._den
            view = MappingProxyType({_unpack(e, n): Fraction(c, den)
                                     for e, c in self._num.items()})
            _set_terms(self, view)
            return view

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, c, variables=()) -> "MultiPoly":
        if not _is_scalar(c):
            c = Fraction(c)
        return _build(_sorted_vars(tuple(variables)), c.denominator, {0: c.numerator} if c else {})

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        return _build((name,), 1, {1: 1})

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
        a, b = (self, other) if len(self._num) >= len(other._num) else (other, self)
        return _accumulate([(1, a._den, a, None), (1, b._den, b, None)], _joint(a, b))

    __radd__ = __add__

    def __neg__(self):
        return _build(self.vars, self._den, {e: -c for e, c in self._num.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, p: int, q: int) -> "MultiPoly":
        """self * p/q for a reduced p/q with q > 0; the result needs no full
        gcd pass."""
        if not p or not self._num:
            return _build(self.vars, 1, {})
        # num/den is reduced and so is p/q: only gcd(p, den) and the gcd of
        # q with the numerators can cancel.
        g = gcd(p, self._den)
        gq = gcd(q, *self._num.values()) if q != 1 else 1
        p //= g
        num = self._num
        if p != 1 or gq != 1:
            num = {e: c // gq * p for e, c in num.items()}
        return _build(self.vars, self._den // g * (q // gq), num)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            if not _is_scalar(other):
                return NotImplemented
            return self._scaled(other.numerator, other.denominator)
        return _accumulate([(1, self._den * other._den, self, other)], _joint(self, other))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if len(self._num) == 1:
            # one term: (c x^e / den)^n = c^n x^(e n) / den^n, already reduced
            ((e, c),) = self._num.items()
            exp = _pack([f * n for f in _unpack(e, len(self.vars))])
            return _build(self.vars, self._den ** n, {exp: c ** n})
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
        if self._den != other._den:
            return False
        if self.vars == other.vars:
            return self._num == other._num
        union = _union(self.vars, other.vars)
        return _widen(self, union)._num == _widen(other, union)._num

    def __hash__(self):
        return hash(self.key())

    def __bool__(self):
        return bool(self._num)

    # -- queries ------------------------------------------------------

    def key(self):
        """Hashable canonical form (unused variables dropped)."""
        try:
            return self._key
        except AttributeError:
            used = reduce(or_, self._num, 0)
            keep = [i for i in range(len(self.vars))
                    if used >> _FIELD * (len(self.vars) - 1 - i) & _FIELD_MASK]
            items = tuple(sorted((tuple(e[i] for i in keep), c) for e, c in self.terms.items()))
            key = (tuple(self.vars[i] for i in keep), items)
            _set_key(self, key)
            return key

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
        if not self._num:
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


_new = object.__new__
_set_vars = MultiPoly.vars.__set__
_set_den = MultiPoly._den.__set__
_set_num = MultiPoly._num.__set__
_set_terms = MultiPoly._terms.__set__
_set_key = MultiPoly._key.__set__


@lru_cache(maxsize=MEMO_KEYS)
def _table(*key) -> dict:
    return {}


def memo_table(tag, q) -> dict:
    """The memo table index -> value of the sequence `tag` at base q; the
    index is n, or a tuple such as (n, k).

    q is keyed with its type, as 0.5 and Fraction(1, 2) compare and hash
    alike, and a Fraction by numerator and denominator, as Fraction.__hash__
    is slow Python code. Entries are keyed by index, never by position, so
    two threads growing one table can at worst compute an entry twice.
    """
    if type(q) is Fraction:
        return _table(tag, Fraction, q.numerator, q.denominator)
    return _table(tag, type(q), q)


def qfacs(q: Fraction, n: int) -> dict:
    """The memo table k -> (q; q)_k for rational q, filled through k = n.
    Callers only index the table."""
    table = memo_table("qfac", q)
    if n not in table:
        table.setdefault(0, q ** 0)
        for k in range(1, n + 1):
            if k not in table:
                table[k] = table[k - 1] * (1 - q ** k)
    return table


def qfac(q: Fraction, n: int) -> Fraction:
    """(q; q)_n for rational q."""
    if n < 0:
        raise ValueError("qfac needs n >= 0")
    return qfacs(frac(q), n)[n]


def qpochs(a, q: Fraction, n: int) -> list:
    """[(a; q)_0, (a; q)_1, ..., (a; q)_n] as one running product.

    a is a rational, a MultiPoly or a truncated series; each entry lives in
    a's ring, (a; q)_0 included.
    """
    q = frac(q)
    out = [Fraction(1) - a * 0]   # 1 in a's ring
    for k in range(n):
        out.append(out[-1] * (out[0] - a * q ** k))
    return out


def qbinom(n: int, k: int, q):
    """Gaussian binomial [n choose k]_q.

    Out-of-range k (or negative n) gives 0, which keeps finite q-sums
    writable without explicit range guards. q is a rational or a MultiPoly,
    and the value comes from Pascal's q-recurrence, so a polynomial q needs
    no division.
    """
    if type(q) is not MultiPoly:
        q = frac(q)
    if k < 0 or n < 0 or k > n:
        return q * 0   # 0 in q's ring, as q ** 0 is 1
    k = min(k, n - k)
    if not k:
        return q ** 0
    column = memo_table(("qbinom", k), q)
    if n not in column:
        # column j holds [m, j] for m >= j, and [m, j] = [m-1, j-1] + q^j [m-1, j]
        # reads column j - 1 one row up: fill columns 1..k, lowest row first
        one = q ** 0
        left = dict.fromkeys(range(n - k + 1), one)
        for j in range(1, k + 1):
            column = memo_table(("qbinom", j), q)
            qj = q ** j
            for m in range(j, n - k + j + 1):
                if m not in column:
                    column[m] = one if m == j else left[m - 1] + qj * column[m - 1]
            left = column
    return column[n]
