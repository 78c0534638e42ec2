"""Outside-in tracer for the qrs modules.

Every public function or method named in LAYERS is replaced, for the
duration of a `with Tracer():` block, by a wrapper that records a span:
the layer name, its duration, and the time its child spans covered, so a
layer's self time is its spans' durations minus what nested spans took
(`TruncSeries.__mul__` calling `MultiPoly.__mul__`, say). Nothing inside
the package is edited; the wrappers are installed from outside.

No call may slip past a wrapper. A function is reachable through every
name bound to it, so the tracer replaces the object wherever a qrs module
binds it (`from .families import brs_poly` in `idverify`, `qops`, `cli`
and `qrs/__init__` each hold their own reference) and wherever a class
binds it (`__radd__ = __add__`, `__rmul__ = __mul__`). After installing,
it checks that no qrs module or class still holds an original, and it
restores every original on exit.

Spans are aggregated per layer in memory: `calls` counts entries into a
layer from outside it (so `qpoch_inf -> inf_product`, or the recursion in
`cauchy_poly`, counts once). Work counters (term pairs, coefficient bits,
integrand evaluations) are taken at the same boundaries. The time spent
computing them is charged to no layer, except the integrand count, whose
few hundred nanoseconds per evaluation land in `quadrature.integrate`.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import defaultdict

# layer name -> "module.attr" or "module.Class.method" targets
LAYERS = {
    "qcore.mul": ["qcore.MultiPoly.__mul__"],
    "qcore.add": ["qcore.MultiPoly.__add__"],
    "qcore.eq": ["qcore.MultiPoly.__eq__"],
    "qcore.misc": ["qcore.MultiPoly.__neg__", "qcore.MultiPoly.__sub__",
                   "qcore.MultiPoly.__rsub__", "qcore.MultiPoly.__pow__",
                   "qcore.MultiPoly.substitute", "qcore.chebyshev_t",
                   "qcore.poly_eval"],
    "qcore.laurent": ["qcore.LaurentPoly.__add__", "qcore.LaurentPoly.__mul__",
                      "qcore.LaurentPoly.__neg__", "qcore.LaurentPoly.__sub__",
                      "qcore.LaurentPoly.__eq__", "qcore.LaurentPoly.to_x_poly"],
    "qcore.qbinom": ["qcore.qbinom", "qcore.qfac", "qcore.qpoch"],
    "fps.series_mul": ["fps.TruncSeries.__mul__"],
    "fps.series_add": ["fps.TruncSeries.__add__", "fps.TruncSeries.__sub__",
                       "fps.TruncSeries.__rsub__", "fps.TruncSeries.__neg__",
                       "fps.TruncSeries.scale", "fps.TruncSeries.shift",
                       "fps.TruncSeries.truncate"],
    "fps.series_inv": ["fps.series_inv"],
    "fps.phi_series": ["fps.phi_series"],
    "fps.euler": ["fps.euler_series", "fps.euler_inv_series", "fps.cauchy_series",
                  "fps.poch_series", "fps.euler_expand", "fps.euler_inv_expand",
                  "fps.cauchy_expand"],
    "fps.phi_sum": ["fps.phi_sum"],
    "qops.e_op_apply": ["qops.e_op_apply", "qops.e_apply_expansion"],
    "qops.t_op": ["qops.t_op_apply", "qops.t_op_graded", "qops.dq_apply",
                  "qops.t_op_product_sides"],
    "qops.cauchy_operand": ["qops.cauchy_operand"],
    "families.build": ["families.cauchy_poly", "families.rs_poly",
                       "families.brs_poly", "families.big_qhermite_laurent",
                       "families.big_qhermite_poly", "families.qhermite_poly",
                       "families.qhermite_laurent", "families.h_to_bivariate"],
    "families.change_base": ["families.change_base_c", "families.change_base_big",
                             "families.poly_to_cauchy", "families.rs_to_brs_coeffs",
                             "families.brs_to_rs_coeffs", "families.rs_combo_to_brs",
                             "families.brs_combo_to_rs",
                             "families.CauchyExpansion.to_poly"],
    "families.qhermite_eval": ["families.qhermite_eval"],
    "quadrature.integrate": ["quadrature.integrate"],
    "quadrature.qpoch_inf": ["quadrature.qpoch_inf", "quadrature.inf_product",
                             "quadrature.qpoch_n"],
    "idverify.verify": ["idverify.verify", "idverify.verify_all"],
    "reporting.to_json": ["reporting.IdentityReport.to_json_dict",
                          "reporting.encode_param"],
    "cli.main": ["cli.main"],
}


def _coef_bits(p) -> int:
    """Largest numerator or denominator bit length among p's coefficients."""
    best = 0
    for c in p.terms.values():
        b = max(c.numerator.bit_length(), c.denominator.bit_length())
        if b > best:
            best = b
    return best


class Tracer:
    """Context manager that installs the span wrappers and aggregates them."""

    def __init__(self):
        import qrs.cli  # noqa: F401  (loads cli and, through qrs, every other module)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.bits_max = 0
        self.missing = []
        self._stack = []
        self._patches = []
        from qrs.fps import TruncSeries
        from qrs.qcore import MultiPoly
        self._poly, self._series = MultiPoly, TruncSeries

    # -- counters taken after a span ends ------------------------------------

    def _count_mul(self, args, result):
        a, b = args[0], args[1]
        if isinstance(result, self._poly):
            if isinstance(b, self._poly):
                self.counters["qcore.mul.term_pairs"] += len(a.terms) * len(b.terms)
            self.bits_max = max(self.bits_max, _coef_bits(result))

    def _count_add(self, args, result):
        a, b = args[0], args[1]
        if isinstance(result, self._poly):
            other = len(b.terms) if isinstance(b, self._poly) else int(bool(b))
            self.counters["qcore.add.terms_in"] += len(a.terms) + other
            self.bits_max = max(self.bits_max, _coef_bits(result))

    def _count_series_mul(self, args, result):
        a, b = args[0], args[1]
        if isinstance(b, self._series):
            self.counters["fps.series_mul.coef_pairs"] += len(a.coeffs) * len(b.coeffs)

    def _counting_integrand(self, f):
        counters = self.counters

        def integrand(theta):
            counters["quadrature.integrate.evals"] += 1
            return f(theta)
        return integrand

    def _prepare_integrate(self, args, kwargs):
        from qrs.quadrature import IntegralSpec
        spec = args[0]
        if isinstance(spec, IntegralSpec):
            spec = dataclasses.replace(
                spec, integrand=self._counting_integrand(spec.integrand))
        else:
            spec = self._counting_integrand(spec)
        return (spec,) + tuple(args[1:]), kwargs

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, layer, fn, count=None, prepare=None):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        def span(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            if not stack or stack[-1][0] != layer:
                calls[layer] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if count is not None:
                t0 = clock()
                count(args, result)
                if stack:
                    stack[-1][1] += clock() - t0
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", layer)
        return span

    def _holders(self):
        """Every qrs module namespace and every class defined in one."""
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "qrs" or name.startswith("qrs."))]
        classes = {id(v): v for m in mods for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("qrs")}
        return mods, list(classes.values())

    def _resolve(self, target):
        modname, _, path = target.partition(".")
        obj = sys.modules.get("qrs." + modname)
        parts = path.split(".")
        for part in parts[:-1]:
            obj = getattr(obj, part, None)
        if obj is None:
            return None
        if isinstance(obj, type):
            return obj.__dict__.get(parts[-1])
        return getattr(obj, parts[-1], None)

    def __enter__(self):
        special = {"qcore.mul": (self._count_mul, None),
                   "qcore.add": (self._count_add, None),
                   "fps.series_mul": (self._count_series_mul, None),
                   "quadrature.integrate": (None, self._prepare_integrate)}
        mods, classes = self._holders()
        originals = {}
        for layer, targets in LAYERS.items():
            count, prepare = special.get(layer, (None, None))
            for target in targets:
                fn = self._resolve(target)
                if fn is None:
                    self.missing.append(target)
                elif id(fn) not in originals:
                    originals[id(fn)] = (fn, self._wrap(layer, fn, count, prepare))
        for holder in mods + classes:
            for name, value in list(vars(holder).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((holder, name, value))
                    setattr(holder, name, hit[1])
        leaks = [f"{getattr(h, '__name__', h)}.{n}"
                 for h in mods + classes for n, v in vars(h).items()
                 if id(v) in originals and originals[id(v)][0] is v]
        if leaks:
            self.__exit__(None, None, None)
            raise RuntimeError(f"tracer left originals bound: {leaks}")
        return self

    def __exit__(self, *exc):
        for holder, name, value in reversed(self._patches):
            setattr(holder, name, value)
        self._patches.clear()
        return False

    def cache_stats(self):
        """Hits and entries over every lru_cache in qrs.families."""
        import qrs.families as families
        hits = misses = entries = 0
        for value in vars(families).values():
            info = getattr(value, "cache_info", None)
            if callable(info):
                ci = info()
                hits, misses, entries = hits + ci.hits, misses + ci.misses, entries + ci.currsize
        return hits, misses, entries

