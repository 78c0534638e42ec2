"""Command-line front end.

Commands:
    list        print the identity registry
    expand      print one family polynomial as JSON
    verify      run a single identity check
    verify-all  run the whole registry
    integrate   evaluate one of the quadrature integrals
    report      run the registry and write a CI-ready JSON report

Exit codes: 0 all executed checks passed, 1 at least one check failed
(the failing witness goes to stderr), 2 usage error.

Exact-mode commands take rational parameters written as "num/den" (or a
bare integer); numeric commands take standard decimal floats. The two
notations are rejected rather than coerced when they land on the wrong
kind of command, since a silent float->rational swap would corrupt the
meaning of an exact-pass. JSON output is the stable surface; text output
is for people and may change. Identical (argv, seed) pairs produce
byte-identical JSON. The QRS_DEFAULT_ORDER environment variable, when
set, replaces the per-identity default truncation order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .families import (big_qhermite_poly, brs_poly, cauchy_poly,
                       qhermite_poly, rs_poly)
from .idverify import get_case, registry, verify, verify_all
from .quadrature import (QuadratureError, askey_wilson_closed,
                         askey_wilson_quad, jhi_eval)
from .reporting import encode_param

EXACT_MODES = ("exact-series", "exact-poly")


class UsageError(Exception):
    """Bad flag combination or malformed parameter value."""


def _parse_exact(name: str, text: str) -> Fraction:
    s = text.strip()
    if any(ch in s for ch in ".eE"):
        raise UsageError(
            f"{name} is an exact parameter here; write a rational like 2/5, "
            f"not a float (got {text!r})")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse {name}={text!r} as a rational") from exc


def _parse_numeric(name: str, text: str):
    s = text.strip()
    if "/" in s:
        raise UsageError(
            f"{name} is a numeric parameter here; write a decimal float, "
            f"not a rational (got {text!r})")
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError as exc:
        raise UsageError(f"cannot parse {name}={text!r} as a number") from exc


def _collect_params(args, exact: bool) -> dict:
    """Merge the dedicated parameter flags and --set pairs into one dict."""
    raw = {}
    for name in ("q", "p", "a", "t"):
        value = getattr(args, name, None)
        if value is not None:
            raw[name] = value
    for pair in getattr(args, "set", None) or []:
        if "=" not in pair:
            raise UsageError(f"--set expects NAME=VALUE, got {pair!r}")
        name, _, value = pair.partition("=")
        raw[name.strip()] = value
    parse = _parse_exact if exact else _parse_numeric
    params = {name: parse(name, value) for name, value in raw.items()}
    tol = getattr(args, "tol", None)
    if tol is not None:
        params["tol"] = _parse_numeric("tol", tol)
        if exact:
            raise UsageError("exact-mode checks take no tolerance")
    return params


def _default_order(args) -> int | None:
    if getattr(args, "order", None) is not None:
        return args.order
    env = os.environ.get("QRS_DEFAULT_ORDER")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"QRS_DEFAULT_ORDER={env!r} is not an integer") from exc
    return None


def _emit(text: str, output: str | None) -> None:
    if output and output != "-":
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _report_lines(reports, timings: bool) -> str:
    rows = []
    for r in reports:
        order = "-" if r.order is None else str(r.order)
        ms = f"  ({r.elapsed_ms:.1f} ms)" if timings else ""
        rows.append(f"{r.status:10s} {r.id:22s} mode={r.mode:15s} order={order}{ms}")
    return "\n".join(rows) + "\n"


def _finish_reports(reports, args) -> int:
    timings = bool(getattr(args, "timings", False))
    if args.format == "json":
        payload = [r.to_json_dict(include_timing=timings) for r in reports]
        _emit(_dump_json(payload), args.output)
    else:
        _emit(_report_lines(reports, timings), args.output)
    failed = [r for r in reports if not r.passed()]
    for r in failed:
        print(f"{r.id}: {r.witness or 'check failed'}", file=sys.stderr)
    return 1 if failed else 0


# -- commands ------------------------------------------------------------------


def _cmd_list(args) -> int:
    cases = registry()
    if args.format == "json":
        payload = [{
            "id": c.id,
            "description": c.description,
            "mode": c.mode,
            "default_order": c.default_order,
            "symbols": c.symbols,
            "domain": c.domain,
            "defaults": {k: encode_param(v) for k, v in sorted(c.defaults.items())},
        } for c in cases]
        _emit(_dump_json(payload), args.output)
    else:
        rows = [f"{c.id:22s} {c.mode:15s} order={c.default_order}  {c.description}"
                for c in cases]
        _emit("\n".join(rows) + "\n", args.output)
    return 0


# the --family builders taking (n, q); "big" also takes --a
_FAMILIES = {"cauchy": cauchy_poly, "rs": rs_poly, "brs": brs_poly, "hermite": qhermite_poly}


def _cmd_expand(args) -> int:
    if args.n < 0:
        raise UsageError("--n must be nonnegative")
    q = _parse_exact("q", args.q)
    if args.family != "cauchy" and not 0 < abs(q) < 1:
        raise UsageError("--q must be a nonzero rational with |q| < 1")
    if args.family == "big":
        poly = big_qhermite_poly(args.n, _parse_exact("a", args.a), q)
    else:
        poly = _FAMILIES[args.family](args.n, q)
    if args.format == "json":
        _emit(_dump_json(poly.to_json_dict()), args.output)
    else:
        _emit(str(poly) + "\n", args.output)
    return 0


def _cmd_verify(args) -> int:
    case = get_case(args.identity)
    params = _collect_params(args, exact=case.mode in EXACT_MODES)
    report = verify(args.identity, order=_default_order(args),
                    params=params, seed=args.seed, perturb=args.perturb)
    return _finish_reports([report], args)


def _cmd_verify_all(args) -> int:
    reports = verify_all(order=_default_order(args), seed=args.seed,
                         perturb=args.perturb)
    return _finish_reports(reports, args)


def _cmd_report(args) -> int:
    reports = verify_all(order=_default_order(args), seed=args.seed,
                         perturb=args.perturb)
    args.format = "json"
    code = _finish_reports(reports, args)
    passed = sum(1 for r in reports if r.passed())
    print(f"{passed}/{len(reports)} checks passed", file=sys.stderr)
    return code


def _cmd_integrate(args) -> int:
    get = lambda name, default: _parse_numeric(
        name, getattr(args, name)) if getattr(args, name) is not None else default
    tol = get("tol", 1e-10)
    if args.kind == "aw":
        a, b, c, d = (get(k, 0.0) for k in "abcd")
        q = get("q", 0.5)
        for name, v in zip("abcdq", (a, b, c, d, q)):
            if not abs(v) < 1:
                raise UsageError(f"--{name} must satisfy |{name}| < 1")
        value = askey_wilson_quad(a, b, c, d, q, tol=tol)
        closed = askey_wilson_closed(a, b, c, d, q)
        payload = {"kind": "aw",
                   "params": {"a": a, "b": b, "c": c, "d": d, "q": q},
                   "value": value, "closed_form": closed}
    else:
        p = get("p", None)
        q = get("q", None)
        if p is None or q is None:
            raise UsageError("--p and --q are required for kinds J/H/I")
        a, t = get("a", 0.0), get("t", 0.0)
        for name, v in (("p", p), ("q", q), ("a", a), ("t", t)):
            if not abs(v) < 1:
                raise UsageError(f"--{name} must satisfy |{name}| < 1")
        value = jhi_eval(args.kind, p, q, a, t, tol=tol)
        payload = {"kind": args.kind,
                   "params": {"p": p, "q": q, "a": a, "t": t},
                   "value": value}
    if args.format == "json":
        _emit(_dump_json(payload), args.output)
    else:
        _emit(f"{payload['value']!r}\n", args.output)
    return 0


# -- argument wiring -----------------------------------------------------------


def _add_common(parser, order=False, seed=False, params=False) -> None:
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        help="output format (json is the stable surface)")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write output to PATH instead of stdout")
    if order:
        parser.add_argument("--order", type=int, default=None,
                            help="truncation order (default: per-identity)")
        parser.add_argument("--timings", action="store_true",
                            help="include elapsed_ms in reports (breaks "
                                 "byte-for-byte reproducibility)")
    if seed:
        parser.add_argument("--seed", type=int, default=0,
                            help="seed for numeric parameter draws (default 0)")
        parser.add_argument("--perturb", action="store_true",
                            help="negative control: inject an error into the "
                                 "left side so the check must fail")
    if params:
        for name in ("q", "p", "a", "t", "tol"):
            parser.add_argument(f"--{name}", default=None, metavar="VALUE")
        parser.add_argument("--set", action="append", metavar="NAME=VALUE",
                            help="set any other identity parameter; repeatable")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrs",
        description="expand, verify, and integrate q-series polynomial identities")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="print the identity registry")
    _add_common(p)
    p.set_defaults(fn=_cmd_list)

    p = sub.add_parser("expand", help="print one family polynomial")
    p.add_argument("--family", choices=(*_FAMILIES, "big"), required=True)
    p.add_argument("--n", type=int, required=True, help="polynomial degree")
    p.add_argument("--q", default="1/2", metavar="RATIONAL")
    p.add_argument("--a", default="1/4", metavar="RATIONAL",
                   help="shift parameter (family=big only)")
    _add_common(p)
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("verify", help="run one identity check")
    p.add_argument("--identity", required=True, metavar="ID")
    _add_common(p, order=True, seed=True, params=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("verify-all", help="run every registered identity check")
    _add_common(p, order=True, seed=True)
    p.set_defaults(fn=_cmd_verify_all)

    p = sub.add_parser("integrate", help="evaluate a quadrature integral")
    p.add_argument("--kind", choices=("aw", "J", "H", "I"), required=True)
    for name in ("a", "b", "c", "d", "p", "q", "t", "tol"):
        p.add_argument(f"--{name}", default=None, metavar="FLOAT")
    _add_common(p)
    p.set_defaults(fn=_cmd_integrate)

    p = sub.add_parser("report", help="run the registry and emit a JSON report")
    _add_common(p, order=True, seed=True)
    p.set_defaults(fn=_cmd_report)

    return parser


def _bind_negative_values(argv: list) -> list:
    """argv with "--flag VALUE" joined as "--flag=VALUE" where VALUE is a
    negative number or rational, such as -1e-3 or -3/7, which argparse would
    otherwise read as an option."""
    bound = []
    for token in argv:
        if bound and bound[-1].startswith("--") and "=" not in bound[-1] \
                and token.startswith("-"):
            try:
                Fraction(token)
            except (ValueError, ZeroDivisionError):
                pass
            else:
                bound[-1] += "=" + token
                continue
        bound.append(token)
    return bound


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_bind_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except (UsageError, ValueError) as exc:
        print(f"qrs: error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, RuntimeError) as exc:
        print(f"qrs: check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
