"""End-to-end tests for the qrs command line."""

import doctest
import json
import subprocess
import sys
from pathlib import Path

import pytest

from qrs import registry
from qrs.cli import main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_json_has_every_registered_identity(capsys):
    code, out, err = run(capsys, "list")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) >= 28
    ids = [r["id"] for r in rows]
    assert len(set(ids)) == len(ids)
    for r in rows:
        assert set(r) == {"id", "description", "mode", "default_order",
                          "symbols", "domain", "defaults"}


def test_list_text_format(capsys):
    code, out, err = run(capsys, "list", "--format", "text")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) >= 28
    assert any(line.startswith("mehler-brs") for line in lines)


def test_expand_cauchy_degree_one(capsys):
    code, out, err = run(capsys, "expand", "--family", "cauchy", "--n", "1")
    assert code == 0
    got = json.loads(out)
    assert got == {"vars": ["x", "y"],
                   "terms": [{"exp": [0, 1], "coef": "-1/1"},
                             {"exp": [1, 0], "coef": "1/1"}]}
    code, out, err = run(capsys, "expand", "--family", "cauchy", "--n", "1",
                         "--format", "text")
    assert code == 0
    assert out.strip() == "x - y"


def test_expand_brs_with_rational_q(capsys):
    code, out, err = run(capsys, "expand", "--family", "brs", "--n", "2",
                         "--q", "1/2")
    assert code == 0
    got = json.loads(out)
    assert got["vars"] == ["x", "y"]
    coefs = {tuple(t["exp"]): t["coef"] for t in got["terms"]}
    assert coefs == {(0, 0): "1/1", (0, 1): "-3/2", (0, 2): "1/2",
                     (1, 0): "3/2", (1, 1): "-3/2", (2, 0): "1/1"}


def test_expand_rejects_float_q_and_bad_domain(capsys):
    code, _, err = run(capsys, "expand", "--family", "rs", "--n", "2",
                       "--q", "0.5")
    assert code == 2 and "rational" in err
    code, _, err = run(capsys, "expand", "--family", "rs", "--n", "2",
                       "--q", "3/2")
    assert code == 2
    code, _, err = run(capsys, "expand", "--family", "brs", "--n", "-1")
    assert code == 2


def test_verify_single_identity_json(capsys):
    code, out, err = run(capsys, "verify", "--identity", "linear-rs",
                         "--order", "3", "--q", "2/5")
    assert code == 0
    (rep,) = json.loads(out)
    assert rep["id"] == "linear-rs"
    assert rep["status"] == "exact-pass"
    assert rep["order"] == 3
    assert rep["params"]["q"] == "2/5"
    assert rep["elapsed_ms"] is None
    assert err == ""


def test_verify_perturb_fails_with_witness_on_stderr(capsys):
    code, out, err = run(capsys, "verify", "--identity", "mehler-rs",
                         "--order", "3", "--perturb")
    assert code == 1
    (rep,) = json.loads(out)
    assert rep["status"] == "fail"
    assert err.startswith("mehler-rs:")


def test_verify_usage_errors(capsys):
    code, _, err = run(capsys, "verify", "--identity", "no-such-id")
    assert code == 2 and "error" in err
    # float parameter aimed at an exact-mode check
    code, _, err = run(capsys, "verify", "--identity", "mehler-rs",
                       "--q", "0.5")
    assert code == 2 and "rational" in err
    # rational parameter aimed at a numeric check
    code, _, err = run(capsys, "verify", "--identity", "gf-big",
                       "--q", "2/5")
    assert code == 2 and "float" in err
    # tolerance makes no sense for an exact comparison
    code, _, err = run(capsys, "verify", "--identity", "mehler-rs",
                       "--tol", "1e-8")
    assert code == 2 and "tolerance" in err
    # unknown parameter name via --set
    code, _, err = run(capsys, "verify", "--identity", "mehler-rs",
                       "--set", "bogus=1/2")
    assert code == 2
    code, _, err = run(capsys, "verify", "--identity", "mehler-rs",
                       "--set", "justaname")
    assert code == 2
    # integer parameters that are not integers, instead of truncated ones
    code, _, err = run(capsys, "verify", "--identity", "lemma-2.3", "--set", "nmax=5/2")
    assert code == 2 and "parameter nmax must be a nonnegative integer" in err
    code, _, err = run(capsys, "verify", "--identity", "ortho-big", "--set", "n=3.9")
    assert code == 2 and "parameter n must be a nonnegative integer" in err
    # a tol no residual can meet is a usage error, not a failed identity
    for case_id, tol in (("gf-big", "-1"), ("gf-big", "0"), ("gf-big", "nan"),
                         ("askey-wilson", "-1"), ("ortho-big", "inf")):
        code, _, err = run(capsys, "verify", "--identity", case_id, f"--tol={tol}")
        assert code == 2 and "tol must be finite and positive" in err, (case_id, tol)
    # a numeric q outside the unit disc, and an ortho-big degree past its domain
    for case_id in [c.id for c in registry() if c.mode == "numeric-complex"]:
        for q in ("1.0", "-1", "inf", "nan"):
            code, _, err = run(capsys, "verify", "--identity", case_id, f"--q={q}")
            assert code == 2 and "parameter q must satisfy |q| < 1" in err, (case_id, q)
    for n, m in (("9", "3"), ("400", "400")):
        code, _, err = run(capsys, "verify", "--identity", "ortho-big",
                           "--set", f"n={n}", "--set", f"m={m}")
        assert code == 2 and "parameters n and m must be at most 8" in err, (n, m)
    for args in (("--kind", "aw", "--tol=-1"), ("--kind", "aw", "--tol=nan"),
                 ("--kind", "J", "--p", "0.3", "--q", "0.5", "--tol=0")):
        code, _, err = run(capsys, "integrate", *args)
        assert code == 2 and "tol must be finite and positive" in err, args


@pytest.mark.parametrize("argv, flag, value, code", [
    (["verify", "--identity", "hlm-relation", "--order", "3"], "--q", "-3/7", 0),
    (["verify", "--identity", "gf-big", "--q", "-0.3"], "--tol", "-1e-3", 2),
    (["expand", "--family", "hermite", "--n", "4"], "--q", "-3/7", 0),
])
def test_a_negative_value_may_follow_its_flag(capsys, argv, flag, value, code):
    # argparse alone reads -3/7 or -1e-3 after a flag as a second option;
    # the spaced form must give exactly what the --flag=value form gives
    spaced = run(capsys, *argv, flag, value)
    assert spaced[0] == code
    assert spaced == run(capsys, *argv, f"{flag}={value}")


def test_integer_parameters_echo_as_integers(capsys):
    # --set parses nmax=2 as a rational and n=2.0 as a float; the report
    # gives the integer the check ran with
    for case_id, pair in (("lemma-2.3", "nmax=2"), ("ortho-big", "n=2.0")):
        code, out, _ = run(capsys, "verify", "--identity", case_id, "--set", pair)
        value = json.loads(out)[0]["params"][pair.partition("=")[0]]
        assert code == 0 and value == 2 and type(value) is int, (case_id, value)


def test_readme_examples_run():
    result = doctest.testfile(str(Path(__file__).parents[1] / "README.md"),
                              module_relative=False)
    assert result.attempted and not result.failed


def test_bad_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_verify_all_json_reports_every_case(capsys):
    code, out, err = run(capsys, "verify-all", "--order", "3")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) >= 28
    assert all(row["status"] in ("exact-pass", "pass") for row in rows)
    assert err == ""


def test_verify_all_byte_identical_across_runs(tmp_path, capsys):
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    assert main(["verify-all", "--order", "3", "--output", str(one)]) == 0
    assert main(["verify-all", "--order", "3", "--output", str(two)]) == 0
    capsys.readouterr()
    assert one.read_bytes() == two.read_bytes()


CAPTURED = [
    (["verify-all", "--seed", "0"], "verify_all_seed0.json", 0),
    (["verify-all", "--seed", "0", "--order", "6"], "verify_all_seed0_order6.json", 0),
    (["verify-all", "--seed", "0", "--order", "2", "--perturb"],
     "verify_all_seed0_order2_perturb.json", 1),
    (["list"], "list.json", 0),
    (["expand", "--family", "big", "--n", "8", "--q", "2/5", "--a", "1/4"],
     "expand_big_n8.json", 0),
    (["expand", "--family", "hermite", "--n", "8", "--q=-3/7"], "expand_hermite_n8.json", 0),
    (["integrate", "--kind", "aw", "--a", "0.45", "--b=-0.3", "--c", "0.2", "--d", "0.05",
      "--q", "0.68"], "integrate_aw_offdefault.json", 0),
    (["integrate", "--kind", "J", "--p", "0.35", "--q", "0.55", "--a=-0.25", "--t", "0.4"],
     "integrate_J_offdefault.json", 0),
    (["integrate", "--kind", "H", "--p=-0.4", "--q", "0.4", "--a", "0.2", "--t", "0.3"],
     "integrate_H_offdefault.json", 0),
    (["integrate", "--kind", "I", "--p", "0.6", "--q", "0.3", "--a", "0", "--t=-0.35"],
     "integrate_I_offdefault.json", 0),
    (["verify", "--identity", "ortho-big", "--set", "n=7", "--set", "m=5", "--set", "a=-0.4",
      "--set", "q=0.65"], "verify_ortho_big_n7_m5.json", 0),
    (["verify", "--identity", "closed-H-mqq", "--q", "0.7", "--set", "a=-0.35",
      "--set", "t=0.45"], "verify_closed_H_mqq_q07.json", 0),
    (["verify", "--identity", "mehler-brs", "--order", "10"],
     "verify_mehler_brs_order10.json", 0),
    (["verify", "--identity", "rogers-brs", "--order", "10"],
     "verify_rogers_brs_order10.json", 0),
    (["verify-all", "--seed", "0", "--order", "10"], "verify_all_seed0_order10.json", 0),
    (["verify-all", "--seed", "3"], "verify_all_seed3.json", 0),
    (["verify-all", "--seed", "0", "--perturb"], "verify_all_seed0_perturb.json", 1),
]


@pytest.mark.parametrize("argv, capture, code", CAPTURED,
                         ids=[f"extra{i}-{capture}" for i, (_, capture, _) in enumerate(CAPTURED)])
def test_verify_all_bytes_match_the_captured_reports(tmp_path, capsys, argv, capture, code):
    # `python -m qrs <argv>` as captured with the dict-of-Fraction MultiPoly
    # kernel (the first two), before the registry runners were split from
    # their verdicts (the next two), while the exact big q-Hermite
    # polynomials were built in the circle form and folded to x through
    # Chebyshev polynomials (the two expands, now built by the three-term
    # recurrence) and while each quadrature integrand multiplied out both halves of every conjugate pair
    # (the integrals off their default parameters); a refactor must reproduce
    # every byte. The captures holding quadrature floats were re-taken with
    # the same argv when the circle integrals moved from GK15 to the
    # trapezoidal rule: only integral values, residuals and the --perturb
    # witnesses that print them moved, by at most 1.9e-15 relative. The
    # verify-all captures and the ortho-big one were re-taken again when H_n
    # moved from the circle sum to the three-term recurrence: only the
    # residuals of the seven gf cases and ortho-big, and the ortho-big
    # --perturb witness that prints the integral, moved, by at most 1.2e-16.
    # The two order-10 series captures were taken with the per-coefficient
    # series arithmetic, before the series moved to packed degree layers.
    # list.json was re-taken when the symbols text of hxa-hx and hx-hxa
    # changed from "z Laurent variable" to "x symbolic"; nothing else moved.
    # The order-10 verify-all capture was taken before the exact runners
    # regrouped their sums; regroupings differ most at tall orders.
    # The seed-3 and default-order --perturb captures were taken before the
    # exact sides moved to the shared generating-function, Euler-factor and
    # linearization builders: they draw the numeric cases off seed 0 and
    # print every default-order --perturb witness.
    out = tmp_path / "out.json"
    assert main([*argv, "--output", str(out)]) == code
    capsys.readouterr()
    assert out.read_bytes() == (DATA / capture).read_bytes()


def test_timings_flag_fills_elapsed_ms(capsys):
    code, out, err = run(capsys, "verify", "--identity", "linear-rs",
                         "--order", "2", "--timings")
    assert code == 0
    (rep,) = json.loads(out)
    assert rep["elapsed_ms"] is not None and rep["elapsed_ms"] >= 0


def test_default_order_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("QRS_DEFAULT_ORDER", "3")
    code, out, err = run(capsys, "verify", "--identity", "mehler-rs")
    assert code == 0
    (rep,) = json.loads(out)
    assert rep["order"] == 3
    monkeypatch.setenv("QRS_DEFAULT_ORDER", "not-a-number")
    code, _, err = run(capsys, "verify", "--identity", "mehler-rs")
    assert code == 2
    # an explicit --order wins over the environment
    monkeypatch.setenv("QRS_DEFAULT_ORDER", "3")
    code, out, err = run(capsys, "verify", "--identity", "mehler-rs",
                         "--order", "4")
    assert code == 0
    (rep,) = json.loads(out)
    assert rep["order"] == 4


def test_report_command_summarizes_on_stderr(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, err = run(capsys, "report", "--order", "3",
                         "--output", str(path))
    assert code == 0
    rows = json.loads(path.read_text())
    assert len(rows) >= 28
    assert f"{len(rows)}/{len(rows)} checks passed" in err


def test_integrate_aw_payload(capsys):
    code, out, err = run(capsys, "integrate", "--kind", "aw", "--a", "0.3",
                         "--b", "0.25", "--c", "0.2", "--d", "0.1",
                         "--q", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "aw"
    assert abs(payload["value"] - payload["closed_form"]) < 1e-8
    code, _, err = run(capsys, "integrate", "--kind", "aw", "--a", "1.5")
    assert code == 2


def test_integrate_jhi_requires_bases(capsys):
    code, out, err = run(capsys, "integrate", "--kind", "H", "--p", "0.09",
                         "--q", "0.3", "--a", "0.1", "--t", "0.0")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 1.0) < 1e-9
    code, _, err = run(capsys, "integrate", "--kind", "H")
    assert code == 2 and "required" in err


def test_console_entry_points():
    # the installed script and python -m both reach the same main()
    out = subprocess.run(["qrs", "expand", "--family", "cauchy", "--n", "1",
                          "--format", "text"],
                         capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout.strip() == "x - y"
    out = subprocess.run([sys.executable, "-m", "qrs", "list"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert len(json.loads(out.stdout)) >= 28
