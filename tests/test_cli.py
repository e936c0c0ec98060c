import argparse
import ast
import contextlib
import functools
import io
import json
import os
import random
import subprocess
import sys
import time
import tokenize
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cycwitt
from cycwitt import spectra
from cycwitt.arith import BudgetExceeded, divisors, euler_phi
from cycwitt.cli import _parser_for, build_parser, main
from cycwitt.cli_elements import ParseError, parse_witt
from cycwitt.cli_lambda import format_series
from cycwitt.lambda_ops import lambda_series
from cycwitt.witt import ONE, WittElement, format_witt, phi

GOLDEN = Path(__file__).parent / "golden"
SRC = str(Path(cycwitt.__file__).resolve().parent.parent)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_examples():
    assert parse_witt("phi(6) - 2*phi(1)") == phi(6) - 2 * ONE
    assert parse_witt("3") == 3 * ONE
    assert parse_witt("-phi(5)") == -phi(5)
    assert parse_witt("2*phi(3) + phi(3)") == 3 * phi(3)
    assert parse_witt("  phi( 4 )  ") == phi(4)


def test_parse_error_offsets():
    with pytest.raises(ParseError) as err:
        parse_witt("phi(0)")
    assert err.value.offset == 0
    with pytest.raises(ParseError) as err:
        parse_witt("phi(2) - phi(0)")
    assert err.value.offset == 9
    with pytest.raises(ParseError) as err:
        parse_witt("phi(2) + + 3")
    assert err.value.offset == 9
    with pytest.raises(ParseError) as err:
        parse_witt("phi(2")
    assert err.value.offset == 5
    with pytest.raises(ParseError):
        parse_witt("")


def test_format_examples():
    assert format_witt(WittElement({})) == "0"
    assert format_witt(3 * ONE) == "3"
    assert format_witt(phi(6) - 2 * ONE) == "-2 + phi(6)"
    assert format_witt(2 * phi(8)) == "2*phi(8)"
    assert format_witt(-phi(5)) == "-phi(5)"


elements = st.dictionaries(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=-99, max_value=99),
    max_size=5,
).map(WittElement)


@given(elements)
def test_print_parse_roundtrip(w):
    assert parse_witt(format_witt(w)) == w


def test_print_parse_roundtrip_thousand_seeded():
    rng = random.Random(2024)
    for _ in range(1000):
        w = WittElement(
            {rng.randint(1, 60): rng.randint(-999, 999) for _ in range(rng.randint(0, 5))}
        )
        assert parse_witt(format_witt(w)) == w


def test_series_formatting_edge_cases():
    assert format_series(lambda_series(3 * ONE, 3)) == "1 - t*3 + t^2*3 - t^3"
    assert format_series(lambda_series(WittElement({}), 2)) == "1"
    s = lambda_series(phi(8), 4)
    assert "t^2*(phi(4) + 2*phi(2) + 2*phi(1))" in format_series(s)


def test_cli_mul(capsys):
    code, out, _ = run_cli(capsys, "mul", "phi(8)", "phi(4)")
    assert code == 0 and out.strip() == "2*phi(8)"


def test_cli_frob(capsys):
    code, out, _ = run_cli(capsys, "frob", "2", "phi(4)")
    assert code == 0 and out.strip() == "2*phi(2)"


def test_cli_lambda(capsys):
    code, out, _ = run_cli(capsys, "lambda", "5")
    assert code == 0
    assert out.strip() == "1 - t*phi(5) + t^2*(phi(5) + 2*phi(1)) - t^3*phi(5) + t^4"


def test_cli_scalar_ops(capsys):
    assert run_cli(capsys, "trace", "phi(6)")[1].strip() == "1"
    assert run_cli(capsys, "f0", "phi(12)")[1].strip() == "4"
    assert run_cli(capsys, "integral", "3 - 7*phi(8)")[1].strip() == "3"
    assert run_cli(capsys, "tm", "2", "phi(4)")[1].strip() == "-2"
    assert run_cli(capsys, "inner", "phi(3)", "phi(3)")[1].strip() == "2"
    assert run_cli(capsys, "versch", "2", "phi(3)")[1].strip() == "phi(6)"


def test_cli_charpoly_and_wittclass(capsys):
    code, out, _ = run_cli(capsys, "charpoly", "0,-1;1,1")
    assert code == 0 and out.strip() == "1 - x + x^2"
    code, out, _ = run_cli(capsys, "wittclass", "0,1;1,0")
    assert code == 0 and out.strip() == "1 + phi(2)"
    code, _, err = run_cli(capsys, "wittclass", "2")
    assert code == 1 and "unit-spectrum" in err


def test_cli_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "trace", "phi(0)")
    assert code == 2 and "offset" in err


def test_cli_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frob", "phi(2)"])  # missing the integer argument
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_json_stability(capsys):
    a = run_cli(capsys, "--json", "mul", "phi(6) - 2*phi(1)", "3")
    b = run_cli(capsys, "--json", "mul", "phi(6) - 2*phi(1)", "3")
    assert a == b
    assert json.loads(a[1]) == {"result": [[1, -6], [6, 3]]}
    code, out, _ = run_cli(capsys, "--json", "parseval", "6")
    obj = json.loads(out)
    assert obj["ok"] is True and obj["pairs_checked"] == 16


def test_cli_json_random_roundtrip(capsys):
    rng = random.Random(0)
    for _ in range(25):
        w = WittElement({rng.randint(1, 30): rng.randint(-9, 9) for _ in range(3)})
        # "--" keeps expressions with a leading minus out of flag parsing
        code, out, _ = run_cli(capsys, "--json", "mul", "--", format_witt(w), "1")
        assert code == 0
        assert WittElement(dict(json.loads(out)["result"])) == w


def test_cli_gamma_filtration(capsys):
    code, out, _ = run_cli(capsys, "gamma-filtration", "--level", "6", "--depth", "2")
    assert code == 0
    assert "I_1: rank 3" in out
    code, out, _ = run_cli(capsys, "--json", "gamma-filtration", "--level", "6", "--depth", "2")
    obj = json.loads(out)
    assert obj["divisors"] == [1, 2, 3, 6]
    assert obj["lattices"][0]["rank"] == 4
    # a prime level: the lambda row stops at the truncation degree, not at phi(9973)
    code, out, _ = run_cli(capsys, "gamma-filtration", "--level", "9973", "--depth", "2")
    assert code == 0 and "I_2: rank 1" in out


def test_cli_spec_and_radical(capsys):
    code, out, _ = run_cli(capsys, "spec", "--rig", "zmod:6")
    assert code == 0 and "{0, 3}" in out and "{0, 2, 4}" in out
    code, out, _ = run_cli(capsys, "radical", "--rig", "zmod:8", "--ideal", "0")
    assert code == 0 and "{0, 2, 4, 6}" in out


def test_cli_rig_file_loading(tmp_path, capsys):
    table = """
    size 2
    zero 0
    one 1
    add
    0 1
    1 1
    mul
    0 0
    0 1
    """
    path = tmp_path / "rig.txt"
    path.write_text(table)
    code, out, _ = run_cli(capsys, "spec", "--rig", f"file:{path}")
    assert code == 0 and "1 prime" in out


def run_python(*args, text=True):
    """Run `python ARGS` in a fresh interpreter that imports cycwitt from SRC."""
    path = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=text, env=env, timeout=60
    )


def run_cli_process(*argv, block_numpy=False):
    """Run the CLI in a fresh interpreter, optionally with numpy unimportable."""
    code = "import runpy, sys\n"
    if block_numpy:
        code += "sys.modules['numpy'] = None\n"
    code += f"sys.argv = ['cycwitt', *{list(argv)!r}]\n"
    code += "runpy.run_module('cycwitt.cli', run_name='__main__')\n"
    return run_python("-c", code)


# a 101 x 101 matrix: its rows are counted before an entry is parsed
_ZEROS_101 = ";".join([",".join(["0"] * 101)] * 101)
# 100 x 100 with 10-digit entries (120 KB, within one argument's size limit):
# Berkowitz on it takes 7-8 s
_TEN_DIGITS_100 = ";".join([",".join(["-1234567890"] * 100)] * 100)
# 2^89 - 1 is prime and above bigfactor.PROVEN_BOUND, so factoring refuses it as
# unproven; (10^13 + 37)*(2*10^13 + 21) is refused past bigfactor.RHO_BUDGET
_M89 = str(2**89 - 1)
_UNPROVEN = f"budget exceeded: probable prime {_M89} of factor({_M89}) > 3317044064679887385961980"
_SEMIPRIME = str((10**13 + 37) * (2 * 10**13 + 21))
# the sums of phi(i) over i <= 500 and i <= 501: mul of the two has 250500
# basis products
_SUM_500 = " + ".join(f"phi({i})" for i in range(1, 501))
_SUM_501 = _SUM_500 + " + phi(501)"
_MILLION_ROWS = "budget exceeded: 1000000 rows > 150000"


@pytest.mark.parametrize(
    "table,argv,message",
    [
        ("size 2\nadd\n0 1\n1 1\nmul\n0 0\n", None, None),  # truncated mul table
        ("zero 0\none 1\nadd\n0 1\n1 1\nmul\n0 0\n0 1\n", None, None),  # no size line
        ("size 2\nzero 5\none 1\nadd\n0 1\n1 1\nmul\n0 0\n0 1\n", None, None),  # zero out of range
        (None, ["radical", "--rig", "zmod:0"], None),
        (None, ["spec", "--rig", "zmod:x"], "zmod:N needs a positive integer N, got 'x'"),
        (None, ["spec", "--rig", "zmod:"], "zmod:N needs a positive integer N, got ''"),
        (
            None,
            ["spec", "--rig", "tropical-unit"],
            "unknown finite rig 'tropical-unit' (use boolean | zmod:N | tropical4, "
            "or load a table file)",
        ),
        (
            None,
            ["spec", "--rig", "nope"],
            "unknown rig name 'nope' (use boolean | tropical4 | int | rational | "
            "tropical-unit | tropical-nonneg | zmod:N)",
        ),
        (None, ["charpoly", "1,2"], "matrix must be square"),
        (None, ["wittclass", "1,2;3,4;5,6"], "matrix must be square"),
        (
            None,
            ["sections", "--rows", "3", "--cols", "3", "--bound", "3"],
            "budget exceeded: 40353607 candidate matrices > 150000",
        ),
        (None, ["sections", "--rows", "-1", "--cols", "2"], "rows must be >= 0, got -1"),
        (None, ["sections", "--rows", "2", "--cols", "-3"], "cols must be >= 0, got -3"),
        (
            None,
            ["sections", "--rows", "1000000000000000003", "--cols", "12"],
            "budget exceeded: 1000000000000000003 rows > 150000",
        ),
        (
            None,
            ["sections", "--rows", "1000000000000000003", "--cols", "0"],
            "budget exceeded: 1000000000000000003 rows > 150000",
        ),
        (
            None,
            ["sections", "--rows", "0", "--cols", "1000000000000000003"],
            "budget exceeded: 1000000000000000003 cols > 150000",
        ),
        (None, ["sections", "--rows", "1000000", "--cols", "2"], _MILLION_ROWS),
        (None, ["sections", "--rows", "1000000", "--cols", "0"], _MILLION_ROWS),
        (
            None,
            ["sections", "--rows", "150000", "--cols", "150000"],
            "budget exceeded: (2*bound + 1)^(150000*150000) candidate matrices > 150000",
        ),
        (None, ["lambda", "100000"], "budget exceeded: euler_phi(100000) > 1000 coefficients"),
        (
            None,
            ["lambda", "1000000000000000003"],
            "budget exceeded: euler_phi(1000000000000000003) > 1000 coefficients",
        ),
        (
            None,
            ["lambda-table", "100000"],
            "budget exceeded: sum of euler_phi(k)^2 for k <= 191 is 1006810 > 1000^2",
        ),
        (
            None,
            ["lambda-table", "1000"],
            "budget exceeded: sum of euler_phi(k)^2 for k <= 191 is 1006810 > 1000^2",
        ),
        (
            None,
            ["ramanujan", "--n", "10", "--m-max", "1000000"],
            "budget exceeded: 10*(1000000 + 10) Ramanujan sums > 1010000",
        ),
        (
            None,
            ["ramanujan", "--n", "1000000", "--m-max", "1"],
            "budget exceeded: 1000000*(1 + 10) Ramanujan sums > 1010000",
        ),
        (
            None,
            ["parseval", "100000"],
            "budget exceeded: (tau(100000) + 12)*tau(100000)*100000 products > 30000000",
        ),
        (
            None,
            ["parseval", "50400"],
            "budget exceeded: (tau(50400) + 12)*tau(50400)*50400 products > 30000000",
        ),
        (
            None,
            ["parseval", "4999999"],
            "budget exceeded: (tau(4999999) + 12)*tau(4999999)*4999999 products > 30000000",
        ),
        (
            None,
            ["parseval", "1000000000000000003"],
            "budget exceeded: (tau(1000000000000000003) + 12)*tau(1000000000000000003)"
            "*1000000000000000003 products > 30000000",
        ),
        (None, ["charpoly", "--", _ZEROS_101], "budget exceeded: 101 matrix rows > 100"),
        (None, ["wittclass", "--", _ZEROS_101], "budget exceeded: 101 matrix rows > 100"),
        (
            None,
            ["charpoly", "--", _TEN_DIGITS_100],
            "budget exceeded: rows^4 * entry digits = 100^4 * 10 > 100^4",
        ),
        (
            None,
            ["spec", "--rig", "zmod:5000"],
            "budget exceeded: zmod:5000 has 50000000 table entries > 2000000",
        ),
        (
            None,
            ["radical", "--rig", "zmod:3000"],
            "budget exceeded: zmod:3000 has 18000000 table entries > 2000000",
        ),
        (None, ["trace", f"phi({_M89})"], _UNPROVEN),
        (None, ["f0", f"phi({_M89})"], _UNPROVEN),
        (None, ["tm", "4", f"phi({_M89})"], _UNPROVEN),
        (
            None,
            ["frob", "0", f"phi({2 * int(_M89)})"],
            f"budget exceeded: probable prime {_M89} of factor({2 * int(_M89)}) "
            "> 3317044064679887385961980",
        ),
        (None, ["gamma-filtration", "--level", _M89, "--depth", "2"], _UNPROVEN),
        (
            None,
            ["trace", f"phi({_SEMIPRIME})"],
            f"budget exceeded: modular squarings for factor({_SEMIPRIME}) > 2000000",
        ),
        (None, ["mul", _SUM_501, _SUM_500], "budget exceeded: 501*500 basis products > 250000"),
        (
            None,
            ["gamma-filtration", "--level", "12", "--depth", "100000"],
            "budget exceeded: (100000 + 2)^2 gamma products > 60000",
        ),
        (
            None,
            ["gamma-filtration", "--level", "5040", "--depth", "6"],
            "budget exceeded: tau(5040)^2*(6 + 2)^2 gamma products > 60000",
        ),
        (
            None,
            ["gamma-filtration", "--level", "720720", "--depth", "2"],
            "budget exceeded: tau(720720)^2*(2 + 2)^2 gamma products > 60000",
        ),
    ],
    ids=["truncated", "nosize", "zero5", "zmod0", "zmodx", "zmod-empty", "carrier", "nope",
         "charpoly-nonsquare", "wittclass-nonsquare", "sections-over-budget",
         "sections-negative-rows", "sections-negative-cols",
         "sections-huge-rows", "sections-huge-rows-no-cols", "sections-huge-cols",
         "sections-million-rows", "sections-million-rows-no-cols", "sections-budget-square",
         "lambda-over-budget", "lambda-huge-prime", "lambda-table-over-budget",
         "lambda-table-1000",
         "ramanujan-over-budget", "ramanujan-million-rows", "parseval-100000", "parseval-50400",
         "parseval-prime-4999999", "parseval-huge-prime", "charpoly-101-rows",
         "wittclass-101-rows", "charpoly-ten-digit-entries", "spec-zmod5000",
         "radical-zmod3000", "trace-huge-prime", "f0-huge-prime", "tm-huge-prime",
         "frob0-huge-index",
         "gamma-filtration-huge-level", "trace-huge-semiprime", "mul-over-budget",
         "gamma-filtration-depth-100000",
         "gamma-filtration-5040-depth-6", "gamma-filtration-720720"],
)
def test_cli_known_faults_exit_2_with_one_error_line(table, argv, message, tmp_path):
    if table is not None:
        path = tmp_path / "rig.txt"
        path.write_text(table)
        argv = ["spec", "--rig", f"file:{path}"]
    start = time.perf_counter()
    proc = run_cli_process(*argv)
    # a refusal comes before the work or, for factoring, at once for a
    # probable prime above the proven bound and within bigfactor.RHO_BUDGET
    # squarings (0.4-0.7 s) for a composite rho cannot split
    assert time.perf_counter() - start < 2
    lines = proc.stderr.strip().splitlines()
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert message is None or lines[0] == f"error: {message}"
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, out",
    [
        (["frob", "2", "phi(1000000000000000003)"], "phi(1000000000000000003)"),
        (["frob", "6", "phi(2000000000000000006)"], "phi(1000000000000000003)"),
        (["frob", "2", "phi(4000000000000000012)"], "2*phi(2000000000000000006)"),
    ],
    ids=["coprime", "gcd-2", "gcd-2-repeated"],
)
def test_cli_frobenius_of_a_huge_index_answers_at_once(argv, out):
    # F_m factors only divisors of gcd(m, n), never the index itself
    start = time.perf_counter()
    proc = run_cli_process(*argv)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == out + "\n"
    assert time.perf_counter() - start < 10


def test_cli_trace_of_a_prime_power_index_answers_at_once():
    # (10^18 + 3)^3 is no square-free index: factor takes its cube root, where
    # rho would spend its whole budget and refuse
    start = time.perf_counter()
    proc = run_cli_process("trace", f"phi({(10**18 + 3) ** 3})")
    assert time.perf_counter() - start < 2
    assert proc.returncode == 0 and proc.stderr == "" and proc.stdout == "0\n"


# 2^89 - 1 is a prime above bigfactor.PROVEN_BOUND, which factor refuses (exit 2)
_M89 = 2**89 - 1


@pytest.mark.parametrize(
    "argv, out",
    [
        (["frob", "2", f"phi({2 * _M89})"], f"phi({_M89})"),
        (["inner", f"phi({6 * _M89})", f"phi({2 * _M89})"], "0"),
    ],
    ids=["frob", "inner-disjoint"],
)
def test_cli_never_factors_an_index_it_does_not_need(argv, out):
    # F_m factors only gcd(m, n) and gcd(g, n/g); inner only the shared indices
    assert argv[-1] == "phi(1237940039285380274899124222)"
    start = time.perf_counter()
    proc = run_cli_process(*argv)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == out + "\n"


def test_cli_inner_is_linear_in_the_terms():
    # integral(mul(a, a)) would form 2000^2 basis products (about 4 s)
    a = " + ".join(f"phi({i})" for i in range(1, 2001))
    start = time.perf_counter()
    proc = run_cli_process("inner", a, a)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 0 and proc.stdout == f"{sum(map(euler_phi, range(1, 2001)))}\n"
    assert proc.stdout == "1216588\n"


def test_cli_inexact_frobenius_quotient_exits_3(monkeypatch, capsys):
    from cycwitt import arith

    real = arith.euler_phi
    monkeypatch.setattr(arith, "euler_phi", lambda n: 3 if n == 2 else real(n))
    for argv in (["frob", "6", "phi(12000036)"], ["tm", "6", "phi(12000036)"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == "" and "Traceback" not in err
        assert err.splitlines() == [
            "internal error: inexact F_6 coefficient of phi(12000036): implementation bug"]


def test_cli_missed_cyclotomic_factor_exits_3(monkeypatch, capsys):
    from cycwitt import linalg

    phi7 = ("0,0,0,0,0,-1;1,0,0,0,0,-1;0,1,0,0,0,-1;"  # the companion of Phi_7
            "0,0,1,0,0,-1;0,0,0,1,0,-1;0,0,0,0,1,-1")
    assert run_cli(capsys, "wittclass", phi7)[:2] == (0, "phi(7)\n")
    real = linalg._cyclo_candidates
    monkeypatch.setattr(linalg, "_cyclo_candidates", lambda deg: tuple(
        (d, f) for d, f in real(deg) if d != 7))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "wittclass", phi7)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == "" and err.splitlines() == [
        "internal error: no trace witness up to k = 10000 for an outside spectrum"]


def test_cli_inexact_frobenius_quotient_exits_3_under_python_O():
    # python -O strips assert statements; the guard is a raise and stays
    code = ("import sys\nfrom cycwitt import arith, cli\nreal = arith.euler_phi\n"
            "arith.euler_phi = lambda n: 3 if n == 2 else real(n)\n"
            "assert False, 'asserts run'\n"
            "sys.exit(cli.main(['frob', '6', 'phi(12000036)']))\n")
    proc = run_python("-O", "-c", code)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "internal error: inexact F_6 coefficient of phi(12000036): implementation bug"]


def test_cli_parseval_failure_json_is_unchanged(monkeypatch, capsys):
    from cycwitt import witt

    real = witt.ramanujan_sum
    monkeypatch.setattr(witt, "ramanujan_sum", lambda n, m: real(n, m) + (n == 6 and m == 1))
    code, out, _ = run_cli(capsys, "--json", "parseval", "6")
    assert code == 1
    assert out == (
        '{"N": 6, "failures": [[1, 6, "0", "1/6"], [2, 6, "0", "-1/6"], [3, 6, "0", "-1/6"], '
        '[6, 1, "0", "1/6"], [6, 2, "0", "-1/6"], [6, 3, "0", "-1/6"], [6, 6, "2", "5/2"]], '
        '"ok": false, "pairs_checked": 16}\n'
    )
    code, out, _ = run_cli(capsys, "parseval", "6")
    assert code == 1 and out.endswith("FAIL (7 mismatches)\n")


@pytest.mark.parametrize(
    "argv, out",
    [
        (["trace", "phi(1000000000000000003)"], "-1"),
        (["f0", "phi(1000000000000000003)"], "1000000000000000002"),
        (["tm", "4", "phi(1000000000000000003)"], "-1"),
        (["frob", "0", "phi(2000000000000000006)"], "1000000000000000002"),
        (
            ["gamma-filtration", "--level", "1000000000000000003", "--depth", "2"],
            "gamma filtration on the divisor span of 1000000000000000003 "
            "(divisors [1, 1000000000000000003]), depth 2\n"
            "I_0: rank 2\n  [1, 0]\n  [0, 1]\n"
            "I_1: rank 1\n  [1000000000000000002, -1]\n"
            "I_2: rank 1\n  [1000000000000000002, -1]",
        ),
    ],
    ids=["trace", "f0", "tm", "frob0", "gamma-filtration"],
)
def test_cli_huge_prime_index_answers(argv, out):
    # 10^18 + 3 is proven prime by the strong-probable-prime test; trial
    # division up to its square root would take minutes
    start = time.perf_counter()
    proc = run_cli_process(*argv)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == out + "\n"


def test_cli_trace_of_many_semiprime_indices_answers_in_time():
    # 64 distinct p*q with p, q primes near 10^6: each term's factoring used to
    # cost about 55 ms of trial division; mu(p*q) = 1, so the trace is 64
    sieve = bytearray([1]) * 1_002_000
    for d in range(2, 1001):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, len(sieve), d)))
    primes = [p for p in range(999_000, len(sieve)) if sieve[p]][:128]
    assert len(primes) == 128
    terms = [f"phi({p * q})" for p, q in zip(primes[::2], primes[1::2])]
    start = time.perf_counter()
    proc = run_cli_process("trace", " + ".join(terms))
    assert time.perf_counter() - start < 2
    assert proc.returncode == 0 and proc.stdout == "64\n"


def test_cli_mul_budget_boundary():
    from cycwitt import cli, witt

    # cli-oneshot multiplies elements of three terms
    assert 3 * 3 <= cli.MUL_BUDGET == 500 * 500
    # the support is counted: a zero coefficient and a repeated term add nothing
    args = build_parser().parse_args(["mul", "phi(7) + phi(7) + 0*phi(3)", _SUM_501])
    args.cmd.cost(args)
    # the largest accepted square, checked by two ring homomorphisms
    start = time.perf_counter()
    proc = run_cli_process("mul", _SUM_500, _SUM_500)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 0 and proc.stderr == ""
    a, product = parse_witt(_SUM_500), parse_witt(proc.stdout)
    assert witt.trace(product) == witt.trace(a) ** 2 and witt.f0(product) == witt.f0(a) ** 2


_SUBCOMMANDS = next(
    a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices
# small values, then sizes past every budget: 10^6, the prime 10^18 + 3 and
# the 30-digit composite (10^14 + 31)*(10^15 + 37)
_INTS = st.one_of(
    st.integers(-2, 12), st.sampled_from([10**6, 10**18 + 3, 100000000000034700000000001147])
).map(str)
_ELEMENTS = st.sampled_from(["phi(4)", "2*phi(6) - 3", "-phi(3)", "phi(0)", "phi(", "x"])
_MATRICES = st.sampled_from(["1,0;0,1", "0,1;0,0", "2", "1,2", "1,2;3,x", "-1,0;0,1"])
_RIGS = st.sampled_from(["boolean", "zmod:6", "zmod:0", "tropical4", "int", "file:/nonexistent"])
# one kind of token is drawn first, so each kind is equally likely
_FUZZ_TOKENS = st.one_of(_INTS, st.sampled_from(["--json", "--"]), _ELEMENTS, _MATRICES, _RIGS)
# the kind of token an operand or option expects, by its name
_SLOT_KINDS = {"a": _ELEMENTS, "b": _ELEMENTS, "matrix": _MATRICES, "rig": _RIGS}


@st.composite
def _argv(draw):
    """A subcommand with its operands, its required options and some other
    options filled from the pool, then maybe one more token from the pool
    or its option names.  Each slot gets a token of its own kind half the
    time, so that most draws get past the parser."""
    name = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    argv = ["--json"] * draw(st.booleans()) + [name]
    operands, options = [], []
    for action in _SUBCOMMANDS[name]._actions:
        kind = _INTS if action.type is int else _SLOT_KINDS.get(action.dest, _FUZZ_TOKENS)
        value = kind if draw(st.booleans()) else _FUZZ_TOKENS
        if not action.option_strings:
            operands.append(draw(value))
        elif action.option_strings[0] != "-h":
            options.append(action.option_strings[0])
            if action.required or draw(st.booleans()):
                argv += [action.option_strings[0], draw(value)]
    # a "--" with no operand after it would only ever reach the parser's error
    argv += ["--"] * (bool(operands) and draw(st.booleans())) + operands
    extra = _FUZZ_TOKENS | st.sampled_from(options) if options else _FUZZ_TOKENS
    return argv + draw(st.lists(extra, max_size=1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_argv())
def test_cli_argv_fuzz_ends_with_a_message(argv):
    # an exception escaping main fails the test with its traceback
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: a usage line and one error line
            assert exc.code == 2, argv
            return
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue()
    if code:
        assert len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())


def _parse_outcome(parser, argv):
    # the namespace, or argparse's exit code with what it printed
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def _subparser_names(parser):
    return list(next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_argv())
def test_cli_one_subparser_parses_as_every_subparser(argv):
    # main builds only the subparser of the command it runs
    lean = _parser_for(argv)
    assert _subparser_names(lean) == [argv[argv[0] == "--json"]]
    assert _parse_outcome(lean, argv) == _parse_outcome(build_parser(), argv)


@pytest.mark.parametrize(
    "argv",
    [[], ["-h"], ["--json"], ["nope"], ["-h", "spec"], ["--", "spec", "--rig", "boolean"],
     ["-5", "spec"], ["--js", "spec", "--rig", "boolean"], ["spec", "--json", "--rig", "boolean"],
     ["--json", "--json", "sections", "--rows", "1", "--cols", "1", "extra"], ["spec", "-h"],
     ["theorem1", "--rig", "zmod:6"], ["frob", "x", "phi(4)"]],
)
def test_cli_parser_choice_keeps_help_and_errors(argv, monkeypatch):
    # help, a missing or unknown command and anything before the command
    # but --json get every subparser; the rest are worded as by all of them
    monkeypatch.setenv("COLUMNS", "80")
    every = _subparser_names(build_parser())
    assert len(every) == 19 and _subparser_names(build_parser(None)) == every
    first = next((token for token in argv if token != "--json"), None)
    assert _subparser_names(_parser_for(argv)) == ([first] if first in every else every)
    assert _parse_outcome(_parser_for(argv), argv) == _parse_outcome(build_parser(), argv)


def test_cli_lambda_budget_boundary(monkeypatch, capsys):
    from cycwitt import cli

    assert cli.LAMBDA_BUDGET >= euler_phi(60)  # the largest lambda level the benchmark runs
    monkeypatch.setattr(cli, "LAMBDA_BUDGET", 4)
    assert run_cli(capsys, "lambda", "5")[0] == 0  # euler_phi(5) = 4
    code, out, err = run_cli(capsys, "lambda", "7")
    assert code == 2 and out == "" and err == "error: budget exceeded: euler_phi(7) > 4 coefficients\n"
    # the table as a whole: 1 + 1 + 4 + 4 = 10 <= 4^2, and row 5 adds 16
    code, out, err = run_cli(capsys, "lambda-table", "4")
    assert code == 0 and len(out.splitlines()) == 4
    for top in ("5", "7"):
        code, out, err = run_cli(capsys, "lambda-table", top)
        assert code == 2 and out == ""
        assert err == "error: budget exceeded: sum of euler_phi(k)^2 for k <= 5 is 26 > 4^2\n"
    for argv in (["lambda", "7"], ["lambda-table", "5"]):
        args = build_parser().parse_args(argv)
        with pytest.raises(BudgetExceeded):
            args.cmd.cost(args)


def test_cli_cost_check_boundaries(monkeypatch, capsys):
    from cycwitt import cli, tables

    # the largest accepted sizes, at or above every golden and benchmark size
    assert 1000 * (1000 + 10) <= cli.RAMANUJAN_BUDGET
    taus = {n: len(divisors(n)) for n in (5040, 20000)}
    assert max((t + 12) * t * n for n, t in taus.items()) <= cli.PARSEVAL_BUDGET
    assert 2 * 1000**2 <= tables.ZMOD_BUDGET
    assert cli.MATRIX_BUDGET >= 20  # the largest matrix-bridge dimension
    # gamma-filtration 12 3 in the benchmark, and level and depth up to 12 in the fuzz
    assert len(divisors(12)) ** 2 * (12 + 2) ** 2 <= cli.GAMMA_BUDGET
    # a row is priced as its sums plus 10 for factoring its index
    monkeypatch.setattr(cli, "RAMANUJAN_BUDGET", 39)
    assert run_cli(capsys, "ramanujan", "--n", "3", "--m-max", "3")[0] == 0
    for n, m in (("4", "1"), ("1", "30")):
        code, out, err = run_cli(capsys, "ramanujan", "--n", n, "--m-max", m)
        assert code == 2 and out == ""
        assert err == f"error: budget exceeded: {n}*({m} + 10) Ramanujan sums > 39\n"
    # (tau + 12)*tau*N is 1296 for 12, 1204 for the prime 43 and 1944 for 18; the
    # prime 47 (1316) is refused for its sums alone, 1297 is refused unfactored
    monkeypatch.setattr(cli, "PARSEVAL_BUDGET", 1296)
    for n in ("12", "43"):
        assert run_cli(capsys, "parseval", n)[0] == 0
    for n in ("18", "47", "1297"):
        code, out, err = run_cli(capsys, "parseval", n)
        assert code == 2 and out == ""
        assert err == f"error: budget exceeded: (tau({n}) + 12)*tau({n})*{n} products > 1296\n"
    dense = ";".join(",".join(str(i * j % 7 - 3) for j in range(100)) for i in range(100))
    args = build_parser().parse_args(["charpoly", "--", dense])
    args.cmd.cost(args)  # a dense 100 x 100 in -3..3 is at the limit, accepted
    monkeypatch.setattr(cli, "MATRIX_BUDGET", 2)
    # signs and spaces are not digits: 2^4 * 1 <= 2^4, and 1^4 * 16 too
    for matrix in ("0,-1;1,1", " -1 , +1 ;1,1", "1234567890123456"):
        assert run_cli(capsys, "charpoly", "--", matrix)[0] == 0
    assert run_cli(capsys, "wittclass", "0,-1;1,1")[0] == 0
    for cmd in ("charpoly", "wittclass"):
        code, out, err = run_cli(capsys, cmd, "1,0,0;0,1,0;0,0,1")
        assert code == 2 and out == ""
        assert err == "error: budget exceeded: 3 matrix rows > 2\n"
        for matrix, rows, digits in (("0,-10;1,1", 2, 2), ("12345678901234567", 1, 17)):
            code, out, err = run_cli(capsys, cmd, "--", matrix)
            assert code == 2 and out == ""
            assert err == (
                f"error: budget exceeded: rows^4 * entry digits = {rows}^4 * {digits} > 2^4\n"
            )
        args = build_parser().parse_args([cmd, "1;2;3"])
        with pytest.raises(BudgetExceeded):
            args.cmd.cost(args)
    # tau(12)^2*(3 + 2)^2 is 900; a depth of 29 is refused before the level is
    # factored, so 10^18 + 3 never reaches the factor budget
    monkeypatch.setattr(cli, "GAMMA_BUDGET", 900)
    assert run_cli(capsys, "gamma-filtration", "--level", "12", "--depth", "3")[0] == 0
    for level, depth, what in (
        ("12", "4", "tau(12)^2*(4 + 2)^2"),
        ("12", "29", "(29 + 2)^2"),
        ("1000000000000000003", "29", "(29 + 2)^2"),
    ):
        code, out, err = run_cli(capsys, "gamma-filtration", "--level", level, "--depth", depth)
        assert code == 2 and out == ""
        assert err == f"error: budget exceeded: {what} gamma products > 900\n"
    monkeypatch.setattr(tables, "ZMOD_BUDGET", 72)  # zmod:6 has 2 * 6^2 entries
    assert run_cli(capsys, "spec", "--rig", "zmod:6")[0] == 0
    code, out, err = run_cli(capsys, "theorem1", "--rig", "zmod:7", "--s", "2")
    assert code == 2 and out == ""
    assert err == "error: budget exceeded: zmod:7 has 98 table entries > 72\n"


def test_cli_inexact_trace_inversion_exits_3(monkeypatch, capsys):
    from cycwitt import lambda_ops

    exact = lambda_ops._trace_lambda

    def corrupted(*args):
        cols = exact(*args)
        cols[0][1] += 1
        return cols

    monkeypatch.setattr(lambda_ops, "_trace_lambda", corrupted)
    code, out, err = run_cli(capsys, "lambda", "6")
    assert code == 3 and out == "" and err.startswith("internal error: trace vector")


def test_cli_internal_error_exit_3(monkeypatch, capsys):
    def mismatch(*args, **kwargs):
        raise spectra.RadicalMismatch("power radical {0} != prime intersection {0, 4}")

    monkeypatch.setattr(spectra, "radical", mismatch)
    code, out, err = run_cli(capsys, "radical", "--rig", "zmod:8", "--ideal", "0")
    lines = err.strip().splitlines()
    assert code == 3 and out == "" and "Traceback" not in err
    assert lines == ["internal error: power radical {0} != prime intersection {0, 4}"]


@pytest.mark.parametrize(
    "matrix,entry,row",
    [("", "''", 1), ("1,2;3,x", "'x'", 2), ("1,2;,4", "''", 2)],
)
def test_cli_bad_matrix_names_entry_and_row(matrix, entry, row, capsys):
    code, out, err = run_cli(capsys, "charpoly", "--", matrix)
    lines = err.strip().splitlines()
    assert code == 2 and out == "" and len(lines) == 1
    assert lines[0] == (
        f"error: matrix entry {entry} in row {row} is not an integer "
        f"(expected a matrix like a,b;c,d)"
    )


def test_cli_rejects_empty_tables(capsys):
    code, _, err = run_cli(capsys, "ramanujan", "--n", "0", "--m-max", "0")
    assert code == 2 and "--n >= 1" in err and "--m-max >= 1" in err
    code, _, err = run_cli(capsys, "lambda-table", "0")
    assert code == 2 and "max >= 1" in err


def test_cli_wittclass_outside_disc_without_numpy():
    proc = run_cli_process("wittclass", "--", "2", block_numpy=True)
    assert proc.returncode == 1 and "not a unit-spectrum" in proc.stderr


def test_cli_wittclass_outside_disc_in_a_fresh_interpreter():
    # main catches NotUnitSpectrum before it has imported linalg
    proc = run_python("-m", "cycwitt.cli", "wittclass", "0,-1;1,3")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "not a unit-spectrum matrix: an eigenvalue lies outside the unit disc "
        "(tr(A^1) = 3 exceeds dim A = 2 in modulus)"
    ]


# cli itself runs as __main__ and is never imported as cycwitt.cli: a handler
# module that imported it would compile it a second time
_BASE = {"cycwitt", "cycwitt.arith"}
_ELEMENTS = _BASE | {"cycwitt.cli_elements", "cycwitt.witt"}
_POLY = {"cycwitt.linalg", "cycwitt.matrices", "cycwitt.poly", "cycwitt.witt"}
_LAMBDA = _BASE | _POLY | {"cycwitt.cli_lambda", "cycwitt.lambda_ops"}
_LINALG = _BASE | _POLY | {"cycwitt.cli_matrices"}
# the rig commands load the matrix core and the table rigs, never linalg or
# rigs, whose carriers build Fraction constants and whose law checkers load random
_SECTIONS = _BASE | {"cycwitt.cli_matrices", "cycwitt.matrices"}
_SPECTRA = _BASE | {"cycwitt.cli_rigs", "cycwitt.matrices", "cycwitt.tables", "cycwitt.spectra"}
# costly stdlib imports: no call loads dataclasses, inspect, fractions or random
_STDLIB = ("dataclasses", "inspect", "fractions", "random")
# 999983 * 1000003 is left to bigfactor by trial division
_BIG = "phi(999985999949)"

# (id, argv, the cycwitt modules the call loads, a ceiling about 10 % over
# the code tokens of cli.py and those modules)
_CALLS = [
    ("import", [], _BASE, 2500),
    ("mul", ["mul", "phi(4)", "phi(6)"], _ELEMENTS, 5200),
    ("trace-json", ["--json", "trace", "2*phi(12) - 1"], _ELEMENTS, 5200),
    ("trace-big", ["trace", _BIG], _ELEMENTS | {"cycwitt.bigfactor"}, 5900),
    ("ramanujan", ["ramanujan", "--n", "3", "--m-max", "3"], _ELEMENTS, 5200),
    ("parseval", ["parseval", "12"], _ELEMENTS, 5200),
    ("charpoly", ["charpoly", "0,-1;1,1"], _LINALG, 9400),
    ("wittclass", ["wittclass", "0,-1;1,3"], _LINALG, 9400),
    ("lambda", ["lambda", "6"], _LAMBDA, 12300),
    ("gamma-filtration", ["gamma-filtration", "--level", "6", "--depth", "2"], _LAMBDA, 12300),
    ("sections", ["sections", "--rows", "1", "--cols", "1"], _SECTIONS, 4900),
    ("spec", ["spec", "--rig", "zmod:6"], _SPECTRA, 9300),
    ("radical", ["radical", "--rig", "zmod:8", "--ideal", "4"], _SPECTRA, 9300),
    ("theorem1", ["theorem1", "--rig", "zmod:6", "--s", "2"], _SPECTRA, 9300),
]


@functools.lru_cache(maxsize=None)
def _fresh_call(argv: tuple) -> dict:
    """{module: source file} of the cycwitt modules, and the names of the
    _STDLIB modules, that `python -m cycwitt.cli ARGV` loads besides cli.
    The interpreter is fresh, since pytest has imported every module here,
    and runs without site, whose .pth files may import more (one that loads
    tempfile loads random)."""
    code = (
        "import contextlib, io, runpy, sys\n"
        f"sys.argv = ['cycwitt', *{list(argv)!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('cycwitt.cli', run_name='__main__', alter_sys=True)\n"
        "    except SystemExit:\n"
        "        pass\n"
        "for m in sorted(sys.modules):\n"
    )
    code += f"    if m.startswith('cycwitt') or m in {_STDLIB}:\n"
    code += "        print(m, sys.modules[m].__file__)\n"
    proc = run_python("-S", "-c", code)
    assert proc.returncode == 0, proc.stderr
    return dict(line.split(" ", 1) for line in proc.stdout.splitlines())


_LAYOUT = {tokenize.COMMENT, tokenize.STRING, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _code_tokens(path: str) -> int:
    """The tokens of a source file other than comments, strings and layout,
    an f-string counted as a string on every Python version."""
    count = depth = 0
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            kind = tokenize.tok_name[tok.type]
            depth += (kind == "FSTRING_START") - (kind == "FSTRING_END")
            count += not depth and kind != "FSTRING_END" and tok.type not in _LAYOUT
    return count


@pytest.mark.parametrize("argv,loaded", [c[1:3] for c in _CALLS], ids=[c[0] for c in _CALLS])
def test_cli_call_loads_only_the_modules_its_subcommand_runs(argv, loaded):
    assert set(_fresh_call(tuple(argv))) == loaded


@pytest.mark.parametrize("argv,ceiling", [(c[1], c[3]) for c in _CALLS],
                         ids=[c[0] for c in _CALLS])
def test_cli_call_compiles_at_most_its_token_budget(argv, ceiling):
    # without cached bytecode every module a call loads is compiled, at a cost
    # that grows with its code tokens
    files = [f for m, f in _fresh_call(tuple(argv)).items() if m.startswith("cycwitt")]
    assert sum(map(_code_tokens, files + [str(Path(SRC, "cycwitt", "cli.py"))])) <= ceiling


def test_tracing_targets_resolve_once_the_session_modules_are_imported():
    # the session workloads import these four modules before the benchmark's
    # tracer wraps its targets in every loaded module; each target but
    # cli.main must then resolve without a further import
    tree = ast.parse((Path(__file__).parent.parent / "perfbench" / "tracing.py").read_text())
    targets = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TARGETS"
    )
    code = (
        "import sys\n"
        "import cycwitt.rigs, cycwitt.spectra, cycwitt.linalg, cycwitt.lambda_ops\n"
        f"for mod, path in {targets!r}:\n"
        "    obj = sys.modules.get('cycwitt.' + mod)\n"
        "    if mod == 'cli' and obj is None:\n"
        "        continue\n"
        "    for attr in path.split('.'):\n"
        "        obj = getattr(obj, attr)\n"
        "    assert callable(obj), (mod, path)\n"
        "print(len(sys.modules['cycwitt.rigs'].__all__))\n"
    )
    assert len(targets) >= 20 and ("rigs", "mat_compose") in targets
    proc = run_python("-c", code)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


# Each session workload imports these modules in its set-up and then runs
# calls of these kinds in timed tasks; lazy loading must not reach a task.
_SESSIONS = {
    "witt-algebra": (
        "from cycwitt import lambda_ops, roots, witt",
        "a = witt.WittElement({4: 2, 6: -1, 9: 3})\n"
        "witt.mul(a, a)\n"
        "witt.frobenius(6, a)\n"
        "lambda_ops.lambda_series(witt.phi(12), 4)\n"
        "lambda_ops.gamma_filtration(12, 2)\n"
        "lambda_ops.graded_frobenius_check(12, 1, 2)\n",
    ),
    "matrix-bridge": (
        "from cycwitt import linalg",
        "linalg.charpoly_rev(linalg.IntMatrix([[0, -1], [1, 1]]))\n"
        "linalg.witt_class(linalg.IntMatrix([[0, -1, 0], [1, 0, 0], [0, 0, 1]]))\n"
        "try:\n"
        "    linalg.witt_class(linalg.IntMatrix([[0, -1], [1, 3]]))\n"
        "except linalg.NotUnitSpectrum:\n"
        "    pass\n",
    ),
    "finite-rigs": (
        "from cycwitt import rigs, spectra",
        "for name in ('boolean', 'zmod:6', 'tropical-unit', 'tropical-nonneg', 'int'):\n"
        "    rigs.check_rig_laws(rigs.rig_by_name(name), budget=8)\n"
        "    rigs.check_prop_laws(rigs.rig_by_name(name), max_rows=1, max_cols=1, samples=1)\n"
        "r = spectra.FiniteCRig.zmod(12)\n"
        "spectra.spec(r)\n"
        "spectra.radical(r, spectra.ideal_generated(r, [4]))\n"
        "spectra.localize(r, frozenset({1, 5, 7, 11}))\n"
        "spectra.theorem1_check(r, 2)\n"
        "spectra.theorem1_check(spectra.FiniteCRig.tropical4(), 2)\n",
    ),
}


@pytest.mark.parametrize("imports,calls", _SESSIONS.values(), ids=_SESSIONS)
def test_session_tasks_import_no_module_their_set_up_did_not(imports, calls):
    code = f"import sys\n{imports}\nbefore = set(sys.modules)\n{calls}"
    code += "print(sorted(m for m in set(sys.modules) - before if m.startswith('cycwitt')))\n"
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_package_import_loads_no_submodule_and_names_resolve_to_their_homes():
    code = "import sys, cycwitt\nprint(sorted(m for m in sys.modules if m.startswith('cycwitt')))\n"
    proc = run_python("-S", "-c", code)
    assert proc.returncode == 0 and proc.stdout == "['cycwitt']\n", proc.stderr
    for name in cycwitt.__all__:
        obj = getattr(cycwitt, name)
        if name != "__version__":
            home = sys.modules[f"cycwitt.{cycwitt._HOMES[name]}"]
            assert obj is getattr(home, name) and name in home.__all__
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        cycwitt.nothing


def test_cli_unknown_rig(capsys):
    code, _, err = run_cli(capsys, "spec", "--rig", "nope")
    assert code == 2 and "unknown" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["spec", "--rig", "int"],
            "unknown finite rig 'int' (use boolean | zmod:N | tropical4, or load a table file)",
        ),
        (["trace", "2*x"], "expected 'phi(' (at offset 2)"),
        (["trace", "phix"], "expected '(' after 'phi' (at offset 3)"),
    ],
    ids=["spec-carrier-int", "trace-no-phi", "trace-phi-no-paren"],
)
def test_cli_rejects_carriers_and_bad_terms(argv, message, capsys):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_cli_gamma_filtration_level_zero_is_left_by_the_cost_check_to_the_handler(capsys):
    code, out, err = run_cli(capsys, "gamma-filtration", "--level", "0", "--depth", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: gamma_filtration() requires N >= 1")


_GOLDEN_CALLS = [
    ("lambda_table_10.txt", ["lambda-table", "10"]),
    ("ramanujan_12x12.txt", ["ramanujan", "--n", "12", "--m-max", "12"]),
    ("parseval_12.txt", ["parseval", "12"]),
    ("sections_2x2_bound2.txt", ["sections", "--rows", "2", "--cols", "2", "--bound", "2"]),
    ("theorem1_zmod6_s2.txt", ["theorem1", "--rig", "zmod:6", "--s", "2"]),
    # an empty basic open D(0), in text and in --json form
    ("theorem1_zmod6_s0.txt", ["theorem1", "--rig", "zmod:6", "--s", "0"]),
    ("theorem1_zmod6_s0.json", ["--json", "theorem1", "--rig", "zmod:6", "--s", "0"]),
    ("theorem1_boolean_s0.txt", ["theorem1", "--rig", "boolean", "--s", "0"]),
    ("theorem1_boolean_s0.json", ["--json", "theorem1", "--rig", "boolean", "--s", "0"]),
]


@pytest.mark.parametrize("golden,argv", _GOLDEN_CALLS)
def test_golden_files(golden, argv, capsys):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("golden,argv", _GOLDEN_CALLS)
def test_golden_files_in_a_fresh_interpreter(golden, argv):
    # each handler imports its own modules, which pytest has loaded already
    proc = run_python("-m", "cycwitt.cli", *argv, text=False)
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == (GOLDEN / golden).read_bytes()


def test_cli_help_matches_golden(monkeypatch, capsys):
    # argparse wraps help to the terminal width, which it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    chunks = []
    for argv in ([], *([name] for name in _SUBCOMMANDS)):
        with pytest.raises(SystemExit):
            main([*argv, "-h"])
        chunks.append(f"$ cycwitt {' '.join([*argv, '-h'])}\n{capsys.readouterr().out}")
    assert "\n".join(chunks) == (GOLDEN / "help.txt").read_text()
