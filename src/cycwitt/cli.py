"""Command-line front end.

Witt elements are written in a small expression grammar::

    expression := ['+'|'-'] term (('+'|'-') term)*
    term       := [unsigned-integer '*']? 'phi(' positive-integer ')'
                | unsigned-integer          # a multiple of phi(1)

Whitespace is insignificant.  The printer emits the canonical form
(terms ascending by index, zero omitted, bare integers for phi(1)
multiples), and printing then parsing is the identity on canonical
elements.  Matrices are written 'a,b;c,d'.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 internal error (a cross-check
or invariant inside the library failed: a bug, not a verdict).
"""

from __future__ import annotations

import argparse
import sys
from collections import namedtuple
from functools import partial
from typing import TYPE_CHECKING

# witt and arith are loaded with the package; every other module is imported
# by the handler that needs it, so a call loads (and, without cached
# bytecode, compiles) only what its subcommand runs
from . import witt
from .arith import BudgetExceeded, NotUnitSpectrum, divisors, euler_phi, join_signed, ramanujan_sum
from .witt import WittElement

if TYPE_CHECKING:
    from . import lambda_ops, rigs

class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def parse_witt(text: str) -> WittElement:
    """Parse the expression grammar into a canonical element."""
    i = 0
    n = len(text)
    coeffs: dict[int, int] = {}

    def skip_ws():
        nonlocal i
        while i < n and text[i].isspace():
            i += 1

    def read_int() -> int:
        nonlocal i
        start = i
        while i < n and text[i].isdigit():
            i += 1
        if i == start:
            raise ParseError("expected an integer", start)
        return int(text[start:i])

    def read_term(sign: int):
        nonlocal i
        skip_ws()
        start = i
        if i < n and text[i].isdigit():
            value = read_int()
            skip_ws()
            if i < n and text[i] == "*":
                i += 1
                skip_ws()
                idx = read_phi(start)
                coeffs[idx] = coeffs.get(idx, 0) + sign * value
            else:
                coeffs[1] = coeffs.get(1, 0) + sign * value
        elif text.startswith("phi", i):
            idx = read_phi(start)
            coeffs[idx] = coeffs.get(idx, 0) + sign
        else:
            raise ParseError("expected a term", i)

    def read_phi(term_start: int) -> int:
        nonlocal i
        if not text.startswith("phi", i):
            raise ParseError("expected 'phi('", i)
        i += 3
        skip_ws()
        if i >= n or text[i] != "(":
            raise ParseError("expected '(' after 'phi'", i)
        i += 1
        skip_ws()
        idx = read_int()
        if idx < 1:
            raise ParseError("phi() index must be a positive integer", term_start)
        skip_ws()
        if i >= n or text[i] != ")":
            raise ParseError("expected ')'", i)
        i += 1
        return idx

    skip_ws()
    if i == n:
        raise ParseError("empty expression", 0)
    sign = 1
    if text[i] in "+-":
        sign = -1 if text[i] == "-" else 1
        i += 1
    read_term(sign)
    skip_ws()
    while i < n:
        if text[i] not in "+-":
            raise ParseError("expected '+' or '-'", i)
        sign = -1 if text[i] == "-" else 1
        i += 1
        read_term(sign)
        skip_ws()
    return WittElement(coeffs)


def _signed_terms(items, bare_one: bool = True):
    # (negative, body) pairs; bare_one writes phi(1) multiples as integers
    for n, c in items:
        mag = abs(c)
        if n == 1 and bare_one:
            body = str(mag)
        elif mag == 1:
            body = f"phi({n})"
        else:
            body = f"{mag}*phi({n})"
        yield c < 0, body


def format_witt(w: WittElement) -> str:
    """Canonical text: ascending indices, phi(1) multiples as bare integers."""
    return join_signed(_signed_terms(w.items()))


def format_series(s: lambda_ops.WittSeries) -> str:
    """Series display with explicit signs, powers of t ascending."""

    def body(k: int, shown: WittElement) -> str:
        if k == 0:
            return format_witt(shown)
        power = "t" if k == 1 else f"t^{k}"
        items = shown.items()
        if items == ((1, 1),):
            return power
        if len(items) == 1 and items[0][0] == 1:
            return f"{power}*{items[0][1]}"
        if len(items) == 1 and items[0][1] == 1:
            return f"{power}*phi({items[0][0]})"
        # inside series coefficients the display follows the classical
        # table: indices descending, phi(1) written explicitly
        descending = sorted(items, reverse=True)
        return f"{power}*({join_signed(_signed_terms(descending, bare_one=False))})"

    terms = []
    for k in range(s.degree + 1):
        c = s[k]
        if c.is_zero():
            continue
        negative = all(v < 0 for _, v in c.items())
        terms.append((negative, body(k, -c if negative else c)))
    return join_signed(terms)


def ramanujan_table(rows: list[list[int]]) -> list[str]:
    """Text lines of a table of Ramanujan sums, rows[n-1][m-1] = c_n(m)."""
    n_max, m_max = len(rows), len(rows[0])
    width = max(len(str(v)) for row in rows for v in row)
    width = max(width, len(str(m_max)))
    label = "n\\m"
    label_w = max(len(label), len(str(n_max)))
    header = f"{label:>{label_w}} |" + "".join(f" {m:>{width}}" for m in range(1, m_max + 1))
    lines = [header, "-" * len(header)]
    for n, row in enumerate(rows, start=1):
        lines.append(f"{n:>{label_w}} |" + "".join(f" {v:>{width}}" for v in row))
    return lines


def _cmd_witt(op: str, args):
    # op is looked up on witt at call time, so that a wrapper installed on the
    # module is seen; the index m is an int, every other operand an element
    keys = args.cmd.arguments
    operands = [args.m if key == "m:int" else parse_witt(getattr(args, key)) for key in keys]
    out = getattr(witt, op)(*operands)
    if isinstance(out, WittElement):
        return [format_witt(out)], {"result": out.to_pairs()}
    return [str(out)], {"value": out}


# The largest euler_phi(n) whose lambda series the lambda commands expand;
# lambda 1009, just above it, prints 0.5 MB of digits.
LAMBDA_BUDGET = 1000
# The most Ramanujan sums a ramanujan table computes, a row's factoring counted
# as 10 (1000 x 1000 has 1010000 and takes about 2.5 s).
RAMANUJAN_BUDGET = 1_010_000
# The most products, a Ramanujan sum counted as 12, that parseval does
# (parseval 20000 has 25200000 and takes about 2.3 s).
PARSEVAL_BUDGET = 30_000_000
# The most gamma products, tau(N)^2 * (depth + 2)^2, that gamma-filtration
# forms (level 5040 at depth 2 has 57600 and takes about 2 s; at depth 3,
# 90000 and about 3.3 s as a library call).
GAMMA_BUDGET = 60_000
# The most rows of a charpoly or wittclass matrix.  Berkowitz forms about n^4
# products, each costlier as the entries grow, so rows^4 times the digits of
# the longest entry is held to MATRIX_BUDGET^4: a dense 100 x 100 with
# one-digit entries and a 12 x 12 with 4300-digit ones (the most int() parses)
# each take about 3 s (3.0 and 2.9 s, parse and charpoly_rev, medians of five
# runs), and a 100 x 100 with 10-digit entries about 7 s (7.4 s).  Only the
# first packs some Krylov steps; in the others no Krylov vector fits a slot.
MATRIX_BUDGET = 100


def _lambda_cost(args) -> None:
    # euler_phi(n) >= sqrt(n/2), so larger n are refused without factoring
    n = args.n
    if n > 2 * LAMBDA_BUDGET**2 or (n >= 1 and euler_phi(n) > LAMBDA_BUDGET):
        raise BudgetExceeded(f"euler_phi({n})", f"{LAMBDA_BUDGET} coefficients")


def _lambda_table_cost(args) -> None:
    # row n costs about euler_phi(n)**2: the table is held to the cost of the
    # largest lambda call, and a huge max stops at the first n over it
    total = 0
    for n in range(1, args.max + 1):
        total += euler_phi(n) ** 2
        if total > LAMBDA_BUDGET**2:
            what = f"sum of euler_phi(k)^2 for k <= {n} is {total}"
            raise BudgetExceeded(what, f"{LAMBDA_BUDGET}^2")


def _ramanujan_cost(args) -> None:
    # each row also factors a new index, which costs about 10 sums
    if args.n > 0 and args.n * (args.m_max + 10) > RAMANUJAN_BUDGET:
        what = f"{args.n}*({args.m_max} + 10) Ramanujan sums"
        raise BudgetExceeded(what, RAMANUJAN_BUDGET)


def _parseval_cost(args) -> None:
    # tau(N) columns of N Ramanujan sums, then tau(N)^2 inner products of
    # length N; tau(N) >= 1, so an N over the budget is refused unfactored
    n = args.N
    tau = len(divisors(n)) if 1 <= n <= PARSEVAL_BUDGET else 1
    if (tau + 12) * tau * n > PARSEVAL_BUDGET:
        raise BudgetExceeded(f"(tau({n}) + 12)*tau({n})*{n} products", PARSEVAL_BUDGET)


def _gamma_filtration_cost(args) -> None:
    # tau(N) >= 1, so a depth over the budget is refused before N is factored;
    # a level or depth below 1 is left to the handler's error
    level, depth = args.level, args.depth
    if level < 1 or depth < 1:
        return
    if (depth + 2) ** 2 > GAMMA_BUDGET:
        raise BudgetExceeded(f"({depth} + 2)^2 gamma products", GAMMA_BUDGET)
    tau = len(divisors(level))
    if tau**2 * (depth + 2) ** 2 > GAMMA_BUDGET:
        raise BudgetExceeded(f"tau({level})^2*({depth} + 2)^2 gamma products", GAMMA_BUDGET)


def _matrix_cost(args) -> None:
    # rows and entry lengths are read from the text, before any entry is parsed
    text = args.matrix
    rows = text.count(";") + 1
    if rows > MATRIX_BUDGET:
        raise BudgetExceeded(f"{rows} matrix rows", MATRIX_BUDGET)
    digits = max(len(e.strip().lstrip("+-")) for e in text.replace(";", ",").split(","))
    if rows**4 * digits > MATRIX_BUDGET**4:
        what = f"rows^4 * entry digits = {rows}^4 * {digits}"
        raise BudgetExceeded(what, f"{MATRIX_BUDGET}^4")


def _lambda_series(n: int) -> lambda_ops.WittSeries:
    from . import lambda_ops

    return lambda_ops.lambda_series(witt.phi(n), euler_phi(n))


def _series_pairs(series: lambda_ops.WittSeries) -> list:
    return [series[k].to_pairs() for k in range(series.degree + 1)]


def _cmd_lambda(args):
    series = _lambda_series(args.n)
    return [format_series(series)], {"n": args.n, "coefficients": _series_pairs(series)}


def _cmd_lambda_table(args):
    if args.max < 1:
        raise ValueError("lambda-table needs max >= 1")
    table = [(n, _lambda_series(n)) for n in range(1, args.max + 1)]
    lines = [f"lambda_t(phi({n})) = {format_series(series)}" for n, series in table]
    obj = {"table": [{"n": n, "coefficients": _series_pairs(series)} for n, series in table]}
    return lines, obj


def _cmd_gamma_filtration(args):
    from . import lambda_ops

    filt = lambda_ops.gamma_filtration(args.level, args.depth)
    lines = [
        f"gamma filtration on the divisor span of {args.level} "
        f"(divisors {list(filt.divisors)}), depth {args.depth}"
    ]
    for k, lat in enumerate(filt.lattices):
        lines.append(f"I_{k}: rank {lat.rank}")
        for row in lat.basis:
            lines.append("  " + str(list(row)))
    obj = {
        "level": args.level,
        "depth": args.depth,
        "divisors": list(filt.divisors),
        "lattices": [
            {"index": k, "rank": lat.rank, "basis": [list(r) for r in lat.basis]}
            for k, lat in enumerate(filt.lattices)
        ],
    }
    return lines, obj


def _cmd_ramanujan(args):
    if args.n < 1 or args.m_max < 1:
        raise ValueError("ramanujan needs --n >= 1 and --m-max >= 1")
    rows = [[ramanujan_sum(n, m) for m in range(1, args.m_max + 1)] for n in range(1, args.n + 1)]
    obj = {"n_max": args.n, "m_max": args.m_max, "rows": rows}
    return ramanujan_table(rows), obj


def _cmd_parseval(args):
    report = witt.parseval_check(args.N)
    obj = {
        "N": args.N,
        "ok": report.ok,
        "pairs_checked": report.pairs_checked,
        "failures": [[n, m, str(l), str(r)] for n, m, l, r in report.failures],
    }
    return [report.summary()], obj, report.ok


def _cmd_charpoly(args):
    from . import linalg

    a = linalg.parse_matrix(args.matrix)
    p = linalg.charpoly_rev(a)
    return [p.pretty("x")], {"coefficients": list(p.coeffs)}


def _cmd_wittclass(args):
    from . import linalg

    a = linalg.parse_matrix(args.matrix)
    w = linalg.witt_class(a)
    return [format_witt(w)], {"result": w.to_pairs()}


def _cmd_sections(args):
    from . import rigs

    report = rigs.global_sections(args.rows, args.cols, args.bound)
    obj = {
        "rows": args.rows,
        "cols": args.cols,
        "bound": args.bound,
        "count": len(report.matrices),
        "ok": report.ok,
        "matrices": [[list(r) for r in m.entries] for m in report.matrices],
    }
    return [report.summary()], obj, report.ok


def _load_finite_rig(name: str) -> rigs.FiniteCRig:
    from . import rigs

    if name.startswith("file:"):
        with open(name[5:], encoding="utf-8") as f:
            return rigs.FiniteCRig.from_text(f.read())
    r = rigs.rig_by_name(name)
    if not isinstance(r, rigs.FiniteCRig):
        raise ValueError(
            f"unknown finite rig {name!r} (use boolean | zmod:N | tropical4, "
            f"or load a table file)"
        )
    return r


def _cmd_spec(args):
    from . import spectra

    r = _load_finite_rig(args.rig)
    sp = spectra.spec(r)
    lines = [f"spec {r.name}: {len(sp.primes)} prime(s)"]
    lines += ["  " + r.describe(p) for p in sp.primes]
    obj = {"rig": r.name, "primes": [sorted(p) for p in sp.primes]}
    return lines, obj


def _cmd_radical(args):
    from . import spectra

    r = _load_finite_rig(args.rig)
    seed = [r.element_by_name(s.strip()) for s in args.ideal.split(",")] if args.ideal else []
    ideal = spectra.ideal_generated(r, seed)
    rad = spectra.radical(r, ideal)
    lines = [
        f"radical over {r.name} of ideal {r.describe(ideal.elements)}: "
        f"{r.describe(rad.elements)} (power test == prime intersection)"
    ]
    obj = {
        "rig": r.name,
        "ideal": sorted(ideal.elements),
        "radical": sorted(rad.elements),
        "agrees": True,
    }
    return lines, obj


def _cmd_theorem1(args):
    from . import spectra

    r = _load_finite_rig(args.rig)
    s = r.element_by_name(args.s)
    report = spectra.theorem1_check(r, s)
    obj = {
        "rig": r.name,
        "s": s,
        "ok": report.ok,
        "opens": [sorted(p) for p in report.opens],
        "fractions": report.loc_size,
        "local_families": report.local_families,
    }
    return [report.summary()], obj, report.ok


# A subcommand.  An argument is written NAME[:int][=DEFAULT]: a --NAME option
# is required unless it has a default, any other NAME is positional.  main
# runs the cost check, which raises BudgetExceeded, before the handler; the
# handler returns its text lines, its JSON object and, for a check, whether
# it passed.
_Command = namedtuple("_Command", "name help arguments run cost", defaults=(None,))


_COMMANDS = (
    _Command("mul", "product of two elements", ("a", "b"), partial(_cmd_witt, "mul")),
    _Command("inner", "inner product of two elements", ("a", "b"), partial(_cmd_witt, "inner")),
    _Command("trace", "trace projection", ("a",), partial(_cmd_witt, "trace")),
    _Command("f0", "root-count projection", ("a",), partial(_cmd_witt, "f0")),
    _Command("integral", "coefficient of phi(1)", ("a",), partial(_cmd_witt, "integral")),
    _Command("frob", "power operator F_m", ("m:int", "a"), partial(_cmd_witt, "frobenius")),
    _Command("versch", "index multiplication V_m", ("m:int", "a"),
             partial(_cmd_witt, "verschiebung")),
    _Command("tm", "trace of F_m (Ramanujan sums on the basis)", ("m:int", "a"),
             partial(_cmd_witt, "t_m")),
    _Command("lambda", "lambda_t series of phi(n)", ("n:int",), _cmd_lambda, _lambda_cost),
    _Command("lambda-table", "lambda_t table for n = 1..max", ("max:int",), _cmd_lambda_table,
             _lambda_table_cost),
    _Command("gamma-filtration", "gamma filtration lattices", ("--level:int", "--depth:int"),
             _cmd_gamma_filtration, _gamma_filtration_cost),
    _Command("ramanujan", "table of Ramanujan sums", ("--n:int", "--m-max:int"), _cmd_ramanujan,
             _ramanujan_cost),
    _Command("parseval", "finite Fourier orthogonality check", ("N:int",), _cmd_parseval,
             _parseval_cost),
    _Command("charpoly", "det(1 - x*A) of an integer matrix", ("matrix",), _cmd_charpoly,
             _matrix_cost),
    _Command("wittclass", "orbit classes of a unit-spectrum matrix", ("matrix",), _cmd_wittclass,
             _matrix_cost),
    _Command("sections", "integer norm-contractions of a shape",
             ("--rows:int", "--cols:int", "--bound:int=1"), _cmd_sections),
    _Command("spec", "primes of a finite rig", ("--rig",), _cmd_spec),
    _Command("radical", "radical of an ideal in a finite rig", ("--rig", "--ideal="), _cmd_radical),
    _Command("theorem1", "structure sheaf check on a basic open", ("--rig", "--s"), _cmd_theorem1),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycwitt",
        description="exact cyclotomic Witt ring calculator and verification suite",
    )
    parser.add_argument("--json", action="store_true", help="stable machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in _COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        for spec in cmd.arguments:
            spec, has_default, default = spec.partition("=")
            name, _, kind = spec.partition(":")
            kwargs = {"type": int} if kind == "int" else {}
            if name.startswith("--"):
                kwargs |= {"default": default} if has_default else {"required": True}
            p.add_argument(name, **kwargs)
        p.set_defaults(cmd=cmd)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.cmd.cost:
            args.cmd.cost(args)
        lines, obj, *passed = args.cmd.run(args)
        if args.json:
            import json

            print(json.dumps(obj, sort_keys=True, separators=(", ", ": ")))
        else:
            for line in lines:
                print(line)
        return 0 if all(passed) else 1
    except NotUnitSpectrum as exc:  # a verdict, kept apart from the ValueError it is
        print(f"not a unit-spectrum matrix: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError, AssertionError) as exc:
        # RadicalMismatch, localize's missing inverse, inexact divisions
        # and failed invariants: a bug, kept apart from a failed check
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
