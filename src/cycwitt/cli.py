"""Command-line front end.

Each subcommand is one row of ``_COMMANDS``: its arguments, its price (a
cost check that runs before any work) and where its handler lives.  A
call imports only its handler's module (``cli_elements`` for the
Witt-element commands, ``cli_lambda``, ``cli_matrices`` or ``cli_rigs``)
and what that module imports, so that, without cached bytecode, it
compiles only the code its subcommand runs.  Witt elements are written in
the grammar of ``cli_elements``, matrices as 'a,b;c,d'.  Exit codes:
0 success, 1 verification failure, 2 usage error, 3 internal error (a
cross-check or invariant inside the library failed: a bug, not a
verdict).
"""

from __future__ import annotations

import argparse
import sys
from collections import namedtuple
from importlib import import_module

from .arith import BudgetExceeded, NotUnitSpectrum, divisors, euler_phi


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
# forms (level 5040 at depth 2 has 57600 and takes about 1.8 s as a command,
# 1.6-1.7 s as a library call; at depth 3, 90000 and about 2.8 s as a library
# call).
GAMMA_BUDGET = 60_000
# The most basis products, |supp a| * |supp b|, that mul forms (the sum of
# phi(i) for i <= 500 times itself has 250000, takes about 0.4 s and prints
# 0.8 MB).
MUL_BUDGET = 250_000
# The most rows of a charpoly or wittclass matrix.  Berkowitz forms about n^4
# products, each costlier as the entries grow, so rows^4 times the digits of
# the longest entry is held to MATRIX_BUDGET^4: a dense 100 x 100 with
# one-digit entries and a 12 x 12 with 4300-digit ones (the most int() parses)
# each take about 3 s (3.0 and 2.9 s, parse and charpoly_rev, medians of five
# runs), and a 100 x 100 with 10-digit entries about 7 s (7.4 s).  Only the
# first packs some Krylov steps; in the others no Krylov vector fits a slot.
MATRIX_BUDGET = 100


def _mul_cost(args) -> None:
    # the operands are parsed, which factors nothing, and parsed again to run
    from .cli_elements import parse_witt

    sizes = [len(parse_witt(text).support) for text in (args.a, args.b)]
    if sizes[0] * sizes[1] > MUL_BUDGET:
        raise BudgetExceeded(f"{sizes[0]}*{sizes[1]} basis products", MUL_BUDGET)


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


# A subcommand.  An argument is written NAME[:int][=DEFAULT]: a --NAME option
# is required unless it has a default, any other NAME is positional.  The
# handler is named, not imported: run is (module, function, leading
# arguments...), and main imports the module only to call it.  main runs the
# cost check, which raises BudgetExceeded, before the handler; the handler
# returns its text lines, its JSON object and, for a check, whether it passed.
_Command = namedtuple("_Command", "name help arguments run cost", defaults=(None,))

_ELEMENTS = "cli_elements", "cmd_witt"

_COMMANDS = (
    _Command("mul", "product of two elements", ("a", "b"), (*_ELEMENTS, "mul"), _mul_cost),
    _Command("inner", "inner product of two elements", ("a", "b"), (*_ELEMENTS, "inner")),
    _Command("trace", "trace projection", ("a",), (*_ELEMENTS, "trace")),
    _Command("f0", "root-count projection", ("a",), (*_ELEMENTS, "f0")),
    _Command("integral", "coefficient of phi(1)", ("a",), (*_ELEMENTS, "integral")),
    _Command("frob", "power operator F_m", ("m:int", "a"), (*_ELEMENTS, "frobenius")),
    _Command("versch", "index multiplication V_m", ("m:int", "a"), (*_ELEMENTS, "verschiebung")),
    _Command("tm", "trace of F_m (Ramanujan sums on the basis)", ("m:int", "a"),
             (*_ELEMENTS, "t_m")),
    _Command("lambda", "lambda_t series of phi(n)", ("n:int",), ("cli_lambda", "cmd_lambda"),
             _lambda_cost),
    _Command("lambda-table", "lambda_t table for n = 1..max", ("max:int",),
             ("cli_lambda", "cmd_lambda_table"), _lambda_table_cost),
    _Command("gamma-filtration", "gamma filtration lattices", ("--level:int", "--depth:int"),
             ("cli_lambda", "cmd_gamma_filtration"), _gamma_filtration_cost),
    _Command("ramanujan", "table of Ramanujan sums", ("--n:int", "--m-max:int"),
             ("cli_elements", "cmd_ramanujan"), _ramanujan_cost),
    _Command("parseval", "finite Fourier orthogonality check", ("N:int",),
             ("cli_elements", "cmd_parseval"), _parseval_cost),
    _Command("charpoly", "det(1 - x*A) of an integer matrix", ("matrix",),
             ("cli_matrices", "cmd_charpoly"), _matrix_cost),
    _Command("wittclass", "orbit classes of a unit-spectrum matrix", ("matrix",),
             ("cli_matrices", "cmd_wittclass"), _matrix_cost),
    _Command("sections", "integer norm-contractions of a shape",
             ("--rows:int", "--cols:int", "--bound:int=1"), ("cli_matrices", "cmd_sections")),
    _Command("spec", "primes of a finite rig", ("--rig",), ("cli_rigs", "cmd_spec")),
    _Command("radical", "radical of an ideal in a finite rig", ("--rig", "--ideal="),
             ("cli_rigs", "cmd_radical")),
    _Command("theorem1", "structure sheaf check on a basic open", ("--rig", "--s"),
             ("cli_rigs", "cmd_theorem1")),
)


_BY_NAME = {cmd.name: cmd for cmd in _COMMANDS}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand or, given a command's name, of that
    one alone, under the same usage line, so that it parses the command's
    calls and words their errors as the full parser does."""
    parser = argparse.ArgumentParser(
        prog="cycwitt",
        description="exact cyclotomic Witt ring calculator and verification suite",
    )
    parser.add_argument("--json", action="store_true", help="stable machine-readable output")
    # a lone subparser is shown as the list of every command, as argparse shows them all
    every = None if command is None else "{" + ",".join(_BY_NAME) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for cmd in _COMMANDS if command is None else (_BY_NAME[command],):
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


def _parser_for(argv: list) -> argparse.ArgumentParser:
    # a call whose command follows only --json flags gets that command's
    # subparser alone; any other call (no command, help, "--" or an unknown
    # name first) gets them all, so its help and errors are argparse's own
    first = next((token for token in argv if token != "--json"), None)
    return build_parser(first if first in _BY_NAME else None)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser_for(argv).parse_args(argv)
    try:
        if args.cmd.cost:
            args.cmd.cost(args)
        module, function, *leading = args.cmd.run
        run = getattr(import_module(f"{__package__}.{module}"), function)
        lines, obj, *passed = run(*leading, args)
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
