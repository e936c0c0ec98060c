"""Handlers of the Witt-element commands of ``cli`` (mul, inner, trace,
f0, integral, frob, versch, tm, ramanujan and parseval), and the grammar
their operands are written in::

    expression := ['+'|'-'] term (('+'|'-') term)*
    term       := [unsigned-integer '*']? 'phi(' positive-integer ')'
                | unsigned-integer          # a multiple of phi(1)

Whitespace is insignificant.  ``witt.format_witt`` prints the canonical
form (terms ascending by index, zero omitted, bare integers for phi(1)
multiples), and printing then parsing is the identity on canonical
elements.

A handler takes the parsed arguments and returns its text lines, its JSON
object and, for a check, whether it passed.  No handler module imports
``cli``: under ``python -m cycwitt.cli`` that would compile it twice.
"""

from __future__ import annotations

from . import witt
from .arith import ramanujan_sum
from .witt import WittElement, format_witt

__all__ = ["ParseError", "parse_witt"]


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


def cmd_witt(op: str, args):
    # op is looked up on witt at call time, so that a wrapper installed on the
    # module is seen; the index m is an int, every other operand an element
    keys = args.cmd.arguments
    operands = [args.m if key == "m:int" else parse_witt(getattr(args, key)) for key in keys]
    out = getattr(witt, op)(*operands)
    if isinstance(out, WittElement):
        return [format_witt(out)], {"result": out.to_pairs()}
    return [str(out)], {"value": out}


def cmd_ramanujan(args):
    if args.n < 1 or args.m_max < 1:
        raise ValueError("ramanujan needs --n >= 1 and --m-max >= 1")
    rows = [[ramanujan_sum(n, m) for m in range(1, args.m_max + 1)] for n in range(1, args.n + 1)]
    obj = {"n_max": args.n, "m_max": args.m_max, "rows": rows}
    return ramanujan_table(rows), obj


def cmd_parseval(args):
    report = witt.parseval_check(args.N)
    obj = {
        "N": args.N,
        "ok": report.ok,
        "pairs_checked": report.pairs_checked,
        "failures": [[n, m, str(l), str(r)] for n, m, l, r in report.failures],
    }
    return [report.summary()], obj, report.ok
