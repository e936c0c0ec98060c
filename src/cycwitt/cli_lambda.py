"""Handlers of the lambda commands of ``cli`` (lambda, lambda-table and
gamma-filtration), and the text form of a lambda series."""

from __future__ import annotations

from . import lambda_ops
from .arith import euler_phi, join_signed
from .witt import format_witt, phi, signed_terms

__all__ = ["format_series"]


def format_series(s: lambda_ops.WittSeries) -> str:
    """Series display with explicit signs, powers of t ascending."""

    def body(k: int, shown) -> str:
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
        return f"{power}*({join_signed(signed_terms(descending, bare_one=False))})"

    terms = []
    for k in range(s.degree + 1):
        c = s[k]
        if not c:
            continue
        negative = all(v < 0 for _, v in c.items())
        terms.append((negative, body(k, -c if negative else c)))
    return join_signed(terms)


def _lambda_series(n: int) -> lambda_ops.WittSeries:
    return lambda_ops.lambda_series(phi(n), euler_phi(n))


def _series_pairs(series: lambda_ops.WittSeries) -> list:
    return [series[k].to_pairs() for k in range(series.degree + 1)]


def cmd_lambda(args):
    series = _lambda_series(args.n)
    return [format_series(series)], {"n": args.n, "coefficients": _series_pairs(series)}


def cmd_lambda_table(args):
    if args.max < 1:
        raise ValueError("lambda-table needs max >= 1")
    table = [(n, _lambda_series(n)) for n in range(1, args.max + 1)]
    lines = [f"lambda_t(phi({n})) = {format_series(series)}" for n, series in table]
    obj = {"table": [{"n": n, "coefficients": _series_pairs(series)} for n, series in table]}
    return lines, obj


def cmd_gamma_filtration(args):
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
