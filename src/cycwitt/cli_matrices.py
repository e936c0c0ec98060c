"""Handlers of the integer-matrix commands of ``cli`` (charpoly, wittclass
and sections).  Matrices are written 'a,b;c,d'.  Only charpoly and
wittclass load ``linalg``, and with it the Witt ring."""

from __future__ import annotations

from . import matrices


def cmd_charpoly(args):
    from . import linalg

    a = matrices.parse_matrix(args.matrix)
    p = linalg.charpoly_rev(a)
    return [p.pretty("x")], {"coefficients": list(p.coeffs)}


def cmd_wittclass(args):
    from . import linalg
    from .witt import format_witt

    a = matrices.parse_matrix(args.matrix)
    w = linalg.witt_class(a)
    return [format_witt(w)], {"result": w.to_pairs()}


def cmd_sections(args):
    report = matrices.global_sections(args.rows, args.cols, args.bound)
    obj = {
        "rows": args.rows,
        "cols": args.cols,
        "bound": args.bound,
        "count": len(report.matrices),
        "ok": report.ok,
        "matrices": [[list(r) for r in m.entries] for m in report.matrices],
    }
    return [report.summary()], obj, report.ok
