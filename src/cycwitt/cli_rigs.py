"""Handlers of the finite-rig commands of ``cli`` (spec, radical and
theorem1)."""

from __future__ import annotations

from . import spectra, tables


def _load_finite_rig(name: str) -> tables.FiniteCRig:
    if name.startswith("file:"):
        with open(name[5:], encoding="utf-8") as f:
            return tables.FiniteCRig.from_text(f.read())
    r = tables.rig_by_name(name)
    if not isinstance(r, tables.FiniteCRig):
        raise ValueError(
            f"unknown finite rig {name!r} (use boolean | zmod:N | tropical4, "
            f"or load a table file)"
        )
    return r


def cmd_spec(args):
    r = _load_finite_rig(args.rig)
    sp = spectra.spec(r)
    lines = [f"spec {r.name}: {len(sp.primes)} prime(s)"]
    lines += ["  " + r.describe(p) for p in sp.primes]
    obj = {"rig": r.name, "primes": [sorted(p) for p in sp.primes]}
    return lines, obj


def cmd_radical(args):
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


def cmd_theorem1(args):
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
