"""Spans around cycwitt's public functions, installed from the outside.

Each target is wrapped where it is defined and rebound in every cycwitt
module that imported the same object, so calls made through
``from .witt import mul`` are seen as well as ``witt.mul``.  Spans are
kept in flat arrays (name, start, end, parent, task) and written out
once at the end.  A span's self time is its duration minus the
durations of its direct child spans; the time of a task that no span
covers is reported as ``other.self_s``.
"""

from __future__ import annotations

import sys
import time
from array import array

# (module, attribute path); a class target wraps its __init__, so the
# span covers construction including table validation
TARGETS = (
    ("cli", "main"),
    ("arith", "factor"),
    ("arith", "cyclotomic_poly"),
    ("witt", "mul"),
    ("witt", "frobenius"),
    ("lambda_ops", "lambda_series"),
    ("lambda_ops", "gamma_basis"),
    ("lambda_ops", "gamma_filtration"),
    ("lambda_ops", "graded_frobenius_check"),
    ("linalg", "hnf"),
    ("linalg", "HnfLattice.contains"),
    ("linalg", "charpoly_rev"),
    ("linalg", "spectrum_in_unit_disc"),
    ("linalg", "witt_class"),
    ("rigs", "mat_compose"),
    ("rigs", "direct_sum"),
    ("rigs", "oplus"),
    ("rigs", "perm_matrix"),
    ("rigs", "check_prop_laws"),
    ("rigs", "check_rig_laws"),
    ("spectra", "FiniteCRig"),
    ("spectra", "ideal_generated"),
    ("spectra", "localize"),
    ("spectra", "all_ideals"),
    ("spectra", "spec"),
    ("spectra", "theorem1_check"),
)
NAMES = tuple(f"{mod}.{path}" for mod, path in TARGETS)
CACHED = ("arith.factor",)  # targets whose cache_info() is reported


class Recorder:
    """In-memory span store for one process."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task = array("i")
        self.stack: list[int] = []
        self.current_task = -1
        self.originals: dict[str, object] = {}

    def wrap(self, name_id: int, fn):
        clock = time.perf_counter
        rec = self

        def traced(*args, **kwargs):
            idx = len(rec.name)
            rec.name.append(name_id)
            rec.parent.append(rec.stack[-1] if rec.stack else -1)
            rec.task.append(rec.current_task)
            rec.stack.append(idx)
            t0 = clock()
            rec.start.append(t0)
            rec.end.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end[idx] = clock()
                rec.stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Wrap every target whose module is already imported."""
        loaded = [m for k, m in list(sys.modules.items()) if k.startswith("cycwitt") and m]
        for name_id, (mod_name, path) in enumerate(TARGETS):
            mod = sys.modules.get(f"cycwitt.{mod_name}")
            if mod is None:
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            orig = getattr(owner, attr)
            self.originals[NAMES[name_id]] = orig
            if isinstance(orig, type):
                orig.__init__ = self.wrap(name_id, orig.__init__)
                continue
            wrapped = self.wrap(name_id, orig)
            setattr(owner, attr, wrapped)
            if owner_name:
                continue
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

    def cache_counts(self) -> dict[str, tuple[int, int]]:
        out = {}
        for name in CACHED:
            fn = self.originals.get(name)
            if fn is not None:
                info = fn.cache_info()
                out[name] = (info.hits, info.misses)
        return out

    def write(self, path) -> None:
        """One line per span: name, start, end, parent index, task id."""
        with open(path, "w", encoding="utf-8") as f:
            for i in range(len(self.name)):
                f.write(
                    f"{NAMES[self.name[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\t"
                    f"{self.parent[i]}\t{self.task[i]}\n"
                )

    def summary(self) -> dict:
        """Per-target calls and self time, and the time covered by top-level spans."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        top = 0.0
        for i in range(n):
            dur = self.end[i] - self.start[i]
            calls[self.name[i]] += 1
            self_s[self.name[i]] += dur - child[i]
            if self.parent[i] < 0:
                top += dur
        return {
            "calls": dict(zip(NAMES, calls)),
            "self_s": dict(zip(NAMES, self_s)),
            "covered_s": top,
        }


def empty_summary() -> dict:
    return {
        "calls": dict.fromkeys(NAMES, 0),
        "self_s": dict.fromkeys(NAMES, 0.0),
        "covered_s": 0.0,
    }


def merge(into: dict, other: dict) -> None:
    for key in ("calls", "self_s"):
        for name, v in other[key].items():
            into[key][name] += v
    into["covered_s"] += other["covered_s"]
