"""Task type and output canonicalisation shared by the workloads."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Task:
    """One timed call.

    ``run`` is the only code inside the timed region.  ``check`` gets
    its return value after every task has run and returns None when the
    output is right, else a message naming what is wrong.  A
    ``known_fault`` task fails because of a known defect of the
    program; it is counted in ``failed`` but does not make the run
    incorrect.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    known_fault: bool = False


def plain(x):
    """Data-only form of an output, used to compare rounds of one run."""
    if x is None or isinstance(x, (bool, int, float, complex, str, bytes)):
        return x
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted((plain(v) for v in x), key=repr)
    if isinstance(x, dict):
        return sorted(([plain(k), plain(v)] for k, v in x.items()), key=repr)
    if dataclasses.is_dataclass(x):
        return {f.name: plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    slots = [s for cls in type(x).__mro__ for s in getattr(cls, "__slots__", ())]
    if slots:
        return {s: plain(getattr(x, s)) for s in slots if hasattr(x, s)}
    if hasattr(x, "__dict__"):
        return {k: plain(v) for k, v in sorted(vars(x).items()) if not callable(v)}
    return repr(x)
