"""Exact arithmetic for the cyclotomic Witt ring and its surroundings:
number-theoretic kernels, a literal roots-of-unity oracle, lambda and
gamma operations with the gamma filtration, exact integer linear
algebra, matrices over commutative rigs, and prime spectra of finite
rigs, all behind one CLI.

The public names below are read from their home modules on first use
(PEP 562), so ``import cycwitt`` loads no submodule and a caller loads
only the modules it runs.
"""

__version__ = "0.1.0"

# name -> the module that defines it
_HOMES = {
    "IntPolynomial": "poly",
    **dict.fromkeys(("cyclotomic_poly", "euler_phi", "factor", "mobius", "ramanujan_sum"), "arith"),
    **dict.fromkeys(("WittElement", "phi", "ZERO", "ONE", "basis_mul", "mul", "frobenius",
                     "verschiebung", "trace"), "witt"),
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
