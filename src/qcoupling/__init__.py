"""Numerics for a translated coupling parameter: deformed exponential
algebra, coupled distributions, deformed Fourier transforms, and
multiplicative-noise diffusion experiments.

Submodules load on first access (qcoupling.qft, ...), so a process pays
only for the modules it uses.
"""

from importlib import import_module

from .errors import CouplingError

__all__ = ["errors", "qcore", "qseq", "qdist", "qft", "sde", "CouplingError"]
__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
