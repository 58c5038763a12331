"""Equilibrium and Monte Carlo toolkit for a leader-follower reform game.

The package solves the participation equilibrium of an institutional-reform
coordination game (closed forms and a contraction fixed point), validates
it with a seeded agent-based Monte Carlo engine, runs comparative-statics
sweeps, reads scenario files and writes result files; the engine (``abm``)
and the sweeps (``sweep``) load on first use. See the README for the model
and the CLI.
"""

from importlib import import_module as _import_module

# The public API is the union of the five modules' __all__ lists.
from .model import *
from .equilibrium import *
from .scenario import *

__version__ = "0.1.0"
_MODULES = ("model", "equilibrium", "abm", "sweep", "scenario")


def __getattr__(name: str):
    # Looked up on each access and never bound here, so a patch of abm or
    # sweep leaves no copy behind. Importing the CLI here would make
    # `python -m reformgame.cli` run cli.py twice, as a module and as __main__.
    if name == "run_command":
        from .cli import run_command

        return run_command
    if name in _MODULES:
        return _import_module(f"{__name__}.{name}")
    if name == "__all__":  # a star import's names: the modules and their lists
        return [*_MODULES, *(key for module in _MODULES for key in __getattr__(module).__all__)]
    if not name.startswith("__"):  # a probe for a dunder name loads nothing
        for module in map(__getattr__, ("abm", "sweep")):
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
