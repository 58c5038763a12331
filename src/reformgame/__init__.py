"""Equilibrium and Monte Carlo toolkit for a leader-follower reform game.

The package solves the participation equilibrium of an institutional-reform
coordination game (closed forms and a contraction fixed point), validates
it with a seeded agent-based Monte Carlo engine, runs comparative-statics
sweeps, reads scenario files and writes result files. See the README for the
model and the CLI.
"""

# The public API is the union of the modules' __all__ lists.
from .model import *
from .equilibrium import *
from .abm import *
from .sweep import *
from .scenario import *

__version__ = "0.1.0"


def __getattr__(name: str):
    # The CLI loads on first use: importing it here would make
    # `python -m reformgame.cli` run cli.py twice, once as reformgame.cli
    # and once as __main__.
    if name == "run_command":
        from .cli import run_command

        return run_command
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
