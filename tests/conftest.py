"""Shared fixtures: the baseline parameter set and a random-params generator."""

from __future__ import annotations

import sys
from dataclasses import replace

import numpy as np
import pytest

from reformgame import (
    LeaderType,
    ModelParams,
    PosteriorConvention,
    ThresholdConvention,
)
from reformgame.model import RELATIONAL_CHECKS

# Canonical parameter set used across the suite; its equilibrium has the
# closed form kappa* = 0.2 / (1/(0.5*0.8*1) - 0.8) = 2/17.
BASELINE = ModelParams(
    a=0.5,
    phi=2.0,
    theta=0.2,
    gamma=0.8,
    kappa_max=1.0,
    Gamma_gain=1.0,
    p1=0.3,
    p2=0.4,
    s=0.5,
    q=1.0,
    w=1.0,
    G2=0.0,
    G3=1.0,
)


def make_params(**overrides) -> ModelParams:
    return replace(BASELINE, **overrides)


def random_valid_params(
    rng,
    leader_type: LeaderType | None = None,
    threshold_convention: ThresholdConvention | None = None,
    posterior_convention: PosteriorConvention | None = None,
) -> ModelParams:
    """Draw a parameter set satisfying every model constraint.

    Gains are drawn as a fraction (at most 0.95) of their strict upper
    bounds, which caps the contraction modulus of the best-response map at
    0.95 and keeps every optimal information effort interior.
    """
    a = rng.uniform(0.05, 0.95)
    gamma = rng.uniform(0.05, 0.95)
    kappa_max = rng.uniform(0.5, 5.0)
    p1 = rng.uniform(0.0, 0.9)
    q = rng.uniform(0.5, 3.0)
    if leader_type is None:
        leader_type = (LeaderType.PARTISAN, LeaderType.NON_PARTISAN)[int(rng.integers(2))]
    if threshold_convention is None:
        threshold_convention = (
            ThresholdConvention.PAPER_LITERAL,
            ThresholdConvention.DERIVED_CONSISTENT,
        )[int(rng.integers(2))]
    if posterior_convention is None:
        posterior_convention = (
            PosteriorConvention.PAPER,
            PosteriorConvention.BAYES,
        )[int(rng.integers(2))]
    reformer_bound = q / ((1.0 - p1) * a * gamma)
    return ModelParams(
        a=a,
        phi=rng.uniform(1.1, 5.0),
        theta=rng.uniform(0.0, 1.0),
        gamma=gamma,
        kappa_max=kappa_max,
        Gamma_gain=rng.uniform(0.05, 0.95) * kappa_max / (a * gamma),
        p1=p1,
        p2=rng.uniform(0.05, 0.95),
        s=rng.uniform(0.05, 0.95),
        q=q,
        w=rng.uniform(0.0, 2.0),
        G2=(
            rng.uniform(0.05, 0.95) * reformer_bound
            if leader_type is LeaderType.PARTISAN
            else 0.0
        ),
        G3=rng.uniform(0.05, 0.95) * reformer_bound,
        leader_type=leader_type,
        threshold_convention=threshold_convention,
        posterior_convention=posterior_convention,
    )


@pytest.fixture
def baseline() -> ModelParams:
    return BASELINE


def count_calls(monkeypatch, name: str, owner: str = "model") -> list:
    """Record every call of ``reformgame.<owner>.<name>`` (a function or a
    class), through any module that binds it, and return the list of the
    calls' ``(args, kwargs)``."""
    calls = []
    real = getattr(sys.modules[f"reformgame.{owner}"], name)

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("reformgame") and hasattr(module, name):
            monkeypatch.setattr(module, name, counting)
    return calls


def count_checks(monkeypatch) -> dict[str, list]:
    """Record every run of each ``RELATIONAL_CHECKS`` row, by constraint name:
    the table is shared, so ``validate_params`` and the sweep builder both see
    the counting rows."""
    calls = {}
    for name, (check, reads) in list(RELATIONAL_CHECKS.items()):
        def counting(params, check=check, seen=calls.setdefault(name, [])):
            seen.append(params)
            check(params)

        monkeypatch.setitem(RELATIONAL_CHECKS, name, (counting, reads))
    return calls


@pytest.fixture
def out_of_memory(monkeypatch):
    """Every ``numpy.empty`` of more than 2**32 elements fails, as a too-large
    one would; smaller ones allocate as usual.

    Lets a test reach the out-of-memory path of a population without
    allocating it.
    """
    real_empty = np.empty

    def empty(shape, *args, **kwargs):
        if np.prod(shape) > 2**32:
            raise MemoryError("Unable to allocate")
        return real_empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", empty)


def _out_of_memory_empty(*args, **kwargs):
    raise MemoryError("Unable to allocate")


@pytest.fixture
def no_result_arrays(monkeypatch):
    """Every ``numpy.empty`` fails, as a too-large one would.

    Lets a test reach the out-of-memory path of the result arrays without
    allocating anything.
    """
    monkeypatch.setattr(np, "empty", _out_of_memory_empty)
