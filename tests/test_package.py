import math
import types
from dataclasses import is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reformgame
from reformgame import DomainError, abm, equilibrium, model, scenario, sweep

from conftest import BASELINE

MODULES = (model, equilibrium, abm, sweep, scenario)
LISTED = {name: module for module in MODULES for name in module.__all__}
MODULE_NAMES = {module.__name__.rpartition(".")[2]: module for module in MODULES}


def test_exports_are_the_module_all_lists():
    # Through dir(), attribute access and a star import alike, the package's
    # public names are the modules' __all__ lists, each its module's own
    # object, whether the module loads with the package or on first use.
    star = {}
    exec("from reformgame import *", star)
    public = {name for name in dir(reformgame) if not name.startswith("_")
              and not isinstance(getattr(reformgame, name), types.ModuleType)}
    assert public == set(LISTED)
    assert {name for name in star if not name.startswith("_")} == {*LISTED, *MODULE_NAMES}
    for name, module in LISTED.items():
        assert getattr(reformgame, name) is getattr(module, name) is star[name], name
    for name, module in MODULE_NAMES.items():
        assert getattr(reformgame, name) is module is star[name], name


def test_lazy_names_are_looked_up_on_each_access(monkeypatch):
    # A binding patched in sweep or abm shows through the package, and the
    # original shows again once the patch is undone: the package keeps no copy.
    originals = reformgame.grid_sweep, reformgame.estimate_equilibrium
    monkeypatch.setattr(sweep, "grid_sweep", lambda *args: None)
    monkeypatch.setattr(abm, "estimate_equilibrium", lambda *args: None)
    assert reformgame.grid_sweep is sweep.grid_sweep
    assert reformgame.estimate_equilibrium is abm.estimate_equilibrium
    monkeypatch.undo()
    assert (reformgame.grid_sweep, reformgame.estimate_equilibrium) == originals
    assert "grid_sweep" not in vars(reformgame)


def test_other_names_raise_attribute_error():
    # Private names of the lazy modules are not exported either.
    for name in ("no_such_name", "__wrapped__", "_estimate_sizes", "_grid"):
        assert not hasattr(reformgame, name), name


# Each public function that takes numbers, as a call of keyword arguments on
# small valid defaults, and for each argument the prefixes its messages name
# it by. A grid stands in as one value, so every bad grid is rejected.
PUBLIC_CALLS = {
    "success_probability": (model.success_probability, {"a": 0.5, "phi": 2.0, "x": 0.5}, {}),
    "info_acquisition_cost": (model.info_acquisition_cost, {"q": 1.0, "pi": 0.5}, {}),
    "partisan_participation_cost": (
        model.partisan_participation_cost, {"w": 1.0, "theta": 0.5}, {}),
    "posterior_change_state": (model.posterior_change_state, {"s": 0.5, "p2": 0.4}, {}),
    "state_probabilities": (model.state_probabilities, {"p1": 0.3, "p2": 0.4}, {}),
    "best_response_map": (lambda kappa: equilibrium.best_response_map(BASELINE, kappa),
                          {"kappa": 0.1}, {}),
    "derive_seed": (abm.derive_seed, {"master": 1, "index": 0}, {}),
    "realize_world": (abm.realize_world, {"p1": 0.3, "p2": 0.4, "seed": 1}, {}),
    "spawn_population": (lambda n, seed: abm.spawn_population(n, BASELINE, seed),
                         {"n": 1000, "seed": 1}, {"n": ("population size n ",)}),
    "simulate_once": (lambda seed: abm.simulate_once(
        abm.spawn_population(1000, BASELINE, 1), BASELINE, seed), {"seed": 1}, {}),
    "estimate_equilibrium": (
        lambda n, replications, seed: abm.estimate_equilibrium(BASELINE, n, replications, seed),
        {"n": 1000, "replications": 2, "seed": 1},
        {"n": ("n ", "population size n ", "need at least 1000 agents per replication")}),
    "finite_difference_sensitivity": (
        lambda h: sweep.finite_difference_sensitivity(BASELINE, "theta", h), {"h": 1e-6},
        {"h": ("step h",)}),
    "grid_sweep": (lambda value: sweep.grid_sweep(BASELINE, "theta", [value]), {"value": 0.2},
                   {"value": ("sweep grid value", "sweep_grid: no valid grid point")}),
    "success_response_series": (
        lambda a, phi, x: sweep.success_response_series([a], [phi], [x]),
        {"a": 0.5, "phi": 2.0, "x": 0.5},
        {"a": ("a ", "certainty grid (a) "), "phi": ("phi ", "complementarity grid (phi) "),
         "x": ("x ", "participation grid (x) ")}),
}
ARGUMENTS = [(function, argument) for function, (_, defaults, _) in PUBLIC_CALLS.items()
             for argument in defaults]
BAD_VALUES = [math.nan, math.inf, -math.inf, 10**400, 10**5000, -1, "x", None]


def all_finite(result) -> bool:
    """Whether every float in a result, its arrays and its fields included, is finite."""
    if isinstance(result, float):
        return math.isfinite(result)
    if isinstance(result, np.ndarray):
        return bool(np.isfinite(result).all())
    if is_dataclass(result):
        return all_finite(list(vars(result).values()))
    if isinstance(result, (tuple, list)):
        return all(map(all_finite, result))
    return True


class TestPublicApiContract:
    @pytest.mark.parametrize("function,argument", ARGUMENTS,
                             ids=[f"{function}-{argument}" for function, argument in ARGUMENTS])
    @settings(max_examples=len(BAD_VALUES) * 4, deadline=None)
    @given(bad=st.sampled_from(BAD_VALUES))
    def test_one_bad_argument_is_rejected_by_name(self, function, argument, bad):
        # Either the call still returns finite numbers (a negative seed is
        # valid), or it raises DomainError naming the argument it was given.
        call, defaults, names = PUBLIC_CALLS[function]
        try:
            result = call(**{**defaults, argument: bad})
        except DomainError as err:
            assert str(err).startswith(names.get(argument, (f"{argument} ",))), str(err)
        else:
            assert all_finite(result), result
