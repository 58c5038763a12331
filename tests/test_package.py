import types

import reformgame
from reformgame import abm, equilibrium, model, scenario, sweep

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
