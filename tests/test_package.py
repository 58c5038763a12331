import types

import reformgame
from reformgame import abm, equilibrium, model, scenario, sweep

MODULES = (model, equilibrium, abm, sweep, scenario)


def test_exports_are_the_module_all_lists():
    public = {
        name for name, value in vars(reformgame).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    listed = {name for module in MODULES for name in module.__all__}
    assert public == listed
    for module in MODULES:
        for name in module.__all__:
            assert getattr(reformgame, name) is getattr(module, name), name
