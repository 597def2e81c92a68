"""Package surface: the root exports exactly the layers' public names."""

import importlib
import types

import cvteleport

LAYERS = ("epr", "teleport", "swap", "criteria", "linmode", "oracle")


def test_root_exports_every_layer_all():
    # import_module, because the attribute cvteleport.teleport is the function.
    modules = [importlib.import_module(f"cvteleport.{name}") for name in LAYERS]
    union = [name for module in modules for name in module.__all__]
    assert len(union) == len(set(union)), "a name is public in two layers"
    assert sorted(cvteleport.__all__) == sorted(union)
    for module in modules:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name}"
            assert getattr(cvteleport, name) is getattr(module, name), name
    assert isinstance(cvteleport.teleport, types.FunctionType)
    assert isinstance(cvteleport.criteria, types.ModuleType)
    assert cvteleport.criteria is modules[3]
