import importlib
import inspect
import pkgutil

import pytest

import divfreedg

# the command-line front end exports nothing but its entry point
MODULES = [m.name for m in pkgutil.iter_modules(divfreedg.__path__) if m.name != "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_every_public_name(name):
    module = importlib.import_module(f"divfreedg.{name}")
    listed = module.__all__
    assert len(set(listed)) == len(listed)
    assert [n for n in listed if not hasattr(module, n)] == []
    public = [n for n, obj in vars(module).items() if not n.startswith("_")
              and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == module.__name__]
    assert [n for n in public if n not in listed] == []
