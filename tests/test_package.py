import importlib
import pkgutil

import crpower


def test_public_names_resolve():
    """Every name a module exports in __all__ exists, so a rename cannot
    leave a stale export behind."""
    modules = [importlib.import_module(f"crpower.{info.name}")
               for info in pkgutil.iter_modules(crpower.__path__)]
    assert len(modules) >= 9
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
