import importlib
import pkgutil

import cavgate


def test_every_exported_name_exists():
    # a stale __all__ entry breaks `from cavgate.<module> import *`
    missing = []
    for info in pkgutil.iter_modules(cavgate.__path__):
        module = importlib.import_module(f"cavgate.{info.name}")
        missing += [f"{module.__name__}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []
