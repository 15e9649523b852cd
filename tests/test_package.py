import importlib
import pkgutil

import stepcross


def test_package_exports_every_module_name():
    for info in pkgutil.iter_modules(stepcross.__path__):
        module = importlib.import_module(f"stepcross.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert getattr(stepcross, name, None) is getattr(module, name), (info.name, name)
