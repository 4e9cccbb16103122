"""The package namespace: ``envborn`` re-exports each module's ``__all__``."""

import envborn
from envborn import born, ensemble, hilbert, mixtures, premeasurement, schmidt

MODULES = (hilbert, schmidt, premeasurement, born, mixtures, ensemble)


def test_envborn_reexports_every_module_all():
    """Every public name of the six library modules is the module's own object
    in ``envborn``, ``envborn.__all__`` is their lists joined in dependency
    order with no name twice, and a star import binds exactly those names."""
    for module in MODULES:
        for name in module.__all__:
            assert getattr(envborn, name) is getattr(module, name), f"{module.__name__}.{name}"
    assert envborn.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(set(envborn.__all__)) == len(envborn.__all__)
    namespace = {}
    exec("from envborn import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(envborn.__all__)
