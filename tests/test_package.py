import types

import heegnerlab


def test_star_import_binds_exactly_the_public_api():
    namespace: dict = {}
    exec("from heegnerlab import *", namespace)
    bound = {name: value for name, value in namespace.items() if name != "__builtins__"}
    assert not [name for name, value in bound.items() if isinstance(value, types.ModuleType)]
    assert sorted(bound) == sorted(heegnerlab.__all__)
    public = {
        name
        for name, value in vars(heegnerlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(heegnerlab.__all__) == public
