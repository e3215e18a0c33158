import pkgutil

import pytest

import redic

MODULES = ["redic"] + sorted(f"redic.{m.name}" for m in pkgutil.iter_modules(redic.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    # a star import raises AttributeError for a name in __all__ that the
    # module does not define, such as one whose definition moved away
    exec(f"from {name} import *", {})
