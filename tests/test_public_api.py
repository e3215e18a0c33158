import importlib
import pkgutil
import re
from pathlib import Path
from types import ModuleType

import pytest

import redic

MODULES = ["redic"] + sorted(f"redic.{m.name}" for m in pkgutil.iter_modules(redic.__path__))
README = Path(__file__).resolve().parents[1] / "README.md"


def readme_api() -> dict[str, list[str]]:
    """README's "Python API" section as module -> the names its bullet lists:
    each bullet is a module in backquotes, then its names in backquotes."""
    section = README.read_text().split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    api = {}
    for item in re.split(r"\n- ", section)[1:]:
        module, *names = re.findall(r"`([^`]+)`", item.split("\n\n", 1)[0])
        api[module] = names
    return api


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    # a star import raises AttributeError for a name in __all__ that the
    # module does not define, such as one whose definition moved away
    exec(f"from {name} import *", {})


def test_readme_lists_every_module_once_per_name():
    api = readme_api()
    assert sorted(api) == MODULES
    for module, names in api.items():
        assert len(names) == len(set(names)), module


def test_root_exports_exactly_what_readme_lists():
    exported = {name for name, value in vars(redic).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}
    api = readme_api()
    assert exported == set(api["redic"])
    # each is one of the names its module declares
    for name in exported:
        assert name in api[getattr(redic, name).__module__], name


@pytest.mark.parametrize("name", MODULES)
def test_readme_names_are_the_module_api(name):
    module = importlib.import_module(name)
    names = readme_api()[name]
    missing = [n for n in names if not hasattr(module, n)]
    assert not missing, missing
    if name != "redic" and hasattr(module, "__all__"):
        assert sorted(module.__all__) == sorted(names)
