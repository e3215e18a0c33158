"""The one stretch switch: tests marked ``stretch`` run only under REDIC_STRETCH=1.

A heavy check says ``@pytest.mark.stretch(reason="about 8 s")``, on the
test or on one ``pytest.param``, and ``pytest -m stretch`` selects exactly
those.  Without the variable each is skipped with its reason, so ``-rs``
still shows what the stretch run costs.  This is the only place in the
suite that reads the variable.
"""

import os

import pytest


def pytest_collection_modifyitems(items):
    if os.environ.get("REDIC_STRETCH"):
        return
    for item in items:
        mark = item.get_closest_marker("stretch")
        if mark is not None:
            item.add_marker(pytest.mark.skip(reason=f"{mark.kwargs['reason']}; set REDIC_STRETCH=1"))
