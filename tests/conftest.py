import pytest


def pytest_collection_modifyitems(config, items):
    """Refuse a bare ``filterwarnings("error")`` mark on a hypothesis test.

    The mark also turns warnings raised inside the hypothesis plugin's report
    hook into errors, so a failing example would show as an INTERNALERROR
    instead of a failure report. Mark ``error::<Category>`` instead.
    """
    for item in items:
        if not getattr(getattr(item, "obj", None), "is_hypothesis_test", False):
            continue
        if any("error" in mark.args for mark in item.iter_markers("filterwarnings")):
            raise pytest.UsageError(
                f"{item.nodeid}: bare filterwarnings('error') on a hypothesis test")
