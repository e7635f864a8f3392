import threading

import numpy as np
import pytest
from hypothesis import settings

from roughmix import gmfbm

# Every property test draws the same examples on every run, so two runs of
# one commit agree; each test keeps its own max_examples.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(autouse=True)
def no_sampling_thread_left():
    """Fail a test that leaves a sampling pool thread alive: each draw's pool
    is joined before the draw returns."""
    yield
    left = [t.name for t in threading.enumerate()
            if t.name.startswith("roughmix-sample")]
    assert not left, f"sampling threads outlive their draw: {left}"


@pytest.fixture
def indefinite_embedding(monkeypatch):
    """Make every circulant embedding indefinite, with nothing left cached."""
    def gamma(hurst, n):  # eigenvalues 1 + 1.8 cos(pi m / n), down to -0.8
        out = np.zeros(n + 1)
        out[:2] = 1.0, 0.9
        return out

    monkeypatch.setattr(gmfbm, "_fgn_autocovariance", gamma)
    monkeypatch.setattr(gmfbm, "_fgn_circulant_sqrt_eigs",
                        gmfbm._fgn_circulant_sqrt_eigs.__wrapped__)


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
