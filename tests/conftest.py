import contextlib
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import settings

from roughmix import gmfbm

# Every property test draws the same examples on every run, so two runs of
# one commit agree; each test keeps its own max_examples.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(autouse=True)
def one_sampling_pool():
    """Fail a test that leaves a thread-pool worker alive that is not one of
    the sampling pool's. The process has one sampling pool, made by its
    first draw that fans out, whose idle workers wait between draws; a draw
    that makes a second pool, or a test that leaves an executor of its own
    running (named ``ThreadPoolExecutor-*`` by default), fails here."""
    yield
    pool = gmfbm._process_pool
    ours = set(pool._threads) if pool else set()
    workers = {t for t in threading.enumerate()
               if t.name.startswith(("roughmix-sample", "ThreadPoolExecutor-"))}
    stray = sorted(t.name for t in workers - ours)
    assert not stray, f"pool workers outside the sampling pool: {stray}"
    assert len(workers) <= (pool._max_workers if pool else 0)


@pytest.fixture
def pool_of():
    """``pool_of(k)``: a thread pool of k workers for a test to draw on in
    place of the sampling pool, shut down after the test."""
    with contextlib.ExitStack() as stack:
        yield lambda k: stack.enter_context(ThreadPoolExecutor(max_workers=k))


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
