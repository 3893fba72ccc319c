import concurrent.futures
import signal

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def _timed_out(signum, frame):
    raise TimeoutError("still waiting on forked workers")


@pytest.fixture
def fork_pools(monkeypatch):
    """A list of the worker pools started in the test, and a 60 s limit on the test."""
    started = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    old = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(60)
    try:
        yield started
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def series_exp(A, terms=30):
    """Truncated power-series matrix exponential of each (n, n) matrix in A (independent oracle)."""
    A = np.asarray(A, dtype=float)
    out = np.broadcast_to(np.eye(A.shape[-1]), A.shape)
    term = out
    for k in range(1, terms):
        term = term @ A / k
        out = out + term
    return out


def same_bits(got, want) -> bool:
    """Equal shape, dtype and bytes: a bit-for-bit comparison that tells -0.0 from 0.0."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def vector_field(*components):
    """Stack scalar fields and constants on a new last axis, broadcast to one shape."""
    return np.stack(np.broadcast_arrays(*components), axis=-1)
