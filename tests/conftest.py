import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def series_exp(A, terms=30):
    """Truncated power-series matrix exponential (independent oracle)."""
    A = np.asarray(A, dtype=float)
    out = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, terms):
        term = term @ A / k
        out = out + term
    return out


def same_bits(got, want) -> bool:
    """Equal shape, dtype and bytes: a bit-for-bit comparison that tells -0.0 from 0.0."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()
