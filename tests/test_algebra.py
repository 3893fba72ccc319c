import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import series_exp
from cosrel.algebra import BASIS_NAMES, basis, bracket, exp, polarize
from cosrel.minkowski import ETA, lowered_antisymmetry_defect
from cosrel.poincare import compose

_V, _W = basis()


def _gen(name) -> tuple:
    """The (v, w) slices of one named basis generator."""
    k = BASIS_NAMES.index(name)
    return _V[k], _W[k]


def _random_element(rng, scale=1.0, shape=()):
    """(v, w) stacks of shape-many elements with uniform basis coefficients in [-scale, scale]."""
    coeffs = rng.uniform(-scale, scale, shape + (10,))
    return coeffs @ _V, np.tensordot(coeffs, _W, 1)


def test_named_bracket_examples():
    J1, J2, J3, K1, K2, d0, d1 = (_gen(n) for n in ("J1", "J2", "J3", "K1", "K2", "d0", "d1"))

    v, w = bracket(J1, J2)
    assert np.array_equal(w, J3[1]) and np.array_equal(v, np.zeros(4))
    v, w = bracket(K1, K2)
    assert np.array_equal(w, -J3[1])
    v, w = bracket(d0, K1)
    assert np.array_equal(v, -d1[0]) and np.array_equal(w, np.zeros((4, 4)))


def test_bracket_is_integer_exact_on_basis():
    # every pair at once: the (10, 1) stack against the (1, 10) stack
    v, w = bracket((_V[:, None], _W[:, None]), (_V[None], _W[None]))
    assert v.shape == (10, 10, 4) and w.shape == (10, 10, 4, 4)
    assert np.array_equal(v, np.round(v))
    assert np.array_equal(w, np.round(w))


def test_bracket_antisymmetry(rng):
    for _ in range(50):
        x, y = _random_element(rng), _random_element(rng)
        (xy_v, xy_w), (yx_v, yx_w) = bracket(x, y), bracket(y, x)
        assert np.allclose(xy_v, -yx_v, atol=1e-14)
        assert np.allclose(xy_w, -yx_w, atol=1e-14)


def test_jacobi_identity(rng):
    v, w = _random_element(rng, shape=(300, 3))
    x, y, z = ((v[:, k], w[:, k]) for k in range(3))
    # the v and w parts are summed apart: + on the (v, w) tuples would concatenate them
    parts = zip(bracket(bracket(x, y), z), bracket(bracket(y, z), x), bracket(bracket(z, x), y))
    total_v, total_w = (sum(p) for p in parts)
    assert max(np.abs(total_v).max(), np.abs(total_w).max()) <= 1e-12


def test_validated_element_antisymmetry():
    assert lowered_antisymmetry_defect(_gen("J2")[1] + 2.0 * _gen("K3")[1]) == 0.0
    assert lowered_antisymmetry_defect(np.diag([1.0, 0, 0, 0])) > 0.5


def test_polarize_on_generators():
    J1, K1 = _gen("J1")[1], _gen("K1")[1]
    rot, boo = polarize(J1)
    assert np.array_equal(rot, J1) and np.abs(boo).max() == 0.0
    rot, boo = polarize(K1)
    assert np.abs(rot).max() == 0.0 and np.array_equal(boo, K1)


def test_polarize_mixed_element():
    J2, K3 = _gen("J2")[1], _gen("K3")[1]
    w = J2 + 3.0 * K3
    rot, boo = polarize(w)
    # oracle: direct half-difference/half-sum with the transpose
    assert np.allclose(rot, 0.5 * (w - w.T), atol=1e-16)
    assert np.allclose(boo, 0.5 * (w + w.T), atol=1e-16)
    assert np.array_equal(rot, J2)
    assert np.array_equal(boo, 3.0 * K3)
    # rotation block avoids the time row/column; boost is symmetric
    assert np.abs(rot[0]).max() == 0.0 and np.abs(rot[:, 0]).max() == 0.0
    assert np.array_equal(boo, boo.T)


def test_polarize_is_projection(rng):
    _, w = _random_element(rng, shape=(20,))
    rot, boo = polarize(w)
    assert np.allclose(rot + boo, w, atol=1e-15)
    rot2, boo2 = polarize(rot)
    assert np.allclose(rot2, rot, atol=1e-16) and np.abs(boo2).max() == 0.0


def test_exp_zero_is_identity():
    a, L = exp(np.zeros(4), np.zeros((4, 4)))
    assert np.allclose(a, 0, atol=1e-16) and np.allclose(L, np.eye(4), atol=1e-16)


def test_exp_quarter_turn():
    J3 = _gen("J3")[1]
    _, L = exp(np.zeros(4), (np.pi / 2) * J3)
    e1, e2 = np.array([0, 1, 0, 0.0]), np.array([0, 0, 1, 0.0])
    assert np.allclose(L @ e1, e2, atol=1e-12)
    assert np.allclose(L @ e2, -e1, atol=1e-12)
    # series oracle at 30 terms
    oracle = series_exp((np.pi / 2) * J3)
    assert np.allclose(L, oracle, atol=1e-12)


def test_exp_boost_entries():
    phi = 0.8
    _, L = exp(np.zeros(4), phi * _gen("K1")[1])
    assert L[0, 0] == pytest.approx(np.cosh(phi), abs=1e-12)
    assert L[1, 0] == pytest.approx(np.sinh(phi), abs=1e-12)


def test_exp_matches_series_oracle_with_translations(rng):
    for _ in range(10):
        v, w = _random_element(rng, 0.8)
        oracle = series_exp(embed_homogeneous(v, w), terms=40)
        a, L = exp(v, w)
        assert np.abs(a - oracle[1:, 0]).max() <= 1e-12
        assert np.abs(L - oracle[1:, 1:]).max() <= 1e-12


def test_exp_lands_in_lorentz_group(rng):
    _, L = exp(*_random_element(rng, shape=(50,)))
    assert np.abs(np.swapaxes(L, -1, -2) @ ETA @ L - ETA).max() <= 1e-10


def test_one_parameter_subgroup_law(rng):
    for _ in range(20):
        v, w = _random_element(rng)
        s, t = rng.uniform(-1, 1, 2)
        left_a, left_L = compose(exp(s * v, s * w), exp(t * v, t * w))
        right_a, right_L = exp((s + t) * v, (s + t) * w)
        assert np.abs(left_a - right_a).max() <= 1e-9
        assert np.abs(left_L - right_L).max() <= 1e-9


def _so13(E, B) -> np.ndarray:
    """w = eta A for the lowered antisymmetric A with A_0i = E_i and A_jk = eps_ijk B_i."""
    E, B = np.asarray(E, dtype=float), np.asarray(B, dtype=float)
    A = np.zeros((4, 4))
    A[0, 1:], A[1:, 0] = E, -E
    A[2, 3], A[3, 1], A[1, 2] = B
    A[3, 2], A[1, 3], A[2, 1] = -B
    return ETA @ A


_finite = dict(allow_nan=False, allow_infinity=False)
_unit = st.lists(st.floats(-1, 1, **_finite), min_size=3, max_size=3).map(np.array).filter(
    lambda e: np.linalg.norm(e) > 0.1).map(lambda e: e / np.linalg.norm(e))


def _perpendicular(n1, n2):
    """A unit vector perpendicular to the unit vector n1, in the plane of n1 and n2 if any."""
    p = np.cross(n1, n2)
    if np.linalg.norm(p) < 0.1:
        p = np.cross(n1, np.eye(3)[np.argmin(np.abs(n1))])
    return p / np.linalg.norm(p)


def _case(kind, n1, n2, size, eps, base="zero"):
    """w of one kind: a pure rotation or boost of magnitude size, a null element
    (E perp B, |E| = |B| = size), a degenerate base moved by eps, or a general
    element scaled down to size."""
    perp = _perpendicular(n1, n2)
    if kind == "rotation":
        return _so13(np.zeros(3), size * n1)
    if kind == "boost":
        return _so13(size * n1, np.zeros(3))
    if kind == "null":
        return _so13(size * n1, size * perp)
    if kind == "near":
        E = {"zero": 0 * n1, "rotation": 0 * n1, "boost": size * n1, "null": size * n1}[base]
        B = {"zero": 0 * n1, "rotation": size * n1, "boost": 0 * n1, "null": size * perp}[base]
        return _so13(E + eps * n2, B + eps * perp)
    return size * _so13(2 * n1, 1.5 * n2)


@st.composite
def _iso_element(draw):
    v = np.array(draw(st.lists(st.floats(-3, 3, **_finite), min_size=4, max_size=4)))
    kind = draw(st.sampled_from(["rotation", "boost", "null", "near", "scaled"]))
    size = {"rotation": st.floats(0, 12), "boost": st.floats(0, 20), "null": st.floats(1e-3, 10),
            "near": st.floats(1e-3, 10), "scaled": st.floats(1e-8, 1)}[kind]
    return v, _case(kind, draw(_unit), draw(_unit), draw(size), 10.0 ** draw(st.floats(-12, -1)),
                    draw(st.sampled_from(["zero", "rotation", "boost", "null"])))


def _assert_close(a, L, want_a, want_L, tol):
    scale = max(1.0, np.abs(want_a).max(), np.abs(want_L).max())
    assert np.abs(a - want_a).max() <= tol * scale
    assert np.abs(L - want_L).max() <= tol * scale


def embed_homogeneous(v, w) -> np.ndarray:
    """5x5 embedding [[0, 0], [v, w]] whose matrix exponential lands in the group:
    the reference that series_exp, expm and mpmath exponentiate."""
    H = np.zeros((5, 5))
    H[1:, 0] = v
    H[1:, 1:] = w
    return H


#: scipy's expm is itself off by up to 3.2e-12 relative on boosts of rapidity 5-20
#: (measured against 50-digit mpmath, where the closed form is within 3e-15), so
#: the comparison with it allows 5e-12; test_exp_matches_high_precision_reference
#: holds the kernel to 1e-14.
_EXPM_TOL = 5e-12


@settings(max_examples=300, deadline=None)
@given(st.lists(_iso_element(), min_size=1, max_size=4))
def test_exp_matches_expm_on_the_homogeneous_embedding(elements):
    # the stack mixes the series and the direct route; each entry must match on its own
    v = np.array([e[0] for e in elements])
    w = np.array([e[1] for e in elements])
    a, L = exp(v, w)
    assert a.shape == v.shape and L.shape == w.shape
    for k, (vk, wk) in enumerate(elements):
        H = scipy.linalg.expm(embed_homogeneous(vk, wk))
        _assert_close(a[k], L[k], H[1:, 0], H[1:, 1:], _EXPM_TOL)
        _assert_close(*exp(vk, wk), H[1:, 0], H[1:, 1:], _EXPM_TOL)


_REFERENCE_CASES = ([("rotation", s, 0, "zero") for s in (0.5, 3.0, 10.0)]
                    + [("boost", s, 0, "zero") for s in (0.5, 5.0, 12.0, 15.0, 20.0)]
                    + [("null", s, 0, "zero") for s in (1e-3, 1.0, 10.0)]
                    + [("near", s, e, b) for b in ("zero", "rotation", "boost", "null")
                       for s, e in ((1.0, 1e-10), (5.0, 1e-4), (0.3, 1e-2))]
                    + [("scaled", s, 0, "zero") for s in (1e-8, 1e-4, 0.3)])


@pytest.mark.parametrize("kind,size,eps,base", _REFERENCE_CASES)
def test_exp_matches_high_precision_reference(kind, size, eps, base):
    rng = np.random.default_rng(len(_REFERENCE_CASES) + int(1e3 * size))
    n1, n2 = (u / np.linalg.norm(u) for u in rng.standard_normal((2, 3)))
    w = _case(kind, n1, n2, size, eps, base)
    v = rng.uniform(-3, 3, 4)
    with mpmath.workdps(40):
        H = mpmath.expm(mpmath.matrix(embed_homogeneous(v, w).tolist()))
        H = np.array(H.tolist(), dtype=float)
    _assert_close(*exp(v, w), H[1:, 0], H[1:, 1:], 1e-14)
    a, L = exp(v[None], w[None])  # the same element as a one-slice stack
    _assert_close(a[0], L[0], H[1:, 0], H[1:, 1:], 1e-14)


@pytest.mark.parametrize("scale", [1.0, 0.3, 7.0])
def test_exp_of_null_element_is_quadratic(scale):
    w = scale * _so13([1.0, 0, 0], [0, 1.0, 0])  # E perp B, |E| = |B|: w^3 = 0
    v = np.array([0.5, -1.0, 2.0, 0.25])
    assert np.abs(w @ w @ w).max() <= 1e-15 * scale ** 3
    a, L = exp(v, w)
    assert np.allclose(L, np.eye(4) + w + w @ w / 2, rtol=0, atol=1e-14 * max(1.0, scale ** 2))
    assert np.allclose(a, v + w @ v / 2 + w @ w @ v / 6, rtol=0, atol=1e-14 * max(1.0, scale ** 2))
    if scale == 1.0:
        assert np.array_equal(L, np.eye(4) + w + 0.5 * (w @ w))


def test_exp_broadcasts_over_stacks(rng):
    w = np.stack([_so13(rng.standard_normal(3), rng.standard_normal(3)) for _ in range(6)])
    a, L = exp(np.zeros(4), w.reshape(2, 3, 4, 4))
    assert a.shape == (2, 3, 4) and L.shape == (2, 3, 4, 4)
    assert np.abs(a).max() == 0.0
    for k in range(6):
        assert np.allclose(L.reshape(6, 4, 4)[k], exp(np.zeros(4), w[k])[1], rtol=0, atol=1e-14)
    a0, L0 = exp(np.ones(4), np.zeros((0, 4, 4)))
    assert a0.shape == (0, 4) and L0.shape == (0, 4, 4)


def test_bracket_stack_matches_its_slices(rng):
    x, y = _random_element(rng, shape=(8,)), _random_element(rng, shape=(8,))
    v, w = bracket(x, y)
    for k in range(8):
        want_v, want_w = bracket((x[0][k], x[1][k]), (y[0][k], y[1][k]))
        assert np.allclose(v[k], want_v, rtol=0, atol=1e-15)
        assert np.allclose(w[k], want_w, rtol=0, atol=1e-15)
