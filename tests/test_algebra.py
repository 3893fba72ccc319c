import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import series_exp
from cosrel.algebra import (AlgebraElement, basis, boost_generator, bracket, bracket_batch,
                            exp, exp_batch, polarize, rotation_generator, translation_generator)
from cosrel.minkowski import ETA


def _random_element(rng, scale=1.0):
    coeffs = rng.uniform(-scale, scale, 10)
    gens = basis()
    return AlgebraElement(sum(c * g.v for c, g in zip(coeffs, gens)),
                          sum(c * g.w for c, g in zip(coeffs, gens)))


def test_named_bracket_examples():
    J1, J2, J3 = (rotation_generator(i) for i in (1, 2, 3))
    K1, K2 = boost_generator(1), boost_generator(2)
    d0, d1 = translation_generator(0), translation_generator(1)

    got = bracket(J1, J2)
    assert np.array_equal(got.w, J3.w) and np.array_equal(got.v, np.zeros(4))
    got = bracket(K1, K2)
    assert np.array_equal(got.w, -J3.w)
    got = bracket(d0, K1)
    assert np.array_equal(got.v, -d1.v) and np.array_equal(got.w, np.zeros((4, 4)))


def test_bracket_is_integer_exact_on_basis():
    gens = basis()
    for x in gens:
        for y in gens:
            b = bracket(x, y)
            assert np.array_equal(b.v, np.round(b.v))
            assert np.array_equal(b.w, np.round(b.w))


def test_bracket_antisymmetry(rng):
    for _ in range(50):
        x, y = _random_element(rng), _random_element(rng)
        xy, yx = bracket(x, y), bracket(y, x)
        assert np.allclose(xy.v, -yx.v, atol=1e-14)
        assert np.allclose(xy.w, -yx.w, atol=1e-14)


def test_jacobi_identity(rng):
    worst = 0.0
    for _ in range(300):
        x, y, z = (_random_element(rng) for _ in range(3))
        total = (bracket(bracket(x, y), z) + bracket(bracket(y, z), x)
                 + bracket(bracket(z, x), y))
        worst = max(worst, np.abs(total.v).max(), np.abs(total.w).max())
    assert worst <= 1e-12


def test_validated_element_antisymmetry():
    x = rotation_generator(2) + 2.0 * boost_generator(3)
    assert x.lorentz_defect() == 0.0
    bad = AlgebraElement(np.zeros(4), np.diag([1.0, 0, 0, 0]))
    assert bad.lorentz_defect() > 0.5


def test_polarize_on_generators():
    J1, K1 = rotation_generator(1), boost_generator(1)
    rot, boo = polarize(J1)
    assert np.array_equal(rot.w, J1.w) and np.abs(boo.w).max() == 0.0
    rot, boo = polarize(K1)
    assert np.abs(rot.w).max() == 0.0 and np.array_equal(boo.w, K1.w)


def test_polarize_mixed_element():
    J2, K3 = rotation_generator(2), boost_generator(3)
    x = AlgebraElement(np.zeros(4), J2.w + 3.0 * K3.w)
    rot, boo = polarize(x)
    # oracle: direct half-difference/half-sum with the transpose
    assert np.allclose(rot.w, 0.5 * (x.w - x.w.T), atol=1e-16)
    assert np.allclose(boo.w, 0.5 * (x.w + x.w.T), atol=1e-16)
    assert np.array_equal(rot.w, J2.w)
    assert np.array_equal(boo.w, 3.0 * K3.w)
    # rotation block avoids the time row/column; boost is symmetric
    assert np.abs(rot.w[0]).max() == 0.0 and np.abs(rot.w[:, 0]).max() == 0.0
    assert np.array_equal(boo.w, boo.w.T)


def test_polarize_is_projection(rng):
    for _ in range(20):
        x = _random_element(rng)
        rot, boo = polarize(x)
        assert np.allclose(rot.w + boo.w, x.w, atol=1e-15)
        rot2, boo2 = polarize(rot)
        assert np.allclose(rot2.w, rot.w, atol=1e-16) and np.abs(boo2.w).max() == 0.0


def test_exp_zero_is_identity():
    g = exp(AlgebraElement(np.zeros(4), np.zeros((4, 4))))
    assert np.allclose(g.a, 0, atol=1e-16) and np.allclose(g.L, np.eye(4), atol=1e-16)


def test_exp_quarter_turn():
    g = exp((np.pi / 2) * rotation_generator(3))
    e1, e2 = np.array([0, 1, 0, 0.0]), np.array([0, 0, 1, 0.0])
    assert np.allclose(g.L @ e1, e2, atol=1e-12)
    assert np.allclose(g.L @ e2, -e1, atol=1e-12)
    # series oracle at 30 terms
    oracle = series_exp((np.pi / 2) * rotation_generator(3).w)
    assert np.allclose(g.L, oracle, atol=1e-12)


def test_exp_boost_entries():
    phi = 0.8
    g = exp(phi * boost_generator(1))
    assert g.L[0, 0] == pytest.approx(np.cosh(phi), abs=1e-12)
    assert g.L[1, 0] == pytest.approx(np.sinh(phi), abs=1e-12)


def test_exp_matches_series_oracle_with_translations(rng):
    for _ in range(10):
        x = _random_element(rng, 0.8)
        H = np.zeros((5, 5))
        H[1:, 0] = x.v
        H[1:, 1:] = x.w
        oracle = series_exp(H, terms=40)
        g = exp(x)
        assert np.abs(g.a - oracle[1:, 0]).max() <= 1e-12
        assert np.abs(g.L - oracle[1:, 1:]).max() <= 1e-12


def test_exp_lands_in_lorentz_group(rng):
    for _ in range(50):
        g = exp(_random_element(rng))
        assert np.abs(g.L.T @ ETA @ g.L - ETA).max() <= 1e-10


def test_one_parameter_subgroup_law(rng):
    from cosrel.poincare import compose
    for _ in range(20):
        x = _random_element(rng)
        s, t = rng.uniform(-1, 1, 2)
        left = compose(exp(s * x), exp(t * x))
        right = exp((s + t) * x)
        assert np.abs(left.a - right.a).max() <= 1e-9
        assert np.abs(left.L - right.L).max() <= 1e-9


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


def embed_homogeneous(x: AlgebraElement) -> np.ndarray:
    """5x5 embedding [[0, 0], [v, w]] whose matrix exponential lands in the group:
    the reference that expm and mpmath exponentiate."""
    H = np.zeros((5, 5))
    H[1:, 0] = x.v
    H[1:, 1:] = x.w
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
    a, L = exp_batch(v, w)
    assert a.shape == v.shape and L.shape == w.shape
    for k, (vk, wk) in enumerate(elements):
        H = scipy.linalg.expm(embed_homogeneous(AlgebraElement(vk, wk)))
        _assert_close(a[k], L[k], H[1:, 0], H[1:, 1:], _EXPM_TOL)
        g = exp(AlgebraElement(vk, wk))
        _assert_close(g.a, g.L, H[1:, 0], H[1:, 1:], _EXPM_TOL)


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
        H = mpmath.expm(mpmath.matrix(embed_homogeneous(AlgebraElement(v, w)).tolist()))
        H = np.array(H.tolist(), dtype=float)
    a, L = exp_batch(v, w)
    _assert_close(a, L, H[1:, 0], H[1:, 1:], 1e-14)
    g = exp(AlgebraElement(v, w))
    _assert_close(g.a, g.L, H[1:, 0], H[1:, 1:], 1e-14)


@pytest.mark.parametrize("scale", [1.0, 0.3, 7.0])
def test_exp_of_null_element_is_quadratic(scale):
    w = scale * _so13([1.0, 0, 0], [0, 1.0, 0])  # E perp B, |E| = |B|: w^3 = 0
    v = np.array([0.5, -1.0, 2.0, 0.25])
    assert np.abs(w @ w @ w).max() <= 1e-15 * scale ** 3
    a, L = exp_batch(v, w)
    assert np.allclose(L, np.eye(4) + w + w @ w / 2, rtol=0, atol=1e-14 * max(1.0, scale ** 2))
    assert np.allclose(a, v + w @ v / 2 + w @ w @ v / 6, rtol=0, atol=1e-14 * max(1.0, scale ** 2))
    if scale == 1.0:
        assert np.array_equal(L, np.eye(4) + w + 0.5 * (w @ w))


def test_exp_batch_broadcasts_over_stacks(rng):
    w = np.stack([_so13(rng.standard_normal(3), rng.standard_normal(3)) for _ in range(6)])
    a, L = exp_batch(np.zeros(4), w.reshape(2, 3, 4, 4))
    assert a.shape == (2, 3, 4) and L.shape == (2, 3, 4, 4)
    assert np.abs(a).max() == 0.0
    for k in range(6):
        assert np.allclose(L.reshape(6, 4, 4)[k], exp(AlgebraElement(np.zeros(4), w[k])).L,
                           rtol=0, atol=1e-14)
    a0, L0 = exp_batch(np.ones(4), np.zeros((0, 4, 4)))
    assert a0.shape == (0, 4) and L0.shape == (0, 4, 4)


def test_exp_refuses_w_outside_so13():
    with pytest.raises(ValueError, match="not in so\\(1,3\\)"):
        exp(AlgebraElement(np.zeros(4), np.diag([1.0, 0, 0, 0])))


def test_bracket_batch_matches_bracket(rng):
    xs = [_random_element(rng) for _ in range(8)]
    ys = [_random_element(rng) for _ in range(8)]
    v, w = bracket_batch((np.array([x.v for x in xs]), np.array([x.w for x in xs])),
                         (np.array([y.v for y in ys]), np.array([y.w for y in ys])))
    for k, (x, y) in enumerate(zip(xs, ys)):
        want = bracket(x, y)
        assert np.allclose(v[k], want.v, rtol=0, atol=1e-15)
        assert np.allclose(w[k], want.w, rtol=0, atol=1e-15)
