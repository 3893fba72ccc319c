import numpy as np

from conftest import series_exp
from cosrel.algebra import boost_matrix_generator, rotation_matrix_generator
from cosrel.minkowski import lorentz_adjoint, lorentz_defect
from cosrel.poincare import compose, homogeneous


def _random_element(rng, scale=1.0):
    W = sum(c * G for c, G in zip(rng.uniform(-scale, scale, 6),
                                  [rotation_matrix_generator(i) for i in (1, 2, 3)]
                                  + [boost_matrix_generator(i) for i in (1, 2, 3)]))
    return rng.standard_normal(4), series_exp(W)


def _hom_product(g, h):
    """5x5 block-matrix oracle for the group product."""
    def block(e):
        H = np.zeros((5, 5))
        H[0, 0] = 1.0
        H[1:, 0], H[1:, 1:] = e
        return H
    return block(g) @ block(h)


def _identity():
    return np.zeros(4), np.eye(4)


def _translation(a):
    return np.array(a, dtype=float), np.eye(4)


def test_identity_is_neutral(rng):
    g = _random_element(rng)
    for a, L in (compose(_identity(), g), compose(g, _identity())):
        assert np.allclose(a, g[0], atol=1e-15) and np.allclose(L, g[1], atol=1e-15)


def test_pure_translations_add():
    a, L = compose(_translation([1, 2, 3, 4]), _translation([0.5, -1, 0, 2]))
    assert np.allclose(a, [1.5, 1, 3, 6], atol=1e-15)
    assert np.array_equal(L, np.eye(4))


def test_compose_matches_block_matrix_oracle(rng):
    for _ in range(25):
        g, h = _random_element(rng), _random_element(rng)
        H = _hom_product(g, h)
        assert np.allclose(homogeneous(*compose(g, h)), H, atol=1e-12)


def test_batched_compose_and_view_match_per_element(rng):
    gs = [_random_element(rng) for _ in range(6)]
    hs = [_random_element(rng) for _ in range(6)]
    stack = lambda els: tuple(np.array(part) for part in zip(*els))
    a, L = compose(stack(gs), stack(hs))
    H = homogeneous(*stack(gs))
    assert H.shape == (6, 5, 5)
    for k, (g, h) in enumerate(zip(gs, hs)):
        gh_a, gh_L = compose(g, h)
        assert np.allclose(a[k], gh_a, rtol=0, atol=1e-15)
        assert np.allclose(L[k], gh_L, rtol=0, atol=1e-15)
        assert np.array_equal(H[k], homogeneous(*g))


def test_associativity(rng):
    for _ in range(25):
        g, h, k = (_random_element(rng) for _ in range(3))
        left_a, left_L = compose(compose(g, h), k)
        right_a, right_L = compose(g, compose(h, k))
        assert np.allclose(left_a, right_a, atol=1e-10)
        assert np.allclose(left_L, right_L, atol=1e-10)


def _inverse(g):
    a, L = g
    return -lorentz_adjoint(L) @ a, lorentz_adjoint(L)


def test_inverse_examples(rng):
    a, L = _inverse(_identity())
    assert np.allclose(a, 0) and np.allclose(L, np.eye(4))
    a, _ = _inverse(_translation([1, -2, 0, 3]))
    assert np.allclose(a, [-1, 2, 0, -3], atol=1e-15)
    for _ in range(25):
        g = _random_element(rng)
        for a, L in (compose(g, _inverse(g)), compose(_inverse(g), g)):
            assert np.abs(a).max() <= 1e-10
            assert np.abs(L - np.eye(4)).max() <= 1e-10


def test_homogeneous_views():
    assert np.array_equal(homogeneous(*_identity()), np.eye(5))
    H = homogeneous(*_translation([1, 2, 3, 4]))
    assert np.array_equal(H[:, 0], [1, 1, 2, 3, 4])
    assert np.array_equal(H[0], [1, 0, 0, 0, 0])
    # the inverse element's block view: first column -L~ a, block L~
    rng = np.random.default_rng(3)
    a, L = _random_element(rng)
    Linv = np.linalg.inv(L)
    Hinv = homogeneous(-Linv @ a, Linv)
    assert np.allclose(Hinv @ homogeneous(a, L), np.eye(5), atol=1e-12)


def test_homogeneous_roundtrip(rng):
    a, L = _random_element(rng)
    H = homogeneous(a, L)
    assert np.array_equal(H[1:, 0], a) and np.array_equal(H[1:, 1:], L)
    assert np.array_equal(H[0], [1, 0, 0, 0, 0])


def test_action_preserves_orthonormality(rng):
    f = _identity()
    for _ in range(10):
        f = compose(f, _random_element(rng, 0.5))
    assert lorentz_defect(f[1]) <= 1e-10
