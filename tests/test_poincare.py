import numpy as np

from conftest import series_exp
from cosrel.algebra import boost_matrix_generator, rotation_matrix_generator
from cosrel.minkowski import lorentz_adjoint, lorentz_defect
from cosrel.poincare import PoincareElement, compose, compose_batch, homogeneous_batch


def _random_element(rng, scale=1.0):
    W = sum(c * G for c, G in zip(rng.uniform(-scale, scale, 6),
                                  [rotation_matrix_generator(i) for i in (1, 2, 3)]
                                  + [boost_matrix_generator(i) for i in (1, 2, 3)]))
    return PoincareElement(rng.standard_normal(4), series_exp(W))


def _hom_product(g, h):
    """5x5 block-matrix oracle for the group product."""
    def block(e):
        H = np.zeros((5, 5))
        H[0, 0] = 1.0
        H[1:, 0] = e.a
        H[1:, 1:] = e.L
        return H
    return block(g) @ block(h)


def _identity():
    return PoincareElement(np.zeros(4), np.eye(4))


def _homogeneous(g):
    return homogeneous_batch(g.a, g.L)


def test_identity_is_neutral(rng):
    g = _random_element(rng)
    gi = compose(_identity(), g)
    assert np.allclose(gi.a, g.a, atol=1e-15) and np.allclose(gi.L, g.L, atol=1e-15)
    ig = compose(g, _identity())
    assert np.allclose(ig.a, g.a, atol=1e-15) and np.allclose(ig.L, g.L, atol=1e-15)


def test_pure_translations_add():
    g = PoincareElement([1, 2, 3, 4], np.eye(4))
    h = PoincareElement([0.5, -1, 0, 2], np.eye(4))
    gh = compose(g, h)
    assert np.allclose(gh.a, [1.5, 1, 3, 6], atol=1e-15)
    assert np.array_equal(gh.L, np.eye(4))


def test_compose_matches_block_matrix_oracle(rng):
    for _ in range(25):
        g, h = _random_element(rng), _random_element(rng)
        H = _hom_product(g, h)
        gh = compose(g, h)
        assert np.allclose(_homogeneous(gh), H, atol=1e-12)


def test_batched_compose_and_view_match_per_element(rng):
    gs = [_random_element(rng) for _ in range(6)]
    hs = [_random_element(rng) for _ in range(6)]
    stack = lambda els: (np.array([e.a for e in els]), np.array([e.L for e in els]))
    a, L = compose_batch(stack(gs), stack(hs))
    H = homogeneous_batch(*stack(gs))
    assert H.shape == (6, 5, 5)
    for k, (g, h) in enumerate(zip(gs, hs)):
        gh = compose(g, h)
        assert np.allclose(a[k], gh.a, rtol=0, atol=1e-15)
        assert np.allclose(L[k], gh.L, rtol=0, atol=1e-15)
        assert np.array_equal(H[k], _homogeneous(g))


def test_associativity(rng):
    for _ in range(25):
        g, h, k = (_random_element(rng) for _ in range(3))
        left = compose(compose(g, h), k)
        right = compose(g, compose(h, k))
        assert np.allclose(left.a, right.a, atol=1e-10)
        assert np.allclose(left.L, right.L, atol=1e-10)


def _inverse(g):
    return PoincareElement(-lorentz_adjoint(g.L) @ g.a, lorentz_adjoint(g.L))


def test_inverse_examples(rng):
    e = _inverse(_identity())
    assert np.allclose(e.a, 0) and np.allclose(e.L, np.eye(4))
    t = _inverse(PoincareElement([1, -2, 0, 3], np.eye(4)))
    assert np.allclose(t.a, [-1, 2, 0, -3], atol=1e-15)
    for _ in range(25):
        g = _random_element(rng)
        for gg in (compose(g, _inverse(g)), compose(_inverse(g), g)):
            assert np.abs(gg.a).max() <= 1e-10
            assert np.abs(gg.L - np.eye(4)).max() <= 1e-10


def test_homogeneous_views():
    assert np.array_equal(_homogeneous(_identity()), np.eye(5))
    g = PoincareElement([1, 2, 3, 4], np.eye(4))
    H = _homogeneous(g)
    assert np.array_equal(H[:, 0], [1, 1, 2, 3, 4])
    assert np.array_equal(H[0], [1, 0, 0, 0, 0])
    # the inverse element's block view: first column -L~ a, block L~
    rng = np.random.default_rng(3)
    g = _random_element(rng)
    Linv = np.linalg.inv(g.L)
    Hinv = homogeneous_batch(-Linv @ g.a, Linv)
    assert np.allclose(Hinv @ _homogeneous(g), np.eye(5), atol=1e-12)


def test_homogeneous_roundtrip(rng):
    g = _random_element(rng)
    H = _homogeneous(g)
    back = PoincareElement(H[1:, 0], H[1:, 1:])
    assert np.array_equal(back.a, g.a) and np.array_equal(back.L, g.L)
    assert np.array_equal(H[0], [1, 0, 0, 0, 0])


def test_action_preserves_orthonormality(rng):
    f = _identity()
    for _ in range(10):
        f = compose(f, _random_element(rng, 0.5))
    assert lorentz_defect(f.L) <= 1e-10
