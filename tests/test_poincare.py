import numpy as np
import pytest

from conftest import series_exp
from cosrel.algebra import boost_matrix_generator, rotation_matrix_generator
from cosrel.poincare import (AffineFrame, PoincareElement, act_on_frame, canonical_frame,
                             compose, compose_batch, from_homogeneous, homogeneous_batch,
                             identity, inverse, to_homogeneous)


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


def test_identity_is_neutral(rng):
    g = _random_element(rng)
    gi = compose(identity(), g)
    assert np.allclose(gi.a, g.a, atol=1e-15) and np.allclose(gi.L, g.L, atol=1e-15)
    ig = compose(g, identity())
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
        assert np.allclose(to_homogeneous(gh), H, atol=1e-12)


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
        assert np.array_equal(H[k], to_homogeneous(g))


def test_associativity(rng):
    for _ in range(25):
        g, h, k = (_random_element(rng) for _ in range(3))
        left = compose(compose(g, h), k)
        right = compose(g, compose(h, k))
        assert np.allclose(left.a, right.a, atol=1e-10)
        assert np.allclose(left.L, right.L, atol=1e-10)


def test_inverse_examples(rng):
    e = inverse(identity())
    assert np.allclose(e.a, 0) and np.allclose(e.L, np.eye(4))
    t = inverse(PoincareElement([1, -2, 0, 3], np.eye(4)))
    assert np.allclose(t.a, [-1, 2, 0, -3], atol=1e-15)
    for _ in range(25):
        g = _random_element(rng)
        gg = compose(g, inverse(g))
        assert np.abs(gg.a).max() <= 1e-10
        assert np.abs(gg.L - np.eye(4)).max() <= 1e-10


def test_homogeneous_views():
    assert np.array_equal(to_homogeneous(identity()), np.eye(5))
    g = PoincareElement([1, 2, 3, 4], np.eye(4))
    H = to_homogeneous(g)
    assert np.array_equal(H[:, 0], [1, 1, 2, 3, 4])
    assert np.array_equal(H[0], [1, 0, 0, 0, 0])
    # the inverse element's block view: first column -L~ a, block L~
    rng = np.random.default_rng(3)
    g = _random_element(rng)
    Hinv = to_homogeneous(inverse(g))
    Linv = np.linalg.inv(g.L)
    assert np.allclose(Hinv[1:, 0], -Linv @ g.a, atol=1e-12)
    assert np.allclose(Hinv[1:, 1:], Linv, atol=1e-12)


def test_homogeneous_roundtrip(rng):
    g = _random_element(rng)
    back = from_homogeneous(to_homogeneous(g))
    assert np.array_equal(back.a, g.a) and np.array_equal(back.L, g.L)


def test_from_homogeneous_rejects_bad_top_row():
    for top in ([1, np.nan, 0, 0, 0], [np.nan, 0, 0, 0, 0], [1, 0, 0, 1e-9, 0]):
        H = np.eye(5)
        H[0] = top
        with pytest.raises(ValueError):
            from_homogeneous(H)


def test_act_identity_leaves_frame():
    f = canonical_frame()
    f2 = act_on_frame(identity(), f)
    assert np.array_equal(f2.origin, f.origin)
    assert np.array_equal(f2.axes, f.axes)


def test_act_pure_translation_on_canonical_frame():
    f = canonical_frame()
    g = PoincareElement([1, 2, 3, 4], np.eye(4))
    f2 = act_on_frame(g, f)
    assert np.allclose(f2.origin, [1, 2, 3, 4], atol=1e-15)
    assert np.array_equal(f2.axes, np.eye(4))


def test_right_action_law(rng):
    for _ in range(20):
        g, h = _random_element(rng, 0.7), _random_element(rng, 0.7)
        f = AffineFrame(rng.standard_normal(4), series_exp(
            0.5 * rotation_matrix_generator(1) + 0.3 * boost_matrix_generator(2)))
        one = act_on_frame(h, act_on_frame(g, f))
        two = act_on_frame(compose(g, h), f)
        assert np.abs(one.origin - two.origin).max() <= 1e-10
        assert np.abs(one.axes - two.axes).max() <= 1e-10


def test_action_preserves_orthonormality(rng):
    from cosrel.minkowski import ETA
    f = canonical_frame()
    for _ in range(10):
        f = act_on_frame(_random_element(rng, 0.5), f)
    assert np.abs(f.axes.T @ ETA @ f.axes - ETA).max() <= 1e-10


def test_frame_rejects_bad_axes():
    for axes in (2 * np.eye(4), np.full((4, 4), np.nan)):
        with pytest.raises(ValueError):
            AffineFrame(np.zeros(4), axes)
