import itertools

import numpy as np
import pytest

from conftest import same_bits
from cosrel.deformation import AlgebraForm, read_algebra_form, write_algebra_form
from cosrel.lattice import FormField, Lattice, ext_d, multi_indices, wedge


def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice((2, 5), (0.1, 0.1))
    with pytest.raises(ValueError):
        Lattice((5, 5), (0.1, -0.1))
    with pytest.raises(ValueError):
        Lattice((5,) * 5, (0.1,) * 5)
    for spacing, origin in (((np.nan, 1.0), None), ((np.inf, 1.0), None),
                            ((0.1, 0.1), (0.0, np.nan)), ((0.1, 0.1), (-np.inf, 0.0))):
        with pytest.raises(ValueError, match="finite"):
            Lattice((3, 3), spacing, origin)
    lat = Lattice((5, 7), (0.25, 0.125), (1.0, -1.0))
    assert lat.p == 2
    assert lat.axis_coords(1)[0] == -1.0


def test_sample_calls_fn_once_with_the_lattice_coords():
    lat = Lattice((3, 4), (0.5, 0.25), (1.0, -1.0))
    calls = []

    def fn(x):
        calls.append(x)
        return np.stack(x, axis=-1), x[0] ** 2 + x[1] ** 2

    points, square = lat.sample(fn, [(2,), ()])
    coords = lat.coords()
    assert len(calls) == 1 and len(calls[0]) == 2
    assert all(same_bits(got, want) for got, want in zip(calls[0], coords))
    assert same_bits(points, np.stack(coords, axis=-1))
    assert same_bits(square, coords[0] ** 2 + coords[1] ** 2)


def test_sample_broadcasts_constants_and_refuses_other_shapes():
    lat = Lattice((3, 4), (0.5, 0.25))
    frame, scalar = lat.sample(lambda x: (np.eye(4), 2.5), [(4, 4), ()])
    assert same_bits(frame, np.broadcast_to(np.eye(4), (3, 4, 4, 4)).copy())
    assert same_bits(scalar, np.full((3, 4), 2.5))
    frame[0, 0, 0, 0] = 7.0     # a writable array of its own, not a broadcast view
    assert frame[1, 1, 0, 0] == 1.0
    with pytest.raises(ValueError, match="broadcast"):
        lat.sample(lambda x: (np.array([x[0], x[1], x[0], x[1]]),), [(4,)])
    with pytest.raises(ValueError):
        lat.sample(lambda x: (np.zeros(4),), [(4,), (4, 4)])


def test_sample_copies_full_fields_and_takes_reduced_values_as_constants():
    # a sampled array never shares memory with fn's value; a value that reduces
    # over the coordinates is a scalar, so it broadcasts as a constant field
    lat = Lattice((3, 4), (0.5, 0.25))
    field = np.zeros((3, 4, 2))
    (out,) = lat.sample(lambda x: (field,), [(2,)])
    assert not np.shares_memory(out, field)
    (norm,) = lat.sample(lambda point: (np.linalg.norm(point),), [()])
    assert same_bits(norm, np.full((3, 4), np.linalg.norm(lat.coords())))


def test_component_count_matches_binomial():
    lat = Lattice((5, 5, 5), (0.1, 0.1, 0.1))
    for k in range(4):
        f = FormField.zeros(lat, k)
        import math
        assert len(f.indices) == math.comb(3, k)


def test_ext_d_constant_is_zero():
    lat = Lattice((9, 9), (0.1, 0.1))
    f = FormField(lat, 0, np.full(lat.shape + (1,), 3.7))
    assert ext_d(f).max_norm() == 0.0


def test_ext_d_linear_coordinate_field():
    lat = Lattice((9, 11), (0.125, 0.1))
    r = lat.coords()
    f = FormField(lat, 0, r[0][..., None])
    df = ext_d(f)
    assert np.abs(df.component((0,)) - 1.0).max() <= 1e-12
    assert np.abs(df.component((1,))).max() <= 1e-12


def test_dd_zero_on_interior(rng):
    lat = Lattice((9, 9, 7), (0.1, 0.15, 0.2))
    f = FormField(lat, 0, rng.standard_normal(lat.shape + (1,)))
    dd = ext_d(ext_d(f))
    assert dd.interior_max() <= 1e-12


def test_ext_d_top_degree_rejected():
    lat = Lattice((5, 5), (0.1, 0.1))
    f = FormField.zeros(lat, 2)
    with pytest.raises(ValueError):
        ext_d(f)


def test_wedge_coordinate_one_forms():
    lat = Lattice((5, 5), (0.1, 0.1))
    dx1 = FormField.zeros(lat, 1)
    dx1.data[..., 0] = 1.0
    dx2 = FormField.zeros(lat, 1)
    dx2.data[..., 1] = 1.0
    w = wedge(dx1, dx2)
    assert np.abs(w.component((0, 1)) - 1.0).max() == 0.0


def test_matrix_wedge_against_index_loop_oracle(rng):
    lat = Lattice((4, 4, 4), (0.1, 0.1, 0.1))
    A = FormField(lat, 1, rng.standard_normal(lat.shape + (3, 4, 4)))
    B = FormField(lat, 1, rng.standard_normal(lat.shape + (3, 4, 4)))
    W = wedge(A, B)
    # oracle: (A ^ B)_{ab} = A_a B_b - A_b B_a at explicit points and index pairs
    for idx in [(0, 1, 2), (2, 3, 1)]:
        for a, b in itertools.combinations(range(3), 2):
            direct = (A.data[idx][a] @ B.data[idx][b] - A.data[idx][b] @ B.data[idx][a])
            got = W.data[idx][W.indices.index((a, b))]
            assert np.abs(got - direct).max() <= 1e-13


def test_matrix_wedge_self_product_nonzero(rng):
    lat = Lattice((4, 4), (0.1, 0.1))
    A = FormField(lat, 1, rng.standard_normal(lat.shape + (2, 4, 4)))
    assert wedge(A, A).max_norm() > 1e-3


def test_graded_antisymmetry_scalar_forms(rng):
    lat = Lattice((5, 5, 5), (0.1, 0.1, 0.1))
    for k, l in [(1, 1), (1, 2), (2, 1)]:
        a = FormField(lat, k, rng.standard_normal(lat.shape + (len(multi_indices(3, k)),)))
        b = FormField(lat, l, rng.standard_normal(lat.shape + (len(multi_indices(3, l)),)))
        lhs = wedge(a, b).data
        rhs = (-1.0) ** (k * l) * wedge(b, a).data
        assert np.abs(lhs - rhs).max() <= 1e-14


def test_wedge_degree_overflow_rejected(rng):
    lat = Lattice((5, 5), (0.1, 0.1))
    a = FormField(lat, 1, rng.standard_normal(lat.shape + (2,)))
    b = FormField(lat, 2, rng.standard_normal(lat.shape + (1,)))
    with pytest.raises(ValueError):
        wedge(a, b)


def test_wedge_incompatible_values_rejected(rng):
    # the pairings are a scalar times any value and a matrix times a matrix or vector
    lat = Lattice((5, 5), (0.1, 0.1))
    sca, vec, mat = (FormField(lat, 1, rng.standard_normal(lat.shape + (2,) + vs))
                     for vs in ((), (4,), (4, 4)))
    for alpha, beta in ((vec, mat), (vec, vec), (vec, sca), (mat, sca)):
        with pytest.raises(ValueError, match="no value pairing"):
            wedge(alpha, beta)


def test_form_file_roundtrip(tmp_path, rng):
    lat = Lattice((5, 6), (0.1, 0.2), (0.5, -0.5))
    f = AlgebraForm(FormField(lat, 1, rng.standard_normal(lat.shape + (2, 4))),
                    FormField(lat, 1, rng.standard_normal(lat.shape + (2, 4, 4))))
    path = tmp_path / "field.grid"
    write_algebra_form(path, f)
    back = read_algebra_form(path)
    assert back.lattice == lat
    assert back.degree == 1
    assert np.array_equal(back.tra.data, f.tra.data)
    assert np.array_equal(back.lor.data, f.lor.data)


def test_four_dimensional_body(rng):
    lat = Lattice((5, 5, 5, 5), (0.25, 0.25, 0.25, 0.25))
    f = FormField(lat, 0, rng.standard_normal(lat.shape + (1,)))
    two = ext_d(ext_d(f))
    assert len(two.indices) == 6
    assert two.interior_max() <= 1e-12
    top = FormField.zeros(lat, 4)
    assert len(top.indices) == 1
    with pytest.raises(ValueError):
        ext_d(top)
