"""Regular lattices over the material body and k-form fields on them.

Forms are stored by strictly increasing multi-index: a k-form on a p-dimensional
lattice holds C(p,k) independent components per point, each with scalar, 4-vector
or 4x4-matrix values.  Derivatives use second-order central stencils on the
interior and second-order one-sided stencils on the boundary (np.gradient with
edge_order=2); identity checks are asserted on interior points only.  The exterior
derivative and the wedge product are one signed split-sum (`_split_sum`): each output
component is a sum over the ways to split its index, signed by the merge parity.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

#: the value shapes a form may have: scalar, 4-vector, 4x4 matrix
_VALUE_KINDS = {(), (4,), (4, 4)}


@dataclass(frozen=True)
class Lattice:
    """Regular grid over O in R^p: sizes, spacings, origin offsets."""

    shape: tuple
    spacing: tuple
    origin: tuple = None

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        spacing = tuple(float(h) for h in self.spacing)
        origin = tuple(float(o) for o in (self.origin if self.origin is not None
                                          else (0.0,) * len(shape)))
        if not 1 <= len(shape) <= 4:
            raise ValueError("lattice dimension must be between 1 and 4")
        if len(spacing) != len(shape) or len(origin) != len(shape):
            raise ValueError("shape, spacing and origin must have equal length")
        if any(n < 3 for n in shape):
            raise ValueError("each grid size must be at least 3 (stencil support)")
        if not np.all(np.isfinite(spacing + origin)):
            raise ValueError("spacing and origin must be finite")
        if any(h <= 0 for h in spacing):
            raise ValueError("spacings must be positive")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)

    @property
    def p(self) -> int:
        return len(self.shape)

    def axis_coords(self, a: int) -> np.ndarray:
        return self.origin[a] + self.spacing[a] * np.arange(self.shape[a])

    def coords(self) -> list[np.ndarray]:
        """Meshgrid point coordinates, one (shape,) array per material direction."""
        return list(np.meshgrid(*[self.axis_coords(a) for a in range(self.p)], indexing="ij"))

    def sample(self, fn, shapes) -> list[np.ndarray]:
        """fn(self.coords()) returns one value per entry s of shapes, lattice axes first;
        each is copied from its broadcast to (*shape, *s). A constant such as np.eye(4),
        or a value reduced over the coordinates (a sum, a norm), fills the lattice as a
        constant; a value that does not broadcast is a ValueError. fn is called once."""
        return [np.broadcast_to(np.asarray(value, dtype=float), self.shape + tuple(s)).copy()
                for value, s in zip(fn(self.coords()), shapes, strict=True)]

    def interior(self) -> tuple:
        """Slice tuple selecting interior points (one layer stripped per axis)."""
        return tuple(slice(1, -1) for _ in range(self.p))

    def gradient(self, data: np.ndarray, axis: int) -> np.ndarray:
        """Partial derivative along material axis of data shaped (*shape, ...)."""
        return np.gradient(data, self.spacing[axis], axis=axis, edge_order=2)

    def jets(self, data: np.ndarray) -> np.ndarray:
        """Derivatives along every material axis, stacked on a jet axis after the grid axes."""
        return np.stack([self.gradient(data, a) for a in range(self.p)], axis=self.p)


def multi_indices(p: int, k: int) -> tuple:
    """Strictly increasing k-multi-indices over axes 0..p-1, lexicographic."""
    return tuple(itertools.combinations(range(p), k))


class FormField:
    """k-form on a lattice with values of a fixed kind (scalar/vector/matrix).

    data layout: (*lattice.shape, n_components, *value_shape).
    """

    def __init__(self, lattice: Lattice, degree: int, data: np.ndarray):
        if not 0 <= degree <= lattice.p:
            raise ValueError(f"degree {degree} out of range for p={lattice.p}")
        self.lattice = lattice
        self.degree = degree
        self.indices = multi_indices(lattice.p, degree)
        data = np.asarray(data, dtype=float)
        expected_lead = lattice.shape + (len(self.indices),)
        if data.shape[: lattice.p + 1] != expected_lead:
            raise ValueError(f"data shape {data.shape} does not match lattice+components {expected_lead}")
        self.value_shape = data.shape[lattice.p + 1:]
        if self.value_shape not in _VALUE_KINDS:
            raise ValueError(f"unsupported value shape {self.value_shape}")
        self.data = data

    @classmethod
    def zeros(cls, lattice: Lattice, degree: int, value_shape=()) -> "FormField":
        n = len(multi_indices(lattice.p, degree))
        return cls(lattice, degree, np.zeros(lattice.shape + (n,) + tuple(value_shape)))

    def component(self, multi_idx) -> np.ndarray:
        """View of one antisymmetric component by its increasing multi-index."""
        return self.data[(Ellipsis, self.indices.index(tuple(multi_idx))) + (slice(None),) * len(self.value_shape)]

    def interior_max(self) -> float:
        sel = self.lattice.interior() + (Ellipsis,)
        return float(np.abs(self.data[sel]).max())

    def max_norm(self) -> float:
        return float(np.abs(self.data).max())


def _merge_sign(A: tuple, B: tuple) -> int:
    """Parity of merging the sorted tuples A, B into one sorted tuple."""
    inversions = sum(1 for a in A for b in B if a > b)
    return -1 if inversions % 2 else 1


def _split_sum(lat: Lattice, degree: int, k: int, value_shape: tuple, term) -> FormField:
    """The degree-form whose component C sums _merge_sign(A, B) * term(A, B) over the
    splits of C into a k-index A and the rest B, in combinations order."""
    out = FormField.zeros(lat, degree, value_shape)
    for ci, C in enumerate(out.indices):
        acc = np.zeros(lat.shape + value_shape)
        for positions in itertools.combinations(range(degree), k):
            A = tuple(C[i] for i in positions)
            B = tuple(C[i] for i in range(degree) if i not in positions)
            acc += _merge_sign(A, B) * term(A, B)
        out.data[(Ellipsis, ci) + (slice(None),) * len(value_shape)] = acc
    return out


def ext_d(f: FormField) -> FormField:
    """Discrete exterior derivative: stencil differences antisymmetrized over the new index."""
    lat = f.lattice
    if f.degree >= lat.p:
        raise ValueError("exterior derivative of a top-degree form")
    return _split_sum(lat, f.degree + 1, 1, f.value_shape,
                      lambda A, B: lat.gradient(f.component(B), A[0]))


def _pair_values(u: np.ndarray, us, v: np.ndarray, vs) -> np.ndarray:
    """Pointwise value pairing: a scalar times any value, a matrix times a matrix or vector;
    the product has v's value shape."""
    if us == ():
        return u[(Ellipsis,) + (np.newaxis,) * len(vs)] * v
    if us == (4, 4) and vs == (4, 4):
        return u @ v
    if us == (4, 4) and vs == (4,):
        return (u @ v[..., None])[..., 0]
    raise ValueError(f"no value pairing for shapes {us} x {vs}")


def wedge(alpha: FormField, beta: FormField) -> FormField:
    """Pointwise antisymmetrized product; matrix-valued pairings do not commute."""
    if alpha.lattice != beta.lattice:
        raise ValueError("wedge of forms on different lattices")
    lat = alpha.lattice
    k, l = alpha.degree, beta.degree
    if k + l > lat.p:
        raise ValueError(f"degree {k}+{l} exceeds lattice dimension {lat.p}")
    return _split_sum(lat, k + l, k, beta.value_shape,
                      lambda A, B: _pair_values(alpha.component(A), alpha.value_shape,
                                                beta.component(B), beta.value_shape))


# --- flat grid-file format -------------------------------------------------
#
# Text header lines, then raw array bodies:
#   line 1:  "cosrel-grid 2 <kind>"        kind: algebra-form | group
#   header:  "p", "shape", "spacing", "origin", then kind-specific keys
#   arrays:  "array <name> <dims...>\n" followed directly by its 8 * prod(dims) bytes,
#            row-major little-endian IEEE-754 float64

_MAGIC = ("cosrel-grid", "2")
#: integer header keys each kind must carry, besides the lattice keys
_KIND_KEYS = {"algebra-form": ("degree",), "group": ()}
#: the byte order and width of an array body
_BODY = np.dtype("<f8")
#: the bytes a header or array line may hold, its newline included; a longer line is refused
_LINE = 4096


def write_grid(path, kind: str, lattice: Lattice, meta: dict, arrays: dict):
    """Write a grid file: lattice header, `key value` meta lines, then named arrays,
    each body written from the array's buffer."""
    lines = [f"{' '.join(_MAGIC)} {kind}", f"p {lattice.p}"]
    lines += [f"{key} {' '.join(map(str, getattr(lattice, key)))}"
              for key in ("shape", "spacing", "origin")]
    lines += [f"{key} {value}" for key, value in meta.items()]
    with open(path, "wb") as fh:
        fh.write("".join(line + "\n" for line in lines).encode())
        for name, arr in arrays.items():
            body = np.ascontiguousarray(arr, dtype=_BODY)
            fh.write(f"array {name} {' '.join(map(str, body.shape))}\n".encode())
            fh.write(body)


def _numbers(tokens, cast, what: str) -> list:
    try:
        return [cast(t) for t in tokens]
    except ValueError:
        raise ValueError(f"non-numeric {what} in grid file: {' '.join(tokens)!r}") from None


def _integer(header: dict, key: str) -> int:
    values = _numbers(header[key], int, key)
    if len(values) != 1:
        raise ValueError(f"header {key} needs one integer, got {' '.join(header[key])!r}")
    return values[0]


def _words(fh, what: str) -> list | None:
    """The words of the next header or array line of fh, or None at the end of the file;
    what is the refusal of a line that is not UTF-8 text."""
    line = fh.readline(_LINE)
    if not line:
        return None
    if line[-1:] != b"\n":
        raise ValueError(f"grid file line longer than {_LINE} bytes" if len(line) == _LINE
                         else "grid file ends inside a header or array line")
    try:
        return line.decode().split()
    except UnicodeDecodeError:
        raise ValueError(what) from None


def read_grid(path, kind: str, names) -> tuple[Lattice, dict, list]:
    """Read a grid file of the given kind: (lattice, integer meta, arrays in names order).

    An array is allocated only once the file is seen to hold its body, which is then
    read into it whole, so the reader's memory is its arrays.  Any malformed file is
    refused with a one-line ValueError, the first fault in the file's order.
    """
    header, arrays = {}, {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = _words(fh, "not a cosrel grid file (version 2)")
        if magic is None or len(magic) != 3 or tuple(magic[:2]) != _MAGIC:
            raise ValueError("not a cosrel grid file (version 2)")
        if magic[2] != kind:
            raise ValueError(f"expected kind {kind!r}, found {magic[2]!r}")
        while (parts := _words(fh, "non-UTF-8 header or array line in grid file")) is not None:
            if not parts:   # blank, or non-ASCII whitespace only: \x1c, a no-break space
                raise ValueError("blank header or array line in grid file")
            if parts[0] != "array":
                if arrays:
                    raise ValueError(f"header key {parts[0]!r} after the first array")
                header[parts[0]] = parts[1:]
                continue
            if len(parts) < 2:
                raise ValueError("array line without a name")
            name = parts[1]
            dims = _numbers(parts[2:], int, f"dimension of array {name!r}")
            if any(n < 0 for n in dims):
                raise ValueError(f"negative dimension of array {name!r}")
            need, left = _BODY.itemsize * math.prod(dims), size - fh.tell()
            if need > left:
                raise ValueError(f"array {name!r} of shape {tuple(dims)} needs {need} bytes, "
                                 f"the grid file holds {left} more")
            body = np.empty(dims, dtype=_BODY)
            if fh.readinto(body) != need:
                raise ValueError("grid file shrank while it was read")
            arrays[name] = body.astype(float, copy=False)
    for key in ("p", "shape", "spacing", "origin") + _KIND_KEYS[kind]:
        if key not in header:
            raise ValueError(f"grid file header has no {key!r} line")
    shape = _numbers(header["shape"], int, "shape")
    if _integer(header, "p") != len(shape):
        raise ValueError(f"header p does not match shape {tuple(shape)}")
    lattice = Lattice(shape, _numbers(header["spacing"], float, "spacing"),
                      _numbers(header["origin"], float, "origin"))
    for name in names:
        if name not in arrays:
            raise ValueError(f"grid file has no array {name!r}")
    return lattice, {key: _integer(header, key) for key in _KIND_KEYS[kind]}, [arrays[n] for n in names]
