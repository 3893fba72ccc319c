"""Regular lattices over the material body and k-form fields on them.

Forms are stored by strictly increasing multi-index: a k-form on a p-dimensional
lattice holds C(p,k) independent components per point, each with scalar, 4-vector
or 4x4-matrix values.  Derivatives use second-order central stencils on the
interior and second-order one-sided stencils on the boundary (np.gradient with
edge_order=2); identity checks are asserted on interior points only.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import math
import os
import re
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

    def __add__(self, other: "FormField") -> "FormField":
        self._check_compatible(other)
        return FormField(self.lattice, self.degree, self.data + other.data)

    def __sub__(self, other: "FormField") -> "FormField":
        self._check_compatible(other)
        return FormField(self.lattice, self.degree, self.data - other.data)

    def __rmul__(self, t: float) -> "FormField":
        return FormField(self.lattice, self.degree, t * self.data)

    def _check_compatible(self, other: "FormField"):
        if self.lattice != other.lattice or self.degree != other.degree \
                or self.value_shape != other.value_shape:
            raise ValueError("incompatible form fields")


def ext_d(f: FormField) -> FormField:
    """Discrete exterior derivative: stencil differences antisymmetrized over the new index."""
    lat = f.lattice
    if f.degree >= lat.p:
        raise ValueError("exterior derivative of a top-degree form")
    out = FormField.zeros(lat, f.degree + 1, f.value_shape)
    src = {mi: f.component(mi) for mi in f.indices}
    for ci, C in enumerate(out.indices):
        acc = np.zeros(lat.shape + f.value_shape)
        for j, axis in enumerate(C):
            rest = C[:j] + C[j + 1:]
            acc += (-1.0) ** j * lat.gradient(src[rest], axis)
        out.data[(Ellipsis, ci) + (slice(None),) * len(f.value_shape)] = acc
    return out


def _pair_values(u: np.ndarray, us, v: np.ndarray, vs) -> tuple[np.ndarray, tuple]:
    """Pointwise value pairing: scalar*any, elementwise vectors, matrix products."""
    if us == ():
        return u[(Ellipsis,) + (np.newaxis,) * len(vs)] * v, vs
    if vs == ():
        return u * v[(Ellipsis,) + (np.newaxis,) * len(us)], us
    if us == (4,) and vs == (4,):
        return u * v, (4,)  # componentwise scalar pairing
    if us == (4, 4) and vs == (4, 4):
        return u @ v, (4, 4)
    if us == (4, 4) and vs == (4,):
        return (u @ v[..., None])[..., 0], (4,)
    raise ValueError(f"no value pairing for shapes {us} x {vs}")


def _merge_sign(A: tuple, B: tuple) -> int:
    """Parity of merging the sorted tuples A, B into one sorted tuple."""
    inversions = sum(1 for a in A for b in B if a > b)
    return -1 if inversions % 2 else 1


def wedge(alpha: FormField, beta: FormField) -> FormField:
    """Pointwise antisymmetrized product; matrix-valued pairings do not commute."""
    if alpha.lattice != beta.lattice:
        raise ValueError("wedge of forms on different lattices")
    lat = alpha.lattice
    k, l = alpha.degree, beta.degree
    if k + l > lat.p:
        raise ValueError(f"degree {k}+{l} exceeds lattice dimension {lat.p}")
    _, out_vs = _pair_values(np.zeros(alpha.value_shape), alpha.value_shape,
                             np.zeros(beta.value_shape), beta.value_shape)
    out = FormField.zeros(lat, k + l, out_vs)
    for ci, C in enumerate(out.indices):
        acc = np.zeros(lat.shape + out_vs)
        for positions in itertools.combinations(range(k + l), k):
            A = tuple(C[i] for i in positions)
            B = tuple(C[i] for i in range(k + l) if i not in positions)
            term, _ = _pair_values(alpha.component(A), alpha.value_shape,
                                   beta.component(B), beta.value_shape)
            acc += _merge_sign(A, B) * term
        out.data[(Ellipsis, ci) + (slice(None),) * len(out_vs)] = acc
    return out


# --- flat grid-file format -------------------------------------------------
#
# Text layout (whitespace separated, blank lines ignored):
#   line 1:  "cosrel-grid 1 <kind>"        kind: algebra-form | group
#   header:  "p", "shape", "spacing", "origin", then kind-specific keys
#   arrays:  "array <name> <dims...>" followed by one line of row-major floats

_MAGIC = ("cosrel-grid", "1")
#: integer header keys each kind must carry, besides the lattice keys
_KIND_KEYS = {"algebra-form": ("degree",), "group": ()}
#: floats formatted per piece of an array body; bounds the writer's memory
_CHUNK = 65536
#: bytes read at a time while a grid file is scanned; a longer line is parsed in pieces
_BLOCK = 65536
#: bytes of a long data line parsed per piece, cut at whitespace
_PIECE = 1 << 20
_SPACE = re.compile(rb"\s")


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity masks on this platform
        return os.cpu_count() or 1


def _text(flat, start: int) -> str:
    return " ".join(map(repr, flat[start:start + _CHUNK].tolist()))


#: in a worker process, the calls of the pool that forked it, inherited at fork
_worker_calls = None


def _inherit(calls):
    global _worker_calls
    _worker_calls = calls


def _worker_call(k: int):
    return _worker_calls[k]()


def _pooled(pool, count: int, depth: int):
    """The results of worker calls 0..count-1, in order, with at most depth in flight.

    The first depth calls are submitted before this returns, which forks the
    workers, so a caller that opens a file afterwards forks no buffer of it.
    """
    tasks = iter(range(count))
    pending = collections.deque(pool.submit(_worker_call, k)
                                for k in itertools.islice(tasks, depth))

    def results():
        while pending:
            result = pending.popleft().result()
            for k in itertools.islice(tasks, 1):
                pending.append(pool.submit(_worker_call, k))
            yield result
    return results()


@contextlib.contextmanager
def _forked_results(calls: list, ahead: int = 2, fork: bool = True):
    """An iterator over the results of calls (zero-argument callables), in order.

    The grid writer formats its pieces here, the grid reader parses its pieces and the
    forms suite computes its fields.  With fork set, more than one available CPU and
    more than one call, up to one worker process per CPU is forked on entry and
    inherits calls; at most `ahead` calls per worker are in flight.  Otherwise, and
    where forking is unsafe, the calls run in this process as the iterator is read.  A call's exception is
    raised where its result is read.  The workers are joined when the block is
    left, by an exception too.
    """
    workers = min(_cpus(), len(calls)) if fork else 1
    pool = None
    if workers > 1:
        import multiprocessing
        import threading
        from concurrent.futures import ProcessPoolExecutor
        # fork is unsafe beside other threads and missing on some platforms, and a
        # daemon process may not start children
        if (threading.active_count() == 1 and "fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                       initializer=_inherit, initargs=(calls,))
    try:
        if pool is None:
            yield (call() for call in calls)
        else:
            yield _pooled(pool, len(calls), ahead * workers)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def write_grid(path, kind: str, lattice: Lattice, meta: dict, arrays: dict):
    """Write a grid file: lattice header, `key value` meta lines, then named arrays.

    Each array body is formatted in pieces of _CHUNK floats.  When the arrays hold
    more than _CHUNK floats together, the workers of `_forked_results` format the
    pieces, forked before the file is opened; they are written in order, so the
    bytes are those of a serial write.  The workers are joined before this returns
    or raises.
    """
    bodies = [np.asarray(arr, dtype=float) for arr in arrays.values()]
    flats = [body.reshape(-1) for body in bodies]
    pieces = [functools.partial(_text, flat, start)
              for flat in flats for start in range(0, flat.size, _CHUNK)]
    with _forked_results(pieces, fork=sum(flat.size for flat in flats) > _CHUNK) as texts, \
            open(path, "w") as fh:
        fh.write(f"{' '.join(_MAGIC)} {kind}\np {lattice.p}\n")
        for key in ("shape", "spacing", "origin"):
            fh.write(f"{key} {' '.join(map(str, getattr(lattice, key)))}\n")
        for key, value in meta.items():
            fh.write(f"{key} {value}\n")
        for name, body in zip(arrays, bodies):
            fh.write(f"array {name} {' '.join(map(str, body.shape))}\n")
            for start in range(0, body.size, _CHUNK):
                if start:
                    fh.write(" ")
                fh.write(next(texts))
            fh.write("\n")


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


def _lines(fh):
    """The non-blank lines of binary file fh, each as its bytes or, when it is longer than
    _BLOCK, as its byte offsets [start, cut, ..., end].  A long line is scanned once in
    _BLOCK-sized blocks and never held whole; each cut is the first whitespace byte at
    least _PIECE bytes past the previous one."""
    while line := fh.readline(_BLOCK):
        if len(line) < _BLOCK or line[-1:] == b"\n":
            if not line.isspace():
                yield line
            continue
        at = fh.tell() - _BLOCK
        cuts, blank = [at], True
        while line:
            blank = blank and line.isspace()
            while space := _SPACE.search(line, max(cuts[-1] + _PIECE - at, 0)):
                cuts.append(at + space.start())
            at += len(line)
            line = b"" if line[-1:] == b"\n" else fh.readline(_BLOCK)
        if not blank:
            yield cuts + [at]


def _span(path, start: int, end: int) -> bytes:
    """Bytes start..end of the file at path, read from a handle of its own."""
    with open(path, "rb") as fh:
        fh.seek(start)
        text = fh.read(end - start)
    if len(text) != end - start:
        raise ValueError("grid file shrank while it was read")
    return text


def _values(text: bytes):
    """The floats of a whitespace-separated piece of a data line, or None if it holds
    anything else."""
    if text.isspace():      # fromstring reads whitespace alone as [-1.]
        return np.empty(0)
    try:
        values = np.fromstring(text, dtype=float, sep=" ")
    except ValueError:
        return None
    return None if b"(" in text else values     # fromstring reads nan(...) as NaN


def _piece(path, start: int, end: int):
    return _values(_span(path, start, end))


def _gathered(name: str, dims: list, pieces, size_bound: int) -> np.ndarray:
    """The array of a data line from the values of its pieces, copied into place in order.

    A line of size_bound bytes holds at most that many values, so a larger shape is not
    allocated: its line is refused for its count."""
    need = math.prod(dims)
    flat = np.empty(need if need <= size_bound else 0)
    size = 0
    for values in pieces:
        if values is None:
            raise ValueError(f"non-numeric data in array {name!r}")
        if size + values.size <= flat.size:
            flat[size:size + values.size] = values
        size += values.size
    if size != need:
        raise ValueError(f"array {name!r} holds {size} values, "
                         f"its shape {tuple(dims)} needs {need}")
    return flat.reshape(dims)


def _words(line: bytes, what: str) -> list:
    """The words of a header or array line; what is the refusal of a non-UTF-8 one."""
    try:
        return line.decode().split()
    except UnicodeDecodeError:
        raise ValueError(what) from None


def read_grid(path, kind: str, names) -> tuple[Lattice, dict, list]:
    """Read a grid file of the given kind: (lattice, integer meta, arrays in names order).

    The file is scanned once.  A data line of at most _BLOCK bytes is parsed as it is
    read; a longer one is cut at whitespace into pieces of about _PIECE bytes, which
    `_forked_results` parses after the scan, each call reading its own bytes of the file,
    and each piece's values are copied into the line's array as they arrive.  So no line
    is held whole, and the values are those of a parse of the whole line.  Any malformed
    file is refused with a one-line ValueError, the first fault in the file's order.
    """
    header, arrays, bodies, fault = {}, [], [], None

    def text(line) -> bytes:
        return line if isinstance(line, bytes) else _span(path, line[0], line[-1])

    with open(path, "rb") as fh:
        lines = _lines(fh)
        try:
            magic = _words(text(next(lines, b"")), "not a cosrel grid file (version 1)")
            if len(magic) != 3 or tuple(magic[:2]) != _MAGIC:
                raise ValueError("not a cosrel grid file (version 1)")
            if magic[2] != kind:
                raise ValueError(f"expected kind {kind!r}, found {magic[2]!r}")
            for line in lines:
                parts = _words(text(line), "non-UTF-8 header or array line in grid file")
                if not parts:   # not blank as bytes, but blank as text: \x1c, a no-break space
                    raise ValueError("grid file line of non-ASCII whitespace only")
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
                data = next(lines, b"")     # blank lines are skipped
                if isinstance(data, bytes):
                    arrays.append((name, _gathered(name, dims, [_values(data)], len(data))))
                else:
                    bodies.append((len(arrays), name, dims, data))
                    arrays.append((name, None))
        except ValueError as error:     # raised once the long lines before it are parsed
            fault = error
    pieces = [functools.partial(_piece, path, start, end)
              for *_, cuts in bodies for start, end in itertools.pairwise(cuts)]
    with _forked_results(pieces) as results:
        for k, name, dims, cuts in bodies:
            arrays[k] = (name, _gathered(name, dims, itertools.islice(results, len(cuts) - 1),
                                         cuts[-1] - cuts[0]))
    if fault is not None:
        raise fault
    arrays = dict(arrays)
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

