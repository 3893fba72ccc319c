"""The grid-file codec: exact text, refusal of malformed files, round trips."""

import concurrent.futures
import multiprocessing
import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cosrel.deformation import (AlgebraForm, GroupField, read_algebra_form, read_group_field,
                                write_algebra_form, write_group_field)
from cosrel.kinematics import KinematicalState, read_state, write_state
from cosrel import lattice
from cosrel.lattice import FormField, Lattice, read_form, write_form

_IDENTITY = "1.0 0.0 0.0 0.0 0.0 1.0 0.0 0.0 0.0 0.0 1.0 0.0 0.0 0.0 0.0 1.0"
_A_VALUES = "nan -inf 1e-200 -0.0 " + " ".join(repr(v / 8.0) for v in range(4, 36))
_GROUP_TEXT = ("cosrel-grid 1 group\np 2\nshape 3 3\nspacing 0.5 0.25\norigin -1.0 0.0\n"
               f"array a 3 3 4\n{_A_VALUES}\n"
               f"array L 3 3 4 4\n{' '.join([_IDENTITY] * 9)}\n")
_FORM_TEXT = ("cosrel-grid 1 form\np 1\nshape 3\nspacing 0.1\norigin 0.0\ndegree 1\nvalue scalar\n"
              "array coefficients 3 1\n1.0 -2.5 0.3333333333333333\n")


def _pinned_group() -> GroupField:
    a = np.arange(36.0).reshape(3, 3, 4) / 8.0
    a[0, 0] = [np.nan, -np.inf, 1e-200, -0.0]
    return GroupField(Lattice((3, 3), (0.5, 0.25), (-1.0, 0.0)), a,
                      np.broadcast_to(np.eye(4), (3, 3, 4, 4)))


def test_group_field_text_is_pinned(tmp_path):
    path = tmp_path / "g.txt"
    write_group_field(path, _pinned_group())
    assert path.read_text() == _GROUP_TEXT


def test_scalar_form_text_is_pinned(tmp_path):
    path = tmp_path / "f.txt"
    write_form(path, FormField(Lattice((3,), (0.1,)), 1, np.array([[1.0], [-2.5], [1 / 3]])))
    assert path.read_text() == _FORM_TEXT


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("\n" + _GROUP_TEXT.replace("\n", "\n\n"))
    back = read_group_field(path)
    want = _pinned_group()
    assert back.lattice == want.lattice
    np.testing.assert_array_equal(back.a, want.a)
    np.testing.assert_array_equal(back.L, want.L)


def _edit(old, new, text=_GROUP_TEXT):
    assert old in text
    return text.replace(old, new, 1)


_A_BLOCK = f"array a 3 3 4\n{_A_VALUES}\n"
_REFUSED = {
    "empty-file": "",
    "bad-magic": _edit("cosrel-grid", "cosrel-grd"),
    "bad-version": _edit("cosrel-grid 1", "cosrel-grid 2"),
    "bad-kind": _edit("group", "state"),
    "magic-extra-token": _edit("group\n", "group extra\n"),
    "blank-header": "cosrel-grid 1 group\n\n",
    "no-shape": "cosrel-grid 1 group\narray a 4\n0 0 0 0\n",
    "no-p": _edit("p 2\n", ""),
    "no-spacing": _edit("spacing 0.5 0.25\n", ""),
    "no-origin": _edit("origin -1.0 0.0\n", ""),
    "p-not-len-shape": _edit("p 2", "p 3"),
    "p-two-values": _edit("p 2", "p 2 2"),
    "non-numeric-p": _edit("p 2", "p two"),
    "non-numeric-shape": _edit("shape 3 3", "shape 3 x"),
    "non-integer-shape": _edit("shape 3 3", "shape 3 3.0"),
    "non-numeric-spacing": _edit("spacing 0.5 0.25", "spacing 0.5 h"),
    "non-numeric-origin": _edit("origin -1.0 0.0", "origin -1.0 o"),
    "array-without-name": _edit("array a", "array\narray a"),
    "non-integer-dimension": _edit("array a 3 3 4", "array a 3 3 4.0"),
    "non-numeric-dimension": _edit("array a 3 3 4", "array a 3 three 4"),
    "negative-dimension": _edit("array a 3 3 4", "array a -3 -3 4"),
    "short-data-line": _edit(" 4.375\n", "\n"),
    "long-data-line": _edit(" 4.375\n", " 4.375 4.5\n"),
    "non-numeric-data": _edit(" 4.375\n", " four\n"),
    "underscore-in-data": _edit(" 4.375\n", " 4_375\n"),
    "comma-in-data": _edit(" 4.375\n", ",4.375\n"),
    "nan-payload-in-data": _edit(" 4.375\n", " nan(4375)\n"),
    "missing-data-line": _edit(_A_BLOCK, "") + "array a 3 3 4\n",
    "missing-array": _edit(_A_BLOCK, ""),
    "header-after-array": _edit(_A_BLOCK, _A_BLOCK + "degree 1\n"),
    "array-shape-off-lattice": _edit(_A_BLOCK, _A_BLOCK.replace("3 3 4", "9 4")),
    "nan-lorentz-entry": _edit("4 4\n1.0", "4 4\nnan"),
}


@pytest.mark.parametrize("block", [5, 16, 17])
def test_lines_longer_than_the_read_block(tmp_path, monkeypatch, block):
    """Lines longer than the reader's block, one block long (origin, spacing), whitespace
    only, or unterminated at the end of the file read as they do with the full block."""
    monkeypatch.setattr(lattice, "_BLOCK", block)
    path = tmp_path / "g.txt"
    path.write_text(_GROUP_TEXT.replace("\n", "\n" + " " * 40 + "\n").rstrip())
    back = read_group_field(path)
    want = _pinned_group()
    assert back.lattice == want.lattice
    np.testing.assert_array_equal(back.a, want.a)
    np.testing.assert_array_equal(back.L, want.L)
    for text in _REFUSED.values():
        path.write_text(text)
        with pytest.raises(ValueError):
            read_group_field(path)


@pytest.mark.parametrize("text", _REFUSED.values(), ids=_REFUSED.keys())
def test_malformed_group_file_refused(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        read_group_field(path)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("old,new", [("degree 1\n", ""), ("degree 1", "degree one"),
                                     ("degree 1", "degree 1 2")],
                         ids=["no-degree", "non-integer-degree", "two-degrees"])
def test_malformed_form_header_refused(tmp_path, old, new):
    path = tmp_path / "bad.txt"
    path.write_text(_edit(old, new, _FORM_TEXT))
    with pytest.raises(ValueError):
        read_form(path)


def test_nan_frame_state_refused(tmp_path):
    path = tmp_path / "s.txt"
    e = np.broadcast_to(np.eye(4), (3, 4, 4))
    write_state(path, KinematicalState(Lattice((3,), (1.0,)), np.zeros((3, 4)), e,
                                       np.zeros((3, 1, 4)), np.zeros((3, 1, 4, 4))))
    path.write_text(_edit("array e 3 4 4\n1.0", "array e 3 4 4\nnan", path.read_text()))
    with pytest.raises(ValueError, match="not Lorentz"):
        read_state(path)


_VALUES = st.floats(width=64)  # NaN, +-inf and subnormals included


_CODECS = {"form": (write_form, read_form, lambda f: [f.data]),
           "algebra-form": (write_algebra_form, read_algebra_form, lambda E: [E.tra.data, E.lor.data]),
           "group": (write_group_field, read_group_field, lambda g: [g.a, g.L]),
           "state": (write_state, read_state, lambda s: [s.x, s.e, s.xj, s.ej])}


@st.composite
def _fields(draw):
    """(kind, field) with arbitrary floats wherever the kind allows them; Lorentz slots are 1."""
    kind = draw(st.sampled_from(sorted(_CODECS)))
    p = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(3, 4), min_size=p, max_size=p)))
    spacing = draw(st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                            min_size=p, max_size=p))
    origin = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=p, max_size=p))
    lat = Lattice(shape, spacing, origin)

    def free(*tail):
        return draw(arrays(np.float64, shape + tail, elements=_VALUES))

    lorentz = np.broadcast_to(np.eye(4), shape + (4, 4))
    degree = draw(st.integers(0, p))
    n = len(FormField.zeros(lat, degree).indices)
    if kind == "form":
        return kind, FormField(lat, degree, free(n, *draw(st.sampled_from([(), (4,), (4, 4)]))))
    if kind == "algebra-form":
        return kind, AlgebraForm(FormField(lat, degree, free(n, 4)), FormField(lat, degree, free(n, 4, 4)))
    if kind == "group":
        return kind, GroupField(lat, free(4), lorentz)
    return kind, KinematicalState(lat, free(4), lorentz, free(p, 4), free(p, 4, 4))


def _bits(arr):
    """Raw bytes with every NaN made canonical (the text format writes all NaNs as 'nan')."""
    return np.where(np.isnan(arr), np.nan, arr).tobytes()


@settings(max_examples=60, deadline=None)
@given(_fields())
def test_round_trip_is_exact(tmp_path_factory, field):
    kind, obj = field
    write, read, arrays_of = _CODECS[kind]
    original = arrays_of(obj)
    path = tmp_path_factory.mktemp("grid") / "f.txt"
    write(path, obj)
    text = path.read_text()
    back = read(path)
    assert back.lattice == obj.lattice
    got = arrays_of(back)
    assert [a.shape for a in got] == [a.shape for a in original]
    assert [_bits(a) for a in got] == [_bits(a) for a in original]
    write(path, back)
    assert path.read_text() == text


# --- bodies formatted by worker processes ------------------------------------

_CHUNK = 4     # so that a 3 x 3 x 4 array spans nine pieces
_SPECIAL = [-0.0, 5e-324, 1e-05, 1e16, np.nan, np.inf, -np.inf]


def _timed_out(signum, frame):
    raise TimeoutError("grid write still waiting on its workers")


@pytest.fixture
def pools(monkeypatch):
    """Small pieces, a list of the worker pools write_grid starts, and a 60 s limit."""
    monkeypatch.setattr(lattice, "_CHUNK", _CHUNK)
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


def _values(size: int) -> np.ndarray:
    rng = np.random.default_rng(size)
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    values[:len(_SPECIAL)] = _SPECIAL[:size]
    return values


def _write(path, monkeypatch, cpus: int, arrays: dict) -> bytes:
    monkeypatch.setattr(lattice, "_cpus", lambda: cpus)
    lattice.write_grid(path, "form", Lattice((3,), (0.5,)), {"degree": 0}, arrays)
    return path.read_bytes()


@pytest.mark.parametrize("sizes", [[0], [1], [_CHUNK - 1], [_CHUNK], [_CHUNK + 1], [36],
                                   [9 * _CHUNK + 3], [2, 2], [1, 0, _CHUNK]],
                         ids=lambda sizes: "+".join(map(str, sizes)))
def test_pooled_bytes_are_the_serial_bytes(tmp_path, monkeypatch, pools, sizes):
    """Workers start only for more than one piece's worth of floats, and change no byte."""
    arrays = {f"c{i}": _values(size) for i, size in enumerate(sizes)}
    serial = _write(tmp_path / "serial.txt", monkeypatch, 1, arrays)
    assert pools == []
    pooled = _write(tmp_path / "pooled.txt", monkeypatch, 2, arrays)
    assert pooled == serial
    assert len(pools) == (sum(sizes) > _CHUNK)
    assert multiprocessing.active_children() == []
    bodies = serial.decode().split("\n")[7::2]
    assert [body.split() for body in bodies] == [list(map(repr, a.tolist())) for a in arrays.values()]


def test_pooled_group_file_is_pinned(tmp_path, monkeypatch, pools):
    """Both arrays of a group field, nine and 36 pieces, as the serial writer pins them."""
    monkeypatch.setattr(lattice, "_cpus", lambda: 3)
    path = tmp_path / "g.txt"
    write_group_field(path, _pinned_group())
    assert len(pools) == 1
    assert path.read_text() == _GROUP_TEXT
    assert multiprocessing.active_children() == []


def _worker_raises(flat, start):
    raise ValueError("formatting failed")


def _worker_dies(flat, start):
    os._exit(3)


@pytest.mark.parametrize("fault, error", [
    ("no-directory", FileNotFoundError), ("device-full", OSError),
    ("worker-raises", ValueError), ("worker-dies", concurrent.futures.BrokenExecutor)])
def test_failed_pooled_write_leaves_no_process(tmp_path, monkeypatch, pools, fault, error):
    path = tmp_path / "f.txt"
    if fault == "no-directory":
        path = tmp_path / "missing" / "f.txt"
    elif fault == "device-full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this platform")
        path = "/dev/full"
    elif fault == "worker-raises":
        monkeypatch.setattr(lattice, "_text", _worker_raises)
    else:
        monkeypatch.setattr(lattice, "_text", _worker_dies)
    with pytest.raises(error):
        _write(path, monkeypatch, 2, {"coefficients": _values(36)})
    assert len(pools) == 1
    assert multiprocessing.active_children() == []
