"""The grid-file codec: exact text, refusal of malformed files, round trips."""

import concurrent.futures
import concurrent.futures.process
import math
import multiprocessing
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cosrel.deformation import (AlgebraForm, GroupField, read_algebra_form, read_group_field,
                                write_algebra_form, write_group_field)
from cosrel import lattice, suites
from cosrel.lattice import FormField, Lattice

_IDENTITY = "1.0 0.0 0.0 0.0 0.0 1.0 0.0 0.0 0.0 0.0 1.0 0.0 0.0 0.0 0.0 1.0"
_A_VALUES = "nan -inf 1e-200 -0.0 " + " ".join(repr(v / 8.0) for v in range(4, 36))
_GROUP_TEXT = ("cosrel-grid 1 group\np 2\nshape 3 3\nspacing 0.5 0.25\norigin -1.0 0.0\n"
               f"array a 3 3 4\n{_A_VALUES}\n"
               f"array L 3 3 4 4\n{' '.join([_IDENTITY] * 9)}\n")
_FORM_TEXT = ("cosrel-grid 1 algebra-form\np 1\nshape 3\nspacing 0.1\norigin 0.0\ndegree 1\n"
              "array translation 3 1 4\n"
              "0.0 1.0 0.0 0.0 0.0 -2.5 0.0 0.0 0.0 0.3333333333333333 0.0 0.0\n"
              f"array lorentz 3 1 4 4\n{' '.join(['0.0'] * 48)}\n")
_BLANK_LINES = "\n" + _GROUP_TEXT.replace("\n", "\n\n")
#: whitespace-only lines 40 bytes long, and no newline at the end of the file
_LONG_LINES = _GROUP_TEXT.replace("\n", "\n" + " " * 40 + "\n").rstrip()


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
    """A one-component 1-form, carried as the translation part of an algebra form."""
    lat = Lattice((3,), (0.1,))
    tra = np.zeros((3, 1, 4))
    tra[:, 0, 1] = [1.0, -2.5, 1 / 3]
    path = tmp_path / "f.txt"
    write_algebra_form(path, AlgebraForm(FormField(lat, 1, tra),
                                         FormField(lat, 1, np.zeros((3, 1, 4, 4)))))
    assert path.read_text() == _FORM_TEXT


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(_BLANK_LINES)
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
    "binary-file": b"\x89PNG\r\n\x1a\n\x00\x00\x00\rIHDR",
    "non-utf8-header": _GROUP_TEXT.encode().replace(b"origin -1.0", b"origin \xff1.0"),
    "non-ascii-space-line": _edit("p 2\n", "p 2\n\u00a0\n"),
}
#: the refusals of lines that are not UTF-8 text
_MESSAGES = {"binary-file": "not a cosrel grid file (version 1)",
             "non-utf8-header": "non-UTF-8 header or array line in grid file"}


def _put(path, text):
    path.write_bytes(text if isinstance(text, bytes) else text.encode())


@pytest.mark.parametrize("block", [5, 16, 17])
def test_lines_longer_than_the_read_block(tmp_path, monkeypatch, block):
    """Lines longer than the reader's block, one block long (origin, spacing), whitespace
    only, or unterminated at the end of the file read as they do with the full block."""
    monkeypatch.setattr(lattice, "_BLOCK", block)
    path = tmp_path / "g.txt"
    path.write_text(_LONG_LINES)
    back = read_group_field(path)
    want = _pinned_group()
    assert back.lattice == want.lattice
    np.testing.assert_array_equal(back.a, want.a)
    np.testing.assert_array_equal(back.L, want.L)
    for text in _REFUSED.values():
        _put(path, text)
        with pytest.raises(ValueError):
            read_group_field(path)


@pytest.mark.parametrize("row", _REFUSED)
def test_malformed_group_file_refused(tmp_path, row):
    path = tmp_path / "bad.txt"
    _put(path, _REFUSED[row])
    with pytest.raises(ValueError) as info:
        read_group_field(path)
    assert "\n" not in str(info.value)
    assert str(info.value) == _MESSAGES.get(row, str(info.value))


@pytest.mark.parametrize("old,new", [("degree 1\n", ""), ("degree 1", "degree one"),
                                     ("degree 1", "degree 1 2")],
                         ids=["no-degree", "non-integer-degree", "two-degrees"])
def test_malformed_form_header_refused(tmp_path, old, new):
    path = tmp_path / "bad.txt"
    path.write_text(_edit(old, new, _FORM_TEXT))
    with pytest.raises(ValueError):
        read_algebra_form(path)


def test_nan_frame_state_refused(tmp_path):
    """A NaN in a stored Lorentz frame field is refused on read."""
    path = tmp_path / "g.txt"
    write_group_field(path, GroupField(Lattice((3,), (1.0,)), np.zeros((3, 4)),
                                       np.broadcast_to(np.eye(4), (3, 4, 4))))
    path.write_text(_edit("array L 3 4 4\n1.0", "array L 3 4 4\nnan", path.read_text()))
    with pytest.raises(ValueError, match="not Lorentz"):
        read_group_field(path)


_VALUES = st.floats(width=64)  # NaN, +-inf and subnormals included


_CODECS = {"algebra-form": (write_algebra_form, read_algebra_form, lambda E: [E.tra.data, E.lor.data]),
           "group": (write_group_field, read_group_field, lambda g: [g.a, g.L])}


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
    if kind == "algebra-form":
        return kind, AlgebraForm(FormField(lat, degree, free(n, 4)), FormField(lat, degree, free(n, 4, 4)))
    return kind, GroupField(lat, free(4), lorentz)


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
_BLOCK, _PIECE = 16, 8      # so that every data line of the pinned texts is read in pieces
_SPECIAL = [-0.0, 5e-324, 1e-05, 1e16, np.nan, np.inf, -np.inf]


@pytest.fixture
def pools(monkeypatch, fork_pools):
    """Small pieces, a list of the worker pools started, and a 60 s limit."""
    monkeypatch.setattr(lattice, "_CHUNK", _CHUNK)
    monkeypatch.setattr(lattice, "_BLOCK", _BLOCK)
    monkeypatch.setattr(lattice, "_PIECE", _PIECE)
    return fork_pools


def _values(size: int) -> np.ndarray:
    rng = np.random.default_rng(size)
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    values[:len(_SPECIAL)] = _SPECIAL[:size]
    return values


def _write(path, monkeypatch, cpus: int, arrays: dict) -> bytes:
    monkeypatch.setattr(lattice, "_cpus", lambda: cpus)
    lattice.write_grid(path, "algebra-form", Lattice((3,), (0.5,)), {"degree": 0}, arrays)
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


def _worker_raises(*args):
    raise ValueError("computation failed")


def _worker_dies(*args):
    os._exit(3)


@pytest.mark.parametrize("fault, error", [
    ("no-directory", FileNotFoundError), ("device-full", OSError),
    ("worker-raises", ValueError), ("worker-dies", concurrent.futures.BrokenExecutor),
    ("suite-worker-raises", ValueError),
    ("suite-worker-dies", concurrent.futures.process.BrokenProcessPool)])
def test_failed_pooled_write_leaves_no_process(tmp_path, monkeypatch, pools, fault, error):
    """Every fault leaves no worker of the shared pool behind.  The grid writer's
    faults reach the caller.  In the forms suite, the five checks that read worker
    fields fail, each with its extra.error, and the suite's other checks pass."""
    path = tmp_path / "f.txt"
    if fault == "no-directory":
        path = tmp_path / "missing" / "f.txt"
    elif fault == "device-full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this platform")
        path = "/dev/full"
    elif fault == "worker-raises":
        monkeypatch.setattr(lattice, "_text", _worker_raises)
    elif fault == "worker-dies":
        monkeypatch.setattr(lattice, "_text", _worker_dies)
    if fault.startswith("suite-"):
        broken = _worker_raises if fault == "suite-worker-raises" else _worker_dies
        monkeypatch.setattr(lattice, "_cpus", lambda: 2)
        monkeypatch.setattr(suites, "_bianchi_norm", broken)
        monkeypatch.setattr(suites, "_dislocation_norm", broken)
        (report,) = suites.run_suite("forms", options={"grids": (5, 9)})
        assert not report.passed
        assert [(c.check_id, c.passed) for c in report.checks] == [
            ("forms.01-dd-zero", True), ("forms.02-wedge-antisymmetry", True),
            ("forms.05-bianchi-order", False), ("forms.03-dislocation-order-p2", False),
            ("forms.04-dislocation-norm-p2", False), ("forms.03-dislocation-order-p3", False),
            ("forms.04-dislocation-norm-p3", False), ("forms.06-hand-dislocation", True)]
        for check in report.checks[2:7]:
            assert math.isnan(check.value) and set(check.extra) == {"error"}
            if fault == "suite-worker-raises":
                assert check.extra["error"] == f"{error.__name__}: computation failed"
            else:
                assert check.extra["error"].startswith(f"{error.__name__}: ")
    else:
        with pytest.raises(error):
            _write(path, monkeypatch, 2, {"coefficients": _values(36)})
    assert len(pools) == 1
    assert multiprocessing.active_children() == []


# --- data lines parsed in pieces, by worker processes ---------------------------

def _read(path, kind="group"):
    """(lattice, meta, shapes, bits) of a grid file read with read_grid, or its refusal."""
    names = ["a", "L"] if kind == "group" else ["translation", "lorentz"]
    try:
        lat, meta, arrays = lattice.read_grid(path, kind, names)
    except ValueError as error:
        assert "\n" not in str(error)
        return str(error)
    return lat, meta, [a.shape for a in arrays], [_bits(a) for a in arrays]


def _whole_lines(path, kind="group"):
    """_read with one piece per line, in this process."""
    with mock.patch.multiple(lattice, _BLOCK=1 << 16, _PIECE=1 << 20, _cpus=lambda: 1):
        return _read(path, kind)


_READ = {"pinned": _GROUP_TEXT, "blank-lines": _BLANK_LINES, "long-lines": _LONG_LINES,
         **_REFUSED}


@pytest.mark.parametrize("row", _READ)
def test_pooled_read_is_the_whole_line_read(tmp_path, monkeypatch, pools, row):
    """Values bitwise equal, or the same one-line refusal, with no worker left behind."""
    path = tmp_path / "g.txt"
    _put(path, _READ[row])
    whole = _whole_lines(path)
    monkeypatch.setattr(lattice, "_cpus", lambda: 2)
    pooled = _read(path)
    assert pooled == whole
    if not isinstance(pooled, str):
        assert len(pools) == 1
    assert multiprocessing.active_children() == []


def _truncated(path):
    """_forked_results that first cuts the last five bytes off the file at path."""
    forked = lattice._forked_results

    def truncating(calls, *args, **kwargs):
        os.truncate(path, os.path.getsize(path) - 5)
        return forked(calls, *args, **kwargs)
    return truncating


@pytest.mark.parametrize("fault, error, message", [
    ("worker-raises", ValueError, "computation failed"),
    ("worker-dies", concurrent.futures.BrokenExecutor, None),
    ("truncated", ValueError, "grid file shrank while it was read")])
def test_failed_pooled_read_leaves_no_process(tmp_path, monkeypatch, pools, fault, error, message):
    path = tmp_path / "g.txt"
    path.write_text(_GROUP_TEXT)
    monkeypatch.setattr(lattice, "_cpus", lambda: 2)
    if fault == "truncated":
        monkeypatch.setattr(lattice, "_forked_results", _truncated(path))
    else:
        monkeypatch.setattr(lattice, "_piece", _worker_raises if fault == "worker-raises"
                            else _worker_dies)
    with pytest.raises(error) as info:
        read_group_field(path)
    assert str(info.value) == (message or str(info.value))
    assert len(pools) == 1
    assert multiprocessing.active_children() == []


_INSERTS = [" ", "  ", "\n", "\t", "\r", "\x0b", "0", "1", "-", ".", "e", "nan", "inf", "(", "x",
            "_", ",", "\x00", "\xff", "\xc2\xa0", "\x1c", "array a 3 3 4\n", "degree 1\n",
            " " * 20, "\n\n"]


@st.composite
def _mutated(draw):
    """(kind, text): a pinned text with a few bytes inserted, deleted or overwritten."""
    kind = draw(st.sampled_from(["group", "algebra-form"]))
    text = (_GROUP_TEXT if kind == "group" else _FORM_TEXT).encode()
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 3))
        insert = draw(st.sampled_from(_INSERTS)).encode("latin-1")
        text = text[:at] + insert + text[at + cut:]
    return kind, text


@settings(max_examples=200, deadline=None)
@given(_mutated(), st.integers(1, 40), st.integers(1, 40))
def test_pieced_read_is_the_whole_line_read(tmp_path_factory, mutated, block, piece):
    """Small blocks and pieces change no value and no refusal.  The block size varies too:
    the scan that finds the cuts reads a line in blocks."""
    kind, text = mutated
    path = tmp_path_factory.mktemp("grid") / "g.txt"
    path.write_bytes(text)
    with mock.patch.multiple(lattice, _BLOCK=block, _PIECE=piece, _cpus=lambda: 1):
        pieced = _read(path, kind)
    assert pieced == _whole_lines(path, kind)


def test_in_process_read_holds_the_arrays_and_a_few_pieces(tmp_path, monkeypatch, fork_pools):
    """On one CPU, no pool starts and a long data line is never held whole: the read's
    peak is its array, a block and a few pieces."""
    monkeypatch.setattr(lattice, "_cpus", lambda: 1)
    monkeypatch.setattr(lattice, "_PIECE", 1 << 14)
    values = _values(1 << 16)
    path = tmp_path / "f.txt"
    lattice.write_grid(path, "algebra-form", Lattice((3,), (0.5,)), {"degree": 0}, {"c": values})
    assert os.path.getsize(path) > 64 * lattice._PIECE
    tracemalloc.start()
    try:
        _, _, (back,) = lattice.read_grid(path, "algebra-form", ["c"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _bits(back) == _bits(values)
    assert peak < back.nbytes + lattice._BLOCK + 4 * lattice._PIECE
    assert fork_pools == []
