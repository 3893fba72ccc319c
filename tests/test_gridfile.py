"""The grid-file codec: exact bytes, refusal of malformed files, round trips."""

import io
import math
import multiprocessing
import os
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import same_bits
from cosrel import lattice, suites, weyssenhoff
from cosrel.deformation import (AlgebraForm, GroupField, read_algebra_form, read_group_field,
                                write_algebra_form, write_group_field)
from cosrel.lattice import FormField, Lattice

#: a quiet NaN with a payload, as C's strtod reads "nan(4375)"
_NAN_4375 = 0x7FF8000000004375
_A_VALUES = [-math.inf, 1e-200, -0.0] + [v / 8.0 for v in range(4, 36)]
_A_BLOCK = b"array a 3 3 4\n" + struct.pack("<Q35d", _NAN_4375, *_A_VALUES)
_L_BLOCK = b"array L 3 3 4 4\n" + struct.pack("<144d", *np.eye(4).ravel().tolist() * 9)
_GROUP_BYTES = (b"cosrel-grid 2 group\np 2\nshape 3 3\nspacing 0.5 0.25\norigin -1.0 0.0\n"
                + _A_BLOCK + _L_BLOCK)
_FORM_BYTES = (b"cosrel-grid 2 algebra-form\np 1\nshape 3\nspacing 0.1\norigin 0.0\ndegree 1\n"
               b"array translation 3 1 4\n"
               + struct.pack("<12d", 0.0, 1.0, 0.0, 0.0, 0.0, -2.5, 0.0, 0.0, 0.0, 1 / 3, 0.0, 0.0)
               + b"array lorentz 3 1 4 4\n" + struct.pack("<48d", *[0.0] * 48))
#: a group file in the version-1 text format, which wrote each body as one line of floats
_GROUP_TEXT = ("cosrel-grid 1 group\np 2\nshape 3 3\nspacing 0.5 0.25\norigin -1.0 0.0\n"
               "array a 3 3 4\n" + " ".join(["nan"] + list(map(repr, _A_VALUES))) + "\n"
               "array L 3 3 4 4\n" + " ".join(map(repr, np.eye(4).ravel().tolist() * 9)) + "\n")


def _pinned_group() -> GroupField:
    a = np.array([0.0] + _A_VALUES).reshape(3, 3, 4)
    a.view(np.uint64)[0, 0, 0] = _NAN_4375
    return GroupField(Lattice((3, 3), (0.5, 0.25), (-1.0, 0.0)), a,
                      np.broadcast_to(np.eye(4), (3, 3, 4, 4)))


def test_group_field_bytes_are_pinned(tmp_path):
    path = tmp_path / "g.grid"
    want = _pinned_group()
    write_group_field(path, want)
    assert path.read_bytes() == _GROUP_BYTES
    back = read_group_field(path)
    assert back.lattice == want.lattice
    assert same_bits(back.a, want.a) and same_bits(back.L, want.L.copy())


def _text_lines(data: bytes) -> str:
    """The header and array lines of a grid file, each body skipped by its line's dims."""
    lines, at = [], 0
    while at < len(data):
        end = data.index(b"\n", at) + 1
        lines.append(data[at:end].decode())
        at = end
        if lines[-1].startswith("array "):
            at += lattice._BODY.itemsize * math.prod(map(int, lines[-1].split()[2:]))
    return "".join(lines)


def test_group_field_text_is_pinned(tmp_path):
    """The text lines, for a lattice whose spacing and origin need every digit."""
    lat = Lattice((3, 3), (0.1, 1 / 3), (-1e-300, 2.5))
    path = tmp_path / "g.grid"
    write_group_field(path, GroupField(lat, np.zeros((3, 3, 4)), np.broadcast_to(np.eye(4), (3, 3, 4, 4))))
    assert _text_lines(path.read_bytes()) == (
        "cosrel-grid 2 group\np 2\nshape 3 3\nspacing 0.1 0.3333333333333333\n"
        "origin -1e-300 2.5\narray a 3 3 4\narray L 3 3 4 4\n")
    assert read_group_field(path).lattice == lat


def test_scalar_form_text_is_pinned(tmp_path):
    """The text lines of a one-component 2-form on a plane, carried as the translation
    part of an algebra form."""
    lat = Lattice((4, 3), (0.5, 0.25))
    path = tmp_path / "f.grid"
    write_algebra_form(path, AlgebraForm.zeros(lat, 2))
    assert _text_lines(path.read_bytes()) == (
        "cosrel-grid 2 algebra-form\np 2\nshape 4 3\nspacing 0.5 0.25\norigin 0.0 0.0\n"
        "degree 2\narray translation 4 3 1 4\narray lorentz 4 3 1 4 4\n")
    back = read_algebra_form(path)
    assert back.lattice == lat and back.degree == 2


def test_scalar_form_bytes_are_pinned(tmp_path):
    """A one-component 1-form, carried as the translation part of an algebra form."""
    lat = Lattice((3,), (0.1,))
    tra = np.zeros((3, 1, 4))
    tra[:, 0, 1] = [1.0, -2.5, 1 / 3]
    path = tmp_path / "f.grid"
    write_algebra_form(path, AlgebraForm(FormField(lat, 1, tra),
                                         FormField(lat, 1, np.zeros((3, 1, 4, 4)))))
    assert path.read_bytes() == _FORM_BYTES
    back = read_algebra_form(path)
    assert back.lattice == lat and back.degree == 1
    assert same_bits(back.tra.data, tra) and same_bits(back.lor.data, np.zeros((3, 1, 4, 4)))


def _edit(old: bytes, new: bytes, data: bytes = _GROUP_BYTES) -> bytes:
    assert data.count(old) == 1
    return data.replace(old, new)


_REFUSED = {
    "empty-file": b"",
    "bad-magic": _edit(b"cosrel-grid", b"cosrel-grd"),
    "bad-version": _edit(b"cosrel-grid 2", b"cosrel-grid 3"),
    "version-1-text": _GROUP_TEXT.encode(),
    "bad-kind": _edit(b"group\n", b"state\n"),
    "magic-extra-token": _edit(b"group\n", b"group extra\n"),
    "blank-header": b"cosrel-grid 2 group\n\n",
    "no-shape": b"cosrel-grid 2 group\narray a 4\n" + bytes(32),
    "no-p": _edit(b"p 2\n", b""),
    "no-spacing": _edit(b"spacing 0.5 0.25\n", b""),
    "no-origin": _edit(b"origin -1.0 0.0\n", b""),
    "p-not-len-shape": _edit(b"p 2", b"p 3"),
    "p-two-values": _edit(b"p 2", b"p 2 2"),
    "non-numeric-p": _edit(b"p 2", b"p two"),
    "non-numeric-shape": _edit(b"shape 3 3", b"shape 3 x"),
    "non-integer-shape": _edit(b"shape 3 3", b"shape 3 3.0"),
    "non-numeric-spacing": _edit(b"spacing 0.5 0.25", b"spacing 0.5 h"),
    "non-numeric-origin": _edit(b"origin -1.0 0.0", b"origin -1.0 o"),
    "long-header-line": _edit(b"origin -1.0 0.0", b"origin -1.0 0.0" + b" " * lattice._LINE),
    "array-without-name": _edit(b"array a", b"array\narray a"),
    "non-integer-dimension": _edit(b"array a 3 3 4", b"array a 3 3 4.0"),
    "non-numeric-dimension": _edit(b"array a 3 3 4", b"array a 3 three 4"),
    "negative-dimension": _edit(b"array a 3 3 4", b"array a -3 -3 4"),
    # needs 3.2e16 bytes: refused for the file's size, before anything is allocated
    "huge-dimensions": _edit(b"array a 3 3 4", b"array a 100000 100000 100000 4"),
    "short-data-line": _GROUP_BYTES[:-8],
    "long-data-line": _edit(b"array L", struct.pack("<d", 4.5) + b"array L"),
    "bytes-after-last-body": _GROUP_BYTES + struct.pack("<d", 1.0),
    "newline-after-last-body": _GROUP_BYTES + b"\n",
    "missing-data-line": _edit(_A_BLOCK, b"") + b"array a 3 3 4\n",
    "missing-array": _edit(_A_BLOCK, b""),
    "header-after-array": _edit(_A_BLOCK, _A_BLOCK + b"degree 1\n"),
    "array-shape-off-lattice": _edit(b"array a 3 3 4", b"array a 9 4"),
    "nan-lorentz-entry": _edit(b"4 4\n" + struct.pack("<d", 1.0), b"4 4\n" + struct.pack("<d", math.nan)),
    "binary-file": b"\x89PNG\r\n\x1a\n\x00\x00\x00\rIHDR",
    "non-utf8-header": _edit(b"origin -1.0", b"origin \xff1.0"),
    "non-ascii-space-line": _edit(b"p 2\n", "p 2\n\u00a0\n".encode()),
}
#: the refusals whose message the rows pin
_MESSAGES = {"binary-file": "not a cosrel grid file (version 2)",
             "version-1-text": "not a cosrel grid file (version 2)",
             "non-utf8-header": "non-UTF-8 header or array line in grid file",
             "long-header-line": f"grid file line longer than {lattice._LINE} bytes",
             "huge-dimensions": "array 'a' of shape (100000, 100000, 100000, 4) needs "
                                "32000000000000000 bytes, the grid file holds 1456 more"}


@pytest.mark.parametrize("row", _REFUSED)
def test_malformed_group_file_refused(tmp_path, row):
    """One line, and the refusal allocates nothing like an array the file cannot hold."""
    path = tmp_path / "bad.grid"
    path.write_bytes(_REFUSED[row])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            read_group_field(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "\n" not in str(info.value)
    assert str(info.value) == _MESSAGES.get(row, str(info.value))
    assert peak < 1 << 20


def _outcome(path):
    """The lattice and array bytes of a group file read with read_group_field, or its refusal."""
    try:
        back = read_group_field(path)
    except ValueError as error:
        return str(error)
    return back.lattice, back.a.tobytes(), back.L.tobytes()


@pytest.mark.parametrize("block", [5, 16, 17])
def test_lines_longer_than_the_read_block(tmp_path, monkeypatch, block):
    """Header lines and bodies longer than the file's buffered read block are read, or
    refused with the same line, as they are with the default block."""
    path = tmp_path / "g.grid"
    rows = {"pinned": _GROUP_BYTES, **_REFUSED}
    default = {}
    for row, data in rows.items():
        path.write_bytes(data)
        default[row] = _outcome(path)

    def buffered(file, mode):
        assert mode == "rb"
        return io.BufferedReader(io.FileIO(file), buffer_size=block)
    monkeypatch.setattr(lattice, "open", buffered, raising=False)
    for row, data in rows.items():
        path.write_bytes(data)
        assert _outcome(path) == default[row], row


@pytest.mark.parametrize("old,new", [(b"degree 1\n", b""), (b"degree 1", b"degree one"),
                                     (b"degree 1", b"degree 1 2")],
                         ids=["no-degree", "non-integer-degree", "two-degrees"])
def test_malformed_form_header_refused(tmp_path, old, new):
    path = tmp_path / "bad.grid"
    path.write_bytes(_edit(old, new, _FORM_BYTES))
    with pytest.raises(ValueError):
        read_algebra_form(path)


def test_nan_frame_state_refused(tmp_path):
    """A NaN in a stored Lorentz frame field is refused on read."""
    path = tmp_path / "g.grid"
    write_group_field(path, GroupField(Lattice((3,), (1.0,)), np.zeros((3, 4)),
                                       np.broadcast_to(np.eye(4), (3, 4, 4))))
    path.write_bytes(_edit(b"array L 3 4 4\n" + struct.pack("<d", 1.0),
                           b"array L 3 4 4\n" + struct.pack("<d", math.nan), path.read_bytes()))
    with pytest.raises(ValueError, match="not Lorentz"):
        read_group_field(path)


@pytest.mark.parametrize("fault, error, message", [
    ("no-file", FileNotFoundError, None),
    ("truncated", ValueError, "grid file shrank while it was read")])
def test_failed_pooled_read_leaves_no_process(tmp_path, monkeypatch, fork_pools, fault, error, message):
    """The reader's faults reach the caller, and it starts no worker even where the forms
    suite would (two CPUs).  The reader sizes the file once; a body cut short after that
    is refused."""
    monkeypatch.setattr(weyssenhoff, "_cpus", lambda: 2)
    path = tmp_path / "g.grid"
    if fault == "truncated":
        path.write_bytes(_GROUP_BYTES[:-8])
        fstat = os.fstat

        def before_the_cut(fd):
            st = fstat(fd)
            return os.stat_result(st[:6] + (len(_GROUP_BYTES),) + st[7:])
        monkeypatch.setattr(os, "fstat", before_the_cut)
    with pytest.raises(error) as info:
        read_group_field(path)
    assert str(info.value) == (message or str(info.value))
    assert fork_pools == []
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("fault, error", [("no-directory", FileNotFoundError),
                                          ("device-full", OSError)])
def test_failed_pooled_write_leaves_no_process(tmp_path, monkeypatch, fork_pools, fault, error):
    """The writer's faults reach the caller, and it starts no worker even where the forms
    suite would (two CPUs)."""
    monkeypatch.setattr(weyssenhoff, "_cpus", lambda: 2)
    path = tmp_path / "missing" / "g.grid"
    if fault == "device-full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this platform")
        path = "/dev/full"
    with pytest.raises(error):
        write_group_field(path, _pinned_group())
    assert fork_pools == []
    assert multiprocessing.active_children() == []


def test_codec_holds_only_its_arrays(tmp_path, fork_pools):
    """The writer writes from the array's buffer and the reader reads into the array it
    returns, so neither holds more than the arrays, and no worker starts."""
    values = np.random.default_rng(0).standard_normal(1 << 16)
    path = tmp_path / "f.grid"
    tracemalloc.start()
    try:
        lattice.write_grid(path, "algebra-form", Lattice((3,), (0.5,)), {"degree": 0}, {"c": values})
        _, _, (back,) = lattice.read_grid(path, "algebra-form", ["c"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same_bits(back, values)
    assert peak < back.nbytes + (1 << 16)
    assert fork_pools == []


_CODECS = {"algebra-form": (write_algebra_form, read_algebra_form, lambda E: [E.tra.data, E.lor.data]),
           "group": (write_group_field, read_group_field, lambda g: [g.a, g.L])}


@st.composite
def _fields(draw):
    """(kind, field) with arbitrary bits wherever the kind allows them; Lorentz slots are 1."""
    kind = draw(st.sampled_from(sorted(_CODECS)))
    p = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(3, 4), min_size=p, max_size=p)))
    spacing = draw(st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                            min_size=p, max_size=p))
    origin = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=p, max_size=p))
    lat = Lattice(shape, spacing, origin)

    def free(*tail):  # any bit pattern: NaNs of any sign and payload, infinities, subnormals
        bits = draw(arrays(np.uint64, shape + tail, elements=st.integers(0, (1 << 64) - 1)))
        return bits.view(np.float64)

    lorentz = np.broadcast_to(np.eye(4), shape + (4, 4))
    degree = draw(st.integers(0, p))
    n = len(FormField.zeros(lat, degree).indices)
    if kind == "algebra-form":
        return kind, AlgebraForm(FormField(lat, degree, free(n, 4)), FormField(lat, degree, free(n, 4, 4)))
    return kind, GroupField(lat, free(4), lorentz)


@settings(max_examples=60, deadline=None)
@given(_fields())
def test_round_trip_is_exact(tmp_path_factory, field):
    kind, obj = field
    write, read, arrays_of = _CODECS[kind]
    original = arrays_of(obj)
    path = tmp_path_factory.mktemp("grid") / "f.grid"
    write(path, obj)
    data = path.read_bytes()
    back = read(path)
    assert back.lattice == obj.lattice
    got = arrays_of(back)
    assert all(same_bits(a, b) for a, b in zip(got, original, strict=True))
    write(path, back)
    assert path.read_bytes() == data


#: the arrays each pinned file holds: a mutated file that is read holds them too
_SHAPES = {"group": [(3, 3, 4), (3, 3, 4, 4)], "algebra-form": [(3, 1, 4), (3, 1, 4, 4)]}
_CHUNKS = [b" ", b"\n", b"\r", b"\t", b"0", b"1", b"9", b"-", b"\x00", b"\xff", b"\xc2\xa0",
           b"\x1c", b"array a 3 3 4\n", b"array translation 3 1 4\n", b"degree 1\n", b"\n\n",
           struct.pack("<d", math.nan), struct.pack("<d", 1.0)]


@st.composite
def _mutated(draw):
    """(kind, bytes): a pinned file with a few bytes inserted, deleted, overwritten or
    appended, or cut short."""
    kind = draw(st.sampled_from(sorted(_SHAPES)))
    data = _GROUP_BYTES if kind == "group" else _FORM_BYTES
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(["insert", "delete", "overwrite", "truncate", "append"]))
        at = draw(st.sampled_from(range(len(data) + 1)))    # anywhere, not mostly the header
        chunk = draw(st.sampled_from(_CHUNKS) | st.binary(min_size=1, max_size=8))
        if edit == "insert":
            data = data[:at] + chunk + data[at:]
        elif edit == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 9)):]
        elif edit == "overwrite":
            data = data[:at] + chunk + data[at + len(chunk):]
        elif edit == "truncate":
            data = data[:at]
        else:
            data = data + chunk
    return kind, data


@settings(max_examples=300, deadline=None)
@given(_mutated())
def test_mutated_file_is_read_with_its_shapes_or_refused(tmp_path_factory, mutated):
    kind, data = mutated
    _, read, arrays_of = _CODECS[kind]
    path = tmp_path_factory.mktemp("grid") / "f.grid"
    path.write_bytes(data)
    try:
        back = read(path)
    except ValueError as error:
        assert "\n" not in str(error)
        return
    got = arrays_of(back)
    assert [a.shape for a in got] == _SHAPES[kind]
    assert all(a.dtype == np.float64 for a in got)


def test_readme_grid_header_is_the_written_header(tmp_path):
    """The layout block of README's "File formats" lists the lines write_grid writes
    before the first body, by their first word, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## File formats", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    documented = [line.split()[0] for line in block.splitlines() if not line.startswith("<")]
    path = tmp_path / "f.grid"
    write_algebra_form(path, AlgebraForm.zeros(Lattice((3, 3), (0.5, 0.5)), 1))
    written = []
    with open(path, "rb") as fh:
        while not written or written[-1] != "array":
            written.append(fh.readline().split()[0].decode())
    assert documented == written
