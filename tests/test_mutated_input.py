"""Malformed input never ends in a traceback or a wrong exit code.

One valid file of each kind (a query PGM, a dataset manifest, a ``bench``
config and an IDX image file) is changed by flipped bits, truncation, and
duplicated or spliced byte runs.  The PGM and the manifest go through
``align``, the config through ``bench``, the IDX bytes through
``parse_idx_images`` (no command reads IDX).
"""
import contextlib
import io
import struct

import pytest
from hypothesis import assume, given, settings, strategies as st

from deformclass import DeformClassError, GrayImage, parse_idx_images
from deformclass.cli import main

# The templates come last: a truncation that drops a size key drops them
# too, so no mutant runs the default sweep (about 5 s).
CONFIG = b"""experiment.classifiers = IAC
experiment.n_list = 2
experiment.n_test = 4
experiment.repetitions = 1
experiment.d = 8
align.m = 8
q.eta_range = 0.8,1.2
q.xi_range = 1.0,1.5
q.flip_prob = 0.5
task.template0 = tent:delta=0.25
task.template1 = cross:arm=0.25,taper=0.08
"""

IDX = b"\x00\x00\x08\x03" + struct.pack(">3I", 2, 4, 4) + bytes(range(0, 256, 8))

# (operation, position, second position, run length); positions wrap around
# the current length.
OPS = st.lists(st.tuples(st.sampled_from(["flip", "truncate", "duplicate",
                                          "splice"]),
                         st.integers(0, 1 << 16), st.integers(0, 1 << 16),
                         st.integers(1, 8)),
               min_size=1, max_size=3)


def mutate(data: bytes, ops) -> bytes:
    for op, i, j, run in ops:
        if not data:
            break
        i %= len(data)
        if op == "flip":
            data = data[:i] + bytes([data[i] ^ (1 << j % 8)]) + data[i + 1:]
        elif op == "truncate":
            data = data[:i]
        elif op == "duplicate":
            data = data[:i + run] + data[i:i + run] + data[i + run:]
        else:
            j %= len(data) + 1
            data = data[:j] + data[i:i + run] + data[j:]
    return data


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A gallery, a copy of it whose manifest is mutated, and the paths the
    mutated query and config are written to."""
    base = tmp_path_factory.mktemp("mutated")
    gallery, mutated = base / "gallery", base / "mutated"
    assert main(["gen", "--template0", "tent:delta=0.25",
                 "--template1", "cross:arm=0.25,taper=0.08", "--n", "4",
                 "--d", "16", "--seed", "1", "--out", str(gallery)]) == 0
    mutated.mkdir()
    for path in gallery.iterdir():
        (mutated / path.name).write_bytes(path.read_bytes())
    return {"gallery": gallery, "mutated": mutated,
            "query": base / "query.pgm", "config": base / "exp.cfg"}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in out + err
    if code in (2, 3, 4):
        assert err.count("\n") == 1, err
    return code


@settings(derandomize=True, max_examples=100)
@given(ops=OPS)
def test_mutated_query_pgm(files, ops):
    valid = (files["gallery"] / "item_00000.pgm").read_bytes()
    files["query"].write_bytes(mutate(valid, ops))
    code = run(["align", "--gallery", files["gallery"],
                "--query", files["query"], "--flips"])
    assert code in (0, 2, 3, 4)


@settings(derandomize=True, max_examples=100)
@given(ops=OPS)
def test_mutated_manifest(files, ops):
    valid = (files["gallery"] / "manifest.csv").read_bytes()
    (files["mutated"] / "manifest.csv").write_bytes(mutate(valid, ops))
    code = run(["align", "--gallery", files["mutated"],
                "--query", files["gallery"] / "item_00000.pgm"])
    assert code in (0, 2, 3, 4)


@settings(derandomize=True, max_examples=100)
@given(ops=OPS)
def test_mutated_config(files, ops):
    data = mutate(CONFIG, ops)
    # A pgm: template names a file to read, which could block.
    assume(b"pgm:" not in data)
    files["config"].write_bytes(data)
    assert run(["bench", "--config", files["config"]]) in (0, 1, 2, 3, 4)


@settings(derandomize=True, max_examples=100)
@given(ops=OPS)
def test_mutated_idx(ops):
    try:
        images = parse_idx_images(mutate(IDX, ops))
    except DeformClassError:
        return
    assert all(isinstance(img, GrayImage) for img in images)
