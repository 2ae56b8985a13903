"""Dataset ingestion and export: IDX parsing, PGM image files, CSV manifests.

IDX is the classic big-endian container for byte-valued tensor files; pixel
bytes map to [0, 1] floats on ingest and no further normalization happens
at parse time.  Datasets serialize to one CSV manifest plus one PGM file
per image, chosen for inspectability over a monolithic binary.
"""
from __future__ import annotations

import csv
import io as _io
import math
import re
import struct
import warnings
from pathlib import Path

import numpy as np

from .datagen import Dataset, LabeledImage
from .errors import ConfigError, DataError
from .model import DeformParams, GrayImage

_IMAGE_MAGIC = b"\x00\x00\x08\x03"


def read_bytes(path: str | Path) -> bytes:
    """Whole contents of a file; an unreadable path raises ``DataError``.

    That covers a missing file, a directory and a path with a NUL byte
    (which ``open`` rejects with ``ValueError``).
    """
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read {path}: {exc}")


def write_bytes(path: str | Path, data: bytes) -> None:
    """Write a file; an unwritable path is a bad argument, a ``ConfigError``."""
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot write {path}: {exc}")


def check_output_dir(path: str | Path) -> None:
    """Raise ``write_bytes``'s ``ConfigError`` before any work is done when
    the directory that is to hold path is missing or is not a directory."""
    parent = Path(path).parent
    if not parent.is_dir():
        raise ConfigError(f"cannot write {path}: {parent} is not a directory")


def parse_idx_images(data: bytes) -> list[GrayImage]:
    """Decode an IDX image file into [0, 1]-valued grayscale images."""
    if len(data) < 4:
        raise DataError(f"file has {len(data)} bytes, no room for magic")
    if data[:4] != _IMAGE_MAGIC:
        raise DataError(f"magic {data[:4]!r}, expected {_IMAGE_MAGIC!r}")
    # the magic, then the image count, rows and columns as big-endian u32
    if len(data) < 16:
        raise DataError("file ends inside the dimension list")
    n, h, w = struct.unpack(">3I", data[4:16])
    expected, size = n * h * w, len(data) - 16
    if size != expected:
        raise DataError(f"payload has {size} bytes, expected {expected}")
    if h != w or h < 1:
        raise DataError(f"images must be square and non-empty, got {h}x{w}")
    grids = np.frombuffer(data, np.uint8, offset=16).reshape(n, h, w) / 255.0
    grids.flags.writeable = False
    return [GrayImage(grid) for grid in grids]


# ---------------------------------------------------------------------------
# PGM
# ---------------------------------------------------------------------------

def write_pgm(img: GrayImage, max_val_policy: str = "fixed") -> bytes:
    """Binary PGM (P5) bytes.

    Policy "fixed" maps pixel 1.0 to byte 255 (values above 1 clip);
    "image_max" rescales by the image's own maximum.  An all-zero image
    under "image_max" falls back to all-zero bytes with a warning.
    """
    if max_val_policy not in ("fixed", "image_max"):
        raise ConfigError(f"unknown max_val policy {max_val_policy!r}")
    px = img.pixels
    if max_val_policy == "image_max":
        peak = float(px.max())
        if peak == 0.0:
            warnings.warn("all-zero image under image_max policy; writing zeros")
            scale = 1.0
        else:
            scale = peak
    else:
        scale = 1.0
    header = f"P5\n{img.d} {img.d}\n255\n".encode("ascii")
    body = np.clip(np.rint(px * (255.0 / scale)), 0, 255).astype(np.uint8)
    return header + body.tobytes()


# Up to four header tokens, each after any run of whitespace and comments.
# A comment is a '#' where a token would start, through the next newline or
# the end of the data; a token runs to the next whitespace byte.  Every
# byte has one reading, so a shorter match never finds other tokens.
_PGM_TOKEN = rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]\S*)"
_PGM_HEADER = re.compile(_PGM_TOKEN + (rb"(?:" + _PGM_TOKEN) * 3 + rb")?" * 3)


def read_pgm(data: bytes) -> GrayImage:
    """Decode binary PGM back to a [0, 1]-valued image."""
    m = _PGM_HEADER.match(data)
    if m is not None and m[1] != b"P5":
        raise DataError(f"PGM magic {m[1]!r}, expected b'P5'")
    if m is None or m[4] is None:
        raise DataError("PGM header ended early")
    tokens = m.groups()[1:]
    # The digit cap keeps int() below its conversion limit.
    if not all(t.isdigit() and len(t) <= 10 for t in tokens):
        raise DataError(f"PGM size and maxval must be decimal integers "
                        f"of at most 10 digits, got {b' '.join(tokens)!r}")
    w, h, max_val = (int(t) for t in tokens)
    if not 1 <= max_val <= 255:
        raise DataError(f"PGM maxval {max_val} unsupported, only 8-bit 1..255")
    if w != h or w < 1:
        raise DataError(f"image must be square and non-empty, got {w}x{h}")
    # One whitespace byte ends the header.
    start = min(m.end() + 1, len(data))
    if len(data) - start != w * h:
        raise DataError(f"payload has {len(data) - start} bytes, expected {w * h}")
    raw = np.frombuffer(data, dtype=np.uint8, count=w * h, offset=start)
    # write_pgm writes maxval 255, which no byte can exceed
    if max_val < 255 and raw.max() > max_val:
        raise DataError(f"PGM sample {raw.max()} above maxval {max_val}")
    grid = raw.reshape(h, w) / max_val
    grid.flags.writeable = False
    return GrayImage(grid)


# ---------------------------------------------------------------------------
# Dataset manifests
# ---------------------------------------------------------------------------

_MANIFEST_COLUMNS = ("index", "label", "template_index", "eta", "xi",
                     "xi_prime", "tau", "tau_prime", "file")


def write_dataset(data: Dataset, directory: str | Path) -> Path:
    """Write a CSV manifest plus one PGM per image; returns the manifest path.

    Parameters are stored at full precision in the manifest; each PGM is
    scaled by its image's maximum ("image_max") and quantized, so reading
    back reproduces each image divided by its maximum, to PGM resolution.
    """
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot write {directory}: {exc}")
    manifest = directory / "manifest.csv"
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_MANIFEST_COLUMNS)
    for i, item in enumerate(data.items):
        name = f"item_{i:05d}.pgm"
        write_bytes(directory / name, write_pgm(item.image, "image_max"))
        p = item.params
        writer.writerow([i, item.label, 0,
                         repr(p.eta), repr(p.xi), repr(p.xi_prime),
                         repr(p.tau), repr(p.tau_prime), name])
    write_bytes(manifest, buf.getvalue().encode("utf-8"))
    return manifest


def read_dataset(directory: str | Path) -> Dataset:
    """Load a manifest-directory dataset written by write_dataset.

    Rows are read by column position; blank lines are skipped.  A row with
    the wrong number of fields, a non-numeric or non-finite parameter, a
    non-integer index, label or template index, a label other than 0
    or 1, a template index other than 0, or parameters outside the
    deformation model (``DeformParams``) raises ``DataError``.
    Images may differ in size.
    """
    directory = Path(directory)
    manifest = directory / "manifest.csv"
    if not manifest.exists():
        raise DataError(f"no manifest.csv under {directory}")
    try:
        text = read_bytes(manifest).decode("utf-8")
        rows = [row for row in csv.reader(_io.StringIO(text, newline=""))
                if row]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{manifest} is not a UTF-8 CSV file: {exc}")
    if not rows or tuple(rows[0]) != _MANIFEST_COLUMNS:
        raise DataError(
            f"manifest columns {rows[0] if rows else None} unexpected")
    items = []
    for k, row in enumerate(rows[1:], 1):
        if len(row) != len(_MANIFEST_COLUMNS):
            raise DataError(f"manifest row {k} has {len(row)} fields, "
                            f"expected {len(_MANIFEST_COLUMNS)}")
        numbers = []
        for i, (name, value) in enumerate(zip(_MANIFEST_COLUMNS[:8], row)):
            kind, what = (int, "an integer") if i < 3 else (float, "a number")
            try:
                numbers.append(kind(value))
            except ValueError:
                raise DataError(
                    f"manifest row {k}: {name} {value!r:.40} is not {what}")
            if kind is float and not math.isfinite(numbers[-1]):
                raise DataError(
                    f"manifest row {k}: {name} {value!r:.40} is not finite")
        _, label, t_idx, eta, xi, xi_prime, tau, tau_prime = numbers
        if label not in (0, 1):
            raise DataError(
                f"manifest row {k}: label {label} is not 0 or 1")
        if t_idx != 0:
            raise DataError(f"manifest row {k}: template_index {t_idx} is not 0")
        try:
            params = DeformParams(eta=eta, xi=xi, xi_prime=xi_prime, tau=tau,
                                  tau_prime=tau_prime)
        except ConfigError as exc:
            raise DataError(f"manifest row {k}: {exc}")
        img = read_pgm(read_bytes(directory / row[8]))
        items.append(LabeledImage(image=img, label=label, params=params))
    if not items:
        raise DataError(f"manifest under {directory} lists no items")
    return Dataset(items=tuple(items))
