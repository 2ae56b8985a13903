"""Image alignment transform and nearest-neighbour classification.

The transform crops an image to the bounding box of its support (the
positive pixels), resamples the crop onto a fixed m x m grid, and normalizes.
Scales and shifts of the generating deformation mostly cancel out, so a
single prototype per class is enough for nearest-neighbour classification
when the classes are separated.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    EmptyGallery,
    EmptySupport,
    InvalidParams,
    ResolutionMismatch,
    ZeroNorm,
)
from .model import GrayImage


@dataclass(frozen=True)
class RectSupport:
    """1-based inclusive pixel index bounds of the positive pixels."""

    j_lo: int
    j_hi: int
    l_lo: int
    l_hi: int

    def spans(self) -> tuple[int, int]:
        return (self.j_hi - self.j_lo, self.l_hi - self.l_lo)


@dataclass(frozen=True)
class AlignedRep:
    """Support-aligned resampled grid with unit Frobenius norm."""

    grid: np.ndarray
    m: int

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        g = g.copy()
        g.flags.writeable = False
        object.__setattr__(self, "grid", g)


def rect_support(img: GrayImage) -> RectSupport:
    """Bounding box (1-based, inclusive) of the positive pixels."""
    mask = img.support_mask()
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if rows.size == 0:
        raise EmptySupport("no pixel is positive")
    return RectSupport(j_lo=int(rows[0]) + 1, j_hi=int(rows[-1]) + 1,
                       l_lo=int(cols[0]) + 1, l_hi=int(cols[-1]) + 1)


def resample_box(img: GrayImage, r: RectSupport, m: int) -> np.ndarray:
    """Resample the boxed crop onto an m x m grid.

    Sample a of axis j reads pixel floor(j_lo + (a/(m-1)) * (j_hi - j_lo)).
    The floor is evaluated in integer arithmetic, (j_lo*(m-1) + a*span) // (m-1),
    which equals the real-arithmetic floor exactly, and the result is
    clamped to [1, d] defensively.
    """
    if m < 2:
        raise InvalidParams(f"resample grid needs m >= 2, got {m}")
    d = img.d
    a = np.arange(m)
    j_idx = (r.j_lo * (m - 1) + a * (r.j_hi - r.j_lo)) // (m - 1)
    l_idx = (r.l_lo * (m - 1) + a * (r.l_hi - r.l_lo)) // (m - 1)
    j_idx = np.clip(j_idx, 1, d) - 1
    l_idx = np.clip(l_idx, 1, d) - 1
    return img.pixels[np.ix_(j_idx, l_idx)].copy()


def align_transform(img: GrayImage, m: int | None = None) -> AlignedRep:
    """Crop to the box of the positive pixels, resample to m x m, normalize.

    ``m`` defaults to the image resolution.  Raises EmptySupport when no
    pixel is positive and ZeroNorm when the resampled grid is
    identically zero (possible when the box corners land between the
    support pixels).
    """
    if m is None:
        m = img.d
    z = resample_box(img, rect_support(img), m)
    norm = float(np.linalg.norm(z))
    if norm == 0.0:
        raise ZeroNorm("resampled support grid is identically zero")
    return AlignedRep(grid=z / norm, m=m)


def _oriented_variants(z: np.ndarray) -> list[np.ndarray]:
    """The four axis-reversal orientations of a grid, original first."""
    return [z, z[::-1, :], z[:, ::-1], z[::-1, ::-1]]


GalleryEntry = tuple[AlignedRep, int]


def _stack_gallery(gallery: Sequence[GalleryEntry]) -> tuple[np.ndarray, np.ndarray, int]:
    if len(gallery) == 0:
        raise EmptyGallery("gallery must contain at least one entry")
    m = gallery[0][0].m
    for rep, _ in gallery:
        if rep.m != m:
            raise ResolutionMismatch(
                f"gallery mixes grid sizes {m} and {rep.m}")
    grids = np.stack([rep.grid.reshape(-1) for rep, _ in gallery])
    labels = np.array([label for _, label in gallery], dtype=int)
    return grids, labels, m


def classify_1nn(gallery: Sequence[GalleryEntry], query: AlignedRep,
                 flips: bool = False) -> tuple[int, int, float, int]:
    """Nearest neighbour under the discrete L2 distance (Frobenius / m).

    With ``flips`` the query grid is also compared in its three other
    axis-reversal orientations.  Returns (label, gallery index, distance,
    orientation index); the orientation is 0 without ``flips``.  Ties go
    to the smallest gallery index, then the smallest orientation.
    """
    grids, labels, m = _stack_gallery(gallery)
    if query.m != m:
        raise ResolutionMismatch(f"query grid size {query.m} != gallery {m}")
    variants = _oriented_variants(query.grid) if flips else [query.grid]
    candidates = []
    for r, variant in enumerate(variants):
        diffs = grids - variant.reshape(-1)
        dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs)) / m
        idx = int(np.argmin(dists))  # argmin takes the first minimum
        candidates.append((float(dists[idx]), idx, r))
    dist, idx, r = min(candidates)
    return int(labels[idx]), idx, dist, r


def build_gallery(images: Sequence[GrayImage], labels: Sequence[int],
                  m: int | None = None) -> list[GalleryEntry]:
    """Align every image and pair it with its label."""
    if len(images) != len(labels):
        raise InvalidParams("images and labels must have equal length")
    if m is None and images:
        m = images[0].d
    return [(align_transform(img, m), int(lab))
            for img, lab in zip(images, labels)]
