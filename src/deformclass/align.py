"""Image alignment transform and nearest-neighbour classification.

The transform crops an image to the bounding box of its support (the
positive pixels), resamples the crop onto a fixed m x m grid, and normalizes.
Scales and shifts of the generating deformation mostly cancel out, so a
single prototype per class is enough for nearest-neighbour classification
when the classes are separated.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericError
from .model import (IMAGE_BLOCK, MAX_RESOLUTION, GrayImage, mask_spans,
                    square_grid, unit_scale)


@dataclass(frozen=True)
class AlignedRep:
    """Support-aligned resampled grid with unit Frobenius norm.

    The grid is m x m with m >= 2, held as ``model.square_grid`` returns it.
    """

    grid: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "grid", square_grid(self.grid, "aligned grid", 2))

    @property
    def m(self) -> int:
        return self.grid.shape[0]


def check_grid_side(m: int, what: str = "resample grid") -> None:
    """Reject an alignment grid side ``m`` below 2 or above
    ``MAX_RESOLUTION``, before any grid is allocated; ``what`` names the
    setting in the message."""
    if not 2 <= m <= MAX_RESOLUTION:
        raise ConfigError(f"{what} needs m >= 2 and m <= {MAX_RESOLUTION}, "
                          f"got {m}")


def align_images(images: Sequence[GrayImage], m: int | None = None
                 ) -> list[AlignedRep]:
    """Align every image: crop to the box of its positive pixels, resample
    the crop onto an m x m grid, and normalize to unit Frobenius norm.

    ``m`` defaults to each image's resolution; an m below 2 or above
    ``MAX_RESOLUTION`` raises ConfigError before any grid is allocated.
    Sample a of an axis whose box runs from pixel lo to pixel hi (0-based,
    inclusive) reads pixel floor(lo + a * (hi - lo) / (m - 1)), evaluated
    exactly in integers as (lo*(m-1) + a*(hi-lo)) // (m-1).

    Runs of images of one resolution are aligned together, at most
    ``IMAGE_BLOCK`` at a time.  The first image, in list order, that has no
    positive pixel, whose resampled grid is identically zero (possible when
    the box corners land between the support pixels) or whose resampled
    grid has a non-finite norm (a NaN or infinite sample) raises
    NumericError; the message names the condition and the image's list
    index.
    """
    reps: list[AlignedRep] = []
    for d, run in groupby(images, key=lambda img: img.d):
        run = list(run)
        for start in range(0, len(run), IMAGE_BLOCK):
            reps.extend(_align_block(run[start:start + IMAGE_BLOCK],
                                     d if m is None else m, len(reps)))
    return reps


def _sample_index(lo: np.ndarray, end: np.ndarray, m: int) -> np.ndarray:
    """(n, m) pixel indices of the m samples along one axis of n boxes, each
    given by its first index and one past its last."""
    # An empty box (end 0) samples pixel 0 until its image raises.
    span = np.maximum(end - 1 - lo, 0)
    return (lo[:, None] * (m - 1) + np.arange(m) * span[:, None]) // (m - 1)


def _align_block(images: Sequence[GrayImage], m: int,
                 first: int) -> list[AlignedRep]:
    """``align_images`` on images that share one resolution; ``first`` is
    the list index of the first of them."""
    check_grid_side(m)
    px = np.stack([img.pixels for img in images])
    n, d, _ = px.shape
    mask = px > 0
    row_lo, row_end = mask_spans(mask.any(axis=2))
    j = _sample_index(row_lo, row_end, m)
    l = _sample_index(*mask_spans(mask.any(axis=1)), m)
    # One take of every crop on the block's flat index, one int64 per
    # sample: 1 MB for 32 grids of 64 x 64.  On 40 such images this
    # alignment took 0.73 (under the command's allocator thresholds, see
    # cli.main) and 0.93 (under glibc's defaults) of the time of a broadcast
    # fancy index over 64-image blocks; the same take over 64-image blocks,
    # with a 2 MB index, took 0.79 and 1.01.
    z = px.take((np.arange(n)[:, None, None] * d + j[:, :, None]) * d
                + l[:, None, :])
    # Grids from the first empty box on go unchecked: that image is named.
    empty = np.flatnonzero(row_end == 0)
    k = int(empty[0]) if empty.size else n
    z = unit_scale(z[:k], lambda i: f"the resampled grid of image {first + i}")
    if k < n:
        raise NumericError(f"image {first + k}: no pixel is positive")
    return [AlignedRep(grid=grid) for grid in z]


def _oriented_variants(z: np.ndarray) -> list[np.ndarray]:
    """The four axis-reversal orientations of a grid (or of a stack of grids
    along the last two axes), original first."""
    return [z, z[..., ::-1, :], z[..., :, ::-1], z[..., ::-1, ::-1]]


GalleryEntry = tuple[AlignedRep, int]

# Queries per screening product.  With flips the screen orients whichever
# side is smaller, so it holds at most four times this many rows of grid
# length.
_QUERY_BLOCK = 256
# Bytes of each temporary of the exact step, 16 pairs of 64 x 64 grids: the
# memory stays bounded however many pairs tie, and larger blocks measured
# no faster.
_PAIR_BYTES = 512 * 1024


def _stack_gallery(gallery: Sequence[GalleryEntry]) -> tuple[np.ndarray, np.ndarray, int]:
    if len(gallery) == 0:
        raise NumericError("gallery must contain at least one entry")
    m = gallery[0][0].m
    for rep, _ in gallery:
        if rep.m != m:
            raise ConfigError(
                f"gallery mixes grid sizes {m} and {rep.m}")
    grids = np.stack([rep.grid.reshape(-1) for rep, _ in gallery])
    labels = np.array([label for _, label in gallery], dtype=int)
    return grids, labels, m


def classify_1nn(gallery: Sequence[GalleryEntry], queries: Sequence[AlignedRep],
                 flips: bool = False) -> list[tuple[int, int, float, int]]:
    """Nearest neighbour of each query under the discrete L2 distance
    (Frobenius / m).

    Returns one (label, gallery index, distance, orientation index) per
    query, in query order; an empty ``queries`` gives ``[]``.  With
    ``flips`` each query grid is also compared in its three other
    axis-reversal orientations; without it the orientation is 0.  Ties go
    to the smallest gallery index, then the smallest orientation.

    The result is exact: each distance is ``sqrt(sum((g - v)**2)) / m``
    evaluated per (entry, orientation) pair, exactly as a loop over the
    gallery would.  One matrix product first screens every pair by the
    approximate squared distance ``|g|^2 + |v|^2 - 2 v.g``; only the
    pairs within a rounding slack of a query's approximate minimum are
    then evaluated exactly, and that slack provably keeps every pair that
    could tie the exact minimum.  With ``flips`` the product orients the
    gallery when it has no more entries than a block of queries, and the
    queries otherwise.  The exact step copies each kept pair's query in
    its orientation, at most ``_PAIR_BYTES`` of rows at a time.
    """
    grids, labels, m = _stack_gallery(gallery)
    for query in queries:
        if query.m != m:
            raise ConfigError(f"query grid size {query.m} != gallery {m}")
    if len(queries) == 0:
        return []
    n_orient = 4 if flips else 1
    g_sq = np.tile(np.einsum("ij,ij->i", grids, grids), n_orient)
    pair_rows = max(1, _PAIR_BYTES // (8 * m * m))
    results = []
    for start in range(0, len(queries), _QUERY_BLOCK):
        block = queries[start:start + _QUERY_BLOCK]
        z = np.stack([query.grid for query in block])
        z_rows = z.reshape(len(block), m * m)
        # The norm does not depend on the orientation.
        z_sq = np.einsum("ij,ij->i", z_rows, z_rows)
        # Column r * len(grids) + g of the product holds <flip_r(z), g>.
        if flips and len(grids) <= len(block):
            # Each axis reversal is its own inverse, so <flip_r(z), g> =
            # <z, flip_r(g)>: orient the gallery, the smaller side.
            oriented = np.stack(_oriented_variants(grids.reshape(-1, m, m)))
            dots = z_rows @ oriented.reshape(-1, m * m).T
        else:
            # Row q * n_orient + r holds query q in orientation r.
            v = (np.stack(_oriented_variants(z), axis=1) if flips else z
                 ).reshape(-1, m * m)
            dots = (v @ grids.T).reshape(len(block), n_orient * len(grids))
        approx = z_sq[:, None] + g_sq[None, :] - 2.0 * dots
        # The slack.  Let u = eps/2, n = m*m and S = max|g|^2 + max|z|^2.  A
        # length-n dot product summed in any order is off by at most
        # gamma_n|a||b| ~ n*u|a||b|.  Which side is reversed only permutes
        # the terms of <flip_r(z), g>, and reversal keeps each norm, so one
        # |z|^2 per query serves all four orientations.  So the screened
        # value of a pair is within E_a ~ (2n + 6)u*S of its true squared
        # distance, and the exact form's sum of rounded squared differences
        # (true value <= 2S) within E_c ~ (2n + 4)u*S.  Two sums whose
        # distances compare equal after sqrt and /m differ by at most ~8u of
        # 2S.  Every pair whose distance can tie the computed minimum
        # therefore screens within 2(E_a + E_c) + 16u*S = (4n + 18)eps*S of
        # the smallest screened value.  16n*eps*S covers that for every
        # m >= 2, and is more than twice E_a + E_c alone.
        slack = 16 * m * m * np.finfo(float).eps * (g_sq.max() + z_sq.max())
        # Written as "not above" so that a query with a non-finite grid keeps
        # every pair instead of none.
        keep = ~(approx > approx.min(axis=1, keepdims=True) + slack)
        q_idx, pair = np.nonzero(keep)
        r_idx, g_idx = np.divmod(pair, len(grids))
        dists = np.empty(len(pair))
        # Each kept pair's query row is copied in its orientation's element
        # order, so every distance is the same double as in a per-pair loop.
        for r in range(n_orient):
            of_r = np.flatnonzero(r_idx == r)
            for lo in range(0, len(of_r), pair_rows):
                k = of_r[lo:lo + pair_rows]
                rows = _oriented_variants(z[q_idx[k]])[r].reshape(len(k), -1)
                diffs = grids[g_idx[k]] - rows
                dists[k] = np.sqrt(np.einsum("ij,ij->i", diffs, diffs)) / m
        order = np.lexsort((r_idx, g_idx, dists, q_idx))
        first = order[np.searchsorted(q_idx[order], np.arange(len(block)))]
        results.extend((int(labels[g_idx[k]]), int(g_idx[k]), float(dists[k]),
                        int(r_idx[k])) for k in first)
    return results


def build_gallery(images: Sequence[GrayImage], labels: Sequence[int],
                  m: int | None = None) -> list[GalleryEntry]:
    """Align every image and pair it with its label."""
    if len(images) != len(labels):
        raise ConfigError("images and labels must have equal length")
    if m is None and images:
        m = images[0].d
    return [(rep, int(lab))
            for rep, lab in zip(align_images(images, m), labels)]
