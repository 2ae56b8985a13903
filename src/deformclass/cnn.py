"""Convolutional classification machinery.

Feature extraction is a zero-padded cross-correlation followed by ReLU and
global max-pooling, so each filter contributes a single scalar that is
invariant to object translation within the frame.  The explicit classifier
enumerates one filter per template per discretized scale pair and reads the
class decision off the larger of the two channel maxima; no training is
involved.  A trainable counterpart lives in the training module.

The bank is held as arrays, never as one object per entry: the live filters
of class k with quadratic support of side s form the rows of one float32
matrix, so a query costs one pruned matrix product per (side, class).  A
patch is pruned from a class-k product only when its L2 norm, which bounds
the response of any unit filter there, is below a response some class-k
filter already reached; so each channel maximum stays exact on its own,
however far apart the two are.  ``FilterBank.filter_at`` rebuilds any
single entry in float64 from the templates on demand, which keeps the exact
sliding-window path available for every entry.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (EmptyList, FilterTooLarge, InvalidParams,
                     ResolutionMismatch)
from .model import (SUPPORT_HI, SUPPORT_LO, GrayImage, TemplateFunction,
                    mask_spans, nonzero_boxes)


@dataclass(frozen=True, eq=False)
class Filter:
    """Square correlation kernel, or a null placeholder that always emits 0.

    Bank-built filters carry ``meta = (k, xi, xi_prime)`` and unit Frobenius
    norm; null filters stand in for scale pairs whose sampling window misses
    the template support entirely.
    """

    weights: np.ndarray | None
    meta: tuple | None = None

    def __post_init__(self):
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.ndim != 2 or w.shape[0] != w.shape[1] or w.size == 0:
                raise InvalidParams(f"filter weights must be square, got {w.shape}")
            w = w.copy()
            w.flags.writeable = False
            object.__setattr__(self, "weights", w)

    @property
    def is_null(self) -> bool:
        return self.weights is None

    @property
    def side(self) -> int:
        return 0 if self.weights is None else self.weights.shape[0]


def feature_max(filt: Filter, img: GrayImage) -> float:
    """Largest ReLU'd response of the filter over the zero-padded image.

    The image is framed by a border of zeros as wide as the filter, the
    filter is cross-correlated over every patch, and the maximum entry of
    the ReLU'd feature map is returned.  Exact sliding-window arithmetic;
    no FFT rounding.
    """
    if filt.is_null:
        return 0.0
    side = filt.side
    d = img.d
    if side > d:
        raise FilterTooLarge(f"filter side {side} exceeds image side {d}")
    padded = np.pad(img.pixels, side)
    windows = sliding_window_view(padded, (side, side))
    # Per-shift product-then-sum reproduces a direct evaluation bit for bit;
    # batched reductions and matmuls reassociate the additions.
    best = 0.0
    w = filt.weights
    for row in windows:
        for win in row:
            best = max(best, float((win * w).sum()))
    return max(best, 0.0)


# ---------------------------------------------------------------------------
# Scale-indexed filter bank
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FilterBank:
    """One filter per class per scale pair on the grid step 1/d, as arrays.

    The bank has 2*(2*Xi*d+1)**2 entries, ordered class-major, then the
    first scale, then the second, each scale running -Xi..Xi.  Only the
    live filters are stored: ``stacks[(side, k)]`` is a read-only float32
    array with one raveled side x side class-k filter per row.  A scale is
    live when one of its sample arguments lands in the support band
    (``live``); every other entry is null.  ``filter_at`` rebuilds one
    entry in float64 from the templates on demand.  Every row has unit
    norm, which is what lets ``classify_bank`` prune each class's patches
    by their norm alone and stay exact.
    """

    templates: tuple[TemplateFunction, TemplateFunction]
    xi_max: int
    d: int
    live: np.ndarray
    stacks: dict[tuple[int, int], np.ndarray] = field(repr=False)

    def __len__(self) -> int:
        return 2 * self.live.size ** 2

    def scale_grid(self) -> np.ndarray:
        n = 2 * self.xi_max * self.d + 1
        return (np.arange(n) - self.xi_max * self.d) / self.d

    def filter_at(self, k: int, i: int, j: int) -> Filter:
        """Filter of class k at scale-grid indices (i, j)."""
        xi, xi_prime = ((m - self.xi_max * self.d) / self.d for m in (i, j))
        meta = (k, xi, xi_prime)
        if not (self.live[i] and self.live[j]):
            return Filter(None, meta)
        grid = np.arange(1, self.d + 1) / self.d
        w = self.templates[k]((xi * grid)[:, None], (xi_prime * grid)[None, :])
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return Filter(None, meta)
        w = w / norm
        (r0,), (c0,), (side,) = _crop_boxes(w.any(axis=1)[None],
                                            w.any(axis=0)[None])
        return Filter(w[r0: r0 + side, c0: c0 + side], meta)


def _crop_boxes(rows: np.ndarray, cols: np.ndarray):
    """Quadratic supports from the (m, d) masks of nonzero rows and columns.

    The box is the smallest square holding all nonzero entries, capped at
    side d; where it is wider than the nonzero extent along an axis it grows
    toward higher indices until it meets the grid edge, then toward lower
    ones.  Returns the first row, first column and side per grid.
    """
    d = rows.shape[1]
    (r0, r1), (c0, c1) = mask_spans(rows), mask_spans(cols)
    side = np.minimum(np.maximum(r1 - r0, c1 - c0), d)
    return (np.minimum(d, r0 + side) - side, np.minimum(d, c0 + side) - side,
            side)


def build_filter_bank(f0: TemplateFunction, f1: TemplateFunction,
                      xi_max: int, d: int) -> FilterBank:
    """Sample each template at every scale pair on the grid {-Xi..Xi, step 1/d}.

    Filter entries are f_k(xi*j/d, xi'*j'/d) for j, j' = 1..d, normalized to
    unit Frobenius norm over the grid and cropped to their quadratic
    support.  Scale pairs whose arguments miss the support band entirely
    become null filters and are never evaluated; within a live pair only
    the samples whose two arguments both lie in the band are, since the
    template is 0 outside it.
    """
    if xi_max < 1:
        raise InvalidParams(f"scale limit must be >= 1, got {xi_max}")
    if int(xi_max) != xi_max:
        raise InvalidParams(f"scale limit must be an integer, got {xi_max}")
    xi_max = int(xi_max)
    n = 2 * xi_max * d + 1
    scales = (np.arange(n) - xi_max * d) / d
    args = scales[:, None] * (np.arange(1, d + 1) / d)[None, :]
    band = (args >= SUPPORT_LO) & (args <= SUPPORT_HI)
    live = band.any(axis=1)

    # Each live first scale fills the in-band samples of one (d, partners*d)
    # block that holds the grids of all live partner scales side by side.
    y_args = args[live].ravel()
    y_band = np.flatnonzero(band[live].ravel())
    block = np.zeros((d, y_args.size))
    pieces: dict[tuple[int, int], list[np.ndarray]] = {}
    for k, f in enumerate((f0, f1)):
        for x_args, rows in zip(args[live], band[live]):
            # arguments grow along a positive scale, so the band is one run
            lo = int(rows.argmax())
            hi = lo + int(rows.sum())
            block[lo:hi, y_band] = f(x_args[lo:hi, None], y_args[None, y_band])
            grids = block[lo:hi].reshape(hi - lo, -1, d)
            norms = np.sqrt(np.einsum("imj,imj->m", grids, grids))
            grids /= np.where(norms > 0.0, norms, 1.0)[:, None]
            part = np.flatnonzero(norms > 0.0)
            row_mask = np.zeros((part.size, d), dtype=bool)
            row_mask[:, lo:hi] = grids.any(axis=2).T[part]
            r0, c0, side = _crop_boxes(row_mask, grids.any(axis=0)[part])
            c0 += part * d
            for s in np.unique(side):
                sel = side == s
                crops = sliding_window_view(block, (s, s))[r0[sel], c0[sel]]
                pieces.setdefault((int(s), k), []).append(
                    crops.reshape(crops.shape[0], -1).astype(np.float32))
            block[lo:hi] = 0.0
    stacks = {}
    for key in sorted(pieces):
        stacks[key] = np.concatenate(pieces.pop(key))
        stacks[key].flags.writeable = False
    live.flags.writeable = False
    return FilterBank(templates=(f0, f1), xi_max=xi_max, d=d, live=live,
                      stacks=stacks)


# ---------------------------------------------------------------------------
# Max network and softmax head
# ---------------------------------------------------------------------------

def max_tree(values) -> float:
    """Exact maximum of values in [0, 1] via the pairwise ReLU tree.

    The list is zero-padded to the next power of two and reduced pairwise:
    the ReLU unit (y - z)_+ decides each pair, and the winning input is
    carried forward unchanged.  The rounded difference of two doubles is
    positive exactly when y > z, so the result is bit-exact against the
    plain maximum, which (y - z)_+ + z is not.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise EmptyList("max_tree needs at least one value")
    if not np.all((v >= 0) & (v <= 1)):
        raise InvalidParams("max_tree inputs must lie in [0, 1]")
    size = 1 << (int(v.size - 1).bit_length() if v.size > 1 else 0)
    buf = np.zeros(size)
    buf[: v.size] = v
    while buf.size > 1:
        y, z = buf[0::2], buf[1::2]
        buf = np.where(np.maximum(y - z, 0.0) > 0, y, z)
    return float(buf[0])


def check_temperature(beta: float) -> None:
    """Reject a softmax temperature that is not positive (NaN included)."""
    if not beta > 0:
        raise InvalidParams(f"temperature must be positive, got {beta}")


def softmax_pair(z0: float, z1: float, beta: float) -> tuple[float, float]:
    """Tempered two-class softmax, computed in max-shifted form.

    The outputs sum to 1 exactly; large beta sharpens the pair toward the
    one-hot limit.
    """
    check_temperature(beta)
    m = max(z0, z1)
    e0 = float(np.exp(beta * (z0 - m)))
    e1 = float(np.exp(beta * (z1 - m)))
    p0 = e0 / (e0 + e1)
    return p0, 1.0 - p0


# ---------------------------------------------------------------------------
# Explicit classifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BankDecision:
    p0: float
    p1: float
    label: int
    z0: float
    z1: float


# Slack added to the pruning threshold so float32 rounding in the window
# norms and dot products can never discard the true channel argmax.
_PRUNE_MARGIN = 1e-3


def _window_norms(crop: np.ndarray, side: int) -> np.ndarray:
    """L2 norm of every side x side patch of the crop framed by side-1 zeros."""
    pad = side - 1
    sq = np.pad(crop.astype(np.float64) ** 2, pad)
    sat = np.pad(sq.cumsum(0).cumsum(1), ((1, 0), (1, 0)))
    h = sq.shape[0] - side + 1
    w = sq.shape[1] - side + 1
    n2 = (sat[side: side + h, side: side + w] - sat[:h, side: side + w]
          - sat[side: side + h, :w] + sat[:h, :w])
    return np.sqrt(np.maximum(n2, 0.0))


def _channel_maxima_fast(bank: FilterBank, pixels: np.ndarray) -> tuple[float, float]:
    """max feature_max per class channel, via one matrix product per stack.

    The image is cropped to its support box; each stack correlates against
    patches of the crop framed by side-1 zeros, which covers all shifts with
    nonzero overlap.  Widening the frame never changes a ReLU'd maximum.

    Filters have unit norm, so by Cauchy-Schwarz a response at a patch
    never exceeds the patch L2 norm.  z[k] always holds a response that some
    class-k filter reaches, so a patch whose norm is below z[k] cannot raise
    it.  One probe per stack at its best-norm patch seeds both values; each
    class-k stack then multiplies only the patches with norm >= z[k] (less a
    float32 margin), and z[k] grows as the stacks are done.  Class k's
    threshold never depends on the other class, so the pruning is exact per
    class however far apart z0 and z1 are.
    """
    (r0,), (r1,), (c0,), (c1,) = nonzero_boxes(pixels[None])
    if r1 == r0:
        return 0.0, 0.0
    crop = pixels[r0:r1, c0:c1].astype(np.float32)

    windows = {side: (sliding_window_view(np.pad(crop, side - 1), (side, side)),
                      _window_norms(crop, side))
               for side in {side for side, _ in bank.stacks}}
    z = [0.0, 0.0]
    for (side, k), mat in bank.stacks.items():
        patches, norms = windows[side]
        probe = patches[np.unravel_index(int(np.argmax(norms)), norms.shape)]
        z[k] = max(z[k], float((mat @ probe.reshape(-1)).max()))
    for (side, k), mat in bank.stacks.items():
        patches, norms = windows[side]
        keep = norms >= z[k] - _PRUNE_MARGIN
        if keep.any():
            cols_mat = patches[keep].reshape(int(keep.sum()), -1).T
            z[k] = max(z[k], float((mat @ cols_mat).max()))
    return z[0], z[1]


def classify_bank(bank: FilterBank, img: GrayImage, beta: float | None = None,
                  fast: bool = True) -> BankDecision:
    """Two-channel decision of the explicit scale-indexed classifier.

    z_k is the maximum pooled response over all class-k filters; the label
    is the argmax channel and the probabilities are the tempered softmax of
    (z0, z1).  The image is expected pre-normalized to unit Frobenius norm.
    ``fast=False`` runs ``feature_max`` on every live filter in float64:
    the exact oracle of the float32 stacks, and slow on a large bank.
    """
    if bank.d != img.d:
        raise ResolutionMismatch(f"bank built for d={bank.d}, image has d={img.d}")
    if beta is None:
        beta = float(bank.d)
    if fast:
        z0, z1 = _channel_maxima_fast(bank, img.pixels)
    else:
        live = np.flatnonzero(bank.live)
        z0, z1 = (max((feature_max(bank.filter_at(k, i, j), img)
                       for i in live for j in live), default=0.0)
                  for k in (0, 1))
    p0, p1 = softmax_pair(z0, z1, beta)
    label = 0 if z0 >= z1 else 1
    return BankDecision(p0=p0, p1=p1, label=label, z0=z0, z1=z1)
