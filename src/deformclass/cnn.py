"""Convolutional classification machinery.

Feature extraction is a zero-padded cross-correlation followed by ReLU and
global max-pooling, so each filter contributes a single scalar that is
invariant to object translation within the frame.  The explicit classifier
enumerates one filter per template per discretized scale pair and reads the
class decision off the larger of the two channel maxima; no training is
involved.  A trainable counterpart lives in the training module.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (EmptyList, FilterTooLarge, InvalidParams,
                     ResolutionMismatch)
from .model import SUPPORT_HI, SUPPORT_LO, GrayImage, TemplateFunction


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

@dataclass(eq=False)
class FilterBank:
    """One filter per class per scale pair on the grid step 1/d.

    Holds exactly 2*(2*Xi*d+1)**2 entries, ordered class-major, then the
    first scale, then the second, each scale running -Xi..Xi.
    """

    filters: list[Filter]
    xi_max: int
    d: int
    _stacks: dict | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.filters)

    def scale_grid(self) -> np.ndarray:
        n = 2 * self.xi_max * self.d + 1
        return (np.arange(n) - self.xi_max * self.d) / self.d

    def filter_at(self, k: int, i: int, j: int) -> Filter:
        """Filter of class k at scale-grid indices (i, j)."""
        n = 2 * self.xi_max * self.d + 1
        return self.filters[(k * n + i) * n + j]


def _crop_square(w: np.ndarray, d: int) -> np.ndarray | None:
    """Crop to the quadratic support: the smallest square holding all
    nonzero entries, extended symmetrically where the grid allows and
    capped at side d."""
    rows = np.flatnonzero(w.any(axis=1))
    cols = np.flatnonzero(w.any(axis=0))
    if rows.size == 0:
        return None
    r0, r1 = int(rows[0]), int(rows[-1]) + 1
    c0, c1 = int(cols[0]), int(cols[-1]) + 1
    side = min(max(r1 - r0, c1 - c0), d)

    def widen(lo: int, hi: int) -> tuple[int, int]:
        while hi - lo < side:
            if hi < d:
                hi += 1
            elif lo > 0:
                lo -= 1
            else:
                break
        return lo, hi

    r0, r1 = widen(r0, r1)
    c0, c1 = widen(c0, c1)
    return w[r0:r1, c0:c1]


def build_filter_bank(f0: TemplateFunction, f1: TemplateFunction,
                      xi_max: int, d: int) -> FilterBank:
    """Sample each template at every scale pair on the grid {-Xi..Xi, step 1/d}.

    Filter entries are f_k(xi*j/d, xi'*j'/d) for j, j' = 1..d, normalized to
    unit Frobenius norm over the grid and cropped to their quadratic
    support.  Scale pairs whose arguments miss the support band entirely
    become null filters.
    """
    if xi_max < 1:
        raise InvalidParams(f"scale limit must be >= 1, got {xi_max}")
    if int(xi_max) != xi_max:
        raise InvalidParams(f"scale limit must be an integer, got {xi_max}")
    xi_max = int(xi_max)
    n = 2 * xi_max * d + 1
    scales = (np.arange(n) - xi_max * d) / d
    j = np.arange(1, d + 1) / d

    # A scale can contribute only if some sample argument lands inside the
    # support band; everything else is null without evaluation.
    args = scales[:, None] * j[None, :]
    live = ((args >= SUPPORT_LO) & (args <= SUPPORT_HI)).any(axis=1)
    live_idx = np.flatnonzero(live)

    # One flattened argument array covers every live partner scale.
    y_args = (scales[live_idx, None] * j[None, :]).ravel()

    filters: list[Filter] = [None] * (2 * n * n)
    for k, f in ((0, f0), (1, f1)):
        base = k * n * n
        for i in range(n):
            row_off = base + i * n
            meta_x = float(scales[i])
            if not live[i]:
                for jj in range(n):
                    filters[row_off + jj] = Filter(None, (k, meta_x, float(scales[jj])))
                continue
            x_args = scales[i] * j
            block = f(x_args[:, None], y_args[None, :]).reshape(d, live_idx.size, d)
            pos = 0
            for jj in range(n):
                meta = (k, meta_x, float(scales[jj]))
                if not live[jj]:
                    filters[row_off + jj] = Filter(None, meta)
                    continue
                w = block[:, pos, :]
                pos += 1
                norm = float(np.linalg.norm(w))
                if norm == 0.0:
                    filters[row_off + jj] = Filter(None, meta)
                    continue
                filters[row_off + jj] = Filter(_crop_square(w / norm, d), meta)
    return FilterBank(filters=filters, xi_max=xi_max, d=d)


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


def softmax_pair(z0: float, z1: float, beta: float) -> tuple[float, float]:
    """Tempered two-class softmax, computed in max-shifted form.

    The outputs sum to 1 exactly; large beta sharpens the pair toward the
    one-hot limit.
    """
    if beta <= 0:
        raise InvalidParams(f"temperature must be positive, got {beta}")
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


_BUCKET_STEP = 8


def _bank_stacks(bank: FilterBank) -> dict:
    """Group non-null filters into padded same-size stacks for one-matmul
    evaluation per group; cached on the bank."""
    if bank._stacks is not None:
        return bank._stacks
    groups: dict[int, list[tuple[np.ndarray, int]]] = {}
    for f in bank.filters:
        if f.is_null:
            continue
        side = max(f.side, min(-(-f.side // _BUCKET_STEP) * _BUCKET_STEP, bank.d))
        groups.setdefault(side, []).append((f.weights, f.meta[0]))
    stacks = {}
    for side, entries in groups.items():
        mat = np.zeros((len(entries), side * side), dtype=np.float32)
        labels = np.empty(len(entries), dtype=np.int64)
        for r, (w, k) in enumerate(entries):
            padded = np.zeros((side, side), dtype=np.float32)
            padded[: w.shape[0], : w.shape[1]] = w
            mat[r] = padded.ravel()
            labels[r] = k
        stacks[side] = (mat, labels)
    bank._stacks = stacks
    return stacks


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
    """max feature_max per class channel, via grouped matrix products.

    The image is cropped to its support box; each stack correlates against
    patches of the crop framed by stack-wide zero borders, which covers all
    shifts with nonzero overlap.  Padding a filter with zero rows or widening
    the frame never changes its ReLU'd maximum.

    Filters have unit norm, so a patch response never exceeds the patch L2
    norm.  One probe at the best-norm position per stack yields channel lower
    bounds; positions whose norm falls below both bounds cannot carry either
    channel maximum and are skipped before the matrix product.
    """
    rows = np.flatnonzero(pixels.any(axis=1))
    cols = np.flatnonzero(pixels.any(axis=0))
    if rows.size == 0:
        return 0.0, 0.0
    crop = pixels[rows[0]: rows[-1] + 1, cols[0]: cols[-1] + 1].astype(np.float32)

    buckets = []
    lb = [0.0, 0.0]
    for side, (mat, labels) in _bank_stacks(bank).items():
        patches = sliding_window_view(np.pad(crop, side - 1), (side, side))
        norms = _window_norms(crop, side)
        probe = np.unravel_index(int(np.argmax(norms)), norms.shape)
        resp = mat @ patches[probe].reshape(-1)
        for k in (0, 1):
            sel = resp[labels == k]
            if sel.size:
                lb[k] = max(lb[k], float(sel.max()))
        buckets.append((mat, labels, patches, norms))

    thresh = min(lb) - _PRUNE_MARGIN
    z = [max(lb[0], 0.0), max(lb[1], 0.0)]
    for mat, labels, patches, norms in buckets:
        keep = norms >= thresh
        if not keep.any():
            continue
        cols_mat = patches[keep].reshape(keep.sum(), -1).T
        per_filter = (mat @ cols_mat).max(axis=1)
        for k in (0, 1):
            sel = per_filter[labels == k]
            if sel.size:
                z[k] = max(z[k], float(sel.max()))
    return max(z[0], 0.0), max(z[1], 0.0)


def classify_bank(bank: FilterBank, img: GrayImage, beta: float | None = None,
                  fast: bool = True) -> BankDecision:
    """Two-channel decision of the explicit scale-indexed classifier.

    z_k is the maximum pooled response over all class-k filters; the label
    is the argmax channel and the probabilities are the tempered softmax of
    (z0, z1).  The image is expected pre-normalized to unit Frobenius norm.
    """
    if bank.d != img.d:
        raise ResolutionMismatch(f"bank built for d={bank.d}, image has d={img.d}")
    if beta is None:
        beta = float(bank.d)
    if fast:
        z0, z1 = _channel_maxima_fast(bank, img.pixels)
    else:
        z0, z1 = 0.0, 0.0
        for f in bank.filters:
            if f.is_null:
                continue
            v = feature_max(f, img)
            if f.meta[0] == 0:
                z0 = max(z0, v)
            else:
                z1 = max(z1, v)
    p0, p1 = softmax_pair(z0, z1, beta)
    label = 0 if z0 >= z1 else 1
    return BankDecision(p0=p0, p1=p1, label=label, z0=z0, z1=z1)
