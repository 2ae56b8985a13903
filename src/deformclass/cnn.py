"""Convolutional classification machinery.

Feature extraction is a zero-padded cross-correlation followed by ReLU and
global max-pooling, so each filter contributes a single scalar that is
invariant to object translation within the frame.  The explicit classifier
enumerates one filter per template per discretized scale pair and reads the
class decision off the larger of the two channel maxima; no training is
involved.  A trainable counterpart lives in the training module.

The bank is held as arrays, never as one object per entry: the live filters
of class k with quadratic support of side s form the rows of one float32
matrix (a stack, 97 MB in all at Xi = 2, d = 64).  Each stack has a coarse
twin, about 7 MB in all: per filter, the means of its 4 x 4 blocks
(_BLOCK) and the norm of what those means leave out.  A query multiplies
each coarse stack with the coarse vectors of its patches, which bounds
every (filter, patch) response from above, and takes the full product only
where a bound reaches the best response the class has already seen: for a
64 x 64 query, about a thousand of the 25k filters.  That best response
starts from the exact responses, at each side's best-norm patch, of the
few filters per stack with the highest bound there, so no query reads the
whole of the float32 stacks.  The pruning never depends on the other
class, so each channel maximum stays exact on its own.
``FilterBank.filter_at`` rebuilds any single entry in float64 from the
templates on demand.

The bank is built in two passes over the same blocks of template samples
(``build_filter_bank``): the first keeps each filter's norm and crop box,
which fixes the rows of every stack, and the second writes each filter
once, into its row.  Collecting the filters and concatenating them at the
end cost about twice the bank in peak memory, because the heap neither
reused nor returned the freed pieces.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError
from .model import (MAX_BANK_BYTES, SUPPORT_HI, SUPPORT_LO, GrayImage,
                    TemplateFunction, check_norm, check_resolution, mask_spans,
                    square_grid, support_canvas)


@dataclass(frozen=True, eq=False)
class Filter:
    """One bank entry rebuilt by ``FilterBank.filter_at``.

    ``weights`` is the read-only square float64 kernel, or None for a null
    entry, one whose sampling window misses the template support and which
    always emits 0.  ``meta = (k, xi, xi_prime)``.
    """

    weights: np.ndarray | None
    meta: tuple | None = None


# ---------------------------------------------------------------------------
# Scale-indexed filter bank
# ---------------------------------------------------------------------------

# Side of the square blocks whose means make up the coarse filters.
_BLOCK = 4
# Filter entries converted to float64 at a time while the coarse rows are
# built (512 KB), which keeps the work in cache and the set-up memory flat.
_COARSE_CHUNK = 1 << 16


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
    norm, so a patch's norm bounds every response there.

    ``coarse[(side, k)]`` has one row per row of the stack: the filter,
    zero-padded to the next multiple of _BLOCK, as its _BLOCK x _BLOCK
    block means (row-major), then the residual norm |w - Pw|, where P
    replaces each block by its mean.  It is read-only float32, computed in
    float64 from the float32 row, and with a patch's coarse vector bounds
    the row's response to that patch (see ``_channel_maxima``).
    """

    templates: tuple[TemplateFunction, TemplateFunction]
    xi_max: int
    d: int
    live: np.ndarray
    stacks: dict[tuple[int, int], np.ndarray] = field(repr=False)
    coarse: dict[tuple[int, int], np.ndarray] = field(repr=False)

    def __len__(self) -> int:
        return 2 * self.live.size ** 2

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
        return Filter(square_grid(w[r0: r0 + side, c0: c0 + side],
                                  "filter crop", 1), meta)


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


def check_scale_limit(xi_max: int) -> None:
    """Reject a bank scale limit Xi that is below 1 or not an integer."""
    if xi_max < 1:
        raise ConfigError(f"scale limit must be >= 1, got {xi_max}")
    if int(xi_max) != xi_max:
        raise ConfigError(f"scale limit must be an integer, got {xi_max}")


def build_filter_bank(f0: TemplateFunction, f1: TemplateFunction,
                      xi_max: int, d: int) -> FilterBank:
    """Sample each template at every scale pair on the grid {-Xi..Xi, step 1/d}.

    Filter entries are f_k(xi*j/d, xi'*j'/d) for j, j' = 1..d, normalized to
    unit Frobenius norm over the grid and cropped to their quadratic
    support.  Scale pairs whose arguments miss the support band entirely
    become null filters and are never evaluated; within a live pair only
    the samples whose two arguments both lie in the band are, since the
    template is 0 outside it.

    The templates are sampled twice.  The plan pass keeps only each live
    filter's norm and crop box, which fixes the row count of every stack;
    the fill pass allocates each stack once and divides each crop by its
    norm straight into its float32 row.  Gathering the crops into pieces
    and concatenating them instead held the pieces and the stacks at once,
    and the heap kept the freed pieces: at Xi = 2, d = 64 that build peaked
    at 218 MB RSS for a 99 MB bank, this one at 136 MB.

    Before either pass, a bank whose float32 rows may take more than
    ``MAX_BANK_BYTES`` raises ConfigError.
    """
    check_scale_limit(xi_max)
    xi_max = int(xi_max)
    check_resolution(d)
    # Scale m/d samples its template at m j / d^2, j = 1..d, so only the
    # offsets m = 1..3d^2/4 can reach the band [1/4, 3/4]: the arrays below
    # do not grow with Xi, and the cap refuses a bank before anything does.
    # Offset m is index Xi d + m of the scale grid.
    offsets = np.arange(1, min(xi_max * d, -(-3 * d * d // 4) + 1) + 1)
    args = (offsets / d)[:, None] * (np.arange(1, d + 1) / d)[None, :]
    band = (args >= SUPPORT_LO) & (args <= SUPPORT_HI)
    in_band = band.any(axis=1)
    args, band = args[in_band], band[in_band]
    # A live pair's crop side is at most the longer in-band run L of its two
    # scales, so the float32 rows of both classes take at most 8 * sum over
    # live pairs of max(L_i, L_j)^2 bytes; sorted, the k-th run is the
    # longer one in 2k + 1 ordered pairs.
    runs = np.sort(band.sum(axis=1)).astype(float)
    bound = 8 * float(runs ** 2 @ (2 * np.arange(runs.size) + 1))
    if bound > MAX_BANK_BYTES:
        raise ConfigError(f"the filter bank at Xi = {xi_max}, d = {d} may take "
                          f"{bound / 2 ** 30:.1f} GiB, above the "
                          f"{MAX_BANK_BYTES // 2 ** 30} GiB cap")
    live = np.zeros(2 * xi_max * d + 1, dtype=bool)
    live[xi_max * d + offsets[in_band]] = True

    # Each live first scale fills the in-band samples of one (d, partners*d)
    # block that holds the grids of all live partner scales side by side;
    # arguments grow along a positive scale, so each band is one run.
    y_args = args.ravel()
    y_band = np.flatnonzero(band.ravel())
    block = np.zeros((d, y_args.size))
    firsts = [(k, f, x_args, int(rows.argmax()), int(rows.argmax() + rows.sum()))
              for k, f in enumerate((f0, f1))
              for x_args, rows in zip(args, band)]
    # Plan: each live filter's norm and crop box, grouped by stack, and the
    # stack rows each group goes to.  Only rows lo:hi are read, and their
    # in-band columns were just written, so the block needs no zeroing here.
    plans, sizes = [], Counter()
    for k, f, x_args, lo, hi in firsts:
        block[lo:hi, y_band] = f(x_args[lo:hi, None], y_args[None, y_band])
        grids = block[lo:hi].reshape(hi - lo, -1, d)
        norms = np.sqrt(np.einsum("imj,imj->m", grids, grids))
        part = np.flatnonzero(norms > 0.0)
        nonzero = grids != 0.0
        row_mask = np.zeros((part.size, d), dtype=bool)
        row_mask[:, lo:hi] = nonzero.any(axis=2).T[part]
        r0, c0, side = _crop_boxes(row_mask, nonzero.any(axis=0)[part])
        c0 += part * d
        groups = []
        for s in np.unique(side):
            sel = side == s
            key = (int(s), k)
            groups.append((key, sizes[key], r0[sel], c0[sel],
                           norms[part[sel], None, None]))
            sizes[key] += int(sel.sum())
        plans.append(groups)
    # Fill: each crop, divided by its norm, is written once into its rows.
    # A crop box may reach past rows lo:hi, so the block starts zeroed and
    # its rows are zeroed again after use.
    stacks = {key: np.empty((sizes[key], key[0] ** 2), dtype=np.float32)
              for key in sorted(sizes)}
    windows = {side: sliding_window_view(block, (side, side))
               for side, _ in stacks}
    block[:] = 0.0
    for (_, f, x_args, lo, hi), groups in zip(firsts, plans):
        block[lo:hi, y_band] = f(x_args[lo:hi, None], y_args[None, y_band])
        for key, start, r0, c0, norms in groups:
            crops = windows[key[0]][r0, c0]
            np.divide(crops, norms, casting="same_kind",
                      out=stacks[key][start: start + len(crops)]
                      .reshape(crops.shape))
        block[lo:hi] = 0.0
    coarse = {}
    for key, stack in stacks.items():
        coarse[key] = _coarse_stack(stack, key[0])
        stack.flags.writeable = False
        coarse[key].flags.writeable = False
    live.flags.writeable = False
    return FilterBank(templates=(f0, f1), xi_max=xi_max, d=d, live=live,
                      stacks=stacks, coarse=coarse)


def _coarse_stack(stack: np.ndarray, side: int) -> np.ndarray:
    """``FilterBank.coarse`` rows of a float32 stack of side x side filters.

    They are taken in float64, a few rows at a time: the residual's radicand
    |w|^2 - |Pw|^2 cancels, and float32 would lose about 3e-4 of it.
    """
    nb = -(-side // _BLOCK)
    # ones[a, i] = 1 where index a falls in block i: two products sum blocks
    ones = (np.arange(side)[:, None] // _BLOCK == np.arange(nb)).astype(float)
    out = np.empty((len(stack), nb * nb + 1), dtype=np.float32)
    step = max(1, _COARSE_CHUNK // side ** 2)
    for lo in range(0, len(stack), step):
        w = stack[lo: lo + step].astype(np.float64)
        m = len(w)
        sums = ones.T @ (w.reshape(m * side, side) @ ones).reshape(m, side, nb)
        sums = sums.reshape(m, nb * nb)
        out[lo: lo + m, :-1] = sums / _BLOCK ** 2
        out[lo: lo + m, -1] = _residual_norms(np.einsum("ij,ij->i", w, w), sums)
    return out


def _residual_norms(sq: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """|x - Px| from |x|^2 and the (n, blocks) block sums of x."""
    return np.sqrt(np.maximum(
        sq - np.einsum("ij,ij->i", sums, sums) / _BLOCK ** 2, 0.0))


# ---------------------------------------------------------------------------
# Softmax head
# ---------------------------------------------------------------------------

def check_temperature(beta: float) -> None:
    """Reject a softmax temperature that is not finite and positive (NaN
    included): an infinite one turns the softmax into NaN."""
    if not 0 < beta < np.inf:
        raise ConfigError(f"temperature must be positive and finite, got {beta}")


def class1_probability(t: np.ndarray) -> np.ndarray:
    """The class-1 probability of the tempered two-class softmax, the head
    of both CNN classifiers, as the logistic function of t = beta (z1 - z0).

    Each sign of t takes the form whose exponential cannot overflow.
    """
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


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
# norms, the coarse bounds and the dot products can never discard the true
# channel argmax; those errors stay below about 1e-5 for unit-norm images.
_PRUNE_MARGIN = 1e-3
# Rows per stack whose exact response at the best-norm patch seeds z.
_SEED_ROWS = 4


def _summed_area(x: np.ndarray) -> np.ndarray:
    """Summed-area table of x with a leading row and column of zeros."""
    return np.pad(x.cumsum(0).cumsum(1), ((1, 0), (1, 0)))


def _box_sums(sat: np.ndarray, size: int, start: int,
              count: tuple[int, int]) -> np.ndarray:
    """Sums of the size x size windows with corners from (start, start) on,
    count[0] x count[1] of them, read from a summed-area table."""
    r0, c0 = start, start
    r1, c1 = start + count[0], start + count[1]
    return (sat[r0 + size: r1 + size, c0 + size: c1 + size]
            - sat[r0: r1, c0 + size: c1 + size]
            - sat[r0 + size: r1 + size, c0: c1] + sat[r0: r1, c0: c1])


@dataclass(frozen=True)
class _Patches:
    """Every side x side patch of an image crop framed by side-1 zeros.

    ``windows[r, c]`` is the float32 patch at shift (r, c) and ``norms[r, c]``
    its L2 norm.  The padded patch at the same corner has side sp, the next
    multiple of _BLOCK, and reaches into the frame; ``blocks[r, c]`` holds
    its block sums and ``padded_sq[r, c]`` its squared norm.
    """

    windows: np.ndarray
    norms: np.ndarray
    blocks: np.ndarray
    padded_sq: np.ndarray

    def coarse_vectors(self, r: np.ndarray, c: np.ndarray) -> np.ndarray:
        """float32 coarse vectors of the patches at (r, c): block sums, then
        the residual norm |p - Pp| of the padded patch."""
        sums = self.blocks[r, c].reshape(r.size, -1)
        out = np.empty((r.size, sums.shape[1] + 1), dtype=np.float32)
        out[:, :-1] = sums
        out[:, -1] = _residual_norms(self.padded_sq[r, c], sums)
        return out


def _patches_by_side(bank: FilterBank,
                     pixels: np.ndarray) -> dict[int, _Patches] | None:
    """``_Patches`` of the image's support box for each side of the bank;
    None when the image has no nonzero pixel.

    All sides read one frame, the crop padded by d rounded up to a multiple
    of _BLOCK (which covers side - 1 and sp - 1 for every side), and two
    float64 summed-area tables of it, for the values and their squares.
    """
    pad = -(-bank.d // _BLOCK) * _BLOCK
    (frame,) = support_canvas(pixels[None], pad)
    h, w = frame.shape[0] - 2 * pad, frame.shape[1] - 2 * pad
    if h == 0:
        return None
    frame32 = frame.astype(np.float32)
    sat, sq_sat = _summed_area(frame), _summed_area(frame * frame)
    block_sums = _box_sums(sat, _BLOCK, 0, (frame.shape[0] - _BLOCK + 1,
                                           frame.shape[1] - _BLOCK + 1))
    out = {}
    for side in {side for side, _ in bank.stacks}:
        start, count = pad - side + 1, (h + side - 1, w + side - 1)
        sp = -(-side // _BLOCK) * _BLOCK
        lattice = sliding_window_view(block_sums[start:, start:],
                                      (sp - _BLOCK + 1,) * 2)
        out[side] = _Patches(
            windows=sliding_window_view(
                frame32[start: start + count[0] + side - 1,
                        start: start + count[1] + side - 1], (side, side)),
            norms=np.sqrt(np.maximum(_box_sums(sq_sat, side, start, count), 0.0)),
            blocks=lattice[:count[0], :count[1], ::_BLOCK, ::_BLOCK],
            padded_sq=_box_sums(sq_sat, sp, start, count))
    return out


def _channel_maxima(bank: FilterBank, pixels: np.ndarray) -> tuple[float, float]:
    """Largest ReLU'd response per class channel, via pruned matrix products.

    The image is cropped to its support box; each stack correlates against
    patches of the crop framed by side-1 zeros, which covers all shifts with
    nonzero overlap.  Widening the frame never changes a ReLU'd maximum.
    z[k] always holds a response that some class-k filter reaches, so a
    (filter, patch) pair whose response is provably below z[k] cannot
    raise it and is skipped.  Two bounds prove that:

    * Filters have unit norm, so by Cauchy-Schwarz a response never exceeds
      the patch L2 norm.  Each side selects the patches with norm at least
      the lower of its classes' thresholds, and gathers their coarse
      vectors, once; each stack keeps the subset with norm >= z[k].
    * Zero-pad filter w to side sp, the next multiple of _BLOCK, and extend
      patch p over the frame to the same side (the response is unchanged),
      and let P replace each _BLOCK x _BLOCK block by its mean.  Then
          <w, p> = <Pw, Pp> + <w - Pw, p - Pp> <= <Pw, Pp> + |w - Pw| |p - Pp|.
      One product of the coarse stack with the kept patches' coarse vectors,
      about 1/_BLOCK**2 of the full cost, bounds every pair.  The full
      float32 product is then taken only over the filters whose bound
      reaches z[k] and the patches where one of them does: at Xi = 2,
      d = 64, a median of 944 of the 24,968 filters over 200 test images.

    z starts from the seed (``_seed``): per stack, the exact responses at
    the best-norm patch of the _SEED_ROWS filters whose bound there is
    highest.  Both thresholds are z[k] less _PRUNE_MARGIN, which covers the
    float32 rounding of the norms, the bounds and the products.  z[k] grows
    as the stacks are done, in bank order.  Class k's threshold never
    depends on the other class, so each channel maximum is exact on its
    own, however far apart z0 and z1 are.
    """
    by_side = _patches_by_side(bank, pixels)
    if by_side is None:
        return 0.0, 0.0
    z = _seed(bank, by_side)
    for side, keys in groupby(bank.stacks, key=lambda key: key[0]):
        classes = [k for _, k in keys]
        patches = by_side[side]
        r, c = np.nonzero(patches.norms >= min(z[k] for k in classes)
                          - _PRUNE_MARGIN)
        if r.size == 0:
            continue
        norms, vectors = patches.norms[r, c], patches.coarse_vectors(r, c)
        for k in classes:
            threshold = z[k] - _PRUNE_MARGIN
            sel = np.flatnonzero(norms >= threshold)
            if sel.size == 0:
                continue
            # the class with the lower threshold keeps every selected patch
            subset = vectors if sel.size == r.size else vectors[sel]
            bound = bank.coarse[side, k] @ subset.T
            rows = bound.max(axis=1) >= threshold
            if rows.any():
                cols = sel[bound[rows].max(axis=0) >= threshold]
                kept = patches.windows[r[cols], c[cols]].reshape(cols.size, -1)
                full = bank.stacks[side, k][rows] @ kept.T
                z[k] = max(z[k], float(full.max()))
    return z[0], z[1]


def _seed(bank: FilterBank, by_side: dict[int, _Patches]) -> list[float]:
    """Starting channel maxima: per stack, the exact float32 responses at the
    side's best-norm patch of the _SEED_ROWS rows whose coarse bound there
    is highest.  Each value is a response some filter of the class reaches."""
    z = [0.0, 0.0]
    for side, patches in by_side.items():
        r, c = np.unravel_index([np.argmax(patches.norms)], patches.norms.shape)
        vector = patches.coarse_vectors(r, c)[0]
        window = patches.windows[r[0], c[0]].reshape(-1)
        for k in (0, 1):
            if (side, k) in bank.stacks:
                # numpy's own loop: OpenBLAS's float32 matrix-vector kernel
                # now and then raised the invalid-value flag on these shapes,
                # with finite inputs and right results
                bound = np.einsum("ij,j->i", bank.coarse[side, k], vector)
                top = np.argpartition(bound, max(bound.size - _SEED_ROWS, 0))
                rows = bank.stacks[side, k][top[-_SEED_ROWS:]]
                z[k] = max(z[k], float((rows @ window).max()))
    return z


def classify_bank(bank: FilterBank, img: GrayImage, beta: float | None = None
                  ) -> BankDecision:
    """Two-channel decision of the explicit scale-indexed classifier.

    z_k is the maximum pooled response over all class-k filters; the label
    is the argmax channel and the probabilities are the tempered softmax of
    (z0, z1), the trained network's head.  The image is expected
    pre-normalized to unit Frobenius norm; a non-finite one raises
    ``NumericError``.
    """
    if bank.d != img.d:
        raise ConfigError(f"bank built for d={bank.d}, image has d={img.d}")
    if beta is None:
        beta = float(bank.d)
    check_temperature(beta)
    check_norm(float(np.linalg.norm(img.pixels)), f"the {img.d} x {img.d} image")
    z0, z1 = _channel_maxima(bank, img.pixels)
    p1 = float(class1_probability(np.array(beta * (z1 - z0))))
    label = 0 if z0 >= z1 else 1
    return BankDecision(p0=1.0 - p1, p1=p1, label=label, z0=z0, z1=z1)
