"""Core domain objects: template functions, deformation parameters, pixel grids.

A template is a nonnegative intensity function on the plane whose support
sits inside the central box [1/4, 3/4]^2 of the unit square.  An image is
produced by sampling an amplitude-scaled, affinely reparametrized template
on the regular d x d grid (j/d, l/d), j, l = 1..d.  Pixel (j, l) is stored
at array index [j-1, l-1]; the first array axis is the x direction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, NumericError

# Template support must stay inside this closed box.
SUPPORT_LO = 0.25
SUPPORT_HI = 0.75

# Smallest and largest raster resolutions the pipeline supports.  The
# ceiling is 16x the largest side (256) that the tests, the benchmark
# and the README use; one float64 grid at that side is 128 MB.  A larger
# side is a config error before anything is allocated, not a
# MemoryError, or a machine swapping, part way through a run.
MIN_RESOLUTION = 4
MAX_RESOLUTION = 4096

# Largest explicit filter bank, in bytes of its float32 rows, that
# cnn.build_filter_bank builds; the tent/cross bank at Xi = 2 bounds at
# 101 MiB for d = 64 and 507 MiB for d = 96.
MAX_BANK_BYTES = 4 * 2 ** 30

# Images per vectorized block when rasterizing or aligning a set; bounds
# the size of the temporary stacks.
IMAGE_BLOCK = 64

_BOUND_TOL = 1e-12


# ---------------------------------------------------------------------------
# templates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TemplateFunction:
    """Bivariate intensity function with support in [1/4, 3/4]^2.

    ``fn`` evaluates pointwise on numpy arrays, is nonnegative, and must
    return +0.0 outside the support box, in particular outside [0, 1]^2.
    The separation search relies on it: it evaluates templates only inside
    the box (plus a small tolerance) and takes every other point as +0.0.
    It must broadcast: given an (n, 1) array of x and a (1, m) array of y
    it returns the (n, m) grid of values, so callers pass axis vectors, not
    meshgrids, and leading axes stack grids: (k, n, 1) and (k, 1, m) give
    k grids.

    ``lipschitz_const`` is the normalized constant C such that
    |f(x, y) - f(x', y')| <= C * l1_norm * (|x - x'| + |y - y'|).
    ``l1_norm`` is the integral of f over the plane; analytic where the
    construction permits, otherwise a midpoint-rule estimate.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    lipschitz_const: float
    l1_norm: float

    def __call__(self, x, y) -> np.ndarray:
        return self.fn(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def _template(fn, raw_lipschitz: float, l1: float, kind: str) -> TemplateFunction:
    """Template whose Lipschitz constant is ``raw_lipschitz`` normalized by
    the l1 mass, which must be positive and finite: a tiny template
    underflows its mass to 0, and an all-zero raster has none.  The
    normalized constant must be finite too, which a subnormal width whose
    raw slope overflows is not.  ``kind`` names the template in the
    messages."""
    if not (np.isfinite(l1) and l1 > 0):
        raise ConfigError(f"{kind} template has l1 mass {l1}; "
                          f"it must be positive and finite")
    lipschitz = raw_lipschitz / l1
    if not np.isfinite(lipschitz):
        raise ConfigError(f"{kind} template has normalized Lipschitz constant "
                          f"{lipschitz}; it must be finite")
    return TemplateFunction(fn, lipschitz, l1)


def _estimate_l1(fn, resolution: int) -> float:
    """Midpoint-rule estimate of the integral of ``fn`` over [0, 1]^2."""
    t = (np.arange(resolution) + 0.5) / resolution
    return float(fn(t[:, None], t[None, :]).mean())


def _check_in_box(kind: str, cx: float, cy: float, name: str, size: float) -> None:
    """Reject a support of half-width ``size`` around (cx, cy) that leaves
    the support box."""
    if not (SUPPORT_LO - _BOUND_TOL <= cx - size and cx + size <= SUPPORT_HI + _BOUND_TOL
            and SUPPORT_LO - _BOUND_TOL <= cy - size and cy + size <= SUPPORT_HI + _BOUND_TOL):
        raise ConfigError(
            f"{kind} support (center ({cx}, {cy}), {name} {size}) leaves the box")


def tent(delta: float = 0.25, cx: float = 0.5, cy: float = 0.5) -> TemplateFunction:
    """Pyramid bump (delta - |x - cx| - |y - cy|)_+ with unit slopes.

    The support is the l1 ball of radius ``delta`` around (cx, cy) and
    must fit inside the support box.
    """
    cx, cy, delta = float(cx), float(cy), float(delta)
    if not delta > 0:
        raise ConfigError(f"tent needs delta > 0, got {delta}")
    _check_in_box("tent", cx, cy, "delta", delta)

    def fn(x, y):
        return np.maximum(delta - np.abs(x - cx) - np.abs(y - cy), 0.0)

    return _template(fn, 1.0, 2.0 * delta ** 3 / 3.0, "tent")


def cone(radius: float = 0.2, cx: float = 0.5, cy: float = 0.5) -> TemplateFunction:
    """Circular cone (radius - dist)_+ whose support is a disk."""
    cx, cy, radius = float(cx), float(cy), float(radius)
    if not radius > 0:
        raise ConfigError(f"cone needs radius > 0, got {radius}")
    _check_in_box("cone", cx, cy, "radius", radius)

    def fn(x, y):
        rho = np.hypot(x - cx, y - cy)
        return np.maximum(radius - rho, 0.0)

    return _template(fn, 1.0, np.pi * radius ** 3 / 3.0, "cone")


def cross(arm: float = 1.0 / 16.0, taper: float = 1.0 / 16.0) -> TemplateFunction:
    """Plus-shaped bump: two tapered bars through the center of the box.

    Each bar spans the full box in one direction with a triangular profile
    of half-width ``arm`` across it, and ramps from 0 to 1 over
    ``taper`` at the tips so the function stays Lipschitz.  The value is
    the maximum of the two bars.
    """
    w = float(arm)
    tp = float(taper)
    if not (0 < w <= 0.25) or not (0 < tp <= 0.25):
        raise ConfigError(f"cross needs arm and taper in (0, 1/4], got {w}, {tp}")

    def bar(long_c, wide_c):
        # Clip before dividing: the quotient is the same double, and a
        # subnormal w or tp cannot overflow it.
        along = np.clip(0.25 - np.abs(long_c - 0.5), 0.0, tp) / tp
        across = np.clip(w - np.abs(wide_c - 0.5), 0.0, w) / w
        return along * across

    def fn(x, y):
        return np.maximum(bar(x, y), bar(y, x))

    # Raw Lipschitz bound: each bar factor has slope <= max(1/tp, 1/w) and
    # both factors are bounded by 1; the max of Lipschitz functions keeps
    # the bound.
    raw = max(1.0 / tp, 1.0 / w)
    return _template(fn, raw, _cross_mass(w, tp), "cross")


def _cross_mass(w: float, tp: float) -> float:
    """Integral of max(bar(x, y), bar(y, x)) over the plane.

    Each bar integrates to (1/2 - tp) * w exactly: the along-profile is a
    plateau with two linear ramps, the across-profile a triangle.  The max
    is the sum less the min, which vanishes outside the central square
    [1/2 - w, 1/2 + w]^2.  There, with u = |x - 1/2| and v = |y - 1/2|,
    bar(x, y) = A(u) T(v) for the along-profile A(u) = min(1, (1/4 - u)/tp)
    and the triangle T(v) = 1 - v/w.  A/T is nondecreasing on [0, w), so
    the min is A(u) T(v) where u <= v, and by symmetry the overlap is
    8 * integral over 0 <= u <= v <= w of A(u) T(v).  With the ramp start
    c = 1/4 - tp and e = w - c, that is 4w^2/3 when e <= 0 (A is 1 on the
    whole square) and otherwise
    (4/w) [(w^3 - e^3)/3 + ((1/4 - w) e^3/3 + e^4/4)/tp].
    """
    e = w - (0.25 - tp)
    if e <= 0.0:
        overlap = 4.0 * w * w / 3.0
    else:
        # the same with e^3/w written as e^2 (e/w), so a subnormal w
        # cannot overflow 4/w
        r = e / w
        overlap = 4.0 * ((w * w - e * e * r) / 3.0
                         + ((0.25 - w) * e * e * r / 3.0 + e ** 3 * r / 4.0) / tp)
    return 2.0 * (0.5 - tp) * w - overlap


def raster_interp(grid: np.ndarray) -> TemplateFunction:
    """Template built from a raster by bilinear interpolation.

    The raster is embedded so that it exactly fills the support box: node
    (i, j) of an R x C grid sits at x = 1/4 + i/(2(R-1)), y = 1/4 + j/(2(C-1)).
    Values are clamped to zero outside the box.  The Lipschitz constant is
    taken at the raster's own resolution; the l1 mass is a 512 x 512
    midpoint-rule estimate.
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 2 or g.shape[0] < 2 or g.shape[1] < 2:
        raise ConfigError(f"raster template needs a 2D grid, at least 2x2, got {g.shape}")
    if np.any(g < 0):
        raise ConfigError("raster template values must be nonnegative")
    g = g.copy()
    # Zero the outer ring so bilinear interpolation tapers to 0 at the box
    # edge and the support stays strictly inside it.
    g[0, :] = 0.0
    g[-1, :] = 0.0
    g[:, 0] = 0.0
    g[:, -1] = 0.0
    g.flags.writeable = False
    rows, cols = g.shape

    def fn(x, y):
        u = (np.asarray(x, dtype=float) - SUPPORT_LO) * 2.0 * (rows - 1)
        v = (np.asarray(y, dtype=float) - SUPPORT_LO) * 2.0 * (cols - 1)
        inside = (u >= 0) & (u <= rows - 1) & (v >= 0) & (v <= cols - 1)
        uc = np.clip(u, 0, rows - 1)
        vc = np.clip(v, 0, cols - 1)
        i0 = np.minimum(np.floor(uc).astype(int), rows - 2)
        j0 = np.minimum(np.floor(vc).astype(int), cols - 2)
        fu = uc - i0
        fv = vc - j0
        val = (g[i0, j0] * (1 - fu) * (1 - fv)
               + g[i0 + 1, j0] * fu * (1 - fv)
               + g[i0, j0 + 1] * (1 - fu) * fv
               + g[i0 + 1, j0 + 1] * fu * fv)
        return np.where(inside, val, 0.0)

    # Grid spacing in x is 1/(2(rows-1)), so a unit step between adjacent
    # nodes corresponds to that distance.
    dx = np.abs(np.diff(g, axis=0)).max(initial=0.0) * 2.0 * (rows - 1)
    dy = np.abs(np.diff(g, axis=1)).max(initial=0.0) * 2.0 * (cols - 1)
    raw = float(max(dx, dy))
    return _template(fn, raw, _estimate_l1(fn, 512), "raster")


# ---------------------------------------------------------------------------
# deformation parameters
# ---------------------------------------------------------------------------

def shift_bounds(scale: float) -> tuple[float, float]:
    """Closed admissible shift interval for a given scale.

    With pixel (j, l) sampling f(scale*j/d - shift, ...), these are exactly
    the shifts for which the whole support box lands inside the unit square,
    so the object is always fully visible.  For scale 1 the interval is
    [-1/4, 1/4]; for scale 2 it is [-1/4, 5/4]; for scale -1 it is
    [-5/4, -3/4].
    """
    s = float(scale)
    return (-0.25 - max(-s, 0.0), max(s, 0.0) - 0.75)


@dataclass(frozen=True)
class DeformParams:
    """One draw of the deformation: amplitude, axis scales, axis shifts.

    Each scale must satisfy |scale| >= 1/2, of either sign (a negative
    scale reverses its axis).  Shifts must lie in ``shift_bounds`` of their
    scale.
    """

    eta: float
    xi: float
    xi_prime: float
    tau: float
    tau_prime: float

    def __post_init__(self):
        # math.isfinite: a numpy call per instance would double the cost of
        # the check, which runs on every draw and every manifest row
        if not all(map(math.isfinite, (self.eta, self.xi, self.xi_prime,
                                       self.tau, self.tau_prime))):
            raise ConfigError("deformation parameters must be finite")
        if self.eta <= 0:
            raise ConfigError(f"amplitude must be positive, got {self.eta}")
        for name, scale in (("xi", self.xi), ("xi_prime", self.xi_prime)):
            if abs(scale) < 0.5 - _BOUND_TOL:
                raise ConfigError(f"|{name}| must be >= 1/2, got {scale}")
        for name, scale, shift in (("tau", self.xi, self.tau),
                                   ("tau_prime", self.xi_prime, self.tau_prime)):
            lo, hi = shift_bounds(scale)
            if shift < lo - _BOUND_TOL or shift > hi + _BOUND_TOL:
                raise ConfigError(
                    f"{name}={shift} outside admissible [{lo}, {hi}] for scale {scale}")


IDENTITY = DeformParams(eta=1.0, xi=1.0, xi_prime=1.0, tau=0.0, tau_prime=0.0)


# ---------------------------------------------------------------------------
# images
# ---------------------------------------------------------------------------

def mask_spans(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First index and one past the last index of True in each row of an
    (m, n) boolean mask; a row with no True gets (0, 0)."""
    hit = mask.any(axis=1)
    lo = np.where(hit, mask.argmax(axis=1), 0)
    hi = np.where(hit, mask.shape[1] - mask[:, ::-1].argmax(axis=1), 0)
    return lo, hi


def support_canvas(x: np.ndarray, pad: int) -> np.ndarray:
    """Each image of a (B, h, w) stack cropped to the box of its pixels that
    are not 0 (negative and NaN ones included) and placed at (pad, pad) on
    one float64 zero canvas, sized for the largest box plus ``pad`` on every
    side; an all-zero image leaves its slice all zero."""
    nz = x != 0
    (r0, r1), (c0, c1) = mask_spans(nz.any(axis=2)), mask_spans(nz.any(axis=1))
    canvas = np.zeros((len(x), int((r1 - r0).max(initial=0)) + 2 * pad,
                       int((c1 - c0).max(initial=0)) + 2 * pad))
    for dst, img, top, bottom, left, right in zip(canvas, x, r0, r1, c0, c1):
        dst[pad: pad + bottom - top, pad: pad + right - left] = (
            img[top:bottom, left:right])
    return canvas


def square_grid(grid, what: str, min_side: int) -> np.ndarray:
    """``grid`` as a read-only float array, square with side >= ``min_side``
    (ConfigError otherwise).  A read-only float array is kept as given; any
    other grid is copied and frozen."""
    g = np.asarray(grid, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] < min_side:
        raise ConfigError(f"{what} must be square with side >= {min_side}, "
                          f"got shape {g.shape}")
    if g.flags.writeable:
        g = g.copy()
        g.flags.writeable = False
    return g


@dataclass(frozen=True)
class GrayImage:
    """Square pixel grid; index [j-1, l-1] holds the sample at (j/d, l/d)."""

    pixels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pixels", square_grid(self.pixels, "image", 1))

    @property
    def d(self) -> int:
        return self.pixels.shape[0]

    def support_mask(self) -> np.ndarray:
        """Boolean mask of the positive pixels."""
        return self.pixels > 0


def rasterize(f: TemplateFunction, p: DeformParams, d: int) -> GrayImage:
    """Sample the deformed template on the d x d grid.

    pixel(j, l) = eta * f(xi*j/d - tau, xi_prime*l/d - tau_prime).
    """
    return rasterize_batch(f, [p], d)[0]


def check_resolution(d: int) -> None:
    """Reject a raster side below MIN_RESOLUTION or above MAX_RESOLUTION,
    before any grid of that side is allocated."""
    if d < MIN_RESOLUTION:
        raise ConfigError(f"resolution {d} below minimum {MIN_RESOLUTION}")
    if d > MAX_RESOLUTION:
        raise ConfigError(f"resolution {d} above maximum {MAX_RESOLUTION}")


def rasterize_batch(f: TemplateFunction, params: Sequence[DeformParams],
                    d: int) -> list[GrayImage]:
    """``rasterize(f, p, d)`` for every p in ``params``.

    ``f`` is evaluated once per block of at most ``IMAGE_BLOCK`` images, on
    one (block, d, 1) array of x and one (block, 1, d) array of y; the block
    is frozen, and its images are read-only views of it.
    """
    check_resolution(d)
    t = np.arange(1, d + 1) / d
    images = []
    for start in range(0, len(params), IMAGE_BLOCK):
        block = np.array([(p.eta, p.xi, p.xi_prime, p.tau, p.tau_prime)
                          for p in params[start:start + IMAGE_BLOCK]])
        eta, xi, xi_p, tau, tau_p = block.T[:, :, None]  # each (block, 1)
        grids = eta[:, :, None] * f.fn((xi * t - tau)[:, :, None],
                                       (xi_p * t - tau_p)[:, None, :])
        grids.flags.writeable = False
        images.extend(GrayImage(grid) for grid in grids)
    return images


def normalize_l2(img: GrayImage) -> GrayImage:
    """Scale the pixel grid to unit Frobenius norm."""
    (norm,) = unit_norms(img.pixels[None], lambda i: f"the {img.d} x {img.d} image")
    unit = img.pixels / norm
    unit.flags.writeable = False
    return GrayImage(unit)


def unit_norms(x: np.ndarray, name: Callable[[int], str]) -> np.ndarray:
    """Frobenius norm of each grid of an (N, h, w) stack, one BLAS dot per
    grid so that a grid gets the same bits alone or stacked.  The first norm,
    in list order, that is not finite or is zero raises ``NumericError``."""
    norms = np.array([np.linalg.norm(grid) for grid in x])
    for i, norm in enumerate(norms):
        check_norm(norm, name(i))
        if norm == 0.0:
            raise NumericError(f"cannot normalize {name(i)}: it is all zero")
    return norms


def check_norm(norm: float, what: str) -> None:
    """Raise ``NumericError`` naming ``what`` when its norm is not finite: a
    NaN or infinite pixel, or a sum of squares that overflows."""
    if not math.isfinite(norm):
        raise NumericError(f"{what} has norm {norm}; its pixels must be "
                           f"finite and their sum of squares representable")
