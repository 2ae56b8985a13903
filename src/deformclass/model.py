"""Core domain objects: template functions, deformation parameters, pixel grids.

A template is a nonnegative intensity function on the plane whose support
sits inside the central box [1/4, 3/4]^2 of the unit square.  An image is
produced by sampling an amplitude-scaled, affinely reparametrized template
on the regular d x d grid (j/d, l/d), j, l = 1..d.  Pixel (j, l) is stored
at array index [j-1, l-1]; the first array axis is the x direction.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AllZeroImage,
    InvalidParams,
    ResolutionTooSmall,
)

# Template support must stay inside this closed box.
SUPPORT_LO = 0.25
SUPPORT_HI = 0.75

# Smallest raster resolution the pipeline supports.
MIN_RESOLUTION = 4

_BOUND_TOL = 1e-12


# ---------------------------------------------------------------------------
# templates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TemplateFunction:
    """Bivariate intensity function with support in [1/4, 3/4]^2.

    ``fn`` evaluates pointwise on numpy arrays and must return 0 outside
    the support box, in particular outside [0, 1]^2.  It must broadcast:
    given an (n, 1) array of x and a (1, m) array of y it returns the
    (n, m) grid of values, so callers pass axis vectors, not meshgrids.

    ``lipschitz_const`` is the normalized constant C such that
    |f(x, y) - f(x', y')| <= C * l1_norm * (|x - x'| + |y - y'|).
    ``l1_norm`` is the integral of f over the plane; analytic where the
    construction permits, otherwise a midpoint-rule estimate.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    lipschitz_const: float
    l1_norm: float
    kind: str
    params: tuple = ()

    def __call__(self, x, y) -> np.ndarray:
        return self.fn(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def _template(fn, raw_lipschitz: float, l1: float, kind: str,
              params: tuple) -> TemplateFunction:
    """Template whose Lipschitz constant is ``raw_lipschitz`` normalized by
    the l1 mass, which must be positive and finite: a tiny template
    underflows its mass to 0, and an all-zero raster has none."""
    if not (np.isfinite(l1) and l1 > 0):
        raise InvalidParams(f"{kind} template has l1 mass {l1}; "
                            f"it must be positive and finite")
    return TemplateFunction(fn, raw_lipschitz / l1, l1, kind, params)


def _estimate_l1(fn, resolution: int = 1024) -> float:
    """Midpoint-rule estimate of the integral of ``fn`` over [0, 1]^2."""
    t = (np.arange(resolution) + 0.5) / resolution
    return float(fn(t[:, None], t[None, :]).mean())


def tent(delta: float, center: tuple[float, float] = (0.5, 0.5)) -> TemplateFunction:
    """Pyramid bump (delta - |x - cx| - |y - cy|)_+ with unit slopes.

    The support is the l1 ball of radius ``delta`` around ``center`` and
    must fit inside the support box.
    """
    cx, cy = float(center[0]), float(center[1])
    delta = float(delta)
    if not delta > 0:
        raise InvalidParams(f"tent needs delta > 0, got {delta}")
    if not (SUPPORT_LO - _BOUND_TOL <= cx - delta and cx + delta <= SUPPORT_HI + _BOUND_TOL
            and SUPPORT_LO - _BOUND_TOL <= cy - delta and cy + delta <= SUPPORT_HI + _BOUND_TOL):
        raise InvalidParams(
            f"tent support (center ({cx}, {cy}), delta {delta}) leaves the box")

    def fn(x, y):
        return np.maximum(delta - np.abs(x - cx) - np.abs(y - cy), 0.0)

    return _template(fn, 1.0, 2.0 * delta ** 3 / 3.0, "tent", (delta, cx, cy))


def cone(radius: float = 0.2, center: tuple[float, float] = (0.5, 0.5)) -> TemplateFunction:
    """Circular cone (radius - dist)_+ whose support is a disk."""
    cx, cy = float(center[0]), float(center[1])
    radius = float(radius)
    if not radius > 0:
        raise InvalidParams(f"cone needs radius > 0, got {radius}")
    if not (SUPPORT_LO - _BOUND_TOL <= cx - radius and cx + radius <= SUPPORT_HI + _BOUND_TOL
            and SUPPORT_LO - _BOUND_TOL <= cy - radius and cy + radius <= SUPPORT_HI + _BOUND_TOL):
        raise InvalidParams(
            f"cone support (center ({cx}, {cy}), radius {radius}) leaves the box")

    def fn(x, y):
        rho = np.hypot(x - cx, y - cy)
        return np.maximum(radius - rho, 0.0)

    return _template(fn, 1.0, np.pi * radius ** 3 / 3.0, "cone", (radius, cx, cy))


def cross(arm_halfwidth: float = 1.0 / 16.0, taper: float = 1.0 / 16.0) -> TemplateFunction:
    """Plus-shaped bump: two tapered bars through the center of the box.

    Each bar spans the full box in one direction with a triangular profile
    of half-width ``arm_halfwidth`` across it, and ramps from 0 to 1 over
    ``taper`` at the tips so the function stays Lipschitz.  The value is
    the maximum of the two bars.
    """
    w = float(arm_halfwidth)
    tp = float(taper)
    if not (0 < w <= 0.25) or not (0 < tp <= 0.25):
        raise InvalidParams(f"cross needs half-width and taper in (0, 1/4], got {w}, {tp}")

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
    return _template(fn, raw, _estimate_l1(fn), "cross", (w, tp))


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
        raise InvalidParams(f"raster template needs a 2D grid, at least 2x2, got {g.shape}")
    if np.any(g < 0):
        raise InvalidParams("raster template values must be nonnegative")
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
    return _template(fn, raw, _estimate_l1(fn, 512), "raster",
                     (rows, cols))


def template_sum(parts: Sequence[TemplateFunction]) -> TemplateFunction:
    """Pointwise sum of templates (all nonnegative, shared support box)."""
    parts = tuple(parts)
    if not parts:
        raise InvalidParams("template_sum needs at least one part")

    def fn(x, y):
        total = parts[0](x, y)
        for p in parts[1:]:
            total = total + p(x, y)
        return total

    # Raw constants add; renormalize by the combined l1 mass.
    raw = sum(p.lipschitz_const * p.l1_norm for p in parts)
    return _template(fn, raw, sum(p.l1_norm for p in parts), "sum",
                     tuple(p.kind for p in parts))


def reparametrize(f: TemplateFunction, amplitude: float,
                  scale_x: float, shift_x: float,
                  scale_y: float, shift_y: float,
                  kind: str = "reparam") -> TemplateFunction:
    """Template g(x, y) = amplitude * f(scale_x*x + shift_x, scale_y*y + shift_y).

    The caller is responsible for choosing parameters that keep the support
    inside the box; this helper only propagates metadata.
    """
    if amplitude <= 0 or scale_x == 0 or scale_y == 0:
        raise InvalidParams("reparametrize needs amplitude > 0 and nonzero scales")

    def fn(x, y):
        return amplitude * f(scale_x * x + shift_x, scale_y * y + shift_y)

    l1 = amplitude * f.l1_norm / abs(scale_x * scale_y)
    raw = f.lipschitz_const * f.l1_norm * amplitude * max(abs(scale_x), abs(scale_y))
    return _template(fn, raw, l1, kind,
                     (f.kind, amplitude, scale_x, shift_x, scale_y, shift_y))


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

    Scales must satisfy |scale| >= 1/2 and, unless ``allow_flips`` is set,
    be positive.  Shifts must lie in ``shift_bounds`` of their scale.
    """

    eta: float
    xi: float
    xi_prime: float
    tau: float
    tau_prime: float
    allow_flips: bool = False

    def validate(self) -> None:
        if not np.isfinite([self.eta, self.xi, self.xi_prime,
                            self.tau, self.tau_prime]).all():
            raise InvalidParams("deformation parameters must be finite")
        if self.eta <= 0:
            raise InvalidParams(f"amplitude must be positive, got {self.eta}")
        for name, scale in (("xi", self.xi), ("xi_prime", self.xi_prime)):
            if self.allow_flips:
                if abs(scale) < 0.5 - _BOUND_TOL:
                    raise InvalidParams(f"|{name}| must be >= 1/2, got {scale}")
            elif scale < 0.5 - _BOUND_TOL:
                raise InvalidParams(f"{name} must be >= 1/2, got {scale}")
        for name, scale, shift in (("tau", self.xi, self.tau),
                                   ("tau_prime", self.xi_prime, self.tau_prime)):
            lo, hi = shift_bounds(scale)
            if shift < lo - _BOUND_TOL or shift > hi + _BOUND_TOL:
                raise InvalidParams(
                    f"{name}={shift} outside admissible [{lo}, {hi}] for scale {scale}")


IDENTITY = DeformParams(eta=1.0, xi=1.0, xi_prime=1.0, tau=0.0, tau_prime=0.0)


# ---------------------------------------------------------------------------
# images
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrayImage:
    """Square pixel grid; index [j-1, l-1] holds the sample at (j/d, l/d)."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=float)
        if px.ndim != 2 or px.shape[0] != px.shape[1]:
            raise InvalidParams(f"image must be square, got shape {px.shape}")
        if px.shape[0] < 1:
            raise InvalidParams("image must have at least one pixel")
        px = px.copy()
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

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
    if d < MIN_RESOLUTION:
        raise ResolutionTooSmall(f"resolution {d} below minimum {MIN_RESOLUTION}")
    p.validate()
    t = np.arange(1, d + 1) / d
    return GrayImage(p.eta * f.fn((p.xi * t - p.tau)[:, None],
                                  (p.xi_prime * t - p.tau_prime)[None, :]))


def normalize_l2(img: GrayImage) -> GrayImage:
    """Scale the pixel grid to unit Frobenius norm."""
    norm = float(np.linalg.norm(img.pixels))
    if norm == 0.0:
        raise AllZeroImage("cannot normalize an all-zero image")
    return GrayImage(img.pixels / norm)


def discrete_l2_norm(grid: np.ndarray) -> float:
    """Discrete L2 norm sqrt(sum(grid^2) / d^2) of a square grid.

    This is the Riemann approximation of the continuous L2 norm of the
    function the grid samples.
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise InvalidParams(f"grid must be square, got shape {g.shape}")
    return float(np.sqrt(np.mean(g * g)))
