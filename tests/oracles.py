"""Test oracles and lemma fixtures.

Slow exact references that the package's fast paths are checked against,
and constructions for the paper's lemmas.  No module, CLI path or
benchmark workload of the package reaches them, so they live beside the
tests that use them:

* ``feature_max`` and ``max_tree``: the sliding-window channel response and
  the ReLU max tree, the exact counterparts of the filter bank's products;
* ``grad_check``: central differences against the trained CNN's gradients;
* ``template_sum`` and ``reparametrize``: composite templates, from which
  ``non_identifiable_pair`` builds two templates that raster identically;
* ``discrete_l2_norm``, ``grid_inner_product`` and ``riemann_error_report``:
  sample-grid norms and inner products against their quadrature bounds;
* ``seven_call_params``: deformation parameters drawn one generator call
  per double, the reference for ``sample_params``'s single draw.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from deformclass import (ConfigError, DeformDistribution, DeformParams, Filter,
                         GrayImage, TemplateFunction, TrainableCnn, shift_bounds,
                         tent)
from deformclass.datagen import _STREAM_PARAMS, _substream
from deformclass.model import _template
from deformclass.separation import _midpoints


# ---------------------------------------------------------------------------
# errors only the oracles raise
# ---------------------------------------------------------------------------

class InvalidFixtureParams(ConfigError):
    """Fixture parameters violate the strict inequalities they must satisfy."""


class FilterTooLarge(ConfigError):
    """Filter side exceeds what the image resolution supports."""


# ---------------------------------------------------------------------------
# templates and grids
# ---------------------------------------------------------------------------

def template_sum(parts: Sequence[TemplateFunction]) -> TemplateFunction:
    """Pointwise sum of templates (all nonnegative, shared support box)."""
    parts = tuple(parts)
    if not parts:
        raise ConfigError("template_sum needs at least one part")

    def fn(x, y):
        total = parts[0](x, y)
        for p in parts[1:]:
            total = total + p(x, y)
        return total

    # Raw constants add; renormalize by the combined l1 mass.
    raw = sum(p.lipschitz_const * p.l1_norm for p in parts)
    return _template(fn, raw, sum(p.l1_norm for p in parts), "sum")


def reparametrize(f: TemplateFunction, amplitude: float,
                  scale_x: float, shift_x: float,
                  scale_y: float, shift_y: float,
                  kind: str = "reparam") -> TemplateFunction:
    """Template g(x, y) = amplitude * f(scale_x*x + shift_x, scale_y*y + shift_y).

    The caller is responsible for choosing parameters that keep the support
    inside the box; this helper only carries the mass and Lipschitz
    constant over.  ``kind`` names the template in error messages.
    """
    if amplitude <= 0 or scale_x == 0 or scale_y == 0:
        raise ConfigError("reparametrize needs amplitude > 0 and nonzero scales")

    def fn(x, y):
        return amplitude * f(scale_x * x + shift_x, scale_y * y + shift_y)

    l1 = amplitude * f.l1_norm / abs(scale_x * scale_y)
    raw = f.lipschitz_const * f.l1_norm * amplitude * max(abs(scale_x), abs(scale_y))
    return _template(fn, raw, l1, kind)


def discrete_l2_norm(grid: np.ndarray) -> float:
    """Discrete L2 norm sqrt(sum(grid^2) / d^2) of a square grid.

    This is the Riemann approximation of the continuous L2 norm of the
    function the grid samples.
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ConfigError(f"grid must be square, got shape {g.shape}")
    return float(np.sqrt(np.mean(g * g)))


def seven_call_params(q: DeformDistribution, draw_index: int) -> DeformParams:
    """``sample_params`` with one ``uniform`` or ``random`` call per double,
    in the documented order."""
    rng = _substream(q.seed, _STREAM_PARAMS, draw_index)
    eta = rng.uniform(*q.eta_range)
    xi = rng.uniform(*q.xi_range)
    if rng.random() < q.flip_prob:
        xi = -xi
    xi_p = rng.uniform(*q.scale_range_y())
    if rng.random() < q.flip_prob:
        xi_p = -xi_p
    tau = rng.uniform(*shift_bounds(xi))
    tau_p = rng.uniform(*shift_bounds(xi_p))
    return DeformParams(eta=eta, xi=xi, xi_prime=xi_p, tau=tau, tau_prime=tau_p)


# ---------------------------------------------------------------------------
# exact channel responses
# ---------------------------------------------------------------------------

def feature_max(filt: Filter, img: GrayImage) -> float:
    """Largest ReLU'd response of the filter over the zero-padded image.

    The image is framed by a border of zeros as wide as the filter, the
    filter is cross-correlated over every patch, and the maximum entry of
    the ReLU'd feature map is returned.  Exact sliding-window arithmetic;
    no FFT rounding.
    """
    if filt.weights is None:
        return 0.0
    side = filt.weights.shape[0]
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
        raise ConfigError("max_tree needs at least one value")
    if not np.all((v >= 0) & (v <= 1)):
        raise ConfigError("max_tree inputs must lie in [0, 1]")
    size = 1 << (int(v.size - 1).bit_length() if v.size > 1 else 0)
    buf = np.zeros(size)
    buf[: v.size] = v
    while buf.size > 1:
        y, z = buf[0::2], buf[1::2]
        buf = np.where(np.maximum(y - z, 0.0) > 0, y, z)
    return float(buf[0])


# ---------------------------------------------------------------------------
# non-identifiability fixture
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonIdentifiablePair:
    """Two distinct templates whose rasters coincide at resolution d.

    ``raster_params`` are the deformation parameters under which ``base``
    produces, pixel for pixel, the identity raster of ``composite``.
    """

    base: TemplateFunction
    composite: TemplateFunction
    bump_grid: TemplateFunction
    raster_params: DeformParams
    d: int
    delta: float


def _grid_bumps(d: int) -> TemplateFunction:
    """Sum of (d/2)^2 micro-tents vanishing at every grid point (k/d, l/d).

    Each bump is centered at a cell center a_i = 1/4 + (i - 1/2)/d, has
    support half-width 1/(2d) in the l1 metric, slope 2 and peak 1/d, so
    its squared mass is 1/(12 d^4).
    """
    half = 0.5 / d
    cells = d // 2

    def fn(x, y):
        inside = (x > 0.25) & (x < 0.75) & (y > 0.25) & (y < 0.75)
        ix = np.clip(np.floor((x - 0.25) * d), 0, cells - 1)
        iy = np.clip(np.floor((y - 0.25) * d), 0, cells - 1)
        ax = 0.25 + (ix + 0.5) / d
        ay = 0.25 + (iy + 0.5) / d
        val = np.maximum(1.0 / d - 2.0 * np.abs(x - ax) - 2.0 * np.abs(y - ay), 0.0)
        return np.where(inside, val, 0.0)

    # Each bump integrates to 2 * (2/3) * half^3; there are cells^2 of them.
    l1 = cells * cells * (4.0 / 3.0) * half ** 3
    return TemplateFunction(fn, 2.0 / l1, l1)


def non_identifiable_pair(d: int, eta: float = 1.0,
                          xi: float = 1.0, xi_prime: float = 1.0,
                          tau: float = 0.0, tau_prime: float = 0.0) -> NonIdentifiablePair:
    """Build a tent and a tent-plus-bumps template that raster identically.

    The composite adds, to the deformed tent eta*f0(xi*x + tau, ...), a grid
    of micro-tents that vanish at every sample point (k/d, l/d) yet carry
    L2 mass at least 1/(8d).  Requires d divisible by 4 and parameters
    satisfying the strict inequalities tau < 1/4 < xi/2 + tau < 3/4 < xi + tau
    (and the primed analogue), which make the tent width delta positive and
    keep everything inside the support box.
    """
    if d < 4 or d % 4 != 0:
        raise InvalidFixtureParams(f"resolution must be a positive multiple of 4, got {d}")
    if eta <= 0:
        raise InvalidFixtureParams(f"amplitude must be positive, got {eta}")
    for name, s, t in (("x", xi, tau), ("y", xi_prime, tau_prime)):
        if s < 0.5:
            raise InvalidFixtureParams(f"{name} scale must be >= 1/2, got {s}")
        if not (t < 0.25 < s / 2 + t < 0.75 < s + t):
            raise InvalidFixtureParams(
                f"{name} parameters (scale {s}, shift {t}) violate the strict inequalities")

    delta = min(0.5 - (0.25 - tau) / xi, (0.75 - tau) / xi - 0.5,
                0.5 - (0.25 - tau_prime) / xi_prime, (0.75 - tau_prime) / xi_prime - 0.5)
    if delta > 0.25:
        raise InvalidFixtureParams(
            f"tent width {delta} exceeds 1/4; the base support would leave the box")
    # The deformed tent must also stay inside the box, else the composite
    # violates the support contract.
    for name, s, t in (("x", xi, tau), ("y", xi_prime, tau_prime)):
        if delta > 0.5 - t - s / 4 or delta > 0.75 * s + t - 0.5:
            raise InvalidFixtureParams(
                f"deformed support exits the box along {name} "
                f"(scale {s}, shift {t}, width {delta})")

    f0 = tent(delta)
    deformed = reparametrize(f0, eta, xi, tau, xi_prime, tau_prime, kind="deformed_tent")
    bumps = _grid_bumps(d)
    f1 = template_sum([deformed, bumps])
    raster_params = DeformParams(eta=eta, xi=xi, xi_prime=xi_prime,
                                 tau=-tau, tau_prime=-tau_prime)
    return NonIdentifiablePair(base=f0, composite=f1, bump_grid=bumps,
                               raster_params=raster_params, d=d, delta=delta)


# ---------------------------------------------------------------------------
# Riemann-sum error reporting
# ---------------------------------------------------------------------------

def grid_inner_product(h: np.ndarray, g: np.ndarray) -> float:
    """Discrete L2 inner product (1/d^2) sum h*g of two square d x d grids."""
    ha = np.asarray(h, dtype=float)
    ga = np.asarray(g, dtype=float)
    if ha.ndim != 2 or ha.shape[0] != ha.shape[1]:
        raise ConfigError(f"first grid must be square, got {ha.shape}")
    if ha.shape != ga.shape:
        raise ConfigError(f"grid shapes differ: {ha.shape} vs {ga.shape}")
    return float(np.mean(ha * ga))


@dataclass(frozen=True)
class RiemannRow:
    """Observed discretization errors at one resolution, with their bounds."""

    d: int
    ip_observed: float
    ip_bound: float
    inv_norm_observed: float
    inv_norm_bound: float

    @property
    def within_bounds(self) -> bool:
        return (self.ip_observed <= self.ip_bound
                and self.inv_norm_observed <= self.inv_norm_bound)


def riemann_error_report(h: TemplateFunction, g: TemplateFunction,
                         d_list: tuple[int, ...] = (16, 32, 64, 128),
                         reference_resolution: int = 2048) -> list[RiemannRow]:
    """Compare sample-grid inner products and norms against fine quadrature.

    For each resolution d the report row holds the observed error of the
    discrete inner product against the midpoint-rule reference, and the
    observed error of the reciprocal discrete norm of h, together with the
    Lipschitz error bounds they must respect.
    """
    if any(d < 4 for d in d_list):
        raise ConfigError("resolutions must be >= 4")
    t = _midpoints(reference_resolution)
    rx, ry = t[:, None], t[None, :]
    ref_ip = float(np.mean(h(rx, ry) * g(rx, ry)))
    ref_norm_h = float(np.sqrt(np.mean(h(rx, ry) ** 2)))

    rows = []
    for d in d_list:
        s = np.arange(1, d + 1) / d
        H = h(s[:, None], s[None, :])
        G = g(s[:, None], s[None, :])
        ip = float(np.mean(H * G))
        norm_h = float(np.sqrt(np.mean(H * H)))
        lh, lg = h.lipschitz_const, g.lipschitz_const
        ip_bound = (2.0 / d) * g.l1_norm * h.l1_norm * (lg + lh + 2.0 * lg * lh / d)
        inv_norm_obs = abs(1.0 / norm_h - 1.0 / ref_norm_h)
        inv_norm_bound = (4.0 * lh + 4.0 * lh * lh / d) / (d * norm_h)
        rows.append(RiemannRow(d=d, ip_observed=abs(ip - ref_ip), ip_bound=ip_bound,
                               inv_norm_observed=inv_norm_obs,
                               inv_norm_bound=inv_norm_bound))
    return rows


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradCheckResult:
    max_rel_error: float
    n_checked: int
    n_skipped: int

    def __float__(self) -> float:
        return self.max_rel_error


def grad_check(net: TrainableCnn, x: np.ndarray, y: np.ndarray, eps: float,
               n_params: int = 100, seed: int = 0) -> GradCheckResult:
    """Central-difference check of the analytic loss gradient on an
    (N, d, d) image stack ``x`` with labels ``y``.

    Coordinates whose perturbation flips a max-pool argmax sit on a kink of
    the loss; they are skipped and counted rather than compared.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ConfigError(f"eps must lie in [1e-7, 1e-3], got {eps}")
    y = np.asarray(y, dtype=float)

    def pool_pattern() -> np.ndarray:
        # Only live channels (raw max > 0) pass gradient, so only their
        # argmax is a kink; a dead channel's argmax may move freely.  The
        # images are fixed, so their canvas is too, and index 0 (background)
        # against any support patch still shows a move between the two.
        _, cache = net.forward_batch(x)
        return np.where(cache["hidden"][0] > 0, cache["pool_idx"], -1)

    base_pattern = pool_pattern()
    analytic = net.loss_and_gradients(x, y)[1]
    params = net.params
    rng = np.random.default_rng(seed)
    count = min(n_params, params.size)
    coords = rng.choice(params.size, size=count, replace=False)

    max_rel = 0.0
    skipped = 0
    for c in coords:
        orig = params[c]
        params[c] = orig + eps
        lp = net.loss_and_gradients(x, y)[0]
        tied = not np.array_equal(pool_pattern(), base_pattern)
        params[c] = orig - eps
        lm = net.loss_and_gradients(x, y)[0]
        tied = tied or not np.array_equal(pool_pattern(), base_pattern)
        params[c] = orig
        if tied:
            skipped += 1
            continue
        numeric = (lp - lm) / (2 * eps)
        denom = max(abs(analytic[c]), abs(numeric), 1e-6)
        max_rel = max(max_rel, abs(analytic[c] - numeric) / denom)
    return GradCheckResult(max_rel_error=float(max_rel),
                           n_checked=count - skipped, n_skipped=skipped)
