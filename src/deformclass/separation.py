"""Template separation: distance between affine orbits of two templates.

The directional distance from f to g is the smallest relative L2 error
achievable by an amplitude-scaled, axis-affine reparametrization of f:

    dist(f, g) = inf_(a, b, b', c, c') || a f(b x + c, b' y + c') - g ||_2 / ||g||_2.

The reported separation is the maximum of the two directions.  The search
scans a coarse grid of scale pairs, sweeps all lattice-aligned shifts per
pair with an FFT correlation, solves the amplitude in closed form, and
then refines the best candidate by pattern search at a finer quadrature.
The result is an upper bound of the infimum over the model's deformations
(see ``SearchConfig``) and never increases as the budget grows.

The search evaluates templates only inside the support box (widened by
``_WINDOW_TOL``) and takes every other grid point as +0.0, as the
``TemplateFunction`` contract states; a template that breaks it gets a
wrong distance.  Within the contract, the skipped work changes no bit of
the result.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ConfigError
from .model import _BOUND_TOL, SUPPORT_HI, SUPPORT_LO, TemplateFunction, shift_bounds

MAX_MAGNITUDES = 1000

# Margin around the support box inside which templates are evaluated:
# far above the _BOUND_TOL by which a support may leave the box, so that
# no rounding in a template's own arithmetic reaches past it.
_WINDOW_TOL = 1000 * _BOUND_TOL


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the separation search.

    The search domain is the model's deformations: each axis scale has
    magnitude in [1/2, xi_max], scanned in steps of ``coarse_step``, with
    both signs unless ``include_flips`` is off, so the reparametrized
    support stays inside the unit square; the amplitude is nonnegative.

    The grid may hold at most ``MAX_MAGNITUDES`` magnitudes per sign (the
    default has 31).  The coarse scan runs one FFT correlation per pair of
    scales and direction, so the cap already means 8 million of them,
    hours at the default quadrature; a finer grid is a mistyped flag, not
    a search, and near ``xi_max`` = 1e308 numpy could not even allocate it.
    """

    xi_max: float = 2.0
    coarse_step: float = 0.05
    refine_iters: int = 12
    quadrature: int = 512
    coarse_quadrature: int = 128
    include_flips: bool = True

    def __post_init__(self):
        if not (0.5 <= self.xi_max < np.inf):
            raise ConfigError(f"xi_max must be finite and >= 1/2, got {self.xi_max}")
        if not (0 < self.coarse_step <= 0.25):
            raise ConfigError(f"coarse_step must be in (0, 1/4], got {self.coarse_step}")
        # The length of np.arange in _candidate_scales, worked out on Python
        # floats before any array exists: a huge grid gives inf, no warning.
        step = float(self.coarse_step)
        n_mags = np.ceil((float(self.xi_max) + step / 2 - 0.5) / step)
        if n_mags > MAX_MAGNITUDES:
            raise ConfigError(
                f"the coarse grid has {n_mags:.4g} scale magnitudes per sign, "
                f"above the cap of {MAX_MAGNITUDES}; raise coarse_step or "
                f"lower xi_max")
        if self.refine_iters < 0:
            raise ConfigError("refine_iters must be >= 0")
        if self.quadrature < 16 or self.coarse_quadrature < 16:
            raise ConfigError("quadrature resolutions must be >= 16")


@dataclass(frozen=True)
class SeparationResult:
    d_fg: float
    d_gf: float
    best_fg: tuple[float, float, float, float, float]  # (a, b, b', c, c')
    best_gf: tuple[float, float, float, float, float]

    @property
    def d_max(self) -> float:
        return max(self.d_fg, self.d_gf)


def _midpoints(q: int) -> np.ndarray:
    return (np.arange(q) + 0.5) / q


def _shift_interval(b: float) -> tuple[float, float]:
    """Shifts keeping the support of x -> f(b*x + c) inside [0, 1]: the
    model's shift interval for scale b, negated, since c = -tau."""
    lo, hi = shift_bounds(b)
    # 0.0 - x, not -x: at b = 3/4 the bound is +0.0, as 0.75 - b gives.
    return 0.0 - hi, 0.0 - lo


def _candidate_scales(cfg: SearchConfig) -> np.ndarray:
    mags = np.arange(0.5, cfg.xi_max + cfg.coarse_step / 2, cfg.coarse_step)
    if cfg.include_flips:
        return np.concatenate([mags, -mags])
    return mags


def _axis_plan(b: float, q: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Evaluation points and candidate shifts for one axis at scale ``b``
    and quadrature ``q``; None when no shift keeps the support inside.

    Candidate shifts are integer multiples of |b|/q, so every candidate's
    sample arguments live on the common lattice |b|/q * (p + 1/2); a window
    of q consecutive lattice cells holds one candidate's samples.
    """
    step = abs(b) / q
    lo, hi = _shift_interval(b)
    k_lo = int(np.ceil(lo / step - 1e-9))
    k_hi = int(np.floor(hi / step + 1e-9))
    if k_hi < k_lo:
        return None
    count = k_hi - k_lo + 1
    # Lattice index offset: for b > 0 sample i of shift k reads lattice
    # point i + (k - k_lo); for b < 0 it reads (k - k_lo) + (q - 1 - i),
    # which the correlation handles by reversing the G window instead.
    p0 = k_lo if b > 0 else k_lo - q
    points = step * (np.arange(p0, p0 + q + count - 1) + 0.5)
    return points, step * (k_lo + np.arange(count))


def _support_window(x: np.ndarray) -> slice:
    """Index window of the monotone axis vector ``x`` whose points lie in
    the support box widened by ``_WINDOW_TOL``; empty when none do."""
    idx = np.flatnonzero((x >= SUPPORT_LO - _WINDOW_TOL) & (x <= SUPPORT_HI + _WINDOW_TOL))
    return slice(idx[0], idx[-1] + 1) if idx.size else slice(0, 0)


def _template_grid(f: TemplateFunction, x: np.ndarray, y: np.ndarray,
                   wx: slice | None = None, wy: slice | None = None) -> np.ndarray:
    """``f(x[:, None], y[None, :])`` for monotone axis vectors, evaluated
    only on the support windows ``wx`` and ``wy`` (computed when not
    given); every other point is +0.0.  Each value inside comes from the
    same elementwise operations on the same inputs, so it has the same
    bits as the full evaluation."""
    wx = _support_window(x) if wx is None else wx
    wy = _support_window(y) if wy is None else wy
    out = np.zeros((len(x), len(y)))
    if wx.stop > wx.start and wy.stop > wy.start:
        out[wx, wy] = f(x[wx, None], y[None, wy])
    return out


def _spectrum(F: np.ndarray, rows: slice, fft_n: tuple[int, int]) -> np.ndarray:
    """``rfft2(F, fft_n)`` for an F that is zero outside ``rows``.

    rfft2 is an r2c FFT of each row followed by a c2c FFT along axis 0;
    done step by step, the r2c runs only on the rows that can be nonzero.
    The zero rows can change only the sign of an entry that is exactly
    zero, and so can only that of an exactly zero correlation.
    """
    spec = np.zeros((fft_n[0], fft_n[1] // 2 + 1), dtype=complex)
    spec[rows] = np.fft.rfft(F[rows], n=fft_n[1], axis=1)
    return np.fft.fft(spec, axis=0)


def _correlate(spec: np.ndarray, g_spec: np.ndarray, fft_n: tuple[int, int],
               n_out: int) -> np.ndarray:
    """The first ``n_out`` rows of ``irfft2(spec * g_spec, fft_n)``: the
    c2c inverse along axis 0, then the c2r inverse of the rows kept only."""
    return np.fft.irfft(np.fft.ifft(spec * g_spec, axis=0)[:n_out], n=fft_n[1], axis=1)


def _direction(f: TemplateFunction, g: TemplateFunction, G: np.ndarray,
               norm_g2: float, cfg: SearchConfig) -> tuple[float, tuple]:
    """Upper bound of dist(f, g) over the configured search domain, given
    g's coarse grid ``G`` and its mean square ``norm_g2``."""
    q_c = cfg.coarse_quadrature
    g_fft_cache: dict[tuple, np.ndarray] = {}
    best_key, best = (np.inf, 0, 0), (1.0, 1.0, 0.0, 0.0)

    plans = [(b, *plan, _support_window(plan[0])) for b in _candidate_scales(cfg)
             if (plan := _axis_plan(b, q_c)) is not None]
    # The scales b and -b sample f on the same lattice, so the sign
    # combinations of two magnitudes share F and its spectrum.  The scan
    # goes lattice by lattice, and a tie goes to the pair that comes first
    # in plan order, as in a scan in that order.
    lattices: dict[bytes, list[int]] = {}
    for i, (_, xs, _, _) in enumerate(plans):
        lattices.setdefault(xs.tobytes(), []).append(i)
    for rows_of in lattices.values():
        for cols_of in lattices.values():
            _, xs, _, wx = plans[rows_of[0]]
            _, ys, _, wy = plans[cols_of[0]]
            F = _template_grid(f, xs, ys, wx, wy)
            # Every admissible window holds the full support, so the window
            # mass is shift-invariant and one total does.
            norm_f2 = float(np.sum(F * F)) / (q_c * q_c)
            if norm_f2 <= 0:
                continue
            nx, ny = F.shape
            fft_n = (1 << int(np.ceil(np.log2(nx))), 1 << int(np.ceil(np.log2(ny))))
            spec = _spectrum(F, wx, fft_n)
            for i, j in product(rows_of, cols_of):
                (bx, _, shifts_x, _), (by, _, shifts_y, _) = plans[i], plans[j]
                key = (fft_n, bx > 0, by > 0)
                if key not in g_fft_cache:
                    g_used = G[:: 1 if bx > 0 else -1, :: 1 if by > 0 else -1]
                    g_fft_cache[key] = np.conj(np.fft.rfft2(g_used, s=fft_n))
                corr = _correlate(spec, g_fft_cache[key], fft_n, len(shifts_x))
                ip = corr[:, : len(shifts_y)] / (q_c * q_c)
                # The refine recomputes the amplitude, so only the scales
                # and shifts are kept.
                ip_eff = np.maximum(ip, 0.0)
                dist2 = norm_g2 - ip_eff * ip_eff / norm_f2
                kx, ky = np.unravel_index(int(np.argmin(dist2)), dist2.shape)
                if (val := float(dist2[kx, ky]), i, j) < best_key:
                    best_key = val, i, j
                    best = (float(bx), float(by),
                            float(shifts_x[kx]), float(shifts_y[ky]))

    # Refine the winner (and re-score it) at the fine quadrature.
    tq = _midpoints(cfg.quadrature)
    Gq = _template_grid(g, tq, tq)
    norm_gq2 = float(np.mean(Gq * Gq))
    # Outside f's window F is +0.0 and Gq >= 0, so F * F and F * Gq are
    # +0.0 there: they are formed inside the window only, in a grid of
    # zeros, and the means still run over the whole grid, in one order.
    prod = np.zeros_like(Gq)
    # The pattern search often returns to a point it has scored: a step
    # back after an improvement, or a trial clamped onto the current one.
    scored: dict[tuple, tuple[float, float]] = {}

    def objective(b: float, b2: float, c: float, c2: float) -> tuple[float, float]:
        key = (b, b2, c, c2)
        if key not in scored:
            x, y = b * tq + c, b2 * tq + c2
            w = _support_window(x), _support_window(y)
            F = _template_grid(f, x, y, *w)[w]
            prod[w] = F * F
            nf2 = float(np.mean(prod))
            prod[w] = F * Gq[w]
            ip = max(float(np.mean(prod)), 0.0)
            prod[w] = 0.0
            if nf2 <= 0:
                scored[key] = norm_gq2, 0.0
            else:
                scored[key] = norm_gq2 - ip * ip / nf2, ip / nf2
        return scored[key]

    def clamp(b: float, c: float) -> float:
        return float(np.clip(c, *_shift_interval(b)))

    b0, b20, c0, c20 = best
    cur = (b0, b20, clamp(b0, c0), clamp(b20, c20))
    cur_val, cur_a = objective(*cur)
    # The identity is always admissible; keep it as a floor candidate.
    id_val, id_a = objective(1.0, 1.0, 0.0, 0.0)
    if id_val < cur_val:
        cur, cur_val, cur_a = (1.0, 1.0, 0.0, 0.0), id_val, id_a

    step_b = cfg.coarse_step / 2
    step_c = max(abs(b0), abs(b20)) / q_c / 2
    for _ in range(cfg.refine_iters):
        improved = False
        for idx in range(4):
            for sign in (1.0, -1.0):
                trial = list(cur)
                step = step_b if idx < 2 else step_c
                trial[idx] += sign * step
                if idx < 2:
                    mag = abs(trial[idx])
                    if mag < 0.5 or mag > cfg.xi_max:
                        continue
                    trial[2] = clamp(trial[0], trial[2])
                    trial[3] = clamp(trial[1], trial[3])
                else:
                    trial[idx] = clamp(trial[idx - 2], trial[idx])
                val, a = objective(*trial)
                if val < cur_val - 1e-15:
                    cur, cur_val, cur_a = tuple(trial), val, a
                    improved = True
        if not improved:
            step_b /= 2
            step_c /= 2

    dist = float(np.sqrt(max(cur_val, 0.0) / norm_gq2))
    return dist, (cur_a, cur[0], cur[1], cur[2], cur[3])


def estimate_separation(f: TemplateFunction, g: TemplateFunction,
                        cfg: SearchConfig | None = None) -> SeparationResult:
    """Estimate the two-sided separation between the orbits of f and g."""
    cfg = cfg or SearchConfig()
    t = _midpoints(cfg.coarse_quadrature)
    grids = []
    for name, h in (("first", f), ("second", g)):
        H = _template_grid(h, t, t)
        norm2 = float(np.mean(H * H))
        if norm2 == 0.0:
            raise ConfigError(f"{name} template is identically zero on the grid")
        grids.append((H, norm2))
    d_fg, best_fg = _direction(f, g, *grids[1], cfg)
    d_gf, best_gf = _direction(g, f, *grids[0], cfg)
    return SeparationResult(d_fg=d_fg, d_gf=d_gf, best_fg=best_fg, best_gf=best_gf)
