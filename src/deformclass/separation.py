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
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams, ResolutionMismatch
from .model import TemplateFunction


def grid_inner_product(h: np.ndarray, g: np.ndarray) -> float:
    """Discrete L2 inner product (1/d^2) sum h*g of two square d x d grids."""
    ha = np.asarray(h, dtype=float)
    ga = np.asarray(g, dtype=float)
    if ha.ndim != 2 or ha.shape[0] != ha.shape[1]:
        raise InvalidParams(f"first grid must be square, got {ha.shape}")
    if ha.shape != ga.shape:
        raise ResolutionMismatch(f"grid shapes differ: {ha.shape} vs {ga.shape}")
    return float(np.mean(ha * ga))


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the separation search.

    The search domain is the model's deformations: each axis scale has
    magnitude in [1/2, xi_max], scanned in steps of ``coarse_step``, with
    both signs unless ``include_flips`` is off, so the reparametrized
    support stays inside the unit square; the amplitude is nonnegative.
    """

    xi_max: float = 2.0
    coarse_step: float = 0.05
    refine_iters: int = 12
    quadrature: int = 512
    coarse_quadrature: int = 128
    include_flips: bool = True

    def validate(self) -> None:
        if not (0.5 <= self.xi_max < np.inf):
            raise InvalidParams(f"xi_max must be finite and >= 1/2, got {self.xi_max}")
        if not (0 < self.coarse_step <= 0.25):
            raise InvalidParams(f"coarse_step must be in (0, 1/4], got {self.coarse_step}")
        if self.refine_iters < 0:
            raise InvalidParams("refine_iters must be >= 0")
        if self.quadrature < 16 or self.coarse_quadrature < 16:
            raise InvalidParams("quadrature resolutions must be >= 16")


@dataclass(frozen=True)
class SeparationResult:
    d_fg: float
    d_gf: float
    best_fg: tuple[float, float, float, float, float]  # (a, b, b', c, c')
    best_gf: tuple[float, float, float, float, float]
    meta: dict = field(default_factory=dict)

    @property
    def d_max(self) -> float:
        return max(self.d_fg, self.d_gf)


def _midpoints(q: int) -> np.ndarray:
    return (np.arange(q) + 0.5) / q


def _shift_interval(b: float) -> tuple[float, float]:
    """Shifts keeping the support of x -> f(b*x + c) inside [0, 1]."""
    return (0.75 - max(b, 0.0), 0.25 - min(b, 0.0))


def _candidate_scales(cfg: SearchConfig) -> np.ndarray:
    mags = np.arange(0.5, cfg.xi_max + cfg.coarse_step / 2, cfg.coarse_step)
    if cfg.include_flips:
        return np.concatenate([mags, -mags])
    return mags


class _AxisPlan:
    """Lattice of evaluation points for one axis at one scale.

    Candidate shifts are integer multiples of |b|/Q, so every candidate's
    sample arguments live on the common lattice q*(p + 1/2); a window of Q
    consecutive lattice cells holds one candidate's samples.
    """

    def __init__(self, b: float, q_res: int):
        self.b = b
        step = abs(b) / q_res
        lo, hi = _shift_interval(b)
        k_lo = int(np.ceil(lo / step - 1e-9))
        k_hi = int(np.floor(hi / step + 1e-9))
        self.valid = k_hi >= k_lo
        if not self.valid:
            return
        self.step = step
        self.k_lo = k_lo
        self.count = k_hi - k_lo + 1
        # Lattice index offset: for b > 0 sample i of shift k reads lattice
        # point i + (k - k_lo); for b < 0 it reads (k - k_lo) + (Q - 1 - i),
        # which the correlation handles by reversing the G window instead.
        if b > 0:
            p0 = k_lo
        else:
            p0 = k_lo - q_res
        n = q_res + self.count - 1
        self.points = step * (np.arange(p0, p0 + n) + 0.5)

    def shifts(self) -> np.ndarray:
        return self.step * (self.k_lo + np.arange(self.count))


def _direction(f: TemplateFunction, g: TemplateFunction, cfg: SearchConfig) -> tuple[float, tuple]:
    """Upper bound of dist(f, g) over the configured search domain."""
    q_c = cfg.coarse_quadrature
    t = _midpoints(q_c)
    G = g(t[:, None], t[None, :])
    norm_g2 = float(np.mean(G * G))
    if norm_g2 == 0.0:
        raise InvalidParams("second template is identically zero on the grid")

    g_fft_cache: dict[tuple, np.ndarray] = {}
    best = (np.inf, (1.0, 1.0, 1.0, 0.0, 0.0))

    for bx in _candidate_scales(cfg):
        px = _AxisPlan(bx, q_c)
        if not px.valid:
            continue
        for by in _candidate_scales(cfg):
            py = _AxisPlan(by, q_c)
            if not py.valid:
                continue
            F = f(px.points[:, None], py.points[None, :])
            nx, ny = F.shape
            fft_n = (1 << int(np.ceil(np.log2(nx))), 1 << int(np.ceil(np.log2(ny))))
            key = (fft_n, bx > 0, by > 0)
            if key not in g_fft_cache:
                g_used = G[:: 1 if bx > 0 else -1, :: 1 if by > 0 else -1]
                g_fft_cache[key] = np.conj(np.fft.rfft2(g_used, s=fft_n))
            corr = np.fft.irfft2(np.fft.rfft2(F, s=fft_n) * g_fft_cache[key], s=fft_n)
            ip = corr[: px.count, : py.count] / (q_c * q_c)

            # Every admissible window holds the full support, so the window
            # mass is shift-invariant and one total does.
            norm_f2 = float(np.sum(F * F)) / (q_c * q_c)
            if norm_f2 <= 0:
                continue
            ip_eff = np.maximum(ip, 0.0)
            dist2 = norm_g2 - ip_eff * ip_eff / norm_f2
            kx, ky = np.unravel_index(int(np.argmin(dist2)), dist2.shape)
            val = float(dist2[kx, ky])
            if val < best[0]:
                a = float(ip_eff[kx, ky] / norm_f2)
                cx = px.shifts()[kx]
                cy = py.shifts()[ky]
                best = (val, (a, float(bx), float(by), float(cx), float(cy)))

    # Refine the winner (and re-score it) at the fine quadrature.
    tq = _midpoints(cfg.quadrature)
    qx, qy = tq[:, None], tq[None, :]
    Gq = g(qx, qy)
    norm_gq2 = float(np.mean(Gq * Gq))

    def objective(b: float, b2: float, c: float, c2: float) -> tuple[float, float]:
        F = f(b * qx + c, b2 * qy + c2)
        nf2 = float(np.mean(F * F))
        if nf2 <= 0:
            return norm_gq2, 0.0
        ip = max(float(np.mean(F * Gq)), 0.0)
        return norm_gq2 - ip * ip / nf2, ip / nf2

    def clamp(b: float, c: float) -> float:
        return float(np.clip(c, *_shift_interval(b)))

    _, (a0, b0, b20, c0, c20) = best
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
    cfg.validate()
    d_fg, best_fg = _direction(f, g, cfg)
    d_gf, best_gf = _direction(g, f, cfg)
    meta = {"coarse_step": cfg.coarse_step, "xi_max": cfg.xi_max,
            "coarse_quadrature": cfg.coarse_quadrature,
            "quadrature": cfg.quadrature, "refine_iters": cfg.refine_iters,
            "include_flips": cfg.include_flips}
    return SeparationResult(d_fg=d_fg, d_gf=d_gf, best_fg=best_fg,
                            best_gf=best_gf, meta=meta)


# ---------------------------------------------------------------------------
# Riemann-sum error reporting
# ---------------------------------------------------------------------------

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
        raise InvalidParams("resolutions must be >= 4")
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
