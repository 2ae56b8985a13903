"""Support boundary extraction and curve regularity estimation.

The regularity constant of a closed curve bounds, for any two curve
points, the detour factor of the shorter of the two arcs joining them:
for every parameter triple u <= v <= w and every t outside [u, w],

    min(|p(u)-p(v)| + |p(v)-p(w)|, |p(u)-p(t)| + |p(t)-p(w)|)
        <= Gamma * |p(w)-p(u)|.

A circle satisfies this with Gamma = sqrt(2); stretching a curve by axis
factors (s1, s2) inflates the constant by at most max(s)/min(s).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError

_SINGULAR_EPS = 1e-9

# The sides of a cell, in the order its edges are listed: +x, -x, +y, -y.
# Per side, the start and end corner of its directed edge relative to the
# cell's center on the doubled corner lattice, and the edge's direction
# index (0 +x, 1 +y, 2 -x, 3 -y).
_SIDE_START = np.array([(1, -1), (-1, 1), (1, 1), (-1, -1)])
_SIDE_END = np.array([(1, 1), (-1, -1), (-1, 1), (1, -1)])
_SIDE_DIR = (1, 3, 2, 0)


@dataclass(frozen=True)
class BoundaryCurve:
    """Closed polygon, points in counterclockwise order, endpoint not repeated."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
            raise ConfigError(f"curve needs at least 3 points of dim 2, got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ConfigError("curve points must be finite")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)


def _signed_area(pts: np.ndarray) -> float:
    """Shoelace area of a closed polygon, positive when counterclockwise."""
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def trace_boundary(mask: np.ndarray) -> BoundaryCurve:
    """Trace the outer boundary of a single 4-connected pixel component.

    Cell (row r, col c), 0-based, is treated as the unit box centered at
    ((r+1)/d, (c+1)/d) with side 1/d.  Directed boundary edges keep the
    interior on the left, and corner pinches (diagonal touches) are
    resolved by always taking the leftmost available turn, so no loop
    crosses a pinch: each 4-connected component yields exactly one
    counterclockwise outer loop (positive signed area) and each hole a
    clockwise one.  More than one positive loop means more than one
    component; otherwise the loop of largest area, the outer one, is
    returned.
    """
    m = np.asarray(mask, dtype=bool)
    if m.ndim != 2:
        raise ConfigError(f"mask must be 2D, got shape {m.shape}")
    if not m.any():
        raise NumericError("mask has no true cells")

    d = m.shape[0]
    padded = np.zeros((m.shape[0] + 2, m.shape[1] + 2), dtype=bool)
    padded[1:-1, 1:-1] = m
    # A cell side is a boundary edge where the neighbour across it is
    # missing; nonzero lists them by cell in row-major order, then by side.
    open_sides = np.stack([~padded[2:, 1:-1], ~padded[:-2, 1:-1],
                           ~padded[1:-1, 2:], ~padded[1:-1, :-2]], axis=-1)
    open_sides &= m[:, :, None]
    r, c, side = np.nonzero(open_sides)
    center = 2 * np.stack([r, c], axis=1) + 2  # on the doubled lattice
    starts = map(tuple, (center + _SIDE_START[side]).tolist())
    ends = map(tuple, (center + _SIDE_END[side]).tolist())

    # Edges on the corner lattice (2r+1 +/- 1, 2c+1 +/- 1), keyed by start
    # corner; value is (end corner, direction index).
    edges: dict[tuple[int, int], list[tuple[tuple[int, int], int]]] = {}
    for start, end, k in zip(starts, ends, side.tolist()):
        edges.setdefault(start, []).append((end, _SIDE_DIR[k]))

    loops: list[np.ndarray] = []
    while edges:
        start = next(iter(edges))
        loop = [start]
        pos = start
        dir_idx = edges[pos][0][1]
        while True:
            options = edges.get(pos, [])
            if not options:
                break
            # Leftmost turn first: left of incoming, straight, right, back.
            options.sort(key=lambda e: (e[1] - dir_idx - 1) % 4)
            nxt, ndir = options.pop(0)
            if not options:
                del edges[pos]
            loop.append(nxt)
            pos, dir_idx = nxt, ndir
            if pos == start:
                break
        loops.append(np.array(loop[:-1], dtype=float))

    areas = [_signed_area(pts) for pts in loops]
    if sum(a > 0 for a in areas) > 1:
        raise NumericError("mask support is not 4-connected")
    outer = loops[int(np.argmax(areas))]
    # Corner lattice value 2k+1 corresponds to coordinate (k + 1/2)/d, so
    # cell (r, c) stays the box of side 1/d centered at ((r+1)/d, (c+1)/d).
    return BoundaryCurve(points=outer / (2.0 * d))


def _nested_subset(n: int, budget: int) -> np.ndarray:
    """First ``budget`` indices of a bit-reversal ordering of range(n).

    Prefixes are nested, so growing the budget only adds points; estimates
    built on these subsets are monotone in the budget.
    """
    if budget >= n:
        return np.arange(n)
    bits = max(1, int(np.ceil(np.log2(n))))
    k = np.arange(1 << bits)
    rev = sum(((k >> b) & 1) << (bits - 1 - b) for b in range(bits))
    return np.sort(rev[rev < n][:budget])


@dataclass(frozen=True)
class GammaScan:
    """Result of a regularity-constant scan."""

    estimate: float
    points_used: int


def check_sample_budget(sample_budget: int) -> None:
    """Reject a gamma_scan budget below the three points a pair scan needs."""
    if sample_budget < 3:
        raise ConfigError(f"sample budget must be >= 3, got {sample_budget}")


def gamma_scan(curve: BoundaryCurve, sample_budget: int = 256) -> GammaScan:
    """Scan detour ratios over point pairs of a closed curve.

    For every ordered pair of sampled points the two connecting arcs are
    scanned for the largest detour sum, the smaller of the two suprema is
    taken, and the ratio to the chord length is recorded.  Pairs with
    chord below 1e-9 are skipped; if every pair is, the curve is
    degenerate.  The result is a lower estimate of the true regularity
    constant that never decreases as the budget grows.
    """
    check_sample_budget(sample_budget)
    p = curve.points[_nested_subset(len(curve.points), sample_budget)]
    n = p.shape[0]
    diff = p[:, None, :] - p[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))

    # Row i scores every pair (i, k), k > i, at once: row r of s is the
    # detour sum through each curve point for k = i + 1 + r.
    j = np.arange(n)
    best = -1.0
    for i in range(n - 1):
        k = j[i + 1:, None]
        chord = dist[i, i + 1:]
        s = dist[i][None, :] + dist[i + 1:]
        inner = s.max(axis=1, where=(j >= i) & (j <= k), initial=-np.inf)
        outer = s.max(axis=1, where=(j >= k) | (j <= i), initial=-np.inf)
        ok = chord >= _SINGULAR_EPS
        best = float(np.max(np.minimum(inner[ok], outer[ok]) / chord[ok],
                            initial=best))
    if best < 0:
        raise NumericError("all point pairs are singular")
    return GammaScan(estimate=best, points_used=n)
