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

from .errors import DegenerateCurve, EmptyMask, InvalidParams, MultipleComponents

_SINGULAR_EPS = 1e-9

# Directions on the corner lattice: +x, +y, -x, -y.
_DIRS = ((1, 0), (0, 1), (-1, 0), (0, -1))


@dataclass(frozen=True)
class BoundaryCurve:
    """Closed polygon, points in counterclockwise order, endpoint not repeated."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
            raise InvalidParams(f"curve needs at least 3 points of dim 2, got {pts.shape}")
        if not np.isfinite(pts).all():
            raise InvalidParams("curve points must be finite")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


def _component_count(mask: np.ndarray) -> int:
    """Number of 4-connected components of true cells."""
    todo = {(int(r), int(c)) for r, c in zip(*np.nonzero(mask))}
    count = 0
    while todo:
        count += 1
        stack = [todo.pop()]
        while stack:
            r, c = stack.pop()
            for dr, dc in _DIRS:
                nb = (r + dr, c + dc)
                if nb in todo:
                    todo.remove(nb)
                    stack.append(nb)
    return count


def trace_boundary(mask: np.ndarray) -> BoundaryCurve:
    """Trace the outer boundary of a single 4-connected pixel component.

    Cell (row r, col c), 0-based, is treated as the unit box centered at
    ((r+1)/d, (c+1)/d) with side 1/d.  Directed boundary edges keep the
    interior on the left, so the outer loop comes out counterclockwise;
    holes produce separate loops and the loop of largest area is returned.
    Corner pinches (diagonal touches) are resolved by always taking the
    leftmost available turn.
    """
    m = np.asarray(mask, dtype=bool)
    if m.ndim != 2:
        raise InvalidParams(f"mask must be 2D, got shape {m.shape}")
    if not m.any():
        raise EmptyMask("mask has no true cells")
    if _component_count(m) > 1:
        raise MultipleComponents("mask support is not 4-connected")

    d = m.shape[0]
    padded = np.zeros((m.shape[0] + 2, m.shape[1] + 2), dtype=bool)
    padded[1:-1, 1:-1] = m

    # Edges on the corner lattice (2r+1 +/- 1, 2c+1 +/- 1), keyed by start
    # corner; value is (end corner, direction index).
    edges: dict[tuple[int, int], list[tuple[tuple[int, int], int]]] = {}

    def add(start, end, dir_idx):
        edges.setdefault(start, []).append((end, dir_idx))

    for r, c in zip(*np.nonzero(m)):
        cx, cy = 2 * int(r) + 2, 2 * int(c) + 2  # center on the doubled lattice
        if not padded[r + 2, c + 1]:  # +x neighbour missing: right side, +y
            add((cx + 1, cy - 1), (cx + 1, cy + 1), 1)
        if not padded[r, c + 1]:      # -x neighbour: left side, -y
            add((cx - 1, cy + 1), (cx - 1, cy - 1), 3)
        if not padded[r + 1, c + 2]:  # +y neighbour: top side, -x
            add((cx + 1, cy + 1), (cx - 1, cy + 1), 2)
        if not padded[r + 1, c]:      # -y neighbour: bottom side, +x
            add((cx - 1, cy - 1), (cx + 1, cy - 1), 0)

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

    def area(pts: np.ndarray) -> float:
        x, y = pts[:, 0], pts[:, 1]
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    outer = max(loops, key=lambda pts: area(pts))
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
    order = []
    for k in range(1 << bits):
        rev = int(format(k, f"0{bits}b")[::-1], 2)
        if rev < n:
            order.append(rev)
        if len(order) == budget:
            break
    return np.sort(np.array(order, dtype=int))


@dataclass(frozen=True)
class GammaScan:
    """Details of a regularity-constant scan."""

    estimate: float
    points_used: int
    singular_pairs: int
    argmax_pair: tuple[int, int]


def gamma_scan(curve: BoundaryCurve | np.ndarray, sample_budget: int = 256) -> GammaScan:
    """Scan detour ratios over point pairs of a closed curve.

    For every ordered pair of sampled points the two connecting arcs are
    scanned for the largest detour sum, the smaller of the two suprema is
    taken, and the ratio to the chord length is recorded.  Pairs with
    chord below 1e-9 are skipped and counted as singular.  The result is
    a lower estimate of the true regularity constant that never decreases
    as the budget grows.  Non-finite points in a raw array raise
    ``DegenerateCurve``; a ``BoundaryCurve`` cannot hold them.
    """
    pts = curve.points if isinstance(curve, BoundaryCurve) else np.asarray(curve, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise DegenerateCurve(f"need at least 3 planar points, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise DegenerateCurve("curve points must be finite")
    if sample_budget < 3:
        raise InvalidParams(f"sample budget must be >= 3, got {sample_budget}")

    sel = _nested_subset(pts.shape[0], sample_budget)
    p = pts[sel]
    n = p.shape[0]
    diff = p[:, None, :] - p[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))

    # Row i scores every pair (i, k), k > i, at once: row r of s is the
    # detour sum through each curve point for k = i + 1 + r.
    j = np.arange(n)
    best = -1.0
    best_pair = (0, 0)
    singular = 0
    for i in range(n - 1):
        k = j[i + 1:, None]
        chord = dist[i, i + 1:]
        s = dist[i][None, :] + dist[i + 1:]
        inner = s.max(axis=1, where=(j >= i) & (j <= k), initial=-np.inf)
        outer = s.max(axis=1, where=(j >= k) | (j <= i), initial=-np.inf)
        ok = chord >= _SINGULAR_EPS
        singular += int(np.count_nonzero(~ok))
        if not ok.any():
            continue
        ratio = np.minimum(inner[ok], outer[ok]) / chord[ok]
        r = int(np.argmax(ratio))
        if ratio[r] > best:
            best = float(ratio[r])
            best_pair = (int(sel[i]), int(sel[i + 1 + np.flatnonzero(ok)[r]]))
    if best < 0:
        raise DegenerateCurve("all point pairs are singular")
    return GammaScan(estimate=best, points_used=n,
                     singular_pairs=singular, argmax_pair=best_pair)


def estimate_gamma(curve: BoundaryCurve | np.ndarray, sample_budget: int = 256) -> float:
    """Regularity-constant estimate; see ``gamma_scan`` for semantics."""
    return gamma_scan(curve, sample_budget).estimate
