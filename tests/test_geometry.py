import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deformclass import (
    BoundaryCurve,
    ConfigError,
    DeformClassError,
    DeformParams,
    GammaScan,
    NumericError,
    cone,
    cross,
    gamma_scan,
    rasterize,
    tent,
    trace_boundary,
)
from deformclass.geometry import _SINGULAR_EPS, _nested_subset


_DIRS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def component_count(mask):
    """Number of 4-connected components of true cells, by flood fill."""
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


def trace_boundary_two_pass(mask):
    """Reference: a flood fill counts the components, then a per-cell loop
    lists the boundary edges that ``trace_boundary`` finds with array ops."""
    m = np.asarray(mask, dtype=bool)
    if m.ndim != 2:
        raise ConfigError(f"mask must be 2D, got shape {m.shape}")
    if not m.any():
        raise NumericError("mask has no true cells")
    if component_count(m) > 1:
        raise NumericError("mask support is not 4-connected")

    d = m.shape[0]
    padded = np.zeros((m.shape[0] + 2, m.shape[1] + 2), dtype=bool)
    padded[1:-1, 1:-1] = m
    edges = {}

    def add(start, end, dir_idx):
        edges.setdefault(start, []).append((end, dir_idx))

    for r, c in zip(*np.nonzero(m)):
        cx, cy = 2 * int(r) + 2, 2 * int(c) + 2
        if not padded[r + 2, c + 1]:
            add((cx + 1, cy - 1), (cx + 1, cy + 1), 1)
        if not padded[r, c + 1]:
            add((cx - 1, cy + 1), (cx - 1, cy - 1), 3)
        if not padded[r + 1, c + 2]:
            add((cx + 1, cy + 1), (cx - 1, cy + 1), 2)
        if not padded[r + 1, c]:
            add((cx - 1, cy - 1), (cx + 1, cy - 1), 0)

    loops = []
    while edges:
        start = next(iter(edges))
        loop = [start]
        pos = start
        dir_idx = edges[pos][0][1]
        while True:
            options = edges.get(pos, [])
            if not options:
                break
            options.sort(key=lambda e: (e[1] - dir_idx - 1) % 4)
            nxt, ndir = options.pop(0)
            if not options:
                del edges[pos]
            loop.append(nxt)
            pos, dir_idx = nxt, ndir
            if pos == start:
                break
        loops.append(np.array(loop[:-1], dtype=float))

    def area(pts):
        x, y = pts[:, 0], pts[:, 1]
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    outer = max(loops, key=lambda pts: area(pts))
    return BoundaryCurve(points=outer / (2.0 * d))


def nested_subset_by_format(n, budget):
    """Reference: the bit reversal of each index through its binary string."""
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


def assert_same_trace(mask):
    try:
        expected = trace_boundary_two_pass(mask)
    except DeformClassError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            trace_boundary(mask)
        return
    assert np.array_equal(trace_boundary(mask).points, expected.points)


@st.composite
def masks(draw):
    """Random masks up to 12 x 12: either independent cells at a drawn
    density (mostly several components), or a 4-connected random walk with
    cells punched out of it (one component, often with holes)."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    if draw(st.booleans()):
        cells = draw(st.lists(st.booleans(), min_size=rows * cols,
                              max_size=rows * cols))
        return np.array(cells, dtype=bool).reshape(rows, cols)
    mask = np.zeros((rows, cols), dtype=bool)
    r, c = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
    for dr, dc in draw(st.lists(st.sampled_from(_DIRS), max_size=80)):
        mask[r, c] = True
        r = min(max(r + dr, 0), rows - 1)
        c = min(max(c + dc, 0), cols - 1)
    mask[r, c] = True
    for pr, pc in draw(st.lists(st.tuples(st.integers(0, rows - 1),
                                          st.integers(0, cols - 1)), max_size=6)):
        mask[pr, pc] = False
    return mask


def gamma_scan_loop(curve, sample_budget=256):
    """Reference: the pairwise double loop that ``gamma_scan`` vectorizes."""
    p = curve.points[_nested_subset(len(curve.points), sample_budget)]
    n = p.shape[0]
    diff = p[:, None, :] - p[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))

    best = -1.0
    for i in range(n - 1):
        row_i = dist[i]
        chords = dist[i, i + 1:]
        for off, chord in enumerate(chords):
            k = i + 1 + off
            if chord < _SINGULAR_EPS:
                continue
            s = row_i + dist[k]
            inner = s[i:k + 1].max()
            outer_max = max(s[k:].max(), s[:i + 1].max())
            best = max(best, min(inner, outer_max) / chord)
    if best < 0:
        raise NumericError("all point pairs are singular")
    return GammaScan(estimate=float(best), points_used=n)


def circle_points(n=256, radius=1.0):
    t = 2 * np.pi * np.arange(n) / n
    return np.stack([radius * np.cos(t), radius * np.sin(t)], axis=1)


def circle(n=256):
    return BoundaryCurve(circle_points(n))


class TestTraceBoundary:
    def test_single_cell(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 2] = True
        curve = trace_boundary(mask)
        assert len(curve.points) == 4
        # cell (1, 2) is the box of side 1/4 centered at (2/4, 3/4)
        corners = {tuple(p) for p in np.round(curve.points * 4, 6)}
        assert corners == {(1.5, 2.5), (2.5, 2.5), (1.5, 3.5), (2.5, 3.5)}

    def test_counterclockwise_orientation(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[1:4, 1:4] = True
        pts = trace_boundary(mask).points
        x, y = pts[:, 0], pts[:, 1]
        area = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        assert area > 0

    def test_square_perimeter_point_count(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[2:6, 2:6] = True
        # a 4x4 block has 16 boundary edges on the half-open corner lattice
        assert len(trace_boundary(mask).points) == 16

    def test_hole_is_ignored(self):
        mask = np.ones((5, 5), dtype=bool)
        mask[2, 2] = False
        pts = trace_boundary(mask).points
        assert len(pts) == 20
        assert pts.min() == pytest.approx(0.1)

    def test_errors(self):
        with pytest.raises(NumericError, match="mask has no true cells"):
            trace_boundary(np.zeros((3, 3), dtype=bool))
        two = np.zeros((4, 4), dtype=bool)
        two[0, 0] = two[3, 3] = True
        with pytest.raises(NumericError, match="not 4-connected"):
            trace_boundary(two)
        with pytest.raises(ConfigError, match="mask must be 2D"):
            trace_boundary(np.ones(5, dtype=bool))

    @settings(max_examples=300)
    @given(masks())
    def test_equals_two_pass_oracle(self, mask):
        assert_same_trace(mask)

    def test_corner_touch_is_two_components(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 1] = mask[2, 2] = True
        with pytest.raises(NumericError, match="not 4-connected"):
            trace_boundary(mask)
        assert_same_trace(mask)

    def test_ring_closed_by_a_diagonal_pinch_is_one_component(self):
        # A C of cells whose two ends touch only at a corner: the leftmost
        # turn keeps the pinch open, so the enclosed empty cells are not a
        # hole and one loop of positive area goes round both sides.
        mask = np.zeros((5, 5), dtype=bool)
        mask[1:4, 1:4] = True
        mask[2, 2] = mask[3, 1] = False  # ends (2, 1) and (3, 2) pinch
        # All 7 * 4 - 2 * 6 = 16 unit edges of the path lie on that loop.
        assert len(trace_boundary(mask).points) == 16
        assert_same_trace(mask)

    def test_blob_with_two_holes(self):
        mask = np.zeros((7, 9), dtype=bool)
        mask[1:6, 1:8] = True
        mask[3, 2] = mask[3, 6] = False
        pts = trace_boundary(mask).points
        # The outer loop only: 2 * (5 + 7) unit edges.
        assert len(pts) == 24
        assert_same_trace(mask)

    @pytest.mark.parametrize("template", [tent(0.25), cross(0.25, 0.08), cone(0.22)],
                             ids=["tent", "cross", "cone"])
    def test_rasters_equal_two_pass_oracle(self, template):
        p = DeformParams(eta=1.0, xi=1.0, xi_prime=1.0, tau=0.0, tau_prime=0.0)
        assert_same_trace(rasterize(template, p, 128).support_mask())


class TestGammaScan:
    def test_circle_value(self):
        scan = gamma_scan(circle(256))
        assert scan.estimate == pytest.approx(np.sqrt(2), abs=0.05)
        assert scan.points_used == 256

    def test_stretch_inflates_by_aspect_ratio(self):
        pts = circle_points(256)
        stretched = pts * np.array([1.0, 2.0])
        base = gamma_scan(BoundaryCurve(pts)).estimate
        assert gamma_scan(BoundaryCurve(stretched)).estimate <= 2 * base + 0.1

    def test_diamond_oracle(self):
        # the l1 ball's worst detour straddles a corner: 1 + sqrt(2)
        p = DeformParams(eta=1.0, xi=1.0, xi_prime=1.0, tau=0.0, tau_prime=0.0)
        img = rasterize(tent(0.125), p, 256)
        curve = trace_boundary(img.support_mask())
        assert gamma_scan(curve, sample_budget=len(curve.points)).estimate == pytest.approx(
            1 + np.sqrt(2), abs=0.05)

    def test_budget_monotone(self):
        curve = circle(512)
        lo = gamma_scan(curve, sample_budget=64).estimate
        hi = gamma_scan(curve, sample_budget=512).estimate
        assert lo <= hi + 1e-12

    def test_curve_object_accepted(self):
        assert gamma_scan(circle(16)).estimate > 1.0

    def test_degenerate_inputs(self):
        with pytest.raises(ConfigError, match="at least 3 points"):
            BoundaryCurve(np.zeros((2, 2)))
        with pytest.raises(NumericError, match="all point pairs are singular"):
            gamma_scan(BoundaryCurve(np.zeros((8, 2))))
        with pytest.raises(ConfigError, match="sample budget must be >= 3, got 2"):
            gamma_scan(circle(16), sample_budget=2)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_point_rejected(self, bad):
        pts = circle_points(32)
        pts[5, 1] = bad
        with pytest.raises(ConfigError, match="finite"):
            BoundaryCurve(pts)

    def test_nested_subset_equals_format_oracle(self):
        gen = np.random.default_rng(0)
        for n in range(1, 601):
            budgets = {1, 2, 3, n // 2 + 1, n - 1, n, n + 1,
                       *gen.integers(1, n + 1, 3).tolist()}
            for budget in sorted(b for b in budgets if b >= 1):
                assert np.array_equal(_nested_subset(n, budget),
                                      nested_subset_by_format(n, budget))

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    min_size=3, max_size=24),
           st.data())
    def test_equals_loop_oracle(self, cells, data):
        # A 5x5 lattice makes duplicated points (singular pairs), collinear
        # runs and tied ratios common.
        curve = BoundaryCurve(np.array(cells, dtype=float) / 4.0)
        budget = data.draw(st.integers(3, len(cells)))
        try:
            expected = gamma_scan_loop(curve, budget)
        except NumericError as exc:
            with pytest.raises(NumericError, match=f"^{re.escape(str(exc))}$"):
                gamma_scan(curve, budget)
            return
        assert gamma_scan(curve, budget) == expected

    @pytest.mark.parametrize("template", [tent(0.25), cross(0.25, 0.08), cone(0.22)],
                             ids=["tent", "cross", "cone"])
    @pytest.mark.parametrize("budget", [64, 128])
    def test_traced_boundaries_equal_loop_oracle(self, template, budget):
        p = DeformParams(eta=1.0, xi=1.0, xi_prime=1.0, tau=0.0, tau_prime=0.0)
        curve = trace_boundary(rasterize(template, p, 128).support_mask())
        assert gamma_scan(curve, budget) == gamma_scan_loop(curve, budget)

    @pytest.mark.parametrize("template, budget, estimate", [
        (tent(0.25), 64, "0x1.a4ce35cddf768p+0"),
        (tent(0.25), 128, "0x1.aa95d4b24f40dp+0"),
        (cross(0.25, 0.08), 64, "0x1.9f6bab84160e5p+0"),
        (cross(0.25, 0.08), 128, "0x1.a4f6a50a1f8f4p+0"),
        (cone(0.22), 64, "0x1.6fae25d597ef6p+0"),
        (cone(0.22), 128, "0x1.712ceabc435e4p+0"),
    ], ids=["tent-64", "tent-128", "cross-64", "cross-128", "cone-64", "cone-128"])
    def test_golden_bits(self, template, budget, estimate):
        # Speed-ups of the scan must not move a single bit of the estimate.
        p = DeformParams(eta=1.0, xi=1.0, xi_prime=1.0, tau=0.0, tau_prime=0.0)
        curve = trace_boundary(rasterize(template, p, 128).support_mask())
        scan = gamma_scan(curve, budget)
        assert (scan.estimate.hex(), scan.points_used) == (estimate, budget)
