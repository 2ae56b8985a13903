import numpy as np
import pytest
from hypothesis import given, strategies as st

from deformclass import (
    BoundaryCurve,
    DegenerateCurve,
    DeformParams,
    EmptyMask,
    InvalidParams,
    MultipleComponents,
    estimate_gamma,
    gamma_scan,
    GammaScan,
    cone,
    cross,
    rasterize,
    tent,
    trace_boundary,
)
from deformclass.geometry import _SINGULAR_EPS, _nested_subset


def gamma_scan_loop(curve, sample_budget=256):
    """Reference: the pairwise double loop that ``gamma_scan`` vectorizes."""
    pts = curve.points if isinstance(curve, BoundaryCurve) else np.asarray(curve, dtype=float)
    sel = _nested_subset(pts.shape[0], sample_budget)
    p = pts[sel]
    n = p.shape[0]
    diff = p[:, None, :] - p[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))

    best = -1.0
    best_pair = (0, 0)
    singular = 0
    for i in range(n - 1):
        row_i = dist[i]
        chords = dist[i, i + 1:]
        for off, chord in enumerate(chords):
            k = i + 1 + off
            if chord < _SINGULAR_EPS:
                singular += 1
                continue
            s = row_i + dist[k]
            inner = s[i:k + 1].max()
            outer_max = max(s[k:].max(), s[:i + 1].max())
            ratio = min(inner, outer_max) / chord
            if ratio > best:
                best = ratio
                best_pair = (int(sel[i]), int(sel[k]))
    if best < 0:
        raise DegenerateCurve("all point pairs are singular")
    return GammaScan(estimate=float(best), points_used=n,
                     singular_pairs=singular, argmax_pair=best_pair)


def circle_points(n=256, radius=1.0):
    t = 2 * np.pi * np.arange(n) / n
    return np.stack([radius * np.cos(t), radius * np.sin(t)], axis=1)


class TestTraceBoundary:
    def test_single_cell(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 2] = True
        curve = trace_boundary(mask)
        assert len(curve) == 4
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
        assert len(trace_boundary(mask)) == 16

    def test_hole_is_ignored(self):
        mask = np.ones((5, 5), dtype=bool)
        mask[2, 2] = False
        pts = trace_boundary(mask).points
        assert len(pts) == 20
        assert pts.min() == pytest.approx(0.1)

    def test_errors(self):
        with pytest.raises(EmptyMask):
            trace_boundary(np.zeros((3, 3), dtype=bool))
        two = np.zeros((4, 4), dtype=bool)
        two[0, 0] = two[3, 3] = True
        with pytest.raises(MultipleComponents):
            trace_boundary(two)
        with pytest.raises(InvalidParams):
            trace_boundary(np.ones(5, dtype=bool))


class TestGammaScan:
    def test_circle_value(self):
        scan = gamma_scan(circle_points(256))
        assert scan.estimate == pytest.approx(np.sqrt(2), abs=0.05)
        assert scan.points_used == 256
        assert scan.singular_pairs == 0

    def test_stretch_inflates_by_aspect_ratio(self):
        pts = circle_points(256)
        stretched = pts * np.array([1.0, 2.0])
        base = estimate_gamma(pts)
        assert estimate_gamma(stretched) <= 2 * base + 0.1

    def test_diamond_oracle(self):
        # the l1 ball's worst detour straddles a corner: 1 + sqrt(2)
        p = DeformParams(eta=1.0, xi=1.0, xi_prime=1.0, tau=0.0, tau_prime=0.0)
        img = rasterize(tent(0.125), p, 256)
        curve = trace_boundary(img.support_mask())
        assert estimate_gamma(curve, sample_budget=len(curve)) == pytest.approx(
            1 + np.sqrt(2), abs=0.05)

    def test_budget_monotone(self):
        pts = circle_points(512)
        lo = estimate_gamma(pts, sample_budget=64)
        hi = estimate_gamma(pts, sample_budget=512)
        assert lo <= hi + 1e-12

    def test_curve_object_accepted(self):
        curve = BoundaryCurve(circle_points(16))
        assert estimate_gamma(curve) > 1.0

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateCurve):
            gamma_scan(np.zeros((2, 2)))
        with pytest.raises(DegenerateCurve):
            gamma_scan(np.zeros((8, 2)))  # all pairs singular
        with pytest.raises(InvalidParams):
            gamma_scan(circle_points(16), sample_budget=2)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_point_rejected(self, bad):
        pts = circle_points(32)
        pts[5, 1] = bad
        with pytest.raises(DegenerateCurve, match="finite"):
            gamma_scan(pts)
        with pytest.raises(InvalidParams, match="finite"):
            BoundaryCurve(pts)

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    min_size=3, max_size=24),
           st.data())
    def test_equals_loop_oracle(self, cells, data):
        # A 5x5 lattice makes duplicated points (singular pairs), collinear
        # runs and tied ratios common.
        pts = np.array(cells, dtype=float) / 4.0
        budget = data.draw(st.integers(3, len(pts)))
        try:
            expected = gamma_scan_loop(pts, budget)
        except DegenerateCurve:
            with pytest.raises(DegenerateCurve):
                gamma_scan(pts, budget)
            return
        assert gamma_scan(pts, budget) == expected

    @pytest.mark.parametrize("template", [tent(0.25), cross(0.25, 0.08), cone(0.22)],
                             ids=["tent", "cross", "cone"])
    @pytest.mark.parametrize("budget", [64, 128])
    def test_traced_boundaries_equal_loop_oracle(self, template, budget):
        p = DeformParams(eta=1.0, xi=1.0, xi_prime=1.0, tau=0.0, tau_prime=0.0)
        curve = trace_boundary(rasterize(template, p, 128).support_mask())
        assert gamma_scan(curve, budget) == gamma_scan_loop(curve, budget)
