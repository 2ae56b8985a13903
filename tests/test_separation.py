import numpy as np
import pytest

from deformclass import (
    InvalidParams,
    ResolutionMismatch,
    SearchConfig,
    cross,
    estimate_separation,
    grid_inner_product,
    riemann_error_report,
    tent,
)

FAST = SearchConfig(coarse_step=0.1, refine_iters=8, quadrature=256,
                    coarse_quadrature=96)


def direct_rel_distance(f, g, a, b, b2, c, c2, q=256):
    """Relative L2 distance of a*f(b x + c, b2 y + c2) from g, midpoint rule."""
    t = (np.arange(q) + 0.5) / q
    x, y = np.meshgrid(t, t, indexing="ij")
    fd = a * f(b * x + c, b2 * y + c2)
    gd = g(x, y)
    return float(np.sqrt(np.mean((fd - gd) ** 2) / np.mean(gd**2)))


class TestGridInnerProduct:
    def test_constant_grids(self):
        h = np.full((8, 8), 2.0)
        g = np.full((8, 8), 3.0)
        assert grid_inner_product(h, g) == pytest.approx(6.0)

    def test_resolution_mismatch(self):
        with pytest.raises(ResolutionMismatch):
            grid_inner_product(np.ones((4, 4)), np.ones((8, 8)))

    def test_square_required(self):
        with pytest.raises(InvalidParams):
            grid_inner_product(np.ones((4, 5)), np.ones((4, 5)))


class TestSearchConfig:
    def test_defaults_valid(self):
        SearchConfig().validate()

    def test_rejects_bad_values(self):
        for xi_max in (0.3, float("nan"), float("inf")):
            with pytest.raises(InvalidParams):
                SearchConfig(xi_max=xi_max).validate()
        with pytest.raises(InvalidParams):
            SearchConfig(coarse_step=0.0).validate()
        with pytest.raises(InvalidParams):
            SearchConfig(quadrature=0).validate()


class TestSeparationOracles:
    def test_identity_is_zero(self):
        f = tent(0.25)
        res = estimate_separation(f, f, FAST)
        assert res.d_fg == 0.0
        assert res.d_gf == 0.0
        assert res.d_max == 0.0

    def test_scaled_tents_are_equivalent(self):
        # tent(1/4) maps onto tent(1/8) at scale 2, shift -1/2, amplitude 1/2
        f = tent(0.25)
        g = tent(0.125)
        assert direct_rel_distance(f, g, 0.5, 2.0, 2.0, -0.5, -0.5) < 1e-12
        assert direct_rel_distance(g, f, 2.0, 0.5, 0.5, 0.25, 0.25) < 1e-12
        res = estimate_separation(f, g, FAST)
        assert res.d_max <= 1e-12

    def test_tent_cross_band(self, tent_template, cross_template):
        # frozen from a full-budget run: d_max 0.2804 at the default config;
        # this coarser search may sit slightly above it, never far below
        res = estimate_separation(tent_template, cross_template, FAST)
        assert 0.26 <= res.d_max <= 0.33
        assert res.d_fg >= 0 and res.d_gf >= 0

    def test_best_tuple_reproduces_distance(self, tent_template, cross_template):
        res = estimate_separation(tent_template, cross_template, FAST)
        direct = direct_rel_distance(tent_template, cross_template,
                                     *res.best_fg, q=FAST.quadrature)
        assert direct == pytest.approx(res.d_fg, abs=1e-9)
        direct_rev = direct_rel_distance(cross_template, tent_template,
                                         *res.best_gf, q=FAST.quadrature)
        assert direct_rev == pytest.approx(res.d_gf, abs=1e-9)

    def test_estimate_upper_bounds_sampled_params(self, tent_template, cone_template):
        # the reported infimum may not exceed the objective at any admissible
        # candidate on its own lattice
        res = estimate_separation(tent_template, cone_template, FAST)
        rng = np.random.default_rng(4)
        for _ in range(10):
            b = float(rng.choice([-2.0, -1.0, 1.0, 1.5, 2.0]))
            b2 = float(rng.choice([1.0, 2.0]))
            c = float(rng.uniform(*sorted((0.75 - max(b, 0.0), 0.25 - min(b, 0.0)))))
            c2 = float(rng.uniform(0.75 - b2, 0.25))
            t = (np.arange(256) + 0.5) / 256
            x, y = np.meshgrid(t, t, indexing="ij")
            fd = tent_template(b * x + c, b2 * y + c2)
            gd = cone_template(x, y)
            nf2 = float(np.mean(fd * fd))
            if nf2 == 0.0:
                continue
            ip = max(float(np.mean(fd * gd)), 0.0)
            val = direct_rel_distance(tent_template, cone_template,
                                      ip / nf2, b, b2, c, c2)
            assert res.d_fg <= val + 1e-6

    def test_monotone_in_refinement(self, tent_template, cross_template):
        lo = estimate_separation(tent_template, cross_template,
                                 SearchConfig(coarse_step=0.1, refine_iters=2,
                                              quadrature=256, coarse_quadrature=96))
        hi = estimate_separation(tent_template, cross_template, FAST)
        assert hi.d_fg <= lo.d_fg + 1e-12
        assert hi.d_gf <= lo.d_gf + 1e-12

    def test_quadrature_consistency(self, tent_template, cross_template):
        coarse = estimate_separation(tent_template, cross_template,
                                     SearchConfig(coarse_step=0.1, refine_iters=8,
                                                  quadrature=128, coarse_quadrature=64))
        fine = estimate_separation(tent_template, cross_template, FAST)
        assert abs(coarse.d_max - fine.d_max) < 0.05

    def test_meta_reports_config(self, tent_template):
        res = estimate_separation(tent_template, tent_template, FAST)
        assert res.meta["quadrature"] == FAST.quadrature


class TestRiemannReport:
    def test_bounds_hold_for_centered_tents(self):
        rows = riemann_error_report(tent(0.25), tent(0.125), d_list=(16, 32))
        assert all(r.within_bounds for r in rows)
        assert [r.d for r in rows] == [16, 32]

    def test_error_decays(self):
        rows = riemann_error_report(tent(0.25), tent(0.125), d_list=(16, 32, 64))
        errs = [r.ip_observed for r in rows]
        assert errs[1] < errs[0] and errs[2] < errs[1]

    def test_observed_error_matches_direct_computation(self):
        h, g = tent(0.25), tent(0.125)
        rows = riemann_error_report(h, g, d_list=(16,), reference_resolution=2048)
        row = rows[0]
        t = np.arange(1, 17) / 16
        x, y = np.meshgrid(t, t, indexing="ij")
        ip_grid = float(np.mean(h(x, y) * g(x, y)))
        tm = (np.arange(2048) + 0.5) / 2048
        xm, ym = np.meshgrid(tm, tm, indexing="ij")
        ip_ref = float(np.mean(h(xm, ym) * g(xm, ym)))
        assert row.ip_observed == pytest.approx(abs(ip_grid - ip_ref), rel=1e-12)

    def test_bound_formula_from_metadata(self):
        h, g = tent(0.25), tent(0.125)
        rows = riemann_error_report(h, g, d_list=(32,))
        row = rows[0]
        lg = g.lipschitz_const
        lh = h.lipschitz_const
        expected = (2 / 32) * g.l1_norm * h.l1_norm * (lg + lh + 2 * lg * lh / 32)
        assert row.ip_bound == pytest.approx(expected, rel=1e-12)
