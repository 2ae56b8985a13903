from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from deformclass import (
    ConfigError,
    SearchConfig,
    cone,
    cross,
    estimate_separation,
    raster_interp,
    tent,
)
from deformclass.separation import (
    MAX_MAGNITUDES,
    _axis_plan,
    _candidate_scales,
    _correlate,
    _midpoints,
    _shift_interval,
    _spectrum,
    _template_grid,
)
from oracles import grid_inner_product, riemann_error_report

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
        with pytest.raises(ConfigError, match="grid shapes differ"):
            grid_inner_product(np.ones((4, 4)), np.ones((8, 8)))

    def test_square_required(self):
        with pytest.raises(ConfigError, match="first grid must be square"):
            grid_inner_product(np.ones((4, 5)), np.ones((4, 5)))


class TestSearchConfig:
    def test_defaults_valid(self):
        SearchConfig()

    def test_rejects_bad_values(self):
        for xi_max in (0.3, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="xi_max must be finite and >= 1/2"):
                SearchConfig(xi_max=xi_max)
        with pytest.raises(ConfigError, match=r"coarse_step must be in \(0, 1/4\]"):
            SearchConfig(coarse_step=0.0)
        with pytest.raises(ConfigError, match="quadrature resolutions must be >= 16"):
            SearchConfig(quadrature=0)
        with pytest.raises(ConfigError, match="refine_iters must be >= 0"):
            SearchConfig(refine_iters=-1)

    @pytest.mark.parametrize("kwargs", [{"xi_max": 1e308}, {"coarse_step": 1e-300},
                                        {"xi_max": 50.5}])
    def test_rejects_grid_above_cap(self, kwargs):
        with pytest.raises(ConfigError, match="above the cap of 1000"):
            SearchConfig(**kwargs)

    def test_cap_counts_the_grid_that_is_built(self):
        cfg = SearchConfig(xi_max=50.45, include_flips=False)
        assert len(_candidate_scales(cfg)) == MAX_MAGNITUDES


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

    def test_scale_without_a_lattice_shift_is_skipped(self, tent_template,
                                                      cross_template):
        # At q = 33 no multiple of 0.5/33 is an admissible shift for |b| = 1/2,
        # so the coarse scan skips that scale and the search goes on.
        assert _axis_plan(0.5, 33) is None and _axis_plan(-0.5, 33) is None
        res = estimate_separation(tent_template, cross_template, SearchConfig(
            coarse_step=0.25, refine_iters=2, quadrature=64, coarse_quadrature=33))
        assert (res.d_fg, res.d_gf) == pytest.approx((0.319648, 0.327152), abs=1e-6)

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

    @pytest.mark.parametrize("zero_first", [True, False])
    def test_zero_template_named_before_any_fft(self, monkeypatch, zero_first):
        calls = []

        def counting(fft):
            def counted(*args, **kwargs):
                calls.append(1)
                return fft(*args, **kwargs)
            return counted

        for name in ("rfft", "rfft2"):
            monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name)))
        # An arm far narrower than the coarse grid spacing: zero on the grid.
        thin, solid = cross(0.0001), cone()
        pair = (thin, solid) if zero_first else (solid, thin)
        name = "first" if zero_first else "second"
        with pytest.raises(ConfigError,
                           match=f"{name} template is identically zero"):
            estimate_separation(*pair)
        assert calls == []


@st.composite
def _templates(draw):
    """Any template kind: centered or off-center tents and cones, crosses,
    and bilinear rasters."""
    kind = draw(st.sampled_from(["tent", "cone", "cross", "raster"]))
    if kind == "cross":
        return cross(draw(st.floats(0.01, 0.25)), draw(st.floats(0.01, 0.25)))
    if kind == "raster":
        shape = (draw(st.integers(3, 9)), draw(st.integers(3, 9)))
        seed = draw(st.integers(0, 2**32 - 1))
        return raster_interp(np.random.default_rng(seed).uniform(0.0, 1.0, shape))
    size = draw(st.floats(0.01, 0.25))
    center = (0.5, 0.5)
    if draw(st.booleans()):
        center = tuple(draw(st.floats(0.25 + size, 0.75 - size)) for _ in range(2))
    return (tent if kind == "tent" else cone)(size, *center)


@st.composite
def _axes(draw):
    """An axis the search evaluates a template on: the coarse scan's
    lattice for a scale b, or the refine's b * t + c for an admissible
    shift c; b has either sign and magnitude in [1/2, xi_max]."""
    b = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([1.0, -1.0]))
    q = draw(st.integers(16, 96))
    if draw(st.booleans()) and (plan := _axis_plan(b, q)) is not None:
        return plan[0]
    return b * _midpoints(q) + draw(st.floats(*_shift_interval(b)))


class TestSupportWindow:
    @given(f=_templates(), x=_axes(), y=_axes())
    def test_windowed_grid_has_the_bits_of_the_full_one(self, f, x, y):
        full = f(x[:, None], y[None, :])
        assert _template_grid(f, x, y).tobytes() == full.tobytes()

    @given(seed=st.integers(0, 2**32 - 1))
    def test_row_split_correlation_equals_the_2d_transforms(self, seed):
        rng = np.random.default_rng(seed)
        nx, ny = rng.integers(8, 80, size=2)
        fft_n = (1 << int(np.ceil(np.log2(nx))), 1 << int(np.ceil(np.log2(ny))))
        lo = int(rng.integers(0, nx))
        rows = slice(lo, int(rng.integers(lo, nx + 1)))
        F = np.zeros((nx, ny))
        F[rows] = rng.uniform(0.0, 1.0, (rows.stop - rows.start, ny))
        g_spec = np.conj(np.fft.rfft2(rng.uniform(0.0, 1.0, (nx, ny)), s=fft_n))
        n_out = int(rng.integers(1, nx + 1))
        spec = _spectrum(F, rows, fft_n)
        assert np.all(spec == np.fft.rfft2(F, s=fft_n))
        split = _correlate(spec, g_spec, fft_n, n_out)
        full = np.fft.irfft2(np.fft.rfft2(F, s=fft_n) * g_spec, s=fft_n)[:n_out]
        assert split.shape == full.shape
        assert np.all(split == full)


# The sep workload's search, and pairs of tent, cross, cone and a raster;
# the off-center pair and the raster's flipped scales change a distance.
SEP_WORKLOAD = SearchConfig(coarse_step=0.25, coarse_quadrature=64, quadrature=256)
GOLDEN_PAIRS = {
    "tent-cross": (tent(0.25), cross(0.25, 0.08)),
    "cross-tent": (cross(0.2, 0.06), tent(0.22)),
    "tent-cone": (tent(0.2), cone(0.2)),
    "cone-tent": (cone(0.22), tent(0.25)),
    "cross-cone": (cross(0.25, 0.08), cone(0.22)),
    "tent-cone-off-center": (tent(0.15, cx=0.42, cy=0.55),
                             cone(0.15, cx=0.58, cy=0.45)),
    "raster-cone": (raster_interp(np.random.default_rng(3).uniform(0.0, 1.0, (7, 5))),
                    cone(0.2)),
}
# (pair, include_flips) -> float.hex of d_fg, d_gf, best_fg and best_gf.
GOLDEN_BITS = {
    ("tent-cross", True): (
        "0x1.3f999b3beabeap-2", "0x1.1ecddf263e000p-2",
        ("0x1.7261e190a1455p+2", "0x1.7800000000000p-1", "0x1.7800000000000p-1",
         "0x1.0800000000000p-3", "0x1.0800000000000p-3"),
        ("0x1.6394314773f01p-3", "0x1.8000000000000p+0", "0x1.8000000000000p+0",
         "-0x1.0020000000000p-2", "-0x1.ff80000000000p-3")),
    ("cross-tent", True): (
        "0x1.1bb3e88282f95p-2", "0x1.4f83e3df1f392p-2",
        ("0x1.4912442b79d94p-3", "0x1.bf00000000000p+0", "0x1.c000000000000p+0",
         "-0x1.7e60000000000p-2", "-0x1.8170000000000p-2"),
        ("0x1.40f1bdc27c529p+2", "0x1.0800000000000p-1", "0x1.0000000000000p-1",
         "0x1.f700000000000p-3", "0x1.0000000000000p-2")),
    ("tent-cone", True): (
        "0x1.7c958255a5a09p-3", "0x1.6120e0ea087cbp-3",
        ("0x1.db4026015c9fep-1", "0x1.8200000000000p-1", "0x1.8200000000000p-1",
         "0x1.fe00000000000p-4", "0x1.fe00000000000p-4"),
        ("0x1.f6e70ec7d0819p-1", "0x1.4000000000000p+0", "0x1.4000000000000p+0",
         "-0x1.ffe0000000000p-4", "-0x1.ffe0000000000p-4")),
    ("cone-tent", True): (
        "0x1.9d860f50c93a9p-3", "0x1.a638bfe1b464ep-3",
        ("0x1.1fe238f818a8fp+0", "0x1.3e00000000000p+0", "0x1.0000000000000p+0",
         "-0x1.ef00000000000p-4", "0x0.0p+0"),
        ("0x1.e2837be740b31p-1", "0x1.fc00000000000p-1", "0x1.fc00000000000p-1",
         "0x1.0000000000000p-8", "0x1.0000000000000p-8")),
    ("cross-cone", True): (
        "0x1.ee584eaf2e44bp-3", "0x1.cb6bf9b74bc0dp-3",
        ("0x1.3ebf90212caacp-3", "0x1.4400000000000p+0", "0x1.7c00000000000p+0",
         "-0x1.0e00000000000p-3", "-0x1.ef00000000000p-3"),
        ("0x1.8db435716d2f0p+2", "0x1.7e00000000000p-1", "0x1.7e00000000000p-1",
         "0x1.0080000000000p-3", "0x1.0080000000000p-3")),
    ("tent-cone-off-center", True): (
        "0x1.7df123c52ee9dp-3", "0x1.620b916caef39p-3",
        ("0x1.d9728d4b63d5ap-1", "-0x1.8000000000000p-1", "0x1.8100000000000p-1",
         "0x1.b5a0000000000p-1", "0x1.b330000000000p-3"),
        ("0x1.f7102e14a504ap-1", "0x1.4000000000000p+0", "0x1.4000000000000p+0",
         "0x1.c2a0000000000p-5", "-0x1.e640000000000p-3")),
    ("tent-cross", False): (
        "0x1.3f999b3beabeap-2", "0x1.1ecddf263e000p-2",
        ("0x1.7261e190a1455p+2", "0x1.7800000000000p-1", "0x1.7800000000000p-1",
         "0x1.0800000000000p-3", "0x1.0800000000000p-3"),
        ("0x1.6394314773f01p-3", "0x1.8000000000000p+0", "0x1.8000000000000p+0",
         "-0x1.0020000000000p-2", "-0x1.ff80000000000p-3")),
    ("cross-tent", False): (
        "0x1.1bb3e88282f95p-2", "0x1.4f83e3df1f392p-2",
        ("0x1.4912442b79d94p-3", "0x1.bf00000000000p+0", "0x1.c000000000000p+0",
         "-0x1.7e60000000000p-2", "-0x1.8170000000000p-2"),
        ("0x1.40f1bdc27c529p+2", "0x1.0800000000000p-1", "0x1.0000000000000p-1",
         "0x1.f700000000000p-3", "0x1.0000000000000p-2")),
    ("tent-cone", False): (
        "0x1.7c958255a5a09p-3", "0x1.6120e0ea087cbp-3",
        ("0x1.db4026015c9fep-1", "0x1.8200000000000p-1", "0x1.8200000000000p-1",
         "0x1.fe00000000000p-4", "0x1.fe00000000000p-4"),
        ("0x1.f6e70ec7d0819p-1", "0x1.4000000000000p+0", "0x1.4000000000000p+0",
         "-0x1.ffe0000000000p-4", "-0x1.ffe0000000000p-4")),
    ("cone-tent", False): (
        "0x1.9d860f50c93a9p-3", "0x1.a638bfe1b464ep-3",
        ("0x1.1fe238f818a8fp+0", "0x1.3e00000000000p+0", "0x1.0000000000000p+0",
         "-0x1.ef00000000000p-4", "0x0.0p+0"),
        ("0x1.e2837be740b31p-1", "0x1.fc00000000000p-1", "0x1.fc00000000000p-1",
         "0x1.0000000000000p-8", "0x1.0000000000000p-8")),
    ("cross-cone", False): (
        "0x1.ee584eaf2e44bp-3", "0x1.cb6bf9b74bc0dp-3",
        ("0x1.3ebf90212caacp-3", "0x1.4400000000000p+0", "0x1.7c00000000000p+0",
         "-0x1.0e00000000000p-3", "-0x1.ef00000000000p-3"),
        ("0x1.8db435716d2f0p+2", "0x1.7e00000000000p-1", "0x1.7e00000000000p-1",
         "0x1.0080000000000p-3", "0x1.0080000000000p-3")),
    ("tent-cone-off-center", False): (
        "0x1.f051a02f221b3p-3", "0x1.620b916caef39p-3",
        ("0x1.0c8f0b01e218bp+0", "0x1.fc00000000000p-1", "0x1.8000000000000p-1",
         "-0x1.4100000000000p-3", "0x1.b300000000000p-3"),
        ("0x1.f7102e14a504ap-1", "0x1.4000000000000p+0", "0x1.4000000000000p+0",
         "0x1.c2a0000000000p-5", "-0x1.e640000000000p-3")),
    ("raster-cone", True): (
        "0x1.824681fe752a5p-2", "0x1.a163f05ac92f8p-2",
        ("0x1.b82533d194ca2p-3", "0x1.8080000000000p+0", "0x1.8000000000000p+0",
         "-0x1.fd40000000000p-3", "-0x1.05f0000000000p-2"),
        ("0x1.1598d2c6a4ef3p+2", "-0x1.7800000000000p-1", "0x1.7800000000000p-1",
         "0x1.bea0000000000p-1", "0x1.1580000000000p-3")),
    ("raster-cone", False): (
        "0x1.824681fe752a5p-2", "0x1.a12914cc8b25fp-2",
        ("0x1.b82533d194ca2p-3", "0x1.8080000000000p+0", "0x1.8000000000000p+0",
         "-0x1.fd40000000000p-3", "-0x1.05f0000000000p-2"),
        ("0x1.15a094626f15cp+2", "0x1.7800000000000p-1", "0x1.7800000000000p-1",
         "0x1.0800000000000p-3", "0x1.1400000000000p-3")),
}


@pytest.mark.parametrize("name, flips", list(GOLDEN_BITS), ids=str)
def test_golden_bits(name, flips):
    # Speed-ups of the search must not move a single bit of its result.
    cfg = replace(SEP_WORKLOAD, include_flips=flips)
    res = estimate_separation(*GOLDEN_PAIRS[name], cfg)
    got = (res.d_fg.hex(), res.d_gf.hex(), tuple(x.hex() for x in res.best_fg),
           tuple(x.hex() for x in res.best_gf))
    assert got == GOLDEN_BITS[name, flips]


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
