import numpy as np
import pytest
from hypothesis import given, strategies as st

from deformclass import (
    IDENTITY,
    AllZeroImage,
    DeformParams,
    GrayImage,
    InvalidParams,
    ResolutionTooSmall,
    cone,
    cross,
    discrete_l2_norm,
    normalize_l2,
    raster_interp,
    rasterize,
    reparametrize,
    shift_bounds,
    template_sum,
    tent,
)


class TestTemplates:
    def test_tent_peak_and_support(self):
        f = tent(0.25)
        assert f(0.5, 0.5) == pytest.approx(0.25)
        assert f(0.25, 0.5) == 0.0
        assert f(0.9, 0.9) == 0.0
        assert f(0.5, 0.4) == pytest.approx(0.15)

    def test_tent_l1_norm_analytic(self):
        # integral of (delta - |x| - |y|)_+ over the plane is 2 delta^3 / 3
        f = tent(0.2)
        assert f.l1_norm == pytest.approx(2 * 0.2**3 / 3)

    def test_tent_rejects_support_overflow(self):
        with pytest.raises(InvalidParams):
            tent(0.3)
        with pytest.raises(InvalidParams):
            tent(0.2, center=(0.7, 0.5))
        with pytest.raises(InvalidParams):
            tent(-0.1)

    def test_nan_parameters_rejected(self):
        nan = float("nan")
        for make in (lambda: tent(nan), lambda: cone(nan),
                     lambda: tent(0.2, center=(nan, 0.5)),
                     lambda: tent(0.2, center=(0.5, nan)),
                     lambda: cone(0.2, center=(nan, 0.5))):
            with pytest.raises(InvalidParams):
                make()

    def test_tent_boundary_tolerance(self):
        # 0.53 + 0.22 lands a hair above 0.75 in binary floats; the
        # constructor must not reject an exactly admissible shape for that.
        tent(0.22, center=(0.47, 0.53))

    def test_cone_values(self):
        f = cone(0.2)
        assert f(0.5, 0.5) == pytest.approx(0.2)
        assert f(0.5, 0.65) == pytest.approx(0.05)
        assert f(0.5, 0.71) == 0.0
        assert f.l1_norm == pytest.approx(np.pi * 0.2**3 / 3)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("make", [lambda: tent(1e-110),
                                      lambda: cone(1e-200),
                                      lambda: cross(1e-320)])
    def test_underflowing_mass_rejected(self, make):
        # The l1 mass underflows to 0; dividing by it used to raise
        # ZeroDivisionError.
        with pytest.raises(InvalidParams, match="l1 mass 0.0"):
            make()

    def test_cross_shape(self):
        f = cross(0.0625, 0.0625)
        assert f(0.5, 0.5) == pytest.approx(1.0)
        # full bar height on-axis until the tip ramp starts at 0.25 - taper
        assert f(0.5, 0.35) == pytest.approx(1.0)
        assert f(0.5, 0.3) == pytest.approx(0.8)
        assert f(0.3, 0.3) == 0.0
        with pytest.raises(InvalidParams):
            cross(0.3, 0.1)

    def test_templates_vanish_outside_unit_square(self):
        for f in (tent(0.25), cone(0.2), cross(0.1, 0.1)):
            pts = np.array([-0.5, -0.1, 1.1, 2.0])
            assert np.all(f(pts, pts) == 0.0)

    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_tent_normalized_lipschitz(self, x0, y0, x1, y1):
        f = tent(0.25)
        lhs = abs(float(f(x0, y0)) - float(f(x1, y1)))
        rhs = f.lipschitz_const * f.l1_norm * (abs(x0 - x1) + abs(y0 - y1))
        assert lhs <= rhs + 1e-12

    def test_template_sum_accumulates_mass(self):
        f = tent(0.2)
        g = cone(0.15)
        s = template_sum([f, g])
        assert s.l1_norm == pytest.approx(f.l1_norm + g.l1_norm)
        assert float(s(0.5, 0.5)) == pytest.approx(0.35)
        with pytest.raises(InvalidParams):
            template_sum([])

    def test_reparametrize_scales_arguments(self):
        f = tent(0.25)
        g = reparametrize(f, 2.0, 2.0, 0.5, 1.0, 0.0)
        # g(x, y) = 2 f(2x + 1/2, y): peak moves to x = 0
        assert float(g(0.0, 0.5)) == pytest.approx(0.5)
        assert g.l1_norm == pytest.approx(2.0 * f.l1_norm / 2.0)
        with pytest.raises(InvalidParams):
            reparametrize(f, 0.0, 1.0, 0.0, 1.0, 0.0)
        with pytest.raises(InvalidParams):
            reparametrize(f, 1.0, 0.0, 0.0, 1.0, 0.0)


AXIS_TEMPLATES = {
    "tent": tent(0.25),
    "cone": cone(0.22),
    "cross": cross(0.25, 0.08),
    "raster_interp": raster_interp(np.arange(20.0).reshape(4, 5)),
    "template_sum": template_sum([tent(0.2), cone(0.15)]),
    "reparametrize": reparametrize(cross(0.2, 0.05), 1.5, -1.25, 1.1, 0.8, 0.1),
}


@pytest.mark.parametrize("name", sorted(AXIS_TEMPLATES))
def test_axis_vectors_match_meshgrid(name):
    # Callers evaluate templates on an (n, 1) x and a (1, m) y.
    f = AXIS_TEMPLATES[name]
    x = np.linspace(-0.1, 1.1, 37)
    y = np.linspace(0.0, 1.0, 23)
    gx, gy = np.meshgrid(x, y, indexing="ij")
    grid = f(x[:, None], y[None, :])
    assert grid.shape == (37, 23)
    assert np.array_equal(grid, f(gx, gy))
    assert grid.any()


class TestRasterInterp:
    def test_nodes_reproduced(self):
        g = np.zeros((5, 5))
        g[2, 2] = 1.0
        f = raster_interp(g)
        # node (2,2) sits at the box center
        assert float(f(0.5, 0.5)) == pytest.approx(1.0)
        assert float(f(0.5, 0.5 + 0.0625)) == pytest.approx(0.5)
        assert float(f(0.2, 0.5)) == 0.0

    def test_outer_ring_zeroed(self):
        g = np.ones((4, 4))
        f = raster_interp(g)
        assert float(f(0.25, 0.25)) == 0.0
        assert float(f(0.75, 0.75)) == 0.0

    def test_rejects_bad_grids(self):
        with pytest.raises(InvalidParams):
            raster_interp(np.ones((1, 5)))
        with pytest.raises(InvalidParams):
            raster_interp(-np.ones((4, 4)))
        with pytest.raises(InvalidParams, match="l1 mass"):
            raster_interp(np.zeros((4, 4)))


class TestShiftBounds:
    def test_reference_intervals(self):
        assert shift_bounds(1.0) == pytest.approx((-0.25, 0.25))
        assert shift_bounds(2.0) == pytest.approx((-0.25, 1.25))
        assert shift_bounds(-1.0) == pytest.approx((-1.25, -0.75))
        assert shift_bounds(0.5) == pytest.approx((-0.25, -0.25))

    @given(st.floats(0.5, 4.0), st.floats(0.0, 1.0))
    def test_admissible_shift_keeps_support_visible(self, scale, frac):
        lo, hi = shift_bounds(scale)
        tau = lo + frac * (hi - lo)
        # every support point x in [1/4, 3/4] must be hit by some grid
        # argument scale * t - tau with t in (0, 1]
        for x in (0.25, 0.5, 0.75):
            t = (x + tau) / scale
            assert 0.0 <= t <= 1.0 + 1e-12


class TestDeformParams:
    def test_validate_accepts_identity(self):
        IDENTITY.validate()

    def test_scale_floor(self):
        with pytest.raises(InvalidParams):
            DeformParams(eta=1.0, xi=0.4, xi_prime=1.0, tau=-0.25, tau_prime=0.0).validate()
        with pytest.raises(InvalidParams):
            DeformParams(eta=0.0, xi=1.0, xi_prime=1.0, tau=0.0, tau_prime=0.0).validate()

    def test_negative_scale_needs_flips(self):
        p = DeformParams(eta=1.0, xi=-1.0, xi_prime=1.0, tau=-1.0, tau_prime=0.0)
        with pytest.raises(InvalidParams):
            p.validate()
        DeformParams(eta=1.0, xi=-1.0, xi_prime=1.0, tau=-1.0, tau_prime=0.0,
                     allow_flips=True).validate()

    def test_shift_outside_interval(self):
        with pytest.raises(InvalidParams):
            DeformParams(eta=1.0, xi=1.0, xi_prime=1.0, tau=0.3, tau_prime=0.0).validate()


class TestGrayImage:
    def test_square_only(self):
        with pytest.raises(InvalidParams):
            GrayImage(np.zeros((2, 3)))
        with pytest.raises(InvalidParams):
            GrayImage(np.zeros(4))

    def test_single_pixel_allowed(self):
        img = GrayImage(np.array([[0.5]]))
        assert img.d == 1

    def test_pixels_frozen(self):
        img = GrayImage(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1.0

    def test_support_mask(self):
        img = GrayImage(np.array([[0.0, 0.2], [0.1, 0.0]]))
        assert img.support_mask().sum() == 2


class TestRasterize:
    def test_minimum_resolution(self, tent_template, identity_params):
        with pytest.raises(ResolutionTooSmall):
            rasterize(tent_template, identity_params, 3)

    def test_pixel_formula(self, tent_template):
        p = DeformParams(eta=2.0, xi=1.0, xi_prime=1.0, tau=0.0, tau_prime=0.0)
        img = rasterize(tent_template, p, 16)
        j, l = 8, 8
        expected = 2.0 * float(tent_template(j / 16, l / 16))
        assert img.pixels[j - 1, l - 1] == pytest.approx(expected)

    def test_enlarged_object_with_admissible_shift(self, tent_template):
        # scale 2 with shift 1/2 keeps the support inside the frame
        p = DeformParams(eta=1.0, xi=2.0, xi_prime=2.0, tau=0.5, tau_prime=0.5)
        img = rasterize(tent_template, p, 16)
        assert img.pixels.max() > 0
        j = np.arange(1, 17) / 16
        x, y = np.meshgrid(2 * j - 0.5, 2 * j - 0.5, indexing="ij")
        assert np.array_equal(img.pixels, tent_template(x, y))

    @given(st.floats(0.25, 2.0))
    def test_amplitude_linearity(self, eta):
        f = tent(0.25)
        p = DeformParams(eta=eta, xi=1.0, xi_prime=1.0, tau=0.0, tau_prime=0.0)
        base = rasterize(f, IDENTITY, 16).pixels
        assert np.allclose(rasterize(f, p, 16).pixels, eta * base, rtol=0, atol=1e-15)

    def test_grid_shift_translates_pixels(self, tent_template):
        d = 32
        k = 3
        p = DeformParams(eta=1.0, xi=1.0, xi_prime=1.0, tau=k / d, tau_prime=0.0)
        shifted = rasterize(tent_template, p, d).pixels
        base = rasterize(tent_template, IDENTITY, d).pixels
        # argument xi*j/d - k/d = (j - k)/d, so row j of the shift equals
        # row j - k of the identity raster
        assert np.array_equal(shifted[k:], base[:-k])


class TestNorms:
    def test_normalize_l2_unit_norm(self, tent_template, identity_params):
        img = rasterize(tent_template, identity_params, 16)
        out = normalize_l2(img)
        assert np.linalg.norm(out.pixels) == pytest.approx(1.0, abs=1e-12)

    def test_normalize_l2_zero_image(self):
        with pytest.raises(AllZeroImage):
            normalize_l2(GrayImage(np.zeros((4, 4))))

    def test_discrete_l2_norm_constant_grid(self):
        assert discrete_l2_norm(np.full((8, 8), 3.0)) == pytest.approx(3.0)
        with pytest.raises(InvalidParams):
            discrete_l2_norm(np.zeros((2, 3)))

    def test_discrete_l2_norm_converges_to_continuous(self, tent_template):
        # ||tent(delta)||_2^2 = integral of (delta-|x|-|y|)_+^2 = delta^4/3
        target = np.sqrt(0.25**4 / 3)
        vals = []
        for d in (64, 256):
            img = rasterize(tent_template, IDENTITY, d)
            vals.append(abs(discrete_l2_norm(img.pixels) - target))
        assert vals[1] < vals[0]
        assert vals[1] < 1e-3
