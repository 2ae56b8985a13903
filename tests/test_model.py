import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deformclass import (
    ConfigError,
    Dataset,
    DeformDistribution,
    DeformParams,
    GrayImage,
    IDENTITY,
    LabeledImage,
    NumericError,
    align_images,
    cone,
    cross,
    normalize_l2,
    raster_interp,
    rasterize,
    rasterize_batch,
    sample_params,
    shift_bounds,
    tent,
    unit_arrays,
)
from deformclass.model import _estimate_l1, support_canvas
from oracles import discrete_l2_norm, reparametrize, template_sum


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6),
                          st.sampled_from([1.0, -0.5, np.nan])),
                max_size=6),
       st.integers(1, 7), st.integers(0, 3))
def test_support_canvas_matches_flatnonzero(pixels, side, pad):
    # negative and NaN pixels count as support; -0.0 does not
    x = np.zeros((3, side, side + 1))
    x[2, 0, 0] = -0.0
    for r, c, v in pixels:
        x[1, r % side, c % (side + 1)] = v
    crops = []
    for img in x:
        rows = np.flatnonzero((img != 0).any(axis=1))
        cols = np.flatnonzero((img != 0).any(axis=0))
        crops.append(img[rows[0]: rows[-1] + 1, cols[0]: cols[-1] + 1]
                     if rows.size else np.zeros((0, 0)))
    canvas = support_canvas(x, pad)
    height = max(crop.shape[0] for crop in crops)
    width = max(crop.shape[1] for crop in crops)
    assert canvas.shape == (3, height + 2 * pad, width + 2 * pad)
    for crop, framed in zip(crops, canvas):
        h, w = crop.shape
        assert np.array_equal(framed[pad: pad + h, pad: pad + w], crop,
                              equal_nan=True)
        framed[pad: pad + h, pad: pad + w] = 0.0
        assert not framed.any()


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
        with pytest.raises(ConfigError, match="delta 0.3\\) leaves the box"):
            tent(0.3)
        with pytest.raises(ConfigError, match="center \\(0.7, 0.5\\).* leaves the box"):
            tent(0.2, cx=0.7, cy=0.5)
        with pytest.raises(ConfigError, match="tent needs delta > 0, got -0.1"):
            tent(-0.1)

    def test_nan_parameters_rejected(self):
        nan = float("nan")
        box = "leaves the box"
        for make, match in ((lambda: tent(nan), "tent needs delta > 0, got nan"),
                            (lambda: cone(nan), "cone needs radius > 0, got nan"),
                            (lambda: tent(0.2, cx=nan, cy=0.5), box),
                            (lambda: tent(0.2, cx=0.5, cy=nan), box),
                            (lambda: cone(0.2, cx=nan, cy=0.5), box)):
            with pytest.raises(ConfigError, match=match):
                make()

    def test_tent_boundary_tolerance(self):
        # 0.53 + 0.22 lands a hair above 0.75 in binary floats; the
        # constructor must not reject an exactly admissible shape for that.
        tent(0.22, cx=0.47, cy=0.53)

    def test_cone_values(self):
        f = cone(0.2)
        assert f(0.5, 0.5) == pytest.approx(0.2)
        assert f(0.5, 0.65) == pytest.approx(0.05)
        assert f(0.5, 0.71) == 0.0
        assert f.l1_norm == pytest.approx(np.pi * 0.2**3 / 3)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("make, match", [
        pytest.param(lambda: tent(1e-110), "l1 mass 0.0", id="<lambda>0"),
        pytest.param(lambda: cone(1e-200), "l1 mass 0.0", id="<lambda>1"),
        pytest.param(lambda: cross(1e-320), "Lipschitz constant inf",
                     id="<lambda>2"),
        pytest.param(lambda: cross(1e-320, 0.25), "Lipschitz constant inf",
                     id="<lambda>3")])
    def test_underflowing_mass_rejected(self, make, match):
        # The l1 mass underflows to 0; dividing by it used to raise
        # ZeroDivisionError.  The subnormal cross keeps a positive exact
        # mass, but its raw slope 1/w overflows.
        with pytest.raises(ConfigError, match=match):
            make()

    @pytest.mark.parametrize("w", [1e-4, 5e-4, 0.0625])
    def test_cross_mass_closed_form(self, w):
        # two bars of mass (1/2 - taper) w, less the min of two triangles
        # on the central square
        f = cross(w, 0.08)
        assert f.l1_norm == pytest.approx(2 * (0.5 - 0.08) * w - 4 * w * w / 3,
                                          rel=1e-12)
        assert f.lipschitz_const == pytest.approx((1 / w) / f.l1_norm, rel=1e-12)

    @pytest.mark.parametrize("w, taper", [(0.25, 0.08), (0.2, 0.1), (0.25, 0.25)])
    def test_cross_mass_with_tapered_overlap(self, w, taper):
        # w + taper > 1/4: the tip ramps reach the central square, and the
        # overlap is integrated there; check against the whole-square rule
        f = cross(w, taper)
        assert f.l1_norm == pytest.approx(_estimate_l1(f, 2048), rel=1e-5)

    @pytest.mark.parametrize("w, taper", [(0.25, 0.08), (0.2, 0.07), (0.15, 0.1),
                                          (0.0625, 0.25), (0.1, 0.2), (0.25, 0.25)])
    def test_cross_mass_tapered_closed_form(self, w, taper):
        # With u = |x - 1/2| <= v = |y - 1/2| on the central square, the
        # larger bar is A(v) T(u) and the smaller A(u) T(v); check that
        # pointwise, then integrate 8 A(u) T(v) over 0 <= u <= v <= w piece
        # by piece with polynomials split at the ramp start c <= w.
        from numpy.polynomial import Polynomial as Poly
        f = cross(w, taper)
        c = 0.25 - taper

        def along(t):
            return np.minimum(1.0, (0.25 - t) / taper)

        t = np.linspace(0.0, w, 129)
        u, v = t[:, None], t[None, :]
        upper = u <= v
        assert np.allclose(f(0.5 + u, 0.5 + v)[upper],
                           (along(v) * (1.0 - u / w))[upper], rtol=0, atol=1e-12)

        tri = Poly([1.0, -1.0 / w])
        inner_flat = Poly([0.0, 1.0])                    # int_0^v A, v <= c
        inner_ramp = (Poly([0.25, -1.0]) / taper).integ(lbnd=c) + c  # v > c
        outer = ((tri * inner_flat).integ(lbnd=0.0)(c)
                 + (tri * inner_ramp).integ(lbnd=c)(w))
        want = 2.0 * (0.5 - taper) * w - 8.0 * outer
        assert f.l1_norm == pytest.approx(want, rel=1e-12)

    def test_cross_shape(self):
        f = cross(0.0625, 0.0625)
        assert f(0.5, 0.5) == pytest.approx(1.0)
        # full bar height on-axis until the tip ramp starts at 0.25 - taper
        assert f(0.5, 0.35) == pytest.approx(1.0)
        assert f(0.5, 0.3) == pytest.approx(0.8)
        assert f(0.3, 0.3) == 0.0
        with pytest.raises(ConfigError, match="arm and taper in"):
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
        with pytest.raises(ConfigError, match="needs at least one part"):
            template_sum([])

    def test_reparametrize_scales_arguments(self):
        f = tent(0.25)
        g = reparametrize(f, 2.0, 2.0, 0.5, 1.0, 0.0)
        # g(x, y) = 2 f(2x + 1/2, y): peak moves to x = 0
        assert float(g(0.0, 0.5)) == pytest.approx(0.5)
        assert g.l1_norm == pytest.approx(2.0 * f.l1_norm / 2.0)
        for args in ((0.0, 1.0, 0.0, 1.0, 0.0), (1.0, 0.0, 0.0, 1.0, 0.0)):
            with pytest.raises(ConfigError, match="amplitude > 0 and nonzero"):
                reparametrize(f, *args)


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
        with pytest.raises(ConfigError, match="at least 2x2, got \\(1, 5\\)"):
            raster_interp(np.ones((1, 5)))
        with pytest.raises(ConfigError, match="values must be nonnegative"):
            raster_interp(-np.ones((4, 4)))
        with pytest.raises(ConfigError, match="l1 mass"):
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
        DeformParams(**vars(IDENTITY))

    def test_scale_floor(self):
        with pytest.raises(ConfigError, match=r"\|xi\| must be >= 1/2, got 0.4"):
            DeformParams(eta=1.0, xi=0.4, xi_prime=1.0, tau=-0.25, tau_prime=0.0)
        with pytest.raises(ConfigError, match="amplitude must be positive"):
            DeformParams(eta=0.0, xi=1.0, xi_prime=1.0, tau=0.0, tau_prime=0.0)

    def test_negative_scale_floor(self):
        # one rule for either sign: |scale| >= 1/2
        DeformParams(eta=1.0, xi=-1.0, xi_prime=1.0, tau=-1.0, tau_prime=0.0)
        DeformParams(eta=1.0, xi=1.0, xi_prime=-0.5, tau=0.0,
                     tau_prime=-0.75)
        with pytest.raises(ConfigError, match=r"\|xi\| must be >= 1/2"):
            DeformParams(eta=1.0, xi=-0.4, xi_prime=1.0, tau=-0.65,
                         tau_prime=0.0)

    def test_shift_outside_interval(self):
        with pytest.raises(ConfigError, match="tau=0.3 outside admissible"):
            DeformParams(eta=1.0, xi=1.0, xi_prime=1.0, tau=0.3, tau_prime=0.0)

    @pytest.mark.parametrize("field", ["eta", "xi", "xi_prime", "tau", "tau_prime"])
    def test_non_finite_field(self, field):
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ConfigError,
                               match="deformation parameters must be finite"):
                DeformParams(**{**vars(IDENTITY), field: value})


class TestGrayImage:
    def test_square_only(self):
        with pytest.raises(ConfigError, match=r"image must be square with side >= 1, "
                                              r"got shape \(2, 3\)"):
            GrayImage(np.zeros((2, 3)))
        with pytest.raises(ConfigError, match=r"image must be square with side >= 1, "
                                              r"got shape \(4,\)"):
            GrayImage(np.zeros(4))

    def test_single_pixel_allowed(self):
        img = GrayImage(np.array([[0.5]]))
        assert img.d == 1
        with pytest.raises(ConfigError, match=r"image must be square with side >= 1, "
                                              r"got shape \(0, 0\)"):
            GrayImage(np.zeros((0, 0)))

    def test_pixels_frozen(self):
        img = GrayImage(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1.0

    def test_read_only_float_grid_is_kept_without_copy(self):
        px = np.arange(9.0).reshape(3, 3)
        px.flags.writeable = False
        assert np.shares_memory(GrayImage(px).pixels, px)

    def test_writeable_grid_is_copied(self):
        px = np.ones((3, 3))
        img = GrayImage(px)
        px[0, 0] = 5.0
        assert not np.shares_memory(img.pixels, px)
        assert img.pixels[0, 0] == 1.0

    def test_support_mask(self):
        img = GrayImage(np.array([[0.0, 0.2], [0.1, 0.0]]))
        assert img.support_mask().sum() == 2


class TestRasterize:
    @pytest.mark.parametrize("template", [tent(0.25), cross(0.25, 0.08)],
                             ids=["tent", "cross"])
    def test_batch_images_are_views_of_one_frozen_block(self, template):
        q = DeformDistribution(eta_range=(0.8, 1.2), xi_range=(1.0, 1.5),
                               flip_prob=0.5, seed=3)
        params = [sample_params(q, i) for i in range(10)]
        images = rasterize_batch(template, params, 16)
        block = images[0].pixels.base
        assert block is not None and not block.flags.writeable
        assert all(img.pixels.base is block for img in images)
        for img, p in zip(images, params):
            assert np.array_equal(img.pixels, rasterize(template, p, 16).pixels)
    def test_minimum_resolution(self, tent_template, identity_params):
        with pytest.raises(ConfigError, match="resolution 3 below minimum 4"):
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

    def test_normalize_l2_keeps_its_quotient(self, tent_template,
                                             identity_params):
        # the unit grid is computed once and frozen, not copied again
        img = rasterize(tent_template, identity_params, 256)
        tracemalloc.start()
        try:
            out = normalize_l2(img)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * img.pixels.nbytes
        assert not out.pixels.flags.writeable

    def test_normalize_l2_zero_image(self):
        with pytest.raises(NumericError,
                           match="cannot normalize the 4 x 4 image: it is all zero"):
            normalize_l2(GrayImage(np.zeros((4, 4))))

    def test_normalize_l2_non_finite_image(self, tent_template, identity_params):
        with pytest.raises(NumericError, match="16 x 16 image has norm nan"):
            normalize_l2(GrayImage(np.full((16, 16), np.nan)))
        px = rasterize(tent_template, identity_params, 16).pixels.copy()
        px[3, 3] = np.inf
        with pytest.raises(NumericError, match="16 x 16 image has norm inf"):
            normalize_l2(GrayImage(px))

    @settings(derandomize=True, max_examples=100)
    @given(st.integers(2, 5), st.integers(1, 5), st.data(),
           st.sampled_from(["nan", "inf", "zero"]), st.integers(0, 2**32 - 1))
    def test_first_bad_grid_is_named_in_one_form(self, d, n, data, kind, seed):
        """unit_arrays, normalize_l2 and align_images (at m = d) name the one
        bad grid of a stack in one message form; for align_images an image
        with no positive pixel, before or after it, is named if it comes
        first."""
        rng = np.random.default_rng(seed)
        grids = list(rng.uniform(0.5, 2.0, (n, d, d)))
        bad = data.draw(st.integers(0, n - 1), label="bad")
        if kind == "zero":
            grids[bad] = np.zeros((d, d))
        else:
            grids[bad][tuple(rng.integers(0, d, 2))] = float(kind)
        empty = data.draw(st.none() | st.integers(0, n), label="empty")
        if empty is not None:
            grids.insert(empty, -rng.uniform(0.5, 2.0, (d, d)))
            bad += empty <= bad
        images = [GrayImage(g) for g in grids]

        def form(what):
            if kind == "zero":
                return f"cannot normalize {what}: it is all zero"
            return f"{what} has norm {kind}; "

        def message(call):
            with pytest.raises(NumericError) as exc:
                call()
            return str(exc.value)

        data_set = Dataset(tuple(LabeledImage(img, 0, IDENTITY)
                                 for img in images))
        assert message(lambda: unit_arrays(data_set)).startswith(
            form(f"image {bad}"))
        for img in images[:bad]:
            normalize_l2(img)
        assert message(lambda: normalize_l2(images[bad])).startswith(
            form(f"the {d} x {d} image"))
        empties = [i for i, g in enumerate(grids) if not (g > 0).any()]
        if empties and empties[0] <= bad:
            expected = f"image {empties[0]}: no pixel is positive"
        else:
            expected = form(f"the resampled grid of image {bad}")
        assert message(lambda: align_images(images, d)).startswith(expected)

    def test_discrete_l2_norm_constant_grid(self):
        assert discrete_l2_norm(np.full((8, 8), 3.0)) == pytest.approx(3.0)
        with pytest.raises(ConfigError, match="grid must be square"):
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
