import numpy as np
import pytest

from deformclass import (
    AlignedRep,
    DeformParams,
    EmptyGallery,
    EmptySupport,
    GrayImage,
    InvalidParams,
    ResolutionMismatch,
    align_transform,
    build_gallery,
    classify_1nn,
    rasterize,
    rect_support,
    resample_box,
    tent,
)


def _image(rows):
    return GrayImage(np.array(rows, dtype=float))


class TestRectSupport:
    def test_known_box(self):
        img = _image([
            [0, 0, 0, 0],
            [0, 1, 2, 0],
            [0, 0, 3, 0],
            [0, 0, 0, 0],
        ])
        r = rect_support(img)
        assert (r.j_lo, r.j_hi, r.l_lo, r.l_hi) == (2, 3, 2, 3)
        assert r.spans() == (1, 1)

    def test_empty_support(self):
        with pytest.raises(EmptySupport):
            rect_support(_image([[0, 0], [0, 0]]))


class TestResampleBox:
    def test_identity_when_m_matches_span(self):
        img = _image([
            [0, 0, 0, 0],
            [0, 1, 2, 0],
            [0, 4, 3, 0],
            [0, 0, 0, 0],
        ])
        r = rect_support(img)
        out = resample_box(img, r, 2)
        assert np.array_equal(out, [[1, 2], [4, 3]])

    def test_upsample_repeats_pixels(self):
        img = _image([
            [0, 0, 0, 0],
            [0, 1, 2, 0],
            [0, 4, 3, 0],
            [0, 0, 0, 0],
        ])
        out = resample_box(img, rect_support(img), 4)
        # every output pixel must be one of the four source values
        assert set(np.unique(out)) <= {1.0, 2.0, 3.0, 4.0}
        assert out[0, 0] == 1 and out[-1, -1] == 3

    def test_m_floor(self):
        img = _image([[1]])
        with pytest.raises(InvalidParams):
            resample_box(img, rect_support(img), 1)


class TestAlignTransform:
    def test_unit_norm(self, tent_template):
        p = DeformParams(eta=1.3, xi=1.2, xi_prime=1.0, tau=0.1, tau_prime=0.0)
        rep = align_transform(rasterize(tent_template, p, 32))
        assert np.linalg.norm(rep.grid) == pytest.approx(1.0, abs=1e-12)
        assert rep.m == 32

    def test_brightness_invariance_exact(self, tent_template):
        d = 32
        p1 = DeformParams(eta=0.7, xi=1.0, xi_prime=1.0, tau=0.0, tau_prime=0.0)
        p2 = DeformParams(eta=1.4, xi=1.0, xi_prime=1.0, tau=0.0, tau_prime=0.0)
        a = align_transform(rasterize(tent_template, p1, d))
        b = align_transform(rasterize(tent_template, p2, d))
        assert np.array_equal(a.grid, b.grid)

    def test_grid_shift_invariance_exact(self, tent_template):
        d = 32
        p1 = DeformParams(eta=1.0, xi=1.0, xi_prime=1.0, tau=0.0, tau_prime=0.0)
        p2 = DeformParams(eta=1.0, xi=1.0, xi_prime=1.0, tau=4 / d, tau_prime=2 / d)
        a = align_transform(rasterize(tent_template, p1, d))
        b = align_transform(rasterize(tent_template, p2, d))
        assert np.array_equal(a.grid, b.grid)

    def test_scale_approximate_invariance(self, tent_template):
        d = 128
        p1 = DeformParams(eta=1.0, xi=1.0, xi_prime=1.0, tau=0.0, tau_prime=0.0)
        p2 = DeformParams(eta=1.0, xi=1.5, xi_prime=1.5, tau=0.4, tau_prime=0.4)
        a = align_transform(rasterize(tent_template, p1, d), m=64)
        b = align_transform(rasterize(tent_template, p2, d), m=64)
        assert np.linalg.norm(a.grid - b.grid) < 0.1


class TestClassify1nn:
    def _gallery(self, d=32):
        f0 = tent(0.25)
        f1 = tent(0.15, center=(0.45, 0.55))
        imgs, labels = [], []
        for label, f in ((0, f0), (1, f1)):
            p = DeformParams(eta=1.0, xi=1.0, xi_prime=1.0, tau=0.0, tau_prime=0.0)
            imgs.append(rasterize(f, p, d))
            labels.append(label)
        return build_gallery(imgs, labels), f0, f1

    def test_recovers_generating_class(self):
        gallery, f0, f1 = self._gallery()
        p = DeformParams(eta=1.6, xi=1.0, xi_prime=1.0, tau=0.125, tau_prime=0.0)
        query = align_transform(rasterize(f0, p, 32))
        label, idx, dist, orient = classify_1nn(gallery, query)
        assert orient == 0
        assert label == 0
        assert idx == 0
        assert dist == pytest.approx(0.0, abs=1e-12)

    def test_empty_gallery(self):
        rep = align_transform(rasterize(tent(0.25), DeformParams(
            eta=1.0, xi=1.0, xi_prime=1.0, tau=0.0, tau_prime=0.0), 16))
        with pytest.raises(EmptyGallery):
            classify_1nn([], rep)

    def test_size_mismatch(self):
        gallery, f0, _ = self._gallery()
        query = align_transform(rasterize(f0, DeformParams(
            eta=1.0, xi=1.0, xi_prime=1.0, tau=0.0, tau_prime=0.0), 32), m=16)
        for flips in (False, True):
            with pytest.raises(ResolutionMismatch):
                classify_1nn(gallery, query, flips)

    def test_tie_goes_to_first_entry(self):
        grid = np.zeros((4, 4))
        grid[1, 1] = 1.0
        rep = align_transform(GrayImage(grid), m=2)
        gallery = [(rep, 0), (rep, 1)]
        for flips in (False, True):
            label, idx, dist, orient = classify_1nn(gallery, rep, flips)
            assert (label, idx, orient) == (0, 0, 0)

    def test_each_axis_reversal_is_found(self):
        grid = np.arange(16, dtype=float).reshape(4, 4)
        rep = AlignedRep(grid=grid / np.linalg.norm(grid), m=4)
        gallery = [(AlignedRep(grid=np.ones((4, 4)) / 4, m=4), 0), (rep, 1)]
        variants = [grid, grid[::-1, :], grid[:, ::-1], grid[::-1, ::-1]]
        for r, variant in enumerate(variants):
            query = AlignedRep(grid=variant / np.linalg.norm(variant), m=4)
            assert classify_1nn(gallery, query, flips=True) == (1, 1, 0.0, r)

    def test_flip_aware_variant(self):
        d = 32
        # two unequal bumps make the template genuinely flip-asymmetric
        from deformclass import template_sum

        f = template_sum([tent(0.12, center=(0.4, 0.5)),
                          tent(0.06, center=(0.65, 0.5))])
        p_id = DeformParams(eta=1.0, xi=1.0, xi_prime=1.0, tau=0.0, tau_prime=0.0)
        gallery = build_gallery([rasterize(f, p_id, d)], [0])
        flipped = DeformParams(eta=1.0, xi=-1.0, xi_prime=1.0, tau=-1.0,
                               tau_prime=0.0, allow_flips=True)
        img = rasterize(f, flipped, d)
        label, idx, dist, orient = classify_1nn(gallery, align_transform(img),
                                                flips=True)
        assert label == 0
        assert orient > 0
        # a negative scale shifts the sample lattice by one pixel, so the
        # match is close but not bit-exact
        assert dist < 0.03
        _, _, plain_dist, _ = classify_1nn(gallery, align_transform(img))
        assert plain_dist > dist

    def test_build_gallery_validates_lengths(self):
        with pytest.raises(InvalidParams):
            build_gallery([GrayImage(np.ones((4, 4)))], [0, 1])
