from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from deformclass import (
    AlignedRep,
    ConfigError,
    DeformClassError,
    DeformDistribution,
    DeformParams,
    GrayImage,
    IDENTITY,
    NumericError,
    align_images,
    build_gallery,
    classify_1nn,
    generate_dataset,
    rasterize,
    tent,
)
from deformclass.align import _oriented_variants, _stack_gallery
from deformclass.model import IMAGE_BLOCK, MAX_RESOLUTION


# Oracle: the one-image alignment that ``align_images`` vectorizes.

def rect_support_oracle(img, index=0):
    """Bounding box (1-based, inclusive) of the positive pixels of the image
    at list index ``index``."""
    mask = img.support_mask()
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if rows.size == 0:
        raise NumericError(f"image {index}: no pixel is positive")
    return (int(rows[0]) + 1, int(rows[-1]) + 1, int(cols[0]) + 1,
            int(cols[-1]) + 1)


def resample_box_oracle(img, box, m):
    """Sample a of axis j reads pixel floor(j_lo + (a/(m-1)) * (j_hi - j_lo)),
    clamped to [1, d]."""
    if m < 2:
        raise ConfigError(f"resample grid needs m >= 2, got {m}")
    j_lo, j_hi, l_lo, l_hi = box
    d = img.d
    a = np.arange(m)
    j_idx = (j_lo * (m - 1) + a * (j_hi - j_lo)) // (m - 1)
    l_idx = (l_lo * (m - 1) + a * (l_hi - l_lo)) // (m - 1)
    j_idx = np.clip(j_idx, 1, d) - 1
    l_idx = np.clip(l_idx, 1, d) - 1
    return img.pixels[np.ix_(j_idx, l_idx)].copy()


def align_transform_oracle(img, m=None, index=0):
    if m is None:
        m = img.d
    z = resample_box_oracle(img, rect_support_oracle(img, index), m)
    norm = float(np.linalg.norm(z))
    if norm == 0.0:
        raise NumericError(f"cannot normalize the resampled grid of image "
                           f"{index}: it is all zero")
    return AlignedRep(grid=z / norm)


def classify_1nn_loop(gallery, query, flips=False):
    """Reference: the one-query loop over orientations that ``classify_1nn``
    batches and screens."""
    grids, labels, m = _stack_gallery(gallery)
    if query.m != m:
        raise ConfigError(f"query grid size {query.m} != gallery {m}")
    variants = _oriented_variants(query.grid) if flips else [query.grid]
    candidates = []
    for r, variant in enumerate(variants):
        diffs = grids - variant.reshape(-1)
        dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs)) / m
        idx = int(np.argmin(dists))  # argmin takes the first minimum
        candidates.append((float(dists[idx]), idx, r))
    dist, idx, r = min(candidates)
    return int(labels[idx]), idx, dist, r


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
        # m = 2 samples exactly the corners of the box rows 2..3, cols 2..3.
        crop = np.array([[1.0, 2.0], [0.0, 3.0]])
        assert np.array_equal(align_images([img], m=2)[0].grid,
                              crop / np.linalg.norm(crop))

    def test_empty_support(self):
        with pytest.raises(NumericError, match="no pixel is positive"):
            align_images([_image([[0, 0], [0, 0]])])
        with pytest.raises(NumericError, match="no pixel is positive"):
            align_images([_image([[0, -1], [0, 0]])])


class TestResampleBox:
    def test_identity_when_m_matches_span(self):
        img = _image([
            [0, 0, 0, 0],
            [0, 1, 2, 0],
            [0, 4, 3, 0],
            [0, 0, 0, 0],
        ])
        crop = np.array([[1.0, 2.0], [4.0, 3.0]])
        assert np.array_equal(align_images([img], 2)[0].grid,
                              crop / np.linalg.norm(crop))

    def test_upsample_repeats_pixels(self):
        img = _image([
            [0, 0, 0, 0],
            [0, 1, 2, 0],
            [0, 4, 3, 0],
            [0, 0, 0, 0],
        ])
        grid = align_images([img], 4)[0].grid
        # every output pixel is one of the four source values over one norm
        out = grid / grid[0, 0]
        assert set(np.round(np.unique(out), 12)) == {1.0, 2.0, 3.0, 4.0}
        assert out[-1, -1] == pytest.approx(3.0)

    def test_m_floor(self):
        img = _image([[1]])
        with pytest.raises(ConfigError, match="m >= 2"):
            align_images([img], 1)
        with pytest.raises(ConfigError, match="m >= 2"):
            align_images([_image([[0, 0], [0, 1]])], m=1)

    def test_m_cap(self):
        img = _image([[0, 0], [0, 1]])
        # 10^12 would need terabytes: it is refused before any allocation.
        for m in (MAX_RESOLUTION + 1, 10**12):
            with pytest.raises(ConfigError, match=f"m <= 4096, got {m}"):
                align_images([img], m=m)


class TestAlignTransform:
    def test_unit_norm(self, tent_template):
        p = DeformParams(eta=1.3, xi=1.2, xi_prime=1.0, tau=0.1, tau_prime=0.0)
        rep = align_images([rasterize(tent_template, p, 32)])[0]
        assert np.linalg.norm(rep.grid) == pytest.approx(1.0, abs=1e-12)
        assert rep.m == 32

    def test_brightness_invariance_exact(self, tent_template):
        d = 32
        p1 = DeformParams(eta=0.7, xi=1.0, xi_prime=1.0, tau=0.0, tau_prime=0.0)
        p2 = DeformParams(eta=1.4, xi=1.0, xi_prime=1.0, tau=0.0, tau_prime=0.0)
        a = align_images([rasterize(tent_template, p1, d)])[0]
        b = align_images([rasterize(tent_template, p2, d)])[0]
        assert np.array_equal(a.grid, b.grid)

    def test_grid_shift_invariance_exact(self, tent_template):
        d = 32
        p1 = DeformParams(eta=1.0, xi=1.0, xi_prime=1.0, tau=0.0, tau_prime=0.0)
        p2 = DeformParams(eta=1.0, xi=1.0, xi_prime=1.0, tau=4 / d, tau_prime=2 / d)
        a = align_images([rasterize(tent_template, p1, d)])[0]
        b = align_images([rasterize(tent_template, p2, d)])[0]
        assert np.array_equal(a.grid, b.grid)

    def test_scale_approximate_invariance(self, tent_template):
        d = 128
        p1 = DeformParams(eta=1.0, xi=1.0, xi_prime=1.0, tau=0.0, tau_prime=0.0)
        p2 = DeformParams(eta=1.0, xi=1.5, xi_prime=1.5, tau=0.4, tau_prime=0.4)
        a = align_images([rasterize(tent_template, p1, d)], m=64)[0]
        b = align_images([rasterize(tent_template, p2, d)], m=64)[0]
        assert np.linalg.norm(a.grid - b.grid) < 0.1


class TestClassify1nn:
    def _gallery(self, d=32):
        f0 = tent(0.25)
        f1 = tent(0.15, cx=0.45, cy=0.55)
        imgs, labels = [], []
        for label, f in ((0, f0), (1, f1)):
            p = DeformParams(eta=1.0, xi=1.0, xi_prime=1.0, tau=0.0, tau_prime=0.0)
            imgs.append(rasterize(f, p, d))
            labels.append(label)
        return build_gallery(imgs, labels), f0, f1

    def test_recovers_generating_class(self):
        gallery, f0, f1 = self._gallery()
        p = DeformParams(eta=1.6, xi=1.0, xi_prime=1.0, tau=0.125, tau_prime=0.0)
        query = align_images([rasterize(f0, p, 32)])[0]
        label, idx, dist, orient = classify_1nn(gallery, [query])[0]
        assert orient == 0
        assert label == 0
        assert idx == 0
        assert dist == pytest.approx(0.0, abs=1e-12)

    def test_empty_gallery(self):
        rep = align_images([rasterize(tent(0.25), DeformParams(
            eta=1.0, xi=1.0, xi_prime=1.0, tau=0.0, tau_prime=0.0), 16)])[0]
        with pytest.raises(NumericError, match="gallery must contain at least one"):
            classify_1nn([], [rep])

    def test_size_mismatch(self):
        gallery, f0, _ = self._gallery()
        query = align_images([rasterize(f0, DeformParams(
            eta=1.0, xi=1.0, xi_prime=1.0, tau=0.0, tau_prime=0.0), 32)], m=16)[0]
        for flips in (False, True):
            with pytest.raises(ConfigError, match="query grid size 16 != gallery"):
                classify_1nn(gallery, [query], flips)
        # a hand-built gallery of 8 x 8 and 16 x 16 grids
        image = rasterize(f0, IDENTITY, 32)
        mixed = [(align_images([image], m=m)[0], label)
                 for label, m in ((0, 8), (1, 16))]
        for flips in (False, True):
            with pytest.raises(ConfigError, match="gallery mixes grid sizes 8 and 16"):
                classify_1nn(mixed, mixed[0][:1], flips)

    def test_tie_goes_to_first_entry(self):
        grid = np.zeros((4, 4))
        grid[1, 1] = 1.0
        rep = align_images([GrayImage(grid)], m=2)[0]
        gallery = [(rep, 0), (rep, 1)]
        for flips in (False, True):
            label, idx, dist, orient = classify_1nn(gallery, [rep], flips)[0]
            assert (label, idx, orient) == (0, 0, 0)

    def test_each_axis_reversal_is_found(self):
        grid = np.arange(16, dtype=float).reshape(4, 4)
        rep = AlignedRep(grid=grid / np.linalg.norm(grid))
        gallery = [(AlignedRep(grid=np.ones((4, 4)) / 4), 0), (rep, 1)]
        variants = [grid, grid[::-1, :], grid[:, ::-1], grid[::-1, ::-1]]
        for r, variant in enumerate(variants):
            query = AlignedRep(grid=variant / np.linalg.norm(variant))
            assert classify_1nn(gallery, [query], flips=True)[0] == (1, 1, 0.0, r)

    def test_flip_aware_variant(self):
        d = 32
        # two unequal bumps make the template genuinely flip-asymmetric
        from oracles import template_sum

        f = template_sum([tent(0.12, cx=0.4, cy=0.5),
                          tent(0.06, cx=0.65, cy=0.5)])
        p_id = DeformParams(eta=1.0, xi=1.0, xi_prime=1.0, tau=0.0, tau_prime=0.0)
        gallery = build_gallery([rasterize(f, p_id, d)], [0])
        flipped = DeformParams(eta=1.0, xi=-1.0, xi_prime=1.0, tau=-1.0,
                               tau_prime=0.0)
        img = rasterize(f, flipped, d)
        label, idx, dist, orient = classify_1nn(gallery, align_images([img]),
                                                flips=True)[0]
        assert label == 0
        assert orient > 0
        # a negative scale shifts the sample lattice by one pixel, so the
        # match is close but not bit-exact
        assert dist < 0.03
        _, _, plain_dist, _ = classify_1nn(gallery, align_images([img]))[0]
        assert plain_dist > dist

    def test_empty_query_sequence(self):
        gallery, _, _ = self._gallery()
        for flips in (False, True):
            assert classify_1nn(gallery, [], flips) == []

    def test_generated_test_set_equals_loop_oracle(self, tent_template,
                                                   cross_template):
        q = DeformDistribution(eta_range=(0.8, 1.2), xi_range=(1.0, 1.5),
                               flip_prob=0.5, seed=3)
        # With flips, 16 entries against 40 queries orient the gallery; the
        # sweep's 64 entries at d = 64 orient the queries.
        for n_train, d in ((16, 24), (64, 64)):
            train = generate_dataset([tent_template], [cross_template], q,
                                     n_train, d)
            test = generate_dataset([tent_template], [cross_template],
                                    replace(q, seed=4), 40, d)
            gallery = build_gallery([it.image for it in train.items],
                                    [it.label for it in train.items])
            queries = align_images([it.image for it in test.items])
            for flips in (False, True):
                assert classify_1nn(gallery, queries, flips) == [
                    classify_1nn_loop(gallery, query, flips)
                    for query in queries]

    def test_planted_ties_span_several_exact_blocks(self):
        # Every copy of the entry ties for a query equal to it, and at
        # m = 64 the exact step measures 16 pairs at a time.
        rng = np.random.default_rng(11)
        grid = rng.random((64, 64))
        rep = AlignedRep(grid=grid / np.linalg.norm(grid))
        other = AlignedRep(grid=np.ones((64, 64)) / 64)
        gallery = [(other, 0)] + [(rep, 1)] * 24
        reversed_rep = AlignedRep(grid=rep.grid[:, ::-1])
        # 3 queries orient themselves; 27 orient the 25 entries.
        for queries in ([rep, reversed_rep, other],
                        [rep, reversed_rep, other] * 9):
            for flips in (False, True):
                assert classify_1nn(gallery, queries, flips) == [
                    classify_1nn_loop(gallery, query, flips)
                    for query in queries]
            assert classify_1nn(gallery, queries, flips=True)[:3] == [
                (1, 1, 0.0, 0), (1, 1, 0.0, 2), (0, 0, 0.0, 0)]

    def test_build_gallery_validates_lengths(self):
        with pytest.raises(ConfigError, match="equal length"):
            build_gallery([GrayImage(np.ones((4, 4)))], [0, 1])


@st.composite
def _gallery_and_queries(draw):
    """Small galleries with planted exact ties, one-ulp neighbours and axis
    reversals of the queries among their entries."""
    m = draw(st.sampled_from([2, 3, 4, 8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def unit(z):
        return AlignedRep(grid=z / np.linalg.norm(z))

    queries = [unit(rng.random((m, m)) + 0.01)
               for _ in range(draw(st.integers(1, 5)))]
    gallery = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["random", "duplicate", "ulp", "reversal"]))
        label = draw(st.integers(0, 1))
        if kind == "random" or (kind == "duplicate" and not gallery):
            gallery.append((unit(rng.random((m, m)) + 0.01), label))
        elif kind == "duplicate":
            gallery.append((gallery[draw(st.integers(0, len(gallery) - 1))][0],
                            label))
        else:
            z = queries[draw(st.integers(0, len(queries) - 1))].grid
            z = _oriented_variants(z)[draw(st.integers(0, 3))].copy()
            if kind == "ulp":
                i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
                z[i, j] = np.nextafter(z[i, j], draw(st.sampled_from([0.0, 2.0])))
            gallery.append((AlignedRep(grid=z), label))
    return gallery, queries


class TestScreenedSearchProperty:
    @given(case=_gallery_and_queries(), flips=st.booleans())
    def test_equals_loop_oracle(self, case, flips):
        gallery, queries = case
        got = classify_1nn(gallery, queries, flips)
        expected = [classify_1nn_loop(gallery, query, flips) for query in queries]
        # Tuples compare labels, indices and orientations, and distances by ==.
        assert got == expected


def _random_image(rng, d, density, negative):
    """A d x d image whose pixels are positive with probability ``density``
    and negative with probability ``negative``, else 0."""
    u = rng.random((d, d))
    px = np.where(u < density, rng.random((d, d)) + 0.01, 0.0)
    return GrayImage(np.where(u > 1.0 - negative, -rng.random((d, d)), px))


@st.composite
def _image_lists(draw):
    """Lists of sparse images, possibly of mixed resolution, some with
    negative pixels, no positive pixel, or a zero resampled grid."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    images = []
    for _ in range(draw(st.integers(1, 8))):
        d = draw(st.integers(2, 9))
        kind = draw(st.sampled_from(["sparse"] * 12
                                    + ["empty", "diamond", "diamond"]))
        if kind == "diamond":
            # Positive at the four edge midpoints only: the corners of the
            # box, and maybe every other sample, read 0.
            px = np.zeros((d, d))
            px[[0, d // 2, d - 1, d // 2], [d // 2, 0, d // 2, d - 1]] = 1.0
            images.append(GrayImage(px))
            continue
        density = 0.0 if kind == "empty" else draw(
            st.sampled_from([0.1, 0.3, 0.6, 1.0]))
        negative = draw(st.sampled_from([0.0, 0.0, 0.3]))
        images.append(_random_image(rng, d, density, negative))
    m = draw(st.none() | st.integers(2, max(img.d for img in images) + 3))
    return images, m


def _alignment_outcome(align):
    try:
        reps = align()
    except DeformClassError as exc:
        return type(exc), str(exc)
    return [(rep.m, rep.grid.shape, rep.grid.tobytes()) for rep in reps]


def _same_as_oracle(images, m):
    got = _alignment_outcome(lambda: align_images(images, m))
    expected = _alignment_outcome(
        lambda: [align_transform_oracle(img, m, i)
                 for i, img in enumerate(images)])
    assert got == expected
    return got


class TestAlignImages:
    @given(case=_image_lists())
    def test_equals_one_image_oracle(self, case):
        _same_as_oracle(*case)

    def test_blocks_and_resolution_runs(self):
        rng = np.random.default_rng(5)
        # No zero pixel, so every image aligns at every m.
        images = [_random_image(rng, d, 0.7, 0.3)
                  for d in [8] * 70 + [5] * 3 + [8] * 140 + [6]]
        for m in (None, 2, 7, 11):
            assert isinstance(_same_as_oracle(images, m), list)

    def test_run_across_two_block_boundaries(self):
        """A run of 64 x 64 images that spans three blocks aligns with the
        bits of one image at a time, and a bad image in the last block is
        named by its list index."""
        rng = np.random.default_rng(11)
        n = 2 * IMAGE_BLOCK + 6
        images = [_random_image(rng, 64, 0.3, 0.1) for _ in range(n)]
        for m in (None, 48):
            assert len(_same_as_oracle(images, m)) == n
        nan = images[n - 2].pixels.copy()
        nan[np.unravel_index(np.argmax(nan), nan.shape)] = np.nan
        with pytest.raises(NumericError,
                           match=f"resampled grid of image {n - 2} has norm nan"):
            align_images(images[:n - 2] + [GrayImage(nan)] + images[n - 1:])
        blank = images[:2 * IMAGE_BLOCK + 1] + [_image(np.zeros((64, 64)))]
        assert _same_as_oracle(blank, None) == (
            NumericError, f"image {2 * IMAGE_BLOCK + 1}: no pixel is positive")

    def test_first_bad_image_raises(self):
        good = _image([[0, 0, 0], [0, 1, 0], [0, 0, 0]])
        empty = _image([[0, 0], [0, -1]])
        # Positive pixels at the edge midpoints only: m = 2 samples the four
        # zero corners of the box.
        diamond = _image([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        zero = "cannot normalize the resampled grid of image 1: it is all zero"
        empty_support = "image 1: no pixel is positive"
        for images, message in (([good, diamond, empty], zero),
                                ([good, empty, diamond], empty_support),
                                ([_image(np.ones((5, 5))), diamond], zero)):
            outcome = _same_as_oracle(images, 2)
            assert outcome == (NumericError, message)

    def test_bad_image_is_named_by_its_list_index(self):
        good = _image([[0, 0, 0], [0, 1, 0], [0, 0, 0]])
        blank = _image(np.zeros((3, 3)))
        diamond = _image([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        with pytest.raises(NumericError, match="image 2: no pixel is positive"):
            align_images([good, good, blank])
        # a run of another size in between keeps the count
        with pytest.raises(NumericError, match="image 2: no pixel is positive"):
            align_images([good, _image(np.ones((5, 5))), blank])
        with pytest.raises(NumericError, match="grid of image 1: it is all zero"):
            align_images([good, diamond], 2)

    def test_non_finite_sample_raises(self):
        good = rasterize(tent(0.25), DeformParams(eta=1.0, xi=1.0, xi_prime=1.0,
                                                  tau=0.0, tau_prime=0.0), 16)
        px = good.pixels.copy()
        px[8, 8] = np.nan  # inside the support box
        with pytest.raises(NumericError,
                           match="resampled grid of image 2 has norm nan"):
            align_images([good, good, GrayImage(px)])
        gallery = build_gallery([good], [0])
        with pytest.raises(NumericError, match="image 0 has norm nan"):
            classify_1nn(gallery, align_images([GrayImage(px)]))

    def test_grids_are_read_only(self):
        reps = align_images([_image([[0, 1], [2, 3]])] * 3)
        assert all(not rep.grid.flags.writeable for rep in reps)
        assert align_images([]) == []


class TestAlignedRep:
    def test_m_is_the_grid_side(self):
        rep = AlignedRep(grid=np.ones((4, 4)) / 4)
        assert rep.m == 4
        assert classify_1nn([(rep, 0)], [rep])[0][:2] == (0, 0)

    def test_m_cannot_disagree_with_the_grid(self):
        # m is not a field, so no caller can pass one that the grid contradicts.
        with pytest.raises(TypeError):
            AlignedRep(grid=np.ones((4, 4)) / 4, m=8)

    @pytest.mark.parametrize("shape", [(3, 5), (16,), (2, 2, 2), (1, 1), (0, 0)])
    def test_grid_must_be_square_with_side_at_least_2(self, shape):
        with pytest.raises(ConfigError,
                           match="aligned grid must be square with side >= 2"):
            AlignedRep(grid=np.ones(shape))
