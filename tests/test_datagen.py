import numpy as np
import pytest
from hypothesis import given, strategies as st

from deformclass import (
    ConfigError,
    DeformDistribution,
    DeformParams,
    cone,
    cross,
    generate_dataset,
    raster_interp,
    rasterize,
    sample_params,
    shift_bounds,
    tent,
)
from oracles import InvalidFixtureParams, non_identifiable_pair, seven_call_params


class TestDistribution:
    def test_validate_rejects_bad_ranges(self):
        with pytest.raises(ConfigError, match="amplitude range must be 0 < lo"):
            DeformDistribution(eta_range=(0.0, 1.0), xi_range=(1.0, 1.0))
        with pytest.raises(ConfigError, match="xi_range must satisfy 1/2 <= lo"):
            DeformDistribution(eta_range=(1.0, 1.0), xi_range=(0.3, 1.0))
        with pytest.raises(ConfigError, match=r"flip_prob must be in \[0, 1\]"):
            DeformDistribution(eta_range=(1.0, 1.0), xi_range=(1.0, 1.0),
                               flip_prob=1.5)
        inf = float("inf")
        for ranges in (dict(eta_range=(1.0, inf), xi_range=(1.0, 1.0)),
                       dict(eta_range=(1.0, 1.0), xi_range=(1.0, inf)),
                       dict(eta_range=(1.0, 1.0), xi_range=(1.0, 1.0),
                            xi_prime_range=(inf, inf))):
            with pytest.raises(ConfigError, match="finite"):
                DeformDistribution(**ranges)

    def test_separate_y_range(self):
        q = DeformDistribution(eta_range=(1.0, 1.0), xi_range=(1.0, 2.0),
                               xi_prime_range=(0.5, 0.6))
        assert q.scale_range_y() == (0.5, 0.6)
        q2 = DeformDistribution(eta_range=(1.0, 1.0), xi_range=(1.0, 2.0))
        assert q2.scale_range_y() == (1.0, 2.0)


class TestSampleParams:
    def test_ranges_respected(self):
        q = DeformDistribution(eta_range=(0.5, 1.5), xi_range=(1.0, 2.0), seed=3)
        for i in range(50):
            p = sample_params(q, i)
            assert 0.5 <= p.eta <= 1.5
            assert 1.0 <= p.xi <= 2.0
            lo, hi = shift_bounds(p.xi)
            assert lo <= p.tau <= hi

    def test_draws_are_index_stable(self):
        # item i's parameters must not depend on other items being drawn
        q = DeformDistribution(eta_range=(0.5, 1.5), xi_range=(1.0, 2.0), seed=9)
        a = sample_params(q, 17)
        b = sample_params(q, 17)
        assert a == b

    def test_seed_changes_draws(self):
        q1 = DeformDistribution(eta_range=(0.5, 1.5), xi_range=(1.0, 2.0), seed=1)
        q2 = DeformDistribution(eta_range=(0.5, 1.5), xi_range=(1.0, 2.0), seed=2)
        assert sample_params(q1, 0) != sample_params(q2, 0)

    def test_no_flips_by_default(self):
        q = DeformDistribution(eta_range=(1.0, 1.0), xi_range=(1.0, 1.0), seed=0)
        assert all(sample_params(q, i).xi > 0 for i in range(20))

    def test_flips_appear(self):
        q = DeformDistribution(eta_range=(1.0, 1.0), xi_range=(1.0, 1.0),
                               flip_prob=1.0, seed=0)
        p = sample_params(q, 0)
        assert p.xi < 0 and p.xi_prime < 0
        DeformParams(**vars(p))

    @pytest.mark.parametrize("q", [
        DeformDistribution((0.8, 1.2), (1.0, 1.5), None, 0.5, 0),
        DeformDistribution((0.5, 1.5), (1.0, 2.0), (0.5, 2.0), 0.5, 7),
        DeformDistribution((1.0, 1.0), (1.0, 1.0), None, 1.0, 3),
        DeformDistribution((2.0, 2.0), (1.25, 1.25), (0.5, 0.5), 0.5, 11),
        DeformDistribution((0.5, 2.0), (0.5, 2.0), (0.5, 2.0), 0.0, 123456789),
        DeformDistribution((0.5, 2.0), (0.5, 2.0), None, 1.0, 2**40),
    ])
    def test_one_draw_equals_seven_calls(self, q):
        """7,000 draws per distribution, 42,000 in all: every field equals
        the one-call-per-double reference, down to the sign of zero."""
        for i in [*range(6995), 10**3 * 7919, 2**31, 2**32 + 5, 10**12, 2**63]:
            got, want = sample_params(q, i), seven_call_params(q, i)
            assert got == want and repr(got) == repr(want), i

    def test_negative_draw_index(self):
        q = DeformDistribution(eta_range=(1.0, 1.0), xi_range=(1.0, 1.0))
        with pytest.raises(ConfigError, match="draw_index must be nonnegative"):
            sample_params(q, -1)


class TestGenerateDataset:
    def test_balanced_design(self, tent_template, cross_template, mild_q):
        data = generate_dataset([tent_template], [cross_template], mild_q, n=20, d=16)
        labels = np.array([it.label for it in data.items])
        assert labels.sum() == 10
        assert len(data) == 20
        assert {it.image.d for it in data.items} == {16}

    def test_deterministic_under_seed(self, tent_template, cross_template):
        q = DeformDistribution(eta_range=(0.8, 1.2), xi_range=(1.0, 1.5), seed=21)
        a = generate_dataset([tent_template], [cross_template], q, n=6, d=16)
        b = generate_dataset([tent_template], [cross_template], q, n=6, d=16)
        for x, y in zip(a.items, b.items):
            assert x.label == y.label
            assert np.array_equal(x.image.pixels, y.image.pixels)

    def test_label_matches_template_pool(self, tent_template, cross_template, mild_q):
        data = generate_dataset([tent_template], [cross_template], mild_q, n=10, d=16)
        for it in data.items:
            expected = rasterize((tent_template, cross_template)[it.label],
                                 it.params, 16)
            assert np.array_equal(it.image.pixels, expected.pixels)

    @pytest.mark.parametrize("d, message", [(2, "resolution 2 below minimum 4"),
                                            (5000, "resolution 5000 above maximum 4096")])
    def test_resolution_checked_before_any_draw(self, monkeypatch, mild_q, d,
                                                message):
        from deformclass import datagen
        draws = []
        monkeypatch.setattr(datagen, "sample_params",
                            lambda q, i: draws.append(i))
        with pytest.raises(ConfigError, match=message):
            generate_dataset([tent(0.25)], [cross(0.25, 0.08)], mild_q,
                             n=200, d=d)
        assert draws == []

    @pytest.mark.parametrize("n, choices", [
        (10, 0),   # balanced: the labels are a seeded permutation
        (9, 9)])   # odd n: fair coin-flip labels
    def test_choice_stream_only_where_it_can_change_the_item(
            self, monkeypatch, mild_q, n, choices):
        from deformclass import datagen
        real = datagen._substream
        keys = []

        def spy(seed, *key):
            keys.append(key)
            return real(seed, *key)

        monkeypatch.setattr(datagen, "_substream", spy)
        data = generate_dataset([tent(0.25)], [cross(0.25, 0.08)], mild_q,
                                n=n, d=8)
        assert sum(key[0] == datagen._STREAM_CHOICE for key in keys) == choices
        # an odd n's label is the first draw of the item's own choice stream
        for i, it in enumerate(data.items):
            chooser = real(mild_q.seed, datagen._STREAM_CHOICE, i)
            if n % 2:
                assert it.label == int(chooser.random() < 0.5)

    def test_rejects_empty_inputs(self, tent_template, mild_q):
        for pools in (([], [tent_template]), ([tent_template, tent(0.2)],
                                              [tent_template])):
            with pytest.raises(ConfigError,
                               match="each class takes exactly one template"):
                generate_dataset(*pools, mild_q, n=4, d=16)
        with pytest.raises(ConfigError, match="dataset size must be >= 1, got 0"):
            generate_dataset([tent_template], [tent_template], mild_q, n=0, d=16)


def rasterize_oracle(f, p, d):
    """The one-image raster that ``generate_dataset`` evaluates in blocks."""
    t = np.arange(1, d + 1) / d
    return p.eta * f.fn((p.xi * t - p.tau)[:, None],
                        (p.xi_prime * t - p.tau_prime)[None, :])


_GLYPH = np.outer(np.hanning(9), np.hanning(7)) + 0.1
_TEMPLATES = (tent(0.25), tent(0.12, cx=0.4, cy=0.6), cone(0.22),
              cone(0.1, cx=0.6, cy=0.5), cross(0.25, 0.08), cross(),
              raster_interp(_GLYPH))


def _assert_rasters_match(data, templates, q, d):
    for i, it in enumerate(data.items):
        assert it.params == sample_params(q, i)
        f = templates[it.label]
        expected = rasterize_oracle(f, it.params, d)
        assert it.image.pixels.tobytes() == expected.tobytes()
        assert np.array_equal(it.image.pixels, rasterize(f, it.params, d).pixels)


class TestBlockRasterizing:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           d=st.integers(4, 20), flip_prob=st.sampled_from([0.0, 0.5]),
           f0=st.sampled_from(_TEMPLATES), f1=st.sampled_from(_TEMPLATES))
    def test_equals_per_item_rasterize(self, seed, n, d, flip_prob, f0, f1):
        q = DeformDistribution(eta_range=(0.5, 1.5), xi_range=(0.6, 1.8),
                               flip_prob=flip_prob, seed=seed)
        data = generate_dataset([f0], [f1], q, n, d)
        _assert_rasters_match(data, (f0, f1), q, d)

    def test_groups_larger_than_a_block(self):
        templates = (_TEMPLATES[2], _TEMPLATES[6])
        q = DeformDistribution(eta_range=(0.8, 1.2), xi_range=(1.0, 1.5),
                               flip_prob=0.5, seed=11)
        for n in (300, 151):
            data = generate_dataset([templates[0]], [templates[1]], q, n, 12)
            _assert_rasters_match(data, templates, q, 12)

    def test_checks_each_draw_once(self, monkeypatch, tent_template, mild_q):
        # q checked itself when the fixture built it; each draw is checked
        # once, when it is built, and never again
        calls = {"q": 0, "params": 0}
        q_check = DeformDistribution.__post_init__
        p_check = DeformParams.__post_init__

        def count(key, check):
            def counted(self):
                calls[key] += 1
                check(self)
            return counted

        monkeypatch.setattr(DeformDistribution, "__post_init__", count("q", q_check))
        monkeypatch.setattr(DeformParams, "__post_init__", count("params", p_check))
        generate_dataset([tent_template], [tent_template], mild_q, n=12, d=8)
        assert calls == {"q": 0, "params": 12}

    def test_resolution_floor(self, tent_template, mild_q):
        with pytest.raises(ConfigError, match="resolution 3 below minimum 4"):
            generate_dataset([tent_template], [tent_template], mild_q, n=2, d=3)


class TestNonIdentifiableFixture:
    @pytest.mark.parametrize("d", [8, 16, 32])
    def test_rasters_agree_exactly(self, d):
        pair = non_identifiable_pair(d)
        from deformclass import IDENTITY

        a = rasterize(pair.base, pair.raster_params, d)
        b = rasterize(pair.composite, IDENTITY, d)
        assert np.max(np.abs(a.pixels - b.pixels)) == 0.0

    @pytest.mark.parametrize("d", [8, 16, 32])
    def test_bump_mass_floor(self, d):
        # fine quadrature of the bump grid's L2 mass stays above 1/(8d)
        pair = non_identifiable_pair(d)
        t = (np.arange(2048) + 0.5) / 2048
        x, y = np.meshgrid(t, t, indexing="ij")
        norm = float(np.sqrt(np.mean(pair.bump_grid(x, y) ** 2)))
        assert norm >= 1.0 / (8 * d)

    def test_templates_differ_off_grid(self):
        pair = non_identifiable_pair(16)
        x = 0.25 + 1.5 / 16  # cell center, where a bump peaks
        deformed = pair.raster_params
        base_val = float(pair.base(deformed.xi * x + (-deformed.tau),
                                   deformed.xi_prime * x + (-deformed.tau_prime)))
        comp_val = float(pair.composite(x, x))
        assert comp_val > 0
        assert abs(comp_val - deformed.eta * base_val) > 0

    def test_rejects_bad_resolution(self):
        with pytest.raises(InvalidFixtureParams):
            non_identifiable_pair(10)
        with pytest.raises(InvalidFixtureParams):
            non_identifiable_pair(0)

    def test_rejects_inadmissible_shape(self):
        with pytest.raises(InvalidFixtureParams):
            non_identifiable_pair(16, xi=0.4)
        with pytest.raises(InvalidFixtureParams):
            non_identifiable_pair(16, tau=0.3)

    def test_nontrivial_deformation_variant(self):
        pair = non_identifiable_pair(16, eta=1.5, xi=1.0, tau=0.05,
                                     xi_prime=1.0, tau_prime=0.0)
        from deformclass import IDENTITY

        a = rasterize(pair.base, pair.raster_params, 16)
        b = rasterize(pair.composite, IDENTITY, 16)
        assert np.max(np.abs(a.pixels - b.pixels)) == 0.0
        assert a.pixels.max() > 0
