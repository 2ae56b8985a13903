import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import deformclass
from deformclass import (
    ConfigError,
    DeformDistribution,
    DeformParams,
    Filter,
    GrayImage,
    NumericError,
    build_filter_bank,
    classify_bank,
    cone,
    cross,
    generate_dataset,
    normalize_l2,
    raster_interp,
    rasterize,
    sample_params,
    tent,
)
from deformclass import cnn
from deformclass.cnn import _BLOCK, _coarse_stack, _crop_boxes, _patches_by_side
from deformclass.model import SUPPORT_HI, SUPPORT_LO
from oracles import FilterTooLarge, feature_max, max_tree

IDENT = DeformParams(eta=1.0, xi=1.0, xi_prime=1.0, tau=0.0, tau_prime=0.0)


def direct_shift_max(w: np.ndarray, x: np.ndarray) -> float:
    """Reference shift-maximum: explicit loop over every padded window."""
    s = w.shape[0]
    p = np.pad(x, s)
    best = 0.0
    for r in range(p.shape[0] - s + 1):
        for c in range(p.shape[1] - s + 1):
            best = max(best, float((p[r: r + s, c: c + s] * w).sum()))
    return best


def direct_filter(f, xi: float, xi_prime: float, d: int) -> np.ndarray | None:
    """Reference bank entry: f(xi*j/d, xi'*j'/d) over j, j' = 1..d, normalized
    and cropped to its quadratic support by growing the nonzero box one step
    at a time, high side first; None for an all-zero grid."""
    grid = np.arange(1, d + 1) / d
    w = f((xi * grid)[:, None], (xi_prime * grid)[None, :])
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        return None
    w = w / norm
    rows = np.flatnonzero(w.any(axis=1))
    cols = np.flatnonzero(w.any(axis=0))
    side = min(max(rows[-1] + 1 - rows[0], cols[-1] + 1 - cols[0]), d)
    box = []
    for lo, hi in ((rows[0], rows[-1] + 1), (cols[0], cols[-1] + 1)):
        while hi - lo < side:
            if hi < d:
                hi += 1
            else:
                lo -= 1
        box.append((lo, hi))
    (r0, r1), (c0, c1) = box
    return w[r0:r1, c0:c1]


class TestFilter:
    def test_weights_frozen(self, tent_template):
        f = build_filter_bank(tent_template, tent_template, 1, 4).filter_at(
            0, 8, 8)
        assert f.weights.shape[0] > 0
        with pytest.raises(ValueError):
            f.weights[0, 0] = 5.0

    def test_null(self, tent_template):
        # scale 0 samples the template at the origin only, off its support
        f = build_filter_bank(tent_template, tent_template, 1, 4).filter_at(
            0, 4, 8)
        assert f.weights is None
        assert f.meta == (0, 0.0, 1.0)


class TestFeatureMax:
    def test_null_filter_emits_zero(self):
        img = GrayImage(np.ones((4, 4)))
        assert feature_max(Filter(None), img) == 0.0

    def test_hand_oracle(self):
        f = Filter(np.array([[1.0, 0.0], [0.0, 1.0]]))
        img = GrayImage(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert feature_max(f, img) == 5.0

    def test_relu_floor(self):
        f = Filter(-np.ones((2, 2)))
        img = GrayImage(np.ones((3, 3)))
        assert feature_max(f, img) == 0.0

    def test_filter_too_large(self):
        with pytest.raises(FilterTooLarge):
            feature_max(Filter(np.ones((5, 5))), GrayImage(np.ones((4, 4))))

    def test_exact_against_direct_reference(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            s = int(rng.integers(1, 7))
            d = int(rng.integers(s, 13))
            w = rng.random((s, s))
            x = rng.random((d, d))
            got = feature_max(Filter(w), GrayImage(x))
            assert got == direct_shift_max(w, x)

    @given(st.integers(1, 3), st.integers(3, 6), st.integers(0, 2**32 - 1))
    def test_exact_property(self, s, d, seed):
        rng = np.random.default_rng(seed)
        w = rng.random((s, s))
        x = rng.random((d, d))
        assert feature_max(Filter(w), GrayImage(x)) == direct_shift_max(w, x)

    def test_translation_invariance(self, tent_template):
        bank = build_filter_bank(tent_template, tent_template, 1, 16)
        filt = bank.filter_at(0, 16 + 16, 16 + 16)
        base = rasterize(tent_template, IDENT, 16)
        moved = rasterize(tent_template,
                          DeformParams(eta=1.0, xi=1.0, xi_prime=1.0,
                                       tau=2 / 16, tau_prime=0.0), 16)
        assert feature_max(filt, base) == feature_max(filt, moved)


class TestMaxTree:
    def test_matches_plain_max(self):
        rng = np.random.default_rng(3)
        for r in [1, 2, 3, 17, 64]:
            v = rng.random(r)
            assert max_tree(v) == float(v.max())

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    def test_matches_plain_max_property(self, values):
        assert max_tree(values) == max(values)

    def test_carries_the_winner_unchanged(self):
        # (y - z)_+ + z rounds this pair to 0.9989999999999999
        assert max_tree([0.999, 0.29953860585274433]) == 0.999

    def test_empty_rejected(self):
        with pytest.raises(ConfigError, match="needs at least one value"):
            max_tree([])

    def test_range_enforced(self):
        for values in ([0.5, -0.1], [0.5, 1.1], [0.5, float("nan")]):
            with pytest.raises(ConfigError, match=r"must lie in \[0, 1\]"):
                max_tree(values)


def softmax_pair(z0: float, z1: float, beta: float) -> tuple[float, float]:
    """Oracle of the bank's head: the tempered two-class softmax in
    max-shifted form."""
    m = max(z0, z1)
    e0 = float(np.exp(beta * (z0 - m)))
    e1 = float(np.exp(beta * (z1 - m)))
    p0 = e0 / (e0 + e1)
    return p0, 1.0 - p0


def decide(bank, z0: float, z1: float, beta: float):
    """classify_bank's decision on a blank image whose channel maxima are
    taken to be (z0, z1)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cnn, "_channel_maxima", lambda bank, pixels: (z0, z1))
        return classify_bank(bank, GrayImage(np.zeros((bank.d, bank.d))),
                             beta=beta)


class TestBankHead:
    """The bank ends in the trained network's head, class1_probability."""

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(1e-3, 1e3))
    def test_matches_softmax_oracle(self, small_bank, z0, z1, beta):
        decision = decide(small_bank, z0, z1, beta)
        assert abs(decision.p1 - softmax_pair(z0, z1, beta)[1]) <= 4e-16
        assert decision.p0 + decision.p1 == 1.0
        assert decision.label == (0 if z0 >= z1 else 1)

    def test_logistic_oracle(self, small_bank):
        decision = decide(small_bank, 1.0, 0.0, 1.0)
        assert decision.p0 == pytest.approx(0.7310585786300049, abs=1e-15)
        assert decision.p0 + decision.p1 == 1.0

    def test_symmetric_inputs(self, small_bank):
        decision = decide(small_bank, 0.3, 0.3, 5.0)
        assert (decision.p0, decision.p1) == (0.5, 0.5)

    def test_sharpening(self, small_bank):
        mild = decide(small_bank, 0.6, 0.4, 1.0).p0
        sharp = decide(small_bank, 0.6, 0.4, 32.0).p0
        assert 0.5 < mild < sharp < 1.0

    def test_temperature_must_be_positive(self, small_bank):
        for beta in (0.0, -2.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="temperature must be positive"):
                classify_bank(small_bank, GrayImage(np.zeros((8, 8))), beta=beta)

    def test_huge_temperature_warns_nothing(self, small_bank, tent_template):
        img = normalize_l2(rasterize(tent_template, IDENT, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decision = classify_bank(small_bank, img, beta=1e300)
        assert decision.label == 0 and decision.z0 > decision.z1
        assert (decision.p0, decision.p1) == (1.0, 0.0)


def scale_grid(bank) -> np.ndarray:
    """The scales -Xi..Xi in steps of 1/d, indexed as filter_at indexes them."""
    n = 2 * bank.xi_max * bank.d + 1
    return (np.arange(n) - bank.xi_max * bank.d) / bank.d


def oracle_channel_maxima(bank, img) -> list[float]:
    """The exact channel maxima of the float32 stacks: feature_max of every
    live entry, rebuilt in float64 by filter_at.  Slow on a large bank."""
    return [max((feature_max(bank.filter_at(k, i, j), img)
                 for i in bank.live for j in bank.live), default=0.0)
            for k in (0, 1)]


def assert_matches_oracle(bank, img) -> list[float]:
    """classify_bank's label and channel maxima against the oracle's."""
    z = oracle_channel_maxima(bank, img)
    decision = classify_bank(bank, img)
    assert decision.label == (0 if z[0] >= z[1] else 1)
    assert decision.z0 == pytest.approx(z[0], abs=1e-6)
    assert decision.z1 == pytest.approx(z[1], abs=1e-6)
    return z


class TestBuildFilterBank:
    def test_count_formula(self, tent_template, cross_template):
        bank = build_filter_bank(tent_template, cross_template, 1, 4)
        assert len(bank) == 2 * (2 * 1 * 4 + 1) ** 2

    def test_scale_grid(self, tent_template):
        bank = build_filter_bank(tent_template, tent_template, 1, 4)
        scales = [bank.filter_at(0, i, 8 - i).meta[1:] for i in range(9)]
        assert scales == [(s, -s) for s in np.arange(-4, 5) / 4]

    def test_unit_norm_and_meta(self, tent_template, cross_template):
        bank = build_filter_bank(tent_template, cross_template, 1, 8)
        grid = scale_grid(bank)
        n_live = 0
        for k in (0, 1):
            for i in range(len(grid)):
                for j in range(len(grid)):
                    f = bank.filter_at(k, i, j)
                    assert f.meta == (k, grid[i], grid[j])
                    if f.weights is not None:
                        n_live += 1
                        assert np.linalg.norm(f.weights) == pytest.approx(1.0, abs=1e-12)
        assert n_live > 0

    def test_zero_scale_row_is_null(self, tent_template):
        bank = build_filter_bank(tent_template, tent_template, 1, 4)
        zero_idx = 1 * 4
        for j in range(len(scale_grid(bank))):
            assert bank.filter_at(0, zero_idx, j).weights is None

    @pytest.mark.parametrize("k, i, j", [(0, 17, 9), (0, -1, -1), (5, 0, 0),
                                         (1, 0, 17)])
    def test_filter_at_rejects_indices_off_the_bank(self, tent_template,
                                                    cross_template, k, i, j):
        # Xi = 1, d = 8: k is 0 or 1, and each scale index runs 0..16.
        bank = build_filter_bank(tent_template, cross_template, 1, 8)
        with pytest.raises(ConfigError, match=r"scale indices in 0\.\.16"):
            bank.filter_at(k, i, j)
        assert bank.filter_at(1, 16, 16).meta == (1, 1.0, 1.0)

    def test_filter_at_matches_direct_definition(self, tent_template,
                                                 cross_template):
        d = 8
        bank = build_filter_bank(tent_template, cross_template, 1, d)
        grid = scale_grid(bank)
        n_live = 0
        for k, f in enumerate((tent_template, cross_template)):
            for i, xi in enumerate(grid):
                for j, xi_prime in enumerate(grid):
                    got = bank.filter_at(k, i, j)
                    want = direct_filter(f, xi, xi_prime, d)
                    assert got.meta == (k, xi, xi_prime)
                    if want is None:
                        assert got.weights is None
                    else:
                        n_live += 1
                        assert got.weights.shape == want.shape
                        assert np.array_equal(got.weights, want)
        stacked = sum(len(rows) for rows in bank.stacks.values())
        assert n_live == stacked > 0

    def test_stacks_hold_the_float32_filters(self, tent_template,
                                             cross_template):
        bank = build_filter_bank(tent_template, cross_template, 1, 8)
        grid = scale_grid(bank)
        rows = {}
        for k in (0, 1):
            for i in range(len(grid)):
                for j in range(len(grid)):
                    w = bank.filter_at(k, i, j).weights
                    if w is not None:
                        rows.setdefault((w.shape[0], k), []).append(
                            w.astype(np.float32).ravel())
        assert sorted(rows) == sorted(bank.stacks)
        for key, mat in bank.stacks.items():
            assert mat.dtype == np.float32
            assert np.array_equal(mat, np.stack(rows[key]))

    def test_scale_limit_validation(self, tent_template):
        with pytest.raises(ConfigError, match="scale limit must be >= 1"):
            build_filter_bank(tent_template, tent_template, 0, 8)
        for xi_max in (1.5, float("inf"), float("nan")):
            with pytest.raises(ConfigError, match="scale limit must be an "
                               f"integer, got {xi_max}"):
                build_filter_bank(tent_template, tent_template, xi_max, 8)
        # an int too large for a float is still an integer scale limit
        assert build_filter_bank(tent_template, tent_template, 10 ** 400,
                                 8).xi_max == 10 ** 400

    def test_bank_above_the_size_cap_is_refused_before_building(self):
        with pytest.raises(ConfigError, match=r"the filter bank at Xi = 100, "
                           r"d = 96 may take 39\.6 GiB, above the 4 GiB cap"):
            build_filter_bank(tent(), cross(0.25, 0.08), 100, 96)

    def test_size_cap_refuses_before_anything_grows_with_xi(self):
        # Only scales up to 3d/4 can be live, so the build that the cap
        # refuses at Xi = 1000 holds about what it holds at Xi = 72.
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=r"the filter bank at Xi = "
                               r"1000, d = 96 may take 39\.6 GiB, above the "
                               r"4 GiB cap"):
                build_filter_bank(tent(0.25), cross(0.25, 0.08), 1000, 96)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_any_scale_limit_past_the_band_builds_the_band_bank(self):
        # At d = 8 no scale past 3d/4 = 6 is live: Xi = 1e9 builds the
        # Xi = 6 bank, and nothing it holds or allocates grows with Xi.
        f0, f1 = tent(0.25), cross(0.25, 0.08)
        small = build_filter_bank(f0, f1, 6, 8)
        tracemalloc.start()
        try:
            bank = build_filter_bank(f0, f1, 10 ** 9, 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20
        assert list(bank.stacks) == list(small.stacks)
        for key in small.stacks:
            assert np.array_equal(bank.stacks[key], small.stacks[key])
            assert np.array_equal(bank.coarse[key], small.coarse[key])
        assert len(bank.live) == len(small.live)

    @pytest.mark.parametrize("d", [4, 5, 8])
    def test_scales_past_the_band_change_nothing(self, d):
        """At Xi = d the scale grid reaches past 3d/4, where no scale is
        live: the bank is the full grid's, scale by scale and bit by bit,
        and the live scales of the full grid are the one run ``live``."""
        f0, f1 = tent(0.25), cross(0.25, 0.08)
        bank = build_filter_bank(f0, f1, d, d)
        args = (((np.arange(2 * d * d + 1) - d * d) / d)[:, None]
                * (np.arange(1, d + 1) / d)[None, :])
        live = ((args >= SUPPORT_LO) & (args <= SUPPORT_HI)).any(axis=1)
        assert not live[-d:].any()
        assert list(bank.live) == np.flatnonzero(live).tolist()
        stacks, _ = one_pass_build(f0, f1, d, d)
        assert list(bank.stacks) == list(stacks)
        for key, mat in bank.stacks.items():
            assert np.array_equal(mat, stacks[key])

    @pytest.mark.parametrize("xi_max, d", [(1, 16), (2, 16), (3, 24)])
    @pytest.mark.parametrize("templates", [(tent(0.25), cross(0.25, 0.08)),
                                           (tent(0.22), cone(0.2))],
                             ids=["tent-cross", "tent-cone"])
    def test_size_bound_covers_the_built_rows(self, monkeypatch, templates,
                                              xi_max, d):
        bank = build_filter_bank(*templates, xi_max, d)
        rows = sum(stack.nbytes for stack in bank.stacks.values())
        monkeypatch.setattr(cnn, "MAX_BANK_BYTES", rows - 1)
        with pytest.raises(ConfigError, match="above the 0 GiB cap"):
            build_filter_bank(*templates, xi_max, d)


# Templates for build comparisons: the analytic ones and a small raster,
# whose bilinear samples are not symmetric in either argument.
BUILD_TEMPLATES = {"tent": tent(0.25), "cone": cone(0.22),
                   "cross": cross(0.25, 0.08),
                   "raster": raster_interp(np.arange(30.0).reshape(5, 6) % 7)}


def one_pass_build(f0, f1, xi_max: int, d: int):
    """The stacks and coarse twins of build_filter_bank as one pass built
    them: every live first scale's block normalized whole, its crops cast
    into per-stack lists of pieces, and each stack concatenated at the end."""
    n = 2 * xi_max * d + 1
    scales = (np.arange(n) - xi_max * d) / d
    args = scales[:, None] * (np.arange(1, d + 1) / d)[None, :]
    band = (args >= SUPPORT_LO) & (args <= SUPPORT_HI)
    live = band.any(axis=1)
    y_args = args[live].ravel()
    y_band = np.flatnonzero(band[live].ravel())
    block = np.zeros((d, y_args.size))
    pieces = {}
    for k, f in enumerate((f0, f1)):
        for x_args, rows in zip(args[live], band[live]):
            lo = int(rows.argmax())
            hi = lo + int(rows.sum())
            block[lo:hi, y_band] = f(x_args[lo:hi, None], y_args[None, y_band])
            grids = block[lo:hi].reshape(hi - lo, -1, d)
            norms = np.sqrt(np.einsum("imj,imj->m", grids, grids))
            grids /= np.where(norms > 0.0, norms, 1.0)[:, None]
            part = np.flatnonzero(norms > 0.0)
            row_mask = np.zeros((part.size, d), dtype=bool)
            row_mask[:, lo:hi] = grids.any(axis=2).T[part]
            r0, c0, side = _crop_boxes(row_mask, grids.any(axis=0)[part])
            c0 += part * d
            for s in np.unique(side):
                sel = side == s
                crops = sliding_window_view(block, (s, s))[r0[sel], c0[sel]]
                pieces.setdefault((int(s), k), []).append(
                    crops.reshape(crops.shape[0], -1).astype(np.float32))
            block[lo:hi] = 0.0
    stacks = {key: np.concatenate(pieces[key]) for key in sorted(pieces)}
    return stacks, {key: _coarse_stack(mat, key[0]) for key, mat in stacks.items()}


# Ξ = 2, d = 64 tent/cross build in a fresh interpreter; prints the peak
# RSS after the import and after the build, and the bank's bytes.  The
# peak is the address space's VmHWM: ru_maxrss would carry over the peak
# of the process that started the interpreter, through fork and exec.
_MEMORY_PROBE = """
import json
import deformclass as dc

def peak_kb():
    with open("/proc/self/status") as fh:
        return int(fh.read().split("VmHWM:")[1].split()[0])

base = peak_kb()
bank = dc.build_filter_bank(dc.tent(0.25), dc.cross(0.25, 0.08), 2, 64)
arrays = [*bank.stacks.values(), *bank.coarse.values()]
print(json.dumps({"base_kb": base, "peak_kb": peak_kb(),
                  "bank_bytes": sum(a.nbytes for a in arrays)}))
"""


class TestBankBuildPasses:
    @given(st.sampled_from(sorted(BUILD_TEMPLATES)),
           st.sampled_from(sorted(BUILD_TEMPLATES)),
           st.integers(4, 24), st.integers(1, 2))
    def test_matches_one_pass_build(self, name0, name1, d, xi_max):
        f0, f1 = BUILD_TEMPLATES[name0], BUILD_TEMPLATES[name1]
        bank = build_filter_bank(f0, f1, xi_max, d)
        stacks, coarse = one_pass_build(f0, f1, xi_max, d)
        assert list(bank.stacks) == list(stacks) == list(bank.coarse)
        for got, want in ((bank.stacks, stacks), (bank.coarse, coarse)):
            for key, mat in got.items():
                assert mat.dtype == np.float32
                assert mat.flags.c_contiguous and not mat.flags.writeable
                assert np.array_equal(mat, want[key])

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads the peak RSS from /proc")
    def test_build_memory_is_about_the_bank(self):
        """Each filter is written once, into its final stack: the build's
        peak RSS stays near the bank's own bytes, where collecting pieces
        and concatenating them cost about twice as much."""
        src = str(Path(deformclass.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", _MEMORY_PROBE], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        got = json.loads(done.stdout)
        added = (got["peak_kb"] - got["base_kb"]) * 1024
        assert added <= 1.3 * got["bank_bytes"] + 16 * 2 ** 20


@pytest.fixture(scope="module")
def small_bank(tent_template, cross_template):
    return build_filter_bank(tent_template, cross_template, 1, 8)


class TestClassifyBank:
    def test_resolution_mismatch(self, small_bank):
        with pytest.raises(ConfigError, match="bank built for d=8, image has d=4"):
            classify_bank(small_bank, GrayImage(np.ones((4, 4))))

    def test_grid_aligned_response_is_unit(self, tent_template):
        bank = build_filter_bank(tent_template, tent_template, 1, 16)
        filt = bank.filter_at(0, 32, 32)
        img = normalize_l2(rasterize(tent_template, IDENT, 16))
        assert feature_max(filt, img) == pytest.approx(1.0, abs=1e-9)

    def test_labels_separate_the_pair(self, small_bank, tent_template,
                                      cross_template):
        img0 = normalize_l2(rasterize(tent_template, IDENT, 8))
        img1 = normalize_l2(rasterize(cross_template, IDENT, 8))
        d0 = classify_bank(small_bank, img0)
        d1 = classify_bank(small_bank, img1)
        assert d0.label == 0 and d1.label == 1
        assert d0.z0 == pytest.approx(1.0, abs=1e-6)
        assert d1.z1 == pytest.approx(1.0, abs=1e-6)
        assert d0.p0 + d0.p1 == 1.0

    def test_fast_path_matches_exact_path(self, small_bank, tent_template,
                                          mild_q):
        from deformclass import sample_params
        for i in range(2):
            params = sample_params(mild_q, i)
            img = normalize_l2(rasterize(tent_template, params, 8))
            assert_matches_oracle(small_bank, img)

    def test_beta_defaults_to_resolution(self, small_bank, tent_template):
        img = normalize_l2(rasterize(tent_template, IDENT, 8))
        auto = classify_bank(small_bank, img)
        manual = classify_bank(small_bank, img, beta=8.0)
        assert auto.p0 == manual.p0

    def test_all_zero_image(self, small_bank):
        decision = classify_bank(small_bank, GrayImage(np.zeros((8, 8))))
        assert (decision.z0, decision.z1) == (0.0, 0.0)
        assert decision.label == 0

    def test_non_finite_image_is_numeric_error(self, small_bank):
        with pytest.raises(NumericError, match="8 x 8 image has norm nan"):
            classify_bank(small_bank, GrayImage(np.full((8, 8), np.nan)))
        # one infinite pixel among finite ones: no numpy warning, an error
        px = np.eye(8) / np.sqrt(8)
        px[3, 3] = np.inf
        with pytest.raises(NumericError, match="8 x 8 image has norm inf"):
            classify_bank(small_bank, GrayImage(px))

    def test_fast_path_matches_oracle_on_both_classes(self, cross_template):
        f0 = tent(0.1)
        bank = build_filter_bank(f0, cross_template, 1, 16)
        q = DeformDistribution(eta_range=(0.8, 1.2), xi_range=(1.0, 1.5),
                               seed=5)
        data = generate_dataset([f0], [cross_template], q, 6, 16)
        assert {item.label for item in data.items} == {0, 1}
        gaps = []
        for item in data.items:
            z0, z1 = assert_matches_oracle(bank, normalize_l2(item.image))
            gaps.append(abs(z0 - z1))
        # a wide gap means the weaker class is pruned against its own,
        # lower bound; a shared bound would drop patches it needs
        assert max(gaps) > 0.2

    def test_side_with_one_class_only(self):
        f0, f1 = tent(0.1), tent(0.25)
        bank = build_filter_bank(f0, f1, 1, 8)
        sides = [{s for s, k in bank.stacks if k == c} for c in (0, 1)]
        assert sides[0] - sides[1] and sides[1] - sides[0]
        for f in (f0, f1):
            assert_matches_oracle(bank, normalize_l2(rasterize(f, IDENT, 8)))


def framed_patches(pixels: np.ndarray, side: int) -> np.ndarray:
    """float64 side x side patches of the image's support box framed by
    side-1 zeros, one row per shift, shifts in row-major order."""
    rows = np.flatnonzero(pixels.any(axis=1))
    cols = np.flatnonzero(pixels.any(axis=0))
    framed = np.pad(pixels[rows[0]: rows[-1] + 1, cols[0]: cols[-1] + 1],
                    side - 1)
    return sliding_window_view(framed, (side, side)).reshape(-1, side * side)


def dense_channel_maxima(bank, img) -> list[float]:
    """The oracle's channel maxima without its per-shift loop: every live
    filter, rebuilt in float64 by filter_at, against every shift."""
    rows = {}
    for k in (0, 1):
        for i in bank.live:
            for j in bank.live:
                w = bank.filter_at(k, i, j).weights
                if w is not None:
                    rows.setdefault((w.shape[0], k), []).append(w.ravel())
    z = [0.0, 0.0]
    for (side, k), ws in rows.items():
        responses = np.array(ws) @ framed_patches(img.pixels, side).T
        z[k] = max(z[k], float(responses.max()))
    return z


BANK_TEMPLATES = {"tent": tent(0.2), "cone": cone(0.2), "cross": cross(0.2, 0.1)}


# (z0, z1) of the production-scale queries in TestPrunedBank, as float hex,
# recorded while the query still probed every filter to seed z.
PRODUCTION_GOLDEN = [
    ("0x1.ffa0740000000p-1", "0x1.e9c6c00000000p-1"),
    ("0x1.eb1a500000000p-1", "0x1.ffb5580000000p-1"),
    ("0x1.ffe0020000000p-1", "0x1.ebc6ae0000000p-1"),
    ("0x1.ebcf780000000p-1", "0x1.ffd64c0000000p-1"),
    ("0x1.ee49c40000000p-1", "0x1.ffce7a0000000p-1"),
    ("0x1.ee11080000000p-1", "0x1.ffb1ba0000000p-1"),
    ("0x1.ffd3dc0000000p-1", "0x1.eb81be0000000p-1"),
    ("0x1.ffbe300000000p-1", "0x1.eaec120000000p-1"),
]


class TestPrunedBank:
    def test_production_scale_matches_golden(self):
        """The bank workload's scale: tent vs cross at Xi = 2, d = 64."""
        f0, f1 = tent(0.25), cross(0.25, 0.08)
        bank = build_filter_bank(f0, f1, 2, 64)
        q = DeformDistribution(eta_range=(0.8, 1.2), xi_range=(1.0, 1.5),
                               seed=15)
        data = generate_dataset([f0], [f1], q, 8, 64)
        for item, golden in zip(data.items, PRODUCTION_GOLDEN, strict=True):
            z = [float.fromhex(h) for h in golden]
            decision = classify_bank(bank, normalize_l2(item.image))
            assert decision.z0 == pytest.approx(z[0], abs=1e-6)
            assert decision.z1 == pytest.approx(z[1], abs=1e-6)
            assert decision.label == (0 if z[0] >= z[1] else 1) == item.label

    def test_dense_reference_equals_oracle(self):
        bank = build_filter_bank(tent(0.2), cone(0.2), 1, 12)
        q = DeformDistribution(eta_range=(0.8, 1.2), xi_range=(0.7, 1.6), seed=3)
        for i, f in enumerate((tent(0.2), cone(0.2))):
            img = normalize_l2(rasterize(f, sample_params(q, i), 12))
            assert dense_channel_maxima(bank, img) == pytest.approx(
                oracle_channel_maxima(bank, img), abs=1e-12)

    def test_fast_path_matches_oracle(self):
        sides = set()

        @given(st.sampled_from(sorted(BANK_TEMPLATES)),
               st.sampled_from(sorted(BANK_TEMPLATES)),
               st.integers(8, 20), st.integers(1, 2), st.integers(0, 1),
               st.integers(0, 2**32 - 1))
        def check(name0, name1, d, xi_max, label, seed):
            f0, f1 = BANK_TEMPLATES[name0], BANK_TEMPLATES[name1]
            bank = build_filter_bank(f0, f1, xi_max, d)
            sides.update(side for side, _ in bank.stacks)
            q = DeformDistribution(eta_range=(0.8, 1.2), xi_range=(0.7, 1.6),
                                   flip_prob=0.3, seed=seed)
            raster = rasterize((f0, f1)[label], sample_params(q, 0), d)
            assume(raster.pixels.any())
            img = normalize_l2(raster)
            decision = classify_bank(bank, img)
            z = dense_channel_maxima(bank, img)
            assert decision.z0 == pytest.approx(z[0], abs=1e-6)
            assert decision.z1 == pytest.approx(z[1], abs=1e-6)
            assert decision.label == (0 if z[0] >= z[1] else 1)

        check()
        # the drawn banks held sides below the block (one padded block) and
        # sides that are not a multiple of it (a padded last block)
        assert min(sides) < _BLOCK and any(side % _BLOCK for side in sides)

    @pytest.mark.parametrize("xi_max, d", [(1, 13), (2, 16), (2, 24)])
    def test_coarse_bound_covers_every_pair(self, xi_max, d):
        bank = build_filter_bank(tent(0.2), cross(0.2, 0.1), xi_max, d)
        q = DeformDistribution(eta_range=(0.8, 1.2), xi_range=(0.7, 1.6),
                               flip_prob=0.3, seed=d)
        for i, f in enumerate((tent(0.2), cross(0.2, 0.1), cone(0.15))):
            img = normalize_l2(rasterize(f, sample_params(q, i), d))
            by_side = _patches_by_side(bank, img.pixels)
            for (side, k), mat in bank.stacks.items():
                patches = by_side[side]
                r, c = np.indices(patches.norms.shape).reshape(2, -1)
                bound = bank.coarse[side, k] @ patches.coarse_vectors(r, c).T
                exact = mat.astype(np.float64) @ framed_patches(img.pixels, side).T
                assert bound.dtype == np.float32
                assert (bound >= exact - 1e-5).all()
