import hashlib
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from deformclass import (
    ArchSpec,
    DataError,
    DeformClassError,
    DeformDistribution,
    DimMismatch,
    GrayImage,
    InvalidParams,
    LabeledImage,
    NumericError,
    OptSpec,
    TrainableCnn,
    TruncatedPayload,
    cone,
    generate_dataset,
    grad_check,
    load_checkpoint,
    save_checkpoint,
    tent,
    train_least_squares,
)
from deformclass import train
from deformclass.datagen import unit_arrays
from deformclass.model import IDENTITY
from deformclass.train import _sigmoid

SMALL_ARCH = ArchSpec(n_filters=4, filter_size=3, dense_widths=(16,))
TINY_BLOB = save_checkpoint(TrainableCnn(ArchSpec(n_filters=2, filter_size=2,
                                                  dense_widths=(3,))))


def raw_arrays(data):
    """The dataset's images, not normalized, as one stack, and its labels."""
    return (np.stack([it.image.pixels for it in data.items]),
            np.array([it.label for it in data.items]))


def p1_of(net: TrainableCnn, img: GrayImage) -> float:
    return float(net.forward_batch(img.pixels[None])[0][0])


class TestSpecs:
    def test_arch_validation(self):
        for bad in [ArchSpec(n_filters=0), ArchSpec(filter_size=0),
                    ArchSpec(dense_widths=(0,)), ArchSpec(beta=0.0),
                    ArchSpec(beta=float("inf")), ArchSpec(beta=float("nan"))]:
            with pytest.raises(InvalidParams):
                bad.validate()

    def test_opt_validation(self):
        for bad in [OptSpec(learning_rate=0.0), OptSpec(learning_rate=float("nan")),
                    OptSpec(learning_rate=float("inf")), OptSpec(epochs=0),
                    OptSpec(batch_size=0)]:
            with pytest.raises(InvalidParams):
                bad.validate()


class TestNetwork:
    def test_probabilities_sum_to_one(self, small_dataset):
        net = TrainableCnn(SMALL_ARCH, seed=1)
        p1 = p1_of(net, small_dataset.items[0].image)
        p0 = 1.0 - p1
        assert p0 + p1 == 1.0
        assert 0.0 < p1 < 1.0

    def test_flat_roundtrip(self):
        net = TrainableCnn(SMALL_ARCH, seed=3)
        flat = net.params.copy()
        conv_w = net.conv_w.copy()
        net.params *= 2.0
        assert np.array_equal(net.params, flat * 2.0)
        assert np.array_equal(net.conv_w, conv_w * 2.0)


def sliding_window_forward(net: TrainableCnn, x: np.ndarray) -> np.ndarray:
    """Reference class-1 probabilities: conv, ReLU and max-pool by an explicit
    loop over every zero-padded window, then the dense stack."""
    k = net.arch.filter_size
    pooled = np.zeros((len(x), net.arch.n_filters))
    for b, img in enumerate(x):
        padded = np.pad(img, k)
        for f, (w, bias) in enumerate(zip(net.conv_w, net.conv_b)):
            for r in range(padded.shape[0] - k + 1):
                for c in range(padded.shape[1] - k + 1):
                    response = float((padded[r: r + k, c: c + k] * w).sum()) + bias
                    pooled[b, f] = max(pooled[b, f], response)
    h = pooled
    for w, bias in net.dense[:-1]:
        h = np.maximum(h @ w.T + bias, 0.0)
    z = h @ net.dense[-1][0].T + net.dense[-1][1]
    return _sigmoid(net.beta * (z[:, 1] - z[:, 0]))


def full_frame_forward(net: TrainableCnn, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Oracle of ``forward_batch``: im2col over the whole frame, zero-padded
    k wide on every side, so patch 0 is all zeros."""
    k = net.arch.filter_size
    padded = np.pad(x, ((0, 0), (k, k), (k, k)))
    b, p = len(x), padded.shape[1] - k + 1
    cols = sliding_window_view(padded, (p, p), axis=(1, 2)).reshape(
        b, k * k, p * p)
    conv = net.conv_w.reshape(-1, k * k) @ cols
    conv += net.conv_b[:, None]
    pool_idx = conv.argmax(axis=2)
    raw_max = np.take_along_axis(conv, pool_idx[:, :, None], axis=2)[:, :, 0]
    hidden = [np.maximum(raw_max, 0.0)]
    for w, bias in net.dense[:-1]:
        hidden.append(np.maximum(hidden[-1] @ w.T + bias, 0.0))
    w_out, b_out = net.dense[-1]
    z = hidden[-1] @ w_out.T + b_out
    p1 = _sigmoid(net.beta * (z[:, 1] - z[:, 0]))
    return p1, {"cols": cols, "pool_idx": pool_idx, "hidden": hidden}


def full_frame_loss_and_gradients(net: TrainableCnn, x: np.ndarray, y: np.ndarray):
    """Oracle of ``loss_and_gradients`` on ``full_frame_forward``."""
    p1, cache = full_frame_forward(net, x)
    gp = 2.0 * (p1 - y) / len(x)
    gt = gp * net.beta * p1 * (1.0 - p1)
    gcur = np.stack([-gt, gt], axis=1)
    hidden = cache["hidden"]
    grads_dense = []
    for layer in range(len(net.dense) - 1, -1, -1):
        w, _ = net.dense[layer]
        grads_dense.append((gcur.T @ hidden[layer], gcur.sum(axis=0)))
        gcur = (gcur @ w) * (hidden[layer] > 0)
    grads_dense.reverse()
    patches = np.take_along_axis(cache["cols"], cache["pool_idx"][:, None, :],
                                 axis=2)
    gw_conv = np.einsum("bf,bkf->fk", gcur, patches).reshape(net.conv_w.shape)
    grads = [gw_conv, gcur.sum(axis=0)]
    for gw, gb in grads_dense:
        grads.extend((gw, gb))
    return float(np.mean((y - p1) ** 2)), np.concatenate([g.ravel() for g in grads])


def pooled_and_routed(net: TrainableCnn, cache: dict) -> tuple[np.ndarray, np.ndarray]:
    """Raw (pre-ReLU) pooled values and the patch each one was taken from."""
    k = net.arch.filter_size
    conv = net.conv_w.reshape(-1, k * k) @ cache["cols"] + net.conv_b[:, None]
    idx = cache["pool_idx"]
    return (np.take_along_axis(conv, idx[:, :, None], axis=2)[:, :, 0],
            np.take_along_axis(cache["cols"], idx[:, None, :], axis=2))


def assert_matches_full_frame(net: TrainableCnn, x: np.ndarray, y: np.ndarray):
    p1, cache = net.forward_batch(x)
    ref_p1, ref_cache = full_frame_forward(net, x)
    assert np.array_equal(p1, ref_p1)
    for got, ref in zip(pooled_and_routed(net, cache),
                        pooled_and_routed(net, ref_cache)):
        assert np.array_equal(got, ref)
    for got, ref in zip(cache["hidden"], ref_cache["hidden"]):
        assert np.array_equal(got, ref)
    loss, grads = net.loss_and_gradients(x, y)
    ref_loss, ref_grads = full_frame_loss_and_gradients(net, x, y)
    assert loss == ref_loss
    assert np.array_equal(grads, ref_grads)


def sparse_net(k: int, conv_b: list[float], seed: int, coarse: bool) -> TrainableCnn:
    net = TrainableCnn(ArchSpec(n_filters=len(conv_b), filter_size=k,
                                dense_widths=(5,)), seed=seed)
    net.conv_b[:] = conv_b
    if coarse:
        # weights on a coarse grid, zeros included, so that responses tie
        # each other and the background exactly
        net.conv_w[...] = np.round(net.conv_w * 2.0) / 2.0
    return net


_PIXEL = st.sampled_from([0.25, 0.5, 1.0, -0.5, 0.3]) | st.floats(-2.0, 2.0)


@st.composite
def sparse_batches(draw):
    """A (B, d, d) batch of images, each nonzero only inside its own box."""
    d = draw(st.integers(1, 12))
    b = draw(st.integers(1, 5))
    x = np.zeros((b, d, d))
    for img in x:
        r0, r1 = sorted(draw(st.tuples(st.integers(0, d), st.integers(0, d))))
        c0, c1 = sorted(draw(st.tuples(st.integers(0, d), st.integers(0, d))))
        for _ in range(draw(st.integers(0, 6)) if r1 > r0 and c1 > c0 else 0):
            img[draw(st.integers(r0, r1 - 1)),
                draw(st.integers(c0, c1 - 1))] = draw(_PIXEL)
    y = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]),
                               min_size=b, max_size=b)))
    return x, y


class TestSupportCanvas:
    """``forward_batch`` convolves only each image's support box; every
    output and gradient equals the full-frame computation bit for bit."""

    @given(batch=sparse_batches(), k=st.integers(1, 5),
           conv_b=st.lists(st.sampled_from([0.0, 0.1, -0.3]) | st.floats(-1, 1),
                           min_size=1, max_size=4),
           seed=st.integers(0, 3), coarse=st.booleans())
    def test_matches_full_frame(self, batch, k, conv_b, seed, coarse):
        x, y = batch
        assert_matches_full_frame(sparse_net(k, conv_b, seed, coarse), x, y)

    @staticmethod
    def dot(d: int, r: int, c: int) -> np.ndarray:
        img = np.zeros((d, d))
        img[r, c] = 0.7
        return img

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_named_cases(self, k):
        rng = np.random.default_rng(k)
        d = 10
        wide = np.zeros((d, d))
        wide[1:9, 2:7] = rng.uniform(0.1, 1.0, (8, 5))
        cases = {
            "mixed box sizes": np.stack([wide, self.dot(d, 4, 5)]),
            "touches every border": np.stack(
                [self.dot(d, 0, 3), self.dot(d, d - 1, 3), self.dot(d, 3, 0),
                 self.dot(d, 3, d - 1), rng.uniform(0.1, 1.0, (d, d))]),
            "single pixel": self.dot(d, 6, 2)[None],
            "all zero": np.stack([np.zeros((d, d)), wide]),
            "all zero alone": np.zeros((2, d, d)),
            "negative pixels": np.stack([-wide, wide - 0.5]),
        }
        for conv_b in ([0.1, -0.2, 0.0], [-0.5, -0.5, -0.5]):
            for coarse in (False, True):
                net = sparse_net(k, conv_b, seed=k, coarse=coarse)
                for x in cases.values():
                    assert_matches_full_frame(net, x, np.arange(len(x)) % 2.0)

    def test_negative_bias_background_wins(self):
        # all weights negative on a positive image: every support response
        # is below the negative bias, so the pooled value is the bias and
        # the routed patch is the all-zero background
        net = sparse_net(3, [-0.3, -0.3], seed=0, coarse=False)
        net.conv_w[...] = -np.abs(net.conv_w)
        x = np.stack([self.dot(8, 2, 5), self.dot(8, 7, 7)])
        _, cache = net.forward_batch(x)
        pooled, routed = pooled_and_routed(net, cache)
        assert np.array_equal(pooled, np.full((2, 2), -0.3))
        assert not routed.any()
        assert_matches_full_frame(net, x, np.array([0.0, 1.0]))

    def test_golden_training_run(self):
        # loss_history and parameters of one fixed run, recorded with the
        # full-frame convolution
        q = DeformDistribution(eta_range=(0.5, 1.5), xi_range=(1.0, 2.0),
                               flip_prob=0.5, seed=3)
        x, y = unit_arrays(generate_dataset([tent(0.25)], [cone(0.22)], q, n=12, d=24))
        net = train_least_squares(x, y, SMALL_ARCH,
                                  OptSpec(epochs=3, batch_size=5, seed=2))
        assert [v.hex() for v in net.loss_history] == [
            "0x1.0a79a1abd18fcp-2", "0x1.0110fd836e5f3p-2", "0x1.fd4adcfcade3fp-3"]
        assert hashlib.sha256(net.params.astype("<f8").tobytes()).hexdigest() == (
            "8019459c9dcfddee00c33a679a9e9345c1c80197e942a45033495bba79792e73")


class TestForwardBackward:
    def test_forward_matches_sliding_window_reference(self, small_dataset):
        net = TrainableCnn(SMALL_ARCH, seed=2)
        net.conv_b[:] = [0.1, -50.0, 0.0, 0.3]  # channel 1 is dead
        x = np.stack([it.image.pixels for it in small_dataset.items])
        p1, cache = net.forward_batch(x)
        assert np.all(cache["hidden"][0][:, 1] == 0.0)
        assert np.any(cache["hidden"][0] > 0.0)
        assert np.max(np.abs(p1 - sliding_window_forward(net, x))) <= 1e-12

    def test_loss_from_gradient_pass_is_bit_identical(self, small_dataset):
        net = TrainableCnn(SMALL_ARCH, seed=4)
        x = np.stack([it.image.pixels for it in small_dataset.items[:5]])
        y = np.array([it.label for it in small_dataset.items[:5]], dtype=float)
        loss, _ = net.loss_and_gradients(x, y)
        p1, _ = net.forward_batch(x)
        assert loss == float(np.mean((y - p1) ** 2))

    def test_batched_prediction_matches_per_image(self, small_dataset):
        x, y = raw_arrays(small_dataset)
        net = train_least_squares(x, y, SMALL_ARCH,
                                  OptSpec(epochs=10, batch_size=4, seed=3))
        per_image = [int(p1_of(net, it.image) > 0.5)
                     for it in small_dataset.items]
        for chunk in (1, 3, 4, len(x)):
            assert net.predict_batch(x, chunk).tolist() == per_image


class TestTraining:
    def test_memorizes_small_dataset(self, small_dataset):
        net = train_least_squares(
            *raw_arrays(small_dataset),
            ArchSpec(n_filters=8, filter_size=3, dense_widths=(32,)),
            OptSpec(epochs=200, batch_size=8, learning_rate=0.01, seed=0))
        assert len(net.loss_history) == 200
        assert net.loss_history[-1] < 0.01
        correct = sum(int(p1_of(net, it.image) > 0.5) == it.label
                      for it in small_dataset.items)
        assert correct == len(small_dataset.items)

    def test_deterministic(self, small_dataset):
        opt = OptSpec(epochs=2, batch_size=4, seed=5)
        a = train_least_squares(*raw_arrays(small_dataset), SMALL_ARCH, opt)
        b = train_least_squares(*raw_arrays(small_dataset), SMALL_ARCH, opt)
        assert np.array_equal(a.params, b.params)
        assert a.loss_history == b.loss_history

    def test_mixed_sizes_are_a_data_error(self, small_dataset):
        small = LabeledImage(image=GrayImage(np.eye(12)), label=0,
                             template_index=0, params=IDENTITY)
        data = replace(small_dataset, items=small_dataset.items + (small,))
        with pytest.raises(DimMismatch, match=r"one side length, got sides \[12, 16\]"):
            unit_arrays(data)


class TestGradCheck:
    def test_analytic_matches_numeric(self, small_dataset):
        for init in (0, 1):
            net = TrainableCnn(SMALL_ARCH, seed=init)
            x, y = raw_arrays(small_dataset)
            res = grad_check(net, x[init: init + 1], y[init: init + 1], eps=1e-5,
                             seed=init)
            assert float(res) <= 1e-4
            assert res.n_checked + res.n_skipped == 100

    @staticmethod
    def tied_setup() -> tuple[TrainableCnn, np.ndarray, np.ndarray]:
        # two equal peaks with different neighborhoods: perturbing a conv
        # weight reorders them
        net = TrainableCnn(SMALL_ARCH, seed=0)
        net.conv_w[...] = 0.0
        net.conv_w[:, 1, 1] = 1.0
        pix = np.zeros((8, 8))
        pix[2, 2] = 0.6
        pix[2, 3] = 0.3
        pix[5, 5] = 0.6
        pix[5, 4] = 0.3
        return net, pix[None], np.array([1])

    def test_exact_pool_ties_are_skipped(self):
        # on live channels the reordering is a kink: detected and skipped
        net, x, y = self.tied_setup()
        res = grad_check(net, x, y, eps=1e-5, seed=0)
        assert res.n_skipped > 0
        assert res.max_rel_error <= 1e-4

    def test_dead_channel_ties_are_not_skipped(self):
        # a dead channel (raw max <= 0) passes no gradient wherever its
        # argmax lands, so reordering its peaks is no kink; the dense biases
        # keep the dense ReLUs off their own kink at zero input
        net, x, y = self.tied_setup()
        net.conv_b[:] = -50.0
        net.dense[0][1][:] = 0.1
        res = grad_check(net, x, y, eps=1e-5, n_params=net.params.size)
        assert res.n_skipped == 0
        assert res.max_rel_error <= 1e-4

    def test_support_background_flip_is_skipped(self):
        # with zero weights every support patch ties the background, which
        # wins; on a live channel, raising any weight moves the argmax into
        # the support, a kink that must be skipped rather than compared
        net = TrainableCnn(SMALL_ARCH, seed=0)
        net.conv_w[...] = 0.0
        net.conv_b[:] = 0.1
        net.dense[0][1][:] = 0.1
        pix = np.zeros((8, 8))
        pix[3:5, 2:6] = [[0.2, 0.5, 0.4, 0.1], [0.3, 0.6, 0.2, 0.5]]
        assert not net.forward_batch(pix[None])[1]["pool_idx"].any()
        res = grad_check(net, pix[None], np.array([1]), eps=1e-5,
                         n_params=net.params.size)
        assert res.n_skipped == net.conv_w.size
        assert res.max_rel_error <= 1e-4

    def test_eps_range_enforced(self, small_dataset):
        net = TrainableCnn(SMALL_ARCH, seed=0)
        for eps in (1e-8, 1e-2):
            with pytest.raises(InvalidParams):
                grad_check(net, *raw_arrays(small_dataset), eps=eps)


class TestCheckpoints:
    def test_roundtrip_bit_exact(self, small_dataset):
        net = train_least_squares(*raw_arrays(small_dataset), SMALL_ARCH,
                                  OptSpec(epochs=2, batch_size=4, seed=9))
        blob = save_checkpoint(net)
        restored = load_checkpoint(blob)
        assert np.array_equal(restored.params, net.params)
        assert restored.arch == net.arch
        img = small_dataset.items[0].image
        assert p1_of(restored, img) == p1_of(net, img)

    def test_default_arch_blob_size(self):
        blob = save_checkpoint(TrainableCnn(ArchSpec(), seed=0))
        assert len(blob) == 34022

    def test_bad_magic(self):
        blob = save_checkpoint(TrainableCnn(SMALL_ARCH, seed=0))
        with pytest.raises(DataError):
            load_checkpoint(b"XXXX" + blob[4:])

    def test_truncations(self):
        blob = save_checkpoint(TrainableCnn(SMALL_ARCH, seed=0))
        with pytest.raises(TruncatedPayload):
            load_checkpoint(blob[:8])
        with pytest.raises(TruncatedPayload):
            load_checkpoint(blob[:-8])

    @pytest.mark.parametrize("nf, k, width", [(0, 3, 16), (4, 0, 16), (4, 3, 0)])
    def test_degenerate_architecture_is_data_error(self, nf, k, width):
        header = struct.pack("<4sHHHHHd", b"DCNN", 1, nf, k, 1, width, 1.0)
        with pytest.raises(DimMismatch):
            load_checkpoint(header)

    def test_infinite_temperature_is_data_error(self):
        blob = save_checkpoint(TrainableCnn(SMALL_ARCH, seed=0))
        # The temperature is the f64 just before the body: 12 bytes of
        # fixed header, then one u16 per dense width.
        pos = 12 + 2 * len(SMALL_ARCH.dense_widths)
        patched = blob[:pos] + struct.pack("<d", float("inf")) + blob[pos + 8:]
        with pytest.raises(DimMismatch, match="temperature"):
            load_checkpoint(patched)
        assert load_checkpoint(blob).beta == SMALL_ARCH.beta

    def test_oversized_header_checked_before_building(self, monkeypatch):
        def unbuildable(*args, **kwargs):
            raise AssertionError("network built before the size check")

        monkeypatch.setattr(train, "TrainableCnn", unbuildable)
        header = struct.pack("<4sHHHHHd", b"DCNN", 1, 65535, 65535, 1, 65535, 1.0)
        with pytest.raises(TruncatedPayload, match="expected"):
            load_checkpoint(header + bytes(64))

    @given(blob=st.binary()
           | st.binary().map(lambda b: b"DCNN\x01\x00" + b)
           | st.builds(lambda i, byte, cut: (TINY_BLOB[:i] + bytes([byte])
                                             + TINY_BLOB[i + 1:])[:cut],
                       st.integers(0, len(TINY_BLOB) - 1), st.integers(0, 255),
                       st.integers(0, len(TINY_BLOB))))
    def test_any_bytes_load_or_raise_a_package_error(self, blob):
        try:
            assert isinstance(load_checkpoint(blob), TrainableCnn)
        except DeformClassError:
            pass

    def test_version_gate(self):
        blob = save_checkpoint(TrainableCnn(SMALL_ARCH, seed=0))
        patched = blob[:4] + struct.pack("<H", 2) + blob[6:]
        with pytest.raises(DataError):
            load_checkpoint(patched)


class TestNonFinite:
    def test_non_finite_output_is_numeric_error(self, small_dataset):
        net = TrainableCnn(SMALL_ARCH, seed=0)
        net.params[:] = np.nan
        with pytest.raises(NumericError, match="not finite"):
            net.forward_batch(raw_arrays(small_dataset)[0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_step_is_numeric_error(self):
        # One step from p1 = 1/2 on a blank image: the output bias gradient
        # is beta / 4 = 4, so rate times gradient overflows, while the only
        # forward pass, taken before the step, is finite.
        arch = ArchSpec(n_filters=2, filter_size=3, dense_widths=(4,), beta=16.0)
        opt = OptSpec(learning_rate=1e308, epochs=1, batch_size=1)
        with pytest.raises(NumericError, match="non-finite parameters"):
            train_least_squares(np.zeros((1, 8, 8)), np.array([1]), arch, opt)

    def test_non_finite_checkpoint_weights_are_data_error(self):
        for value in (np.nan, np.inf, -np.inf):
            blob = save_checkpoint(TrainableCnn(SMALL_ARCH, seed=0))
            patched = blob[:-8] + struct.pack("<d", value)
            with pytest.raises(DataError, match="weights are not finite"):
                load_checkpoint(patched)
