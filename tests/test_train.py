import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from deformclass import (
    ArchSpec,
    DataError,
    DeformClassError,
    DimMismatch,
    GrayImage,
    InvalidParams,
    LabeledImage,
    OptSpec,
    TrainableCnn,
    TruncatedPayload,
    grad_check,
    load_checkpoint,
    save_checkpoint,
    train_least_squares,
)
from deformclass import train
from deformclass.model import IDENTITY
from deformclass.train import _sigmoid

SMALL_ARCH = ArchSpec(n_filters=4, filter_size=3, dense_widths=(16,))
TINY_BLOB = save_checkpoint(TrainableCnn(ArchSpec(n_filters=2, filter_size=2,
                                                  dense_widths=(3,))))


class TestSpecs:
    def test_arch_validation(self):
        for bad in [ArchSpec(n_filters=0), ArchSpec(filter_size=0),
                    ArchSpec(dense_widths=(0,)), ArchSpec(beta=0.0)]:
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
        p0, p1 = net.forward(small_dataset.items[0].image)
        assert p0 + p1 == 1.0
        assert 0.0 < p1 < 1.0

    def test_flat_roundtrip(self):
        net = TrainableCnn(SMALL_ARCH, seed=3)
        flat = net.get_flat()
        net.set_flat(flat * 2.0)
        assert np.array_equal(net.get_flat(), flat * 2.0)
        with pytest.raises(InvalidParams):
            net.set_flat(flat[:-1])


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
        assert loss == net.loss_batch(x, y)

    def test_batched_prediction_matches_per_image(self, small_dataset):
        net = train_least_squares(small_dataset, SMALL_ARCH,
                                  OptSpec(epochs=10, batch_size=4, seed=3))
        x = np.stack([it.image.pixels for it in small_dataset.items])
        per_image = [int(net.forward(it.image)[1] > 0.5)
                     for it in small_dataset.items]
        for chunk in (1, 3, 4, len(x)):
            assert net.predict_batch(x, chunk).tolist() == per_image


class TestTraining:
    def test_memorizes_small_dataset(self, small_dataset):
        net = train_least_squares(
            small_dataset,
            ArchSpec(n_filters=8, filter_size=3, dense_widths=(32,)),
            OptSpec(epochs=200, batch_size=8, learning_rate=0.01, seed=0))
        assert len(net.loss_history) == 200
        assert net.loss_history[-1] < 0.01
        correct = sum(int(net.forward(it.image)[1] > 0.5) == it.label
                      for it in small_dataset.items)
        assert correct == len(small_dataset.items)

    def test_deterministic(self, small_dataset):
        opt = OptSpec(epochs=2, batch_size=4, seed=5)
        a = train_least_squares(small_dataset, SMALL_ARCH, opt)
        b = train_least_squares(small_dataset, SMALL_ARCH, opt)
        assert np.array_equal(a.get_flat(), b.get_flat())
        assert a.loss_history == b.loss_history


class TestGradCheck:
    def test_analytic_matches_numeric(self, small_dataset):
        for init in (0, 1):
            net = TrainableCnn(SMALL_ARCH, seed=init)
            res = grad_check(net, small_dataset.items[init], eps=1e-5, seed=init)
            assert float(res) <= 1e-4
            assert res.n_checked + res.n_skipped == 100

    @staticmethod
    def tied_setup() -> tuple[TrainableCnn, LabeledImage]:
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
        tied_img = LabeledImage(image=GrayImage(pix), label=1,
                                template_index=0, params=IDENTITY)
        return net, tied_img

    def test_exact_pool_ties_are_skipped(self):
        # on live channels the reordering is a kink: detected and skipped
        net, tied_img = self.tied_setup()
        res = grad_check(net, tied_img, eps=1e-5, seed=0)
        assert res.n_skipped > 0
        assert res.max_rel_error <= 1e-4

    def test_dead_channel_ties_are_not_skipped(self):
        # a dead channel (raw max <= 0) passes no gradient wherever its
        # argmax lands, so reordering its peaks is no kink; the dense biases
        # keep the dense ReLUs off their own kink at zero input
        net, tied_img = self.tied_setup()
        net.conv_b[:] = -50.0
        net.dense[0][1][:] = 0.1
        res = grad_check(net, tied_img, eps=1e-5, n_params=net.get_flat().size)
        assert res.n_skipped == 0
        assert res.max_rel_error <= 1e-4

    def test_eps_range_enforced(self, small_dataset):
        net = TrainableCnn(SMALL_ARCH, seed=0)
        for eps in (1e-8, 1e-2):
            with pytest.raises(InvalidParams):
                grad_check(net, small_dataset.items[0], eps=eps)


class TestCheckpoints:
    def test_roundtrip_bit_exact(self, small_dataset):
        net = train_least_squares(small_dataset, SMALL_ARCH,
                                  OptSpec(epochs=2, batch_size=4, seed=9))
        blob = save_checkpoint(net)
        restored = load_checkpoint(blob)
        assert np.array_equal(restored.get_flat(), net.get_flat())
        assert restored.arch == net.arch
        img = small_dataset.items[0].image
        assert restored.forward(img) == net.forward(img)

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
