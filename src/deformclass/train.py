"""Small trainable CNN fitted by least squares.

Architecture: one convolution layer with bias (zero padding as wide as the
kernel), ReLU, global max-pooling, then fully connected ReLU layers and a
tempered two-class softmax.  The loss is the mean squared difference
between the class-1 probability and the 0/1 label, minimized by Adam.
Gradients are hand-derived and checked against central finite differences;
max-pool ties route the subgradient to the first argmax in both paths.

The convolution is one matmul over an im2col layout (Chellapilla, Puri and
Simard 2006), and pooling comes before the ReLU: the raw map is max-pooled
per channel and the ReLU is applied to the pooled (B, n_filters) values.
This is exact, not an approximation, because ReLU is monotone, so
max(relu(c)) = relu(max(c)) value for value.  Where the maximum is
positive the first argmax is also the same in both orders; where it is
not, the channel is dead, its output is 0 and it passes no gradient.

The images are supports on a zero background, so the conv runs only on
each image's support box: the nonzero bounding box, framed by k - 1 zeros
so that every patch touching it is included, copied to one canvas sized
for the batch's largest box.  Any patch off the box holds only zeros and
yields exactly the bias, so one all-zero column, put before the canvas
patches in the im2col, stands for the whole background.  This is exact:
translation keeps the row-major order of the support patches, and the
full frame's first patch is background too, so the first argmax picks the
same patch, and where no support patch exceeds the bias (ties included)
the pooled value is the bias and the routed patch is all zeros.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cnn import check_temperature
from .datagen import Dataset, LabeledImage
from .errors import (DataError, DimMismatch, EmptyDataset, InvalidParams,
                     TruncatedPayload)
from .model import GrayImage, nonzero_boxes

_MAGIC = b"DCNN"
_VERSION = 1

# Adam's moment decays and denominator guard, at Kingma and Ba's defaults.
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


@dataclass(frozen=True)
class ArchSpec:
    n_filters: int = 28
    filter_size: int = 3
    dense_widths: tuple[int, ...] = (128,)
    beta: float = 1.0

    def validate(self) -> None:
        if self.n_filters < 1 or self.filter_size < 1:
            raise InvalidParams("need at least one filter of positive size")
        if any(w < 1 for w in self.dense_widths):
            raise InvalidParams("dense widths must be positive")
        check_temperature(self.beta)


@dataclass(frozen=True)
class OptSpec:
    learning_rate: float = 0.01
    epochs: int = 20
    batch_size: int = 16
    seed: int = 0

    def validate(self) -> None:
        if not (0 < self.learning_rate < np.inf) or self.epochs < 1 or self.batch_size < 1:
            raise InvalidParams(
                "optimizer spec must have a finite positive rate and positive epochs/batch")


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class TrainableCnn:
    """Conv -> ReLU -> global max-pool -> dense stack -> softmax pair."""

    def __init__(self, arch: ArchSpec, seed: int = 0):
        arch.validate()
        self.arch = arch
        self.beta = float(arch.beta)
        rng = np.random.default_rng(seed)
        k, nf = arch.filter_size, arch.n_filters
        self.conv_w = rng.standard_normal((nf, k, k)) * np.sqrt(2.0 / (k * k))
        self.conv_b = np.zeros(nf)
        self.dense: list[tuple[np.ndarray, np.ndarray]] = []
        fan_in = nf
        for width in (*arch.dense_widths, 2):
            w = rng.standard_normal((width, fan_in)) * np.sqrt(2.0 / fan_in)
            self.dense.append((w, np.zeros(width)))
            fan_in = width
        self.loss_history: list[float] = []

    # -- parameter plumbing ------------------------------------------------

    def param_arrays(self) -> list[np.ndarray]:
        arrays = [self.conv_w, self.conv_b]
        for w, b in self.dense:
            arrays.extend((w, b))
        return arrays

    def get_flat(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.param_arrays()])

    def set_flat(self, flat: np.ndarray) -> None:
        expected = sum(a.size for a in self.param_arrays())
        if flat.size != expected:
            raise InvalidParams(
                f"parameter vector size {flat.size}, expected {expected}")
        pos = 0
        for a in self.param_arrays():
            a[...] = flat[pos: pos + a.size].reshape(a.shape)
            pos += a.size

    # -- forward / backward ------------------------------------------------

    def forward_batch(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        """Class-1 probabilities for a (B, d, d) batch, plus a backward cache.

        The conv runs on each image's support box framed by k - 1 zeros, on
        one canvas sized for the batch's largest box; column 0 of the im2col
        (``cache["cols"]``) is the all-zero background patch, and
        ``cache["pool_idx"]`` indexes those columns.
        """
        k = self.arch.filter_size
        b = len(x)
        r0, r1, c0, c1 = nonzero_boxes(x)
        ph = int((r1 - r0).max(initial=0)) + k - 1
        pw = int((c1 - c0).max(initial=0)) + k - 1
        canvas = np.zeros((b, ph + k - 1, pw + k - 1))
        for dst, img, top, bottom, left, right in zip(canvas, x, r0, r1, c0, c1):
            dst[k - 1: k - 1 + bottom - top, k - 1: k - 1 + right - left] = (
                img[top:bottom, left:right])
        # im2col: row i*k + j holds pixel (i, j) of every patch, so the conv
        # map comes out of one matmul as a contiguous (B, nf, 1 + P) array.
        # Splitting the axes of the column slice is always a view.
        cols = np.zeros((b, k * k, 1 + ph * pw))
        cols[:, :, 1:].reshape(b, k, k, ph, pw)[...] = sliding_window_view(
            canvas, (ph, pw), axis=(1, 2))
        conv = self.conv_w.reshape(-1, k * k) @ cols
        conv += self.conv_b[:, None]
        pool_idx = conv.argmax(axis=2)
        raw_max = np.take_along_axis(conv, pool_idx[:, :, None], axis=2)[:, :, 0]

        hidden = [np.maximum(raw_max, 0.0)]
        for w, bias in self.dense[:-1]:
            hidden.append(np.maximum(hidden[-1] @ w.T + bias, 0.0))
        w_out, b_out = self.dense[-1]
        z = hidden[-1] @ w_out.T + b_out
        p1 = _sigmoid(self.beta * (z[:, 1] - z[:, 0]))
        cache = {"cols": cols, "pool_idx": pool_idx, "hidden": hidden}
        return p1, cache

    def forward(self, img: GrayImage) -> tuple[float, float]:
        """Probability pair (p0, p1) for one image; sums to 1 exactly."""
        p1, _ = self.forward_batch(img.pixels[None])
        return 1.0 - float(p1[0]), float(p1[0])

    def predict_batch(self, x: np.ndarray, chunk: int) -> np.ndarray:
        """0/1 labels for a (B, d, d) batch, forwarded ``chunk`` images at a time."""
        p1 = [self.forward_batch(x[s: s + chunk])[0]
              for s in range(0, len(x), chunk)]
        return (np.concatenate(p1) > 0.5).astype(int)

    def loss_and_gradients(self, x: np.ndarray, y: np.ndarray
                           ) -> tuple[float, list[np.ndarray]]:
        """The mean squared loss on (x, y) and its analytic gradient per
        parameter array, from a single forward pass."""
        p1, cache = self.forward_batch(x)
        # d loss / d z, through p1 = sigmoid(beta (z1 - z0))
        gp = 2.0 * (p1 - y) / len(x)
        gt = gp * self.beta * p1 * (1.0 - p1)
        gz = np.stack([-gt, gt], axis=1)

        hidden = cache["hidden"]
        grads_dense: list[tuple[np.ndarray, np.ndarray]] = []
        gcur = gz
        for layer in range(len(self.dense) - 1, -1, -1):
            w, _ = self.dense[layer]
            gw = gcur.T @ hidden[layer]
            gb = gcur.sum(axis=0)
            grads_dense.append((gw, gb))
            gcur = (gcur @ w) * (hidden[layer] > 0)
        grads_dense.reverse()

        # gcur now carries the pooled gradient masked by the ReLU (live
        # channels have raw max > 0); route it to the first argmax patch.
        patches = np.take_along_axis(cache["cols"], cache["pool_idx"][:, None, :],
                                     axis=2)
        gw_conv = np.einsum("bf,bkf->fk", gcur, patches).reshape(self.conv_w.shape)
        gb_conv = gcur.sum(axis=0)

        grads = [gw_conv, gb_conv]
        for gw, gb in grads_dense:
            grads.extend((gw, gb))
        return float(np.mean((y - p1) ** 2)), grads


def train_least_squares(data: Dataset, arch: ArchSpec | None = None,
                        opt: OptSpec | None = None) -> TrainableCnn:
    """Fit the network to (image, label) pairs by Adam on the squared loss.

    Images are expected pre-normalized and of one size (``DimMismatch``
    otherwise).  The per-epoch mean loss is logged on the returned
    network's ``loss_history``.
    """
    arch = arch or ArchSpec()
    opt = opt or OptSpec()
    arch.validate()
    opt.validate()
    if len(data) == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    sides = sorted({item.image.d for item in data.items})
    if len(sides) > 1:
        raise DimMismatch(f"training images must share one side length, "
                          f"got sides {sides}")
    x = np.stack([item.image.pixels for item in data.items])
    y = np.array([item.label for item in data.items], dtype=float)

    net = TrainableCnn(arch, seed=opt.seed)
    rng = np.random.default_rng(opt.seed + 1)
    params = net.param_arrays()
    m = [np.zeros_like(a) for a in params]
    v = [np.zeros_like(a) for a in params]
    t = 0
    n = len(data)
    for _ in range(opt.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, opt.batch_size):
            idx = order[start: start + opt.batch_size]
            xb, yb = x[idx], y[idx]
            loss, grads = net.loss_and_gradients(xb, yb)
            total += loss * idx.size
            t += 1
            for a, g, mi, vi in zip(params, grads, m, v):
                mi *= _BETA1
                mi += (1 - _BETA1) * g
                vi *= _BETA2
                vi += (1 - _BETA2) * g * g
                m_hat = mi / (1 - _BETA1 ** t)
                v_hat = vi / (1 - _BETA2 ** t)
                a -= opt.learning_rate * m_hat / (np.sqrt(v_hat) + _EPS)
        net.loss_history.append(total / n)
    return net


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradCheckResult:
    max_rel_error: float
    n_checked: int
    n_skipped: int

    def __float__(self) -> float:
        return self.max_rel_error


def grad_check(net: TrainableCnn, sample: LabeledImage, eps: float,
               n_params: int = 100, seed: int = 0) -> GradCheckResult:
    """Central-difference check of the analytic loss gradient.

    Coordinates whose perturbation flips a max-pool argmax sit on a kink of
    the loss; they are skipped and counted rather than compared.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise InvalidParams(f"eps must lie in [1e-7, 1e-3], got {eps}")
    x = sample.image.pixels[None]
    y = np.array([float(sample.label)])

    def pool_pattern() -> np.ndarray:
        # Only live channels (raw max > 0) pass gradient, so only their
        # argmax is a kink; a dead channel's argmax may move freely.  The
        # image is fixed, so its canvas is too, and index 0 (background)
        # against any support patch still shows a move between the two.
        _, cache = net.forward_batch(x)
        return np.where(cache["hidden"][0] > 0, cache["pool_idx"], -1)

    base_pattern = pool_pattern()
    analytic = np.concatenate([g.ravel() for g in net.loss_and_gradients(x, y)[1]])
    flat = net.get_flat()
    rng = np.random.default_rng(seed)
    count = min(n_params, flat.size)
    coords = rng.choice(flat.size, size=count, replace=False)

    max_rel = 0.0
    skipped = 0
    for c in coords:
        orig = flat[c]
        flat[c] = orig + eps
        net.set_flat(flat)
        lp = net.loss_and_gradients(x, y)[0]
        tied = not np.array_equal(pool_pattern(), base_pattern)
        flat[c] = orig - eps
        net.set_flat(flat)
        lm = net.loss_and_gradients(x, y)[0]
        tied = tied or not np.array_equal(pool_pattern(), base_pattern)
        flat[c] = orig
        net.set_flat(flat)
        if tied:
            skipped += 1
            continue
        numeric = (lp - lm) / (2 * eps)
        denom = max(abs(analytic[c]), abs(numeric), 1e-6)
        max_rel = max(max_rel, abs(analytic[c] - numeric) / denom)
    return GradCheckResult(max_rel_error=float(max_rel),
                           n_checked=count - skipped, n_skipped=skipped)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(net: TrainableCnn) -> bytes:
    """Flat binary record: magic, version, architecture, little-endian f64."""
    widths = net.arch.dense_widths
    header = struct.pack("<4sHHHH", _MAGIC, _VERSION, net.arch.n_filters,
                         net.arch.filter_size, len(widths))
    header += struct.pack(f"<{len(widths)}H", *widths)
    header += struct.pack("<d", net.beta)
    body = b"".join(a.astype("<f8").tobytes() for a in net.param_arrays())
    return header + body


def load_checkpoint(blob: bytes) -> TrainableCnn:
    if len(blob) < 4 or blob[:4] != _MAGIC:
        raise DataError("not a checkpoint: bad magic")
    if len(blob) < 12:
        raise TruncatedPayload("checkpoint header truncated")
    version, nf, k, n_widths = struct.unpack("<HHHH", blob[4:12])
    if version != _VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
    pos = 12
    if len(blob) < pos + 2 * n_widths + 8:
        raise TruncatedPayload("checkpoint header truncated")
    widths = struct.unpack(f"<{n_widths}H", blob[pos: pos + 2 * n_widths])
    pos += 2 * n_widths
    (beta,) = struct.unpack("<d", blob[pos: pos + 8])
    pos += 8
    arch = ArchSpec(n_filters=nf, filter_size=k, dense_widths=tuple(widths),
                    beta=beta)
    try:
        arch.validate()
    except InvalidParams as exc:
        raise DimMismatch(f"checkpoint header: {exc}") from exc
    # Check the size before building: the constructor fills every layer the
    # header declares, which a short file must not be able to inflate.
    fans = (nf, *widths, 2)
    expected = 8 * (nf * (k * k + 1) + sum(o * (i + 1) for i, o in zip(fans, fans[1:])))
    if len(blob) - pos != expected:
        raise TruncatedPayload(
            f"checkpoint body has {len(blob) - pos} bytes, expected {expected}")
    net = TrainableCnn(arch)
    net.set_flat(np.frombuffer(blob[pos:], dtype="<f8").astype(float))
    return net
