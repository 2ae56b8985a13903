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

import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cnn import check_temperature
from .errors import (DataError, DimMismatch, EmptyDataset, InvalidParams,
                     NumericError, TruncatedPayload)
from .model import nonzero_boxes

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


def param_shapes(arch: ArchSpec) -> list[tuple[int, ...]]:
    """Shapes of the parameter arrays in their order in ``params``: the
    conv weights and biases, then each dense layer's weights and biases."""
    shapes = [(arch.n_filters, arch.filter_size, arch.filter_size),
              (arch.n_filters,)]
    fans = (arch.n_filters, *arch.dense_widths, 2)
    for fan_in, width in zip(fans, fans[1:]):
        shapes += [(width, fan_in), (width,)]
    return shapes


def _views(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive slices of ``flat`` reshaped to ``shapes`` (views)."""
    ends = list(itertools.accumulate((math.prod(s) for s in shapes), initial=0))
    return [flat[a:b].reshape(s) for a, b, s in zip(ends, ends[1:], shapes)]


class TrainableCnn:
    """Conv -> ReLU -> global max-pool -> dense stack -> softmax pair.

    All parameters live in one float64 vector, ``params``; ``conv_w``,
    ``conv_b`` and the ``dense`` (weights, biases) pairs are views into it.
    """

    def __init__(self, arch: ArchSpec, seed: int = 0):
        arch.validate()
        self.arch = arch
        self.beta = float(arch.beta)
        self.shapes = param_shapes(arch)
        self.params = np.zeros(sum(math.prod(s) for s in self.shapes))
        views = _views(self.params, self.shapes)
        self.conv_w, self.conv_b = views[:2]
        self.dense = list(zip(views[2::2], views[3::2]))
        # He initialisation, layer by layer; biases start at zero.
        rng = np.random.default_rng(seed)
        for w in views[::2]:
            w[...] = rng.standard_normal(w.shape) * np.sqrt(2.0 / w[0].size)
        self.loss_history: list[float] = []

    # -- forward / backward ------------------------------------------------

    def forward_batch(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        """Class-1 probabilities for a (B, d, d) batch, plus a backward cache.

        The conv runs on each image's support box framed by k - 1 zeros, on
        one canvas sized for the batch's largest box; column 0 of the im2col
        (``cache["cols"]``) is the all-zero background patch, and
        ``cache["pool_idx"]`` indexes those columns.  Non-finite logits
        raise ``NumericError``; finite ones give finite probabilities.
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
        # overflow shows as a non-finite z, which the check below reports
        with np.errstate(over="ignore", invalid="ignore"):
            conv = self.conv_w.reshape(-1, k * k) @ cols
            conv += self.conv_b[:, None]
            pool_idx = conv.argmax(axis=2)
            raw_max = np.take_along_axis(conv, pool_idx[:, :, None],
                                         axis=2)[:, :, 0]
            hidden = [np.maximum(raw_max, 0.0)]
            for w, bias in self.dense[:-1]:
                hidden.append(np.maximum(hidden[-1] @ w.T + bias, 0.0))
            w_out, b_out = self.dense[-1]
            z = hidden[-1] @ w_out.T + b_out
            p1 = _sigmoid(self.beta * (z[:, 1] - z[:, 0]))
        if not np.isfinite(z).all():
            raise NumericError("network output is not finite")
        cache = {"cols": cols, "pool_idx": pool_idx, "hidden": hidden}
        return p1, cache

    def predict_batch(self, x: np.ndarray, chunk: int) -> np.ndarray:
        """0/1 labels for a (B, d, d) batch, forwarded ``chunk`` images at a time."""
        p1 = [self.forward_batch(x[s: s + chunk])[0]
              for s in range(0, len(x), chunk)]
        return (np.concatenate(p1) > 0.5).astype(int)

    def loss_and_gradients(self, x: np.ndarray, y: np.ndarray
                           ) -> tuple[float, np.ndarray]:
        """The mean squared loss on (x, y) and its analytic gradient, laid
        out like ``params``, from a single forward pass."""
        p1, cache = self.forward_batch(x)
        grad = np.empty_like(self.params)
        g_conv_w, g_conv_b, *g_dense = _views(grad, self.shapes)
        # d loss / d z, through p1 = sigmoid(beta (z1 - z0))
        gp = 2.0 * (p1 - y) / len(x)
        gt = gp * self.beta * p1 * (1.0 - p1)
        gcur = np.stack([-gt, gt], axis=1)

        hidden = cache["hidden"]
        for layer in range(len(self.dense) - 1, -1, -1):
            g_dense[2 * layer][...] = gcur.T @ hidden[layer]
            g_dense[2 * layer + 1][...] = gcur.sum(axis=0)
            gcur = (gcur @ self.dense[layer][0]) * (hidden[layer] > 0)

        # gcur now carries the pooled gradient masked by the ReLU (live
        # channels have raw max > 0); route it to the first argmax patch.
        patches = np.take_along_axis(cache["cols"], cache["pool_idx"][:, None, :],
                                     axis=2)
        g_conv_w[...] = np.einsum("bf,bkf->fk", gcur, patches).reshape(
            g_conv_w.shape)
        g_conv_b[...] = gcur.sum(axis=0)
        return float(np.mean((y - p1) ** 2)), grad


def train_least_squares(x: np.ndarray, y: np.ndarray,
                        arch: ArchSpec | None = None,
                        opt: OptSpec | None = None) -> TrainableCnn:
    """Fit the network to an (N, d, d) image stack and its 0/1 labels by
    Adam on the squared loss.

    Images are expected pre-normalized (``datagen.unit_arrays``).  The
    per-epoch mean loss is logged on the returned network's
    ``loss_history``; parameters that end up non-finite raise
    ``NumericError``.
    """
    arch = arch or ArchSpec()
    opt = opt or OptSpec()
    arch.validate()
    opt.validate()
    if len(x) == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    y = np.asarray(y, dtype=float)

    net = TrainableCnn(arch, seed=opt.seed)
    rng = np.random.default_rng(opt.seed + 1)
    params = net.params
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    t = 0
    n = len(x)
    for _ in range(opt.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, opt.batch_size):
            idx = order[start: start + opt.batch_size]
            loss, g = net.loss_and_gradients(x[idx], y[idx])
            total += loss * idx.size
            t += 1
            m *= _BETA1
            m += (1 - _BETA1) * g
            v *= _BETA2
            v += (1 - _BETA2) * g * g
            m_hat = m / (1 - _BETA1 ** t)
            v_hat = v / (1 - _BETA2 ** t)
            params -= opt.learning_rate * m_hat / (np.sqrt(v_hat) + _EPS)
        net.loss_history.append(total / n)
    if not np.isfinite(params).all():
        raise NumericError("training left non-finite parameters")
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


def grad_check(net: TrainableCnn, x: np.ndarray, y: np.ndarray, eps: float,
               n_params: int = 100, seed: int = 0) -> GradCheckResult:
    """Central-difference check of the analytic loss gradient on an
    (N, d, d) image stack ``x`` with labels ``y``.

    Coordinates whose perturbation flips a max-pool argmax sit on a kink of
    the loss; they are skipped and counted rather than compared.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise InvalidParams(f"eps must lie in [1e-7, 1e-3], got {eps}")
    y = np.asarray(y, dtype=float)

    def pool_pattern() -> np.ndarray:
        # Only live channels (raw max > 0) pass gradient, so only their
        # argmax is a kink; a dead channel's argmax may move freely.  The
        # images are fixed, so their canvas is too, and index 0 (background)
        # against any support patch still shows a move between the two.
        _, cache = net.forward_batch(x)
        return np.where(cache["hidden"][0] > 0, cache["pool_idx"], -1)

    base_pattern = pool_pattern()
    analytic = net.loss_and_gradients(x, y)[1]
    params = net.params
    rng = np.random.default_rng(seed)
    count = min(n_params, params.size)
    coords = rng.choice(params.size, size=count, replace=False)

    max_rel = 0.0
    skipped = 0
    for c in coords:
        orig = params[c]
        params[c] = orig + eps
        lp = net.loss_and_gradients(x, y)[0]
        tied = not np.array_equal(pool_pattern(), base_pattern)
        params[c] = orig - eps
        lm = net.loss_and_gradients(x, y)[0]
        tied = tied or not np.array_equal(pool_pattern(), base_pattern)
        params[c] = orig
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
    return header + net.params.astype("<f8").tobytes()


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
    expected = 8 * sum(math.prod(s) for s in param_shapes(arch))
    if len(blob) - pos != expected:
        raise TruncatedPayload(
            f"checkpoint body has {len(blob) - pos} bytes, expected {expected}")
    weights = np.frombuffer(blob, dtype="<f8", offset=pos)
    if not np.isfinite(weights).all():
        raise DataError("checkpoint weights are not finite")
    net = TrainableCnn(arch)
    net.params[...] = weights
    return net
