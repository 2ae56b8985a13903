"""Synthetic data generation: parameter sampling and labeled datasets.

Randomness is fully determined by an integer seed plus the item index.
Each item draws from its own substream, so item i's parameters do not
depend on how many other items are generated or in which order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError
from .model import (
    DeformParams,
    GrayImage,
    TemplateFunction,
    check_resolution,
    rasterize,  # noqa: F401 - perfbench's tracer self-test reads this binding
    rasterize_batch,
    shift_bounds,
    unit_scale,
)

# Substream roles under the dataset seed.
_STREAM_LABELS = 0
_STREAM_PARAMS = 1
_STREAM_CHOICE = 2


@dataclass(frozen=True)
class DeformDistribution:
    """Product distribution over deformation parameters.

    Amplitude and scale magnitudes are uniform on their ranges; each axis
    scale is negated independently with probability ``flip_prob``; each
    shift is then uniform on the admissible interval for the realized
    scale (see ``model.shift_bounds``).
    """

    eta_range: tuple[float, float] = (1.0, 1.0)
    xi_range: tuple[float, float] = (1.0, 1.0)
    xi_prime_range: tuple[float, float] | None = None
    flip_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name, rng in (("eta_range", self.eta_range), ("xi_range", self.xi_range),
                          ("xi_prime_range", self.scale_range_y())):
            if not np.isfinite(rng).all():
                raise ConfigError(f"{name} bounds must be finite, got {rng}")
        e_lo, e_hi = self.eta_range
        if not (0 < e_lo <= e_hi):
            raise ConfigError(f"amplitude range must be 0 < lo <= hi, got {self.eta_range}")
        for name, rng in (("xi_range", self.xi_range),
                          ("xi_prime_range", self.scale_range_y())):
            lo, hi = rng
            if not (0.5 <= lo <= hi):
                raise ConfigError(f"{name} must satisfy 1/2 <= lo <= hi, got {rng}")
        if not (0.0 <= self.flip_prob <= 1.0):
            raise ConfigError(f"flip_prob must be in [0, 1], got {self.flip_prob}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def scale_range_y(self) -> tuple[float, float]:
        return self.xi_prime_range if self.xi_prime_range is not None else self.xi_range


def _substream(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=key)))


def sample_params(q: DeformDistribution, draw_index: int) -> DeformParams:
    """Draw deformation parameters for item ``draw_index``.

    One call draws seven doubles from the item's substream, in a fixed
    order: amplitude, x scale magnitude, x flip, y scale magnitude, y flip,
    x shift, y shift.  An axis scale is negated when its flip double is
    below ``flip_prob``.  A value on [lo, hi] is ``lo + (hi - lo) * u``,
    numpy's own ``uniform`` arithmetic, so every field has the bits that
    one ``uniform`` or ``random`` call per double gives.
    """
    if draw_index < 0:
        raise ConfigError(f"draw_index must be nonnegative, got {draw_index}")
    u_eta, u_xi, u_flip, u_xi_p, u_flip_p, u_tau, u_tau_p = _substream(
        q.seed, _STREAM_PARAMS, draw_index).random(7).tolist()
    xi = _uniform(q.xi_range, u_xi)
    if u_flip < q.flip_prob:
        xi = -xi
    xi_p = _uniform(q.scale_range_y(), u_xi_p)
    if u_flip_p < q.flip_prob:
        xi_p = -xi_p
    return DeformParams(eta=_uniform(q.eta_range, u_eta), xi=xi, xi_prime=xi_p,
                        tau=_uniform(shift_bounds(xi), u_tau),
                        tau_prime=_uniform(shift_bounds(xi_p), u_tau_p))


def _uniform(bounds: tuple[float, float], u: float) -> float:
    """The value ``Generator.uniform(lo, hi)`` takes on its double u."""
    lo, hi = map(float, bounds)
    return lo + (hi - lo) * u


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabeledImage:
    image: GrayImage
    label: int
    params: DeformParams


@dataclass(frozen=True)
class Dataset:
    items: tuple[LabeledImage, ...]

    def __len__(self) -> int:
        return len(self.items)


def unit_arrays(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The images scaled to unit Frobenius norm as one read-only (N, d, d)
    stack, and their 0/1 labels.  Images of several sizes are a
    ``DataError``; the first image, in list order, that is all zero or has a
    non-finite norm raises ``NumericError`` naming its index."""
    if not data.items:
        raise DataError("the dataset holds no images")
    sides = sorted({item.image.d for item in data.items})
    if len(sides) > 1:
        raise DataError(f"training images must share one side length, "
                        f"got sides {sides}")
    x = unit_scale(np.stack([item.image.pixels for item in data.items]),
                   lambda i: f"image {i}")
    return x, np.array([item.label for item in data.items])


def generate_dataset(templates0: Sequence[TemplateFunction],
                     templates1: Sequence[TemplateFunction],
                     q: DeformDistribution,
                     n: int,
                     d: int) -> Dataset:
    """Generate ``n`` labeled images at resolution ``d``.

    Each class is one template, given as a one-element sequence: class k
    deforms ``templates<k>[0]`` by draws from ``q``.  An even ``n`` is
    balanced: exactly n/2 items per class, in an order given by a seeded
    permutation.  An odd ``n`` draws each label by a fair coin flip from the
    item's choice stream.  ``n`` and ``d`` are checked before anything is
    drawn.  All draws come first, item by item; then each class is
    rasterized as one set.
    """
    if len(templates0) != 1 or len(templates1) != 1:
        raise ConfigError(f"each class takes exactly one template, got "
                          f"{len(templates0)} and {len(templates1)}")
    if n < 1:
        raise ConfigError(f"dataset size must be >= 1, got {n}")
    check_resolution(d)

    if n % 2 == 0:
        base = np.repeat([0, 1], n // 2)
        labels = base[_substream(q.seed, _STREAM_LABELS).permutation(n)]
    else:
        labels = np.array([_substream(q.seed, _STREAM_CHOICE, i).random() < 0.5
                           for i in range(n)], dtype=int)
    params = [sample_params(q, i) for i in range(n)]
    images = {}
    for label, f in enumerate((templates0[0], templates1[0])):
        members = np.flatnonzero(labels == label).tolist()
        images.update(zip(members, rasterize_batch(
            f, [params[i] for i in members], d)))
    return Dataset(items=tuple(
        LabeledImage(image=images[i], label=int(labels[i]), params=params[i])
        for i in range(n)))
