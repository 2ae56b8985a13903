"""Synthetic data generation: parameter sampling, labeled datasets, fixtures.

Randomness is fully determined by an integer seed plus the item index.
Each item draws from its own substream, so item i's parameters do not
depend on how many other items are generated or in which order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    AllZeroImage,
    DimMismatch,
    EmptyDataset,
    EmptyList,
    InvalidDistribution,
    InvalidFixtureParams,
    InvalidParams,
)
from .model import (
    DeformParams,
    GrayImage,
    TemplateFunction,
    rasterize,  # noqa: F401 - kept importable here for tools that patch it
    rasterize_batch,
    reparametrize,
    shift_bounds,
    template_sum,
    tent,
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

    def validate(self) -> None:
        for name, rng in (("eta_range", self.eta_range), ("xi_range", self.xi_range),
                          ("xi_prime_range", self.scale_range_y())):
            if not np.isfinite(rng).all():
                raise InvalidDistribution(f"{name} bounds must be finite, got {rng}")
        e_lo, e_hi = self.eta_range
        if not (0 < e_lo <= e_hi):
            raise InvalidDistribution(f"amplitude range must be 0 < lo <= hi, got {self.eta_range}")
        for name, rng in (("xi_range", self.xi_range),
                          ("xi_prime_range", self.scale_range_y())):
            lo, hi = rng
            if not (0.5 <= lo <= hi):
                raise InvalidDistribution(f"{name} must satisfy 1/2 <= lo <= hi, got {rng}")
        if not (0.0 <= self.flip_prob <= 1.0):
            raise InvalidDistribution(f"flip_prob must be in [0, 1], got {self.flip_prob}")

    def scale_range_y(self) -> tuple[float, float]:
        return self.xi_prime_range if self.xi_prime_range is not None else self.xi_range


def _substream(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=key)))


def sample_params(q: DeformDistribution, draw_index: int) -> DeformParams:
    """Draw deformation parameters for item ``draw_index``.

    Fixed draw order within the item's substream: amplitude, x scale
    magnitude, x flip, y scale magnitude, y flip, x shift, y shift.
    """
    q.validate()
    if draw_index < 0:
        raise InvalidParams(f"draw_index must be nonnegative, got {draw_index}")
    return _draw_params(q, draw_index)


def _draw_params(q: DeformDistribution, draw_index: int) -> DeformParams:
    """``sample_params`` for a validated ``q`` and a nonnegative index."""
    rng = _substream(q.seed, _STREAM_PARAMS, draw_index)
    eta = rng.uniform(*q.eta_range)
    xi = rng.uniform(*q.xi_range)
    if rng.random() < q.flip_prob:
        xi = -xi
    xi_p = rng.uniform(*q.scale_range_y())
    if rng.random() < q.flip_prob:
        xi_p = -xi_p
    tau = rng.uniform(*shift_bounds(xi))
    tau_p = rng.uniform(*shift_bounds(xi_p))
    p = DeformParams(eta=eta, xi=xi, xi_prime=xi_p, tau=tau, tau_prime=tau_p,
                     allow_flips=q.flip_prob > 0)
    p.validate()
    return p


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabeledImage:
    image: GrayImage
    label: int
    template_index: int
    params: DeformParams


@dataclass(frozen=True)
class Dataset:
    items: tuple[LabeledImage, ...]

    def __len__(self) -> int:
        return len(self.items)


def unit_arrays(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The images scaled to unit Frobenius norm as one (N, d, d) stack, and
    their 0/1 labels.  Images of several sizes are a ``DimMismatch``."""
    if not data.items:
        raise EmptyDataset("the dataset holds no images")
    sides = sorted({item.image.d for item in data.items})
    if len(sides) > 1:
        raise DimMismatch(f"training images must share one side length, "
                          f"got sides {sides}")
    x = np.stack([item.image.pixels for item in data.items])
    # one norm per image, as normalize_l2 takes it, so the bits match
    norms = np.array([np.linalg.norm(img) for img in x])
    if not norms.all():
        raise AllZeroImage("cannot normalize an all-zero image")
    return x / norms[:, None, None], np.array([item.label for item in data.items])


def generate_dataset(templates0: Sequence[TemplateFunction],
                     templates1: Sequence[TemplateFunction],
                     q: DeformDistribution,
                     n: int,
                     d: int,
                     pi: float = 0.5) -> Dataset:
    """Generate ``n`` labeled images at resolution ``d``.

    Class k draws its template uniformly from ``templates<k>`` and its
    deformation from ``q``.  When ``pi`` is exactly 1/2 and ``n`` is even,
    the design is balanced: exactly n/2 items per class, in an order given
    by a seeded permutation.  Otherwise labels are independent Bernoulli(pi)
    draws (pi is the probability of class 1).  All draws come first, item
    by item; then each (class, template) group is rasterized as one set.
    """
    if not templates0 or not templates1:
        raise EmptyList("both template lists must be non-empty")
    if n < 1:
        raise InvalidParams(f"dataset size must be >= 1, got {n}")
    if not (0.0 <= pi <= 1.0):
        raise InvalidParams(f"class probability must be in [0, 1], got {pi}")
    q.validate()

    balanced = (pi == 0.5 and n % 2 == 0)
    if balanced:
        base = np.repeat([0, 1], n // 2)
        labels = base[_substream(q.seed, _STREAM_LABELS).permutation(n)]
    else:
        labels = None

    per_class = (tuple(templates0), tuple(templates1))
    draws = []
    groups: dict[tuple[int, int], list[int]] = {}
    for i in range(n):
        # the choice stream is built only where it can change the item: with
        # a balanced label and one template, its draw would always be 0
        if balanced and len(per_class[labels[i]]) == 1:
            label, t_idx = int(labels[i]), 0
        else:
            chooser = _substream(q.seed, _STREAM_CHOICE, i)
            label = int(labels[i]) if balanced else int(chooser.random() < pi)
            t_idx = int(chooser.integers(len(per_class[label])))
        draws.append((label, t_idx, _draw_params(q, i)))
        groups.setdefault((label, t_idx), []).append(i)
    images: dict[int, GrayImage] = {}
    for (label, t_idx), members in groups.items():
        images.update(zip(members, rasterize_batch(
            per_class[label][t_idx], [draws[i][2] for i in members], d)))
    return Dataset(items=tuple(
        LabeledImage(image=images[i], label=label, template_index=t_idx,
                     params=params)
        for i, (label, t_idx, params) in enumerate(draws)))


# ---------------------------------------------------------------------------
# non-identifiability fixture
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonIdentifiablePair:
    """Two distinct templates whose rasters coincide at resolution d.

    ``raster_params`` are the deformation parameters under which ``base``
    produces, pixel for pixel, the identity raster of ``composite``.
    """

    base: TemplateFunction
    composite: TemplateFunction
    bump_grid: TemplateFunction
    raster_params: DeformParams
    d: int
    delta: float


def _grid_bumps(d: int) -> TemplateFunction:
    """Sum of (d/2)^2 micro-tents vanishing at every grid point (k/d, l/d).

    Each bump is centered at a cell center a_i = 1/4 + (i - 1/2)/d, has
    support half-width 1/(2d) in the l1 metric, slope 2 and peak 1/d, so
    its squared mass is 1/(12 d^4).
    """
    half = 0.5 / d
    cells = d // 2

    def fn(x, y):
        inside = (x > 0.25) & (x < 0.75) & (y > 0.25) & (y < 0.75)
        ix = np.clip(np.floor((x - 0.25) * d), 0, cells - 1)
        iy = np.clip(np.floor((y - 0.25) * d), 0, cells - 1)
        ax = 0.25 + (ix + 0.5) / d
        ay = 0.25 + (iy + 0.5) / d
        val = np.maximum(1.0 / d - 2.0 * np.abs(x - ax) - 2.0 * np.abs(y - ay), 0.0)
        return np.where(inside, val, 0.0)

    # Each bump integrates to 2 * (2/3) * half^3; there are cells^2 of them.
    l1 = cells * cells * (4.0 / 3.0) * half ** 3
    return TemplateFunction(fn, 2.0 / l1, l1, "grid_bumps", (d,))


def non_identifiable_pair(d: int, eta: float = 1.0,
                          xi: float = 1.0, xi_prime: float = 1.0,
                          tau: float = 0.0, tau_prime: float = 0.0) -> NonIdentifiablePair:
    """Build a tent and a tent-plus-bumps template that raster identically.

    The composite adds, to the deformed tent eta*f0(xi*x + tau, ...), a grid
    of micro-tents that vanish at every sample point (k/d, l/d) yet carry
    L2 mass at least 1/(8d).  Requires d divisible by 4 and parameters
    satisfying the strict inequalities tau < 1/4 < xi/2 + tau < 3/4 < xi + tau
    (and the primed analogue), which make the tent width delta positive and
    keep everything inside the support box.
    """
    if d < 4 or d % 4 != 0:
        raise InvalidFixtureParams(f"resolution must be a positive multiple of 4, got {d}")
    if eta <= 0:
        raise InvalidFixtureParams(f"amplitude must be positive, got {eta}")
    for name, s, t in (("x", xi, tau), ("y", xi_prime, tau_prime)):
        if s < 0.5:
            raise InvalidFixtureParams(f"{name} scale must be >= 1/2, got {s}")
        if not (t < 0.25 < s / 2 + t < 0.75 < s + t):
            raise InvalidFixtureParams(
                f"{name} parameters (scale {s}, shift {t}) violate the strict inequalities")

    delta = min(0.5 - (0.25 - tau) / xi, (0.75 - tau) / xi - 0.5,
                0.5 - (0.25 - tau_prime) / xi_prime, (0.75 - tau_prime) / xi_prime - 0.5)
    if delta > 0.25:
        raise InvalidFixtureParams(
            f"tent width {delta} exceeds 1/4; the base support would leave the box")
    # The deformed tent must also stay inside the box, else the composite
    # violates the support contract.
    for name, s, t in (("x", xi, tau), ("y", xi_prime, tau_prime)):
        if delta > 0.5 - t - s / 4 or delta > 0.75 * s + t - 0.5:
            raise InvalidFixtureParams(
                f"deformed support exits the box along {name} "
                f"(scale {s}, shift {t}, width {delta})")

    f0 = tent(delta)
    deformed = reparametrize(f0, eta, xi, tau, xi_prime, tau_prime, kind="deformed_tent")
    bumps = _grid_bumps(d)
    f1 = template_sum([deformed, bumps])
    raster_params = DeformParams(eta=eta, xi=xi, xi_prime=xi_prime,
                                 tau=-tau, tau_prime=-tau_prime)
    raster_params.validate()
    return NonIdentifiablePair(base=f0, composite=f1, bump_grid=bumps,
                               raster_params=raster_params, d=d, delta=delta)
