"""Experiment harness: sample-size sweeps with repetition medians.

For every repetition and every training-set size, a fresh balanced train
set and a fresh test set are drawn from the two deformed templates, each
requested classifier is fitted (or built) and scored, and the empirical
misclassification risk is recorded.  Aggregation takes the median across
repetitions.  Every random draw derives from the experiment seed through
named substreams, so reports are byte-identical across runs.  Items run
one after another; a failing item yields NaN rows and does not stop the
sweep.
"""
from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from .align import (AlignedRep, GalleryEntry, align_images, build_gallery,
                    classify_1nn)
from .cnn import FilterBank, build_filter_bank, classify_bank
from .datagen import Dataset, DeformDistribution, generate_dataset, unit_arrays
from .errors import ConfigError, InvalidDistribution, InvalidParams
from .io import read_bytes, read_pgm
from .model import (TemplateFunction, cone, cross, normalize_l2, raster_interp,
                    tent)
from .train import ArchSpec, OptSpec, train_least_squares

CLASSIFIERS = ("IAC", "IAC_FLIPS", "CNN_EXPLICIT", "CNN_TRAINED")


@dataclass(frozen=True)
class ExperimentConfig:
    template0: TemplateFunction
    template1: TemplateFunction
    q: DeformDistribution = field(default_factory=DeformDistribution)
    n_list: tuple[int, ...] = (2, 4, 8, 16, 32, 64)
    n_test: int = 100
    repetitions: int = 30
    d: int = 64
    classifiers: tuple[str, ...] = ("IAC",)
    seed: int = 0
    align_m: int | None = None
    bank_xi_max: int = 2
    cnn_arch: ArchSpec = field(default_factory=ArchSpec)
    cnn_opt: OptSpec = field(default_factory=OptSpec)

    def validate(self) -> None:
        if not self.n_list or any(n < 1 for n in self.n_list):
            raise ConfigError("n_list must be non-empty with entries >= 1")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.n_test < 1:
            raise ConfigError("n_test must be >= 1")
        for c in self.classifiers:
            if c not in CLASSIFIERS:
                raise ConfigError(f"unknown classifier {c!r}; valid: {CLASSIFIERS}")
        if self.q is None:
            raise ConfigError("the experiment needs a deformation distribution q")
        if self.align_m is not None and self.align_m < 2:
            raise ConfigError(f"align.m must be >= 2, got {self.align_m}")


@dataclass(frozen=True)
class RiskRow:
    classifier: str
    n: int
    repetition: int
    risk: float
    error: str = ""


@dataclass(frozen=True)
class RiskReport:
    rows: tuple[RiskRow, ...]
    n_test: int

    def aggregates(self) -> list[tuple[str, int, float]]:
        """Median risk across repetitions per (classifier, n)."""
        groups: dict[tuple[str, int], list[float]] = {}
        for row in self.rows:
            if not row.error:
                groups.setdefault((row.classifier, row.n), []).append(row.risk)
        return [(c, n, float(np.median(vals)))
                for (c, n), vals in sorted(groups.items())]


# ---------------------------------------------------------------------------
# Data drawing
# ---------------------------------------------------------------------------

def _derived_seed(*key: int) -> int:
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def _draw_template_sets(cfg: ExperimentConfig, rep: int, n: int
                        ) -> tuple[Dataset, Dataset]:
    t0, t1 = (cfg.template0,), (cfg.template1,)
    q_train = replace(cfg.q, seed=_derived_seed(cfg.seed, rep, n, 0))
    q_test = replace(cfg.q, seed=_derived_seed(cfg.seed, rep, n, 1))
    train = generate_dataset(t0, t1, q_train, n, cfg.d)
    test = generate_dataset(t0, t1, q_test, cfg.n_test, cfg.d)
    return train, test


# ---------------------------------------------------------------------------
# Classifier runners
# ---------------------------------------------------------------------------

def _align_sets(train: Dataset, test: Dataset, m: int | None
                ) -> tuple[list[GalleryEntry], list[AlignedRep]]:
    """The aligned train gallery and test queries that both IAC runners use."""
    gallery = build_gallery([item.image for item in train.items],
                            [item.label for item in train.items], m=m)
    return gallery, align_images([item.image for item in test.items], m)


def _risk_iac(gallery: list[GalleryEntry], queries: list[AlignedRep],
              test: Dataset, flips: bool) -> float:
    results = classify_1nn(gallery, queries, flips)
    wrong = sum(int(label != item.label)
                for (label, _, _, _), item in zip(results, test.items))
    return wrong / len(test.items)


def _risk_bank(bank: FilterBank, test: Dataset) -> float:
    wrong = 0
    for item in test.items:
        decision = classify_bank(bank, normalize_l2(item.image))
        wrong += int(decision.label != item.label)
    return wrong / len(test.items)


def _risk_trained(train: Dataset, test: Dataset, arch: ArchSpec, opt: OptSpec,
                  seed: int) -> float:
    net = train_least_squares(*unit_arrays(train), arch, replace(opt, seed=seed))
    x, labels = unit_arrays(test)
    # Chunks no larger than the training batch, so prediction never holds
    # more forward state than training did.
    predicted = net.predict_batch(x, min(opt.batch_size, len(train)))
    return int(np.count_nonzero(predicted != labels)) / len(labels)


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig) -> RiskReport:
    """Run the full sweep; returns one row per (classifier, n, repetition)."""
    cfg.validate()
    if not cfg.classifiers:
        print("warning: no classifiers requested; report will be empty",
              file=sys.stderr)
        return RiskReport(rows=(), n_test=cfg.n_test)

    bank = None
    if "CNN_EXPLICIT" in cfg.classifiers:
        bank = build_filter_bank(cfg.template0, cfg.template1, cfg.bank_xi_max,
                                 cfg.d)

    def run_item(rep: int, n: int) -> list[RiskRow]:
        try:
            train, test = _draw_template_sets(cfg, rep, n)
            aligned = None  # built by the first IAC runner, shared by both
            rows = []
            for name in cfg.classifiers:
                if name in ("IAC", "IAC_FLIPS"):
                    if aligned is None:
                        aligned = _align_sets(train, test, cfg.align_m)
                    risk = _risk_iac(*aligned, test, flips=name == "IAC_FLIPS")
                elif name == "CNN_EXPLICIT":
                    risk = _risk_bank(bank, test)
                else:
                    risk = _risk_trained(train, test, cfg.cnn_arch, cfg.cnn_opt,
                                         seed=_derived_seed(cfg.seed, rep, n, 3))
                rows.append(RiskRow(classifier=name, n=n, repetition=rep,
                                    risk=risk))
            return rows
        except Exception as exc:  # noqa: BLE001 - per-item isolation
            traceback.print_exc(file=sys.stderr)
            return [RiskRow(classifier=name, n=n, repetition=rep,
                            risk=float("nan"), error=str(exc))
                    for name in cfg.classifiers]

    rows = [row for rep in range(cfg.repetitions) for n in cfg.n_list
            for row in run_item(rep, n)]
    rows.sort(key=lambda r: (r.classifier, r.n, r.repetition))
    return RiskReport(rows=tuple(rows), n_test=cfg.n_test)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def emit_report(report: RiskReport, fmt: str = "csv", view: str = "raw") -> bytes:
    """Render the report; raw rows or per-(classifier, n) aggregates."""
    if fmt not in ("csv", "pretty"):
        raise ConfigError(f"unknown format {fmt!r}")
    if view not in ("raw", "aggregate"):
        raise ConfigError(f"unknown view {view!r}")
    if view == "raw":
        header = ["classifier", "n", "repetition", "R_N"]
        body = [[r.classifier, str(r.n), str(r.repetition), f"{r.risk:.6f}"]
                for r in report.rows]
    else:
        header = ["classifier", "n", "median_R_N"]
        body = [[c, str(n), f"{med:.6f}"] for c, n, med in report.aggregates()]

    if fmt == "csv":
        lines = [",".join(header)] + [",".join(row) for row in body]
        return ("\n".join(lines) + "\n").encode("utf-8")
    widths = [max(len(h), *(len(row[i]) for row in body)) if body else len(h)
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Config-file parsing
# ---------------------------------------------------------------------------

def parse_template_spec(spec: str) -> TemplateFunction:
    """Template from a spec string like ``tent:delta=0.25`` or ``cone:radius=0.2``.

    ``pgm:path=<file>`` reads a binary PGM and interpolates it bilinearly
    over the support box (``raster_interp``); everything after ``path=`` is
    the file name, relative to the working directory.
    """
    name, _, rest = spec.partition(":")
    kwargs = {}
    if name == "pgm":
        path = rest.removeprefix("path=")
        if path == rest or not path:
            raise ConfigError(f"template spec {spec!r} needs path=<file>")
    elif rest:
        for part in rest.split(","):
            key, _, value = part.partition("=")
            if not value:
                raise ConfigError(f"template spec part {part!r} is not key=value")
            key = key.strip()
            kwargs[key] = _num(value, f"template parameter {key!r}")
    try:
        if name == "pgm":
            return raster_interp(read_pgm(read_bytes(path)).pixels)
        if name in ("tent", "cone"):
            center = (kwargs.pop("cx", 0.5), kwargs.pop("cy", 0.5))
            if name == "tent":
                return tent(kwargs.pop("delta", 0.25), center=center, **kwargs)
            return cone(kwargs.pop("radius", 0.2), center=center, **kwargs)
        if name == "cross":
            return cross(kwargs.pop("arm", 1 / 16), kwargs.pop("taper", 1 / 16),
                         **kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad arguments for template {name!r}: {exc}")
    except InvalidParams as exc:
        raise ConfigError(f"invalid template {spec!r}: {exc}")
    raise ConfigError(f"unknown template kind {name!r} (tent, cone, cross, pgm)")


def _parse_pair(value: str, key: str) -> tuple[float, float]:
    parts = value.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{key} needs two comma-separated numbers, got {value!r}")
    return _num(parts[0], key), _num(parts[1], key)


def _num(value: str, key: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key} must be numeric, got {value!r}")


def _int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}")


def _int_list(value: str, key: str) -> tuple[int, ...]:
    return tuple(_int(part, key) for part in value.split(","))


def _str_list(value: str, key: str) -> tuple[str, ...]:
    return tuple(value.split(","))


# Config key -> (dataclass, field, parser).  A key that a file leaves out
# keeps the dataclass default.
_KEYS = {
    "experiment.n_list": (ExperimentConfig, "n_list", _int_list),
    "experiment.n_test": (ExperimentConfig, "n_test", _int),
    "experiment.repetitions": (ExperimentConfig, "repetitions", _int),
    "experiment.d": (ExperimentConfig, "d", _int),
    "experiment.classifiers": (ExperimentConfig, "classifiers", _str_list),
    "experiment.seed": (ExperimentConfig, "seed", _int),
    "align.m": (ExperimentConfig, "align_m", _int),
    "bank.xi_max": (ExperimentConfig, "bank_xi_max", _int),
    "q.eta_range": (DeformDistribution, "eta_range", _parse_pair),
    "q.xi_range": (DeformDistribution, "xi_range", _parse_pair),
    "q.xi_prime_range": (DeformDistribution, "xi_prime_range", _parse_pair),
    "q.flip_prob": (DeformDistribution, "flip_prob", _num),
    "cnn.n_filters": (ArchSpec, "n_filters", _int),
    "cnn.filter_size": (ArchSpec, "filter_size", _int),
    "cnn.dense_widths": (ArchSpec, "dense_widths", _int_list),
    "cnn.beta": (ArchSpec, "beta", _num),
    "cnn.learning_rate": (OptSpec, "learning_rate", _num),
    "cnn.epochs": (OptSpec, "epochs", _int),
    "cnn.batch_size": (OptSpec, "batch_size", _int),
}
_KNOWN_KEYS = {*_KEYS, "task.template0", "task.template1"}


def parse_config(text: str) -> ExperimentConfig:
    """Flat key=value config; keys are namespaced; unknown and repeated keys
    are errors."""
    kv: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line "
                              f"{first_line[key]}")
        first_line[key] = lineno
        kv[key] = value.strip()

    if "task.template0" not in kv or "task.template1" not in kv:
        raise ConfigError("config needs task.template0 and task.template1")
    template0 = parse_template_spec(kv.pop("task.template0"))
    template1 = parse_template_spec(kv.pop("task.template1"))
    fields = {cls: {} for cls in (ExperimentConfig, DeformDistribution,
                                  ArchSpec, OptSpec)}
    for key, value in kv.items():
        cls, name, parse = _KEYS[key]
        fields[cls][name] = parse(value, key)

    try:
        q = DeformDistribution(**fields[DeformDistribution])
        q.validate()
    except (InvalidParams, InvalidDistribution) as exc:
        raise ConfigError(f"invalid distribution: {exc}")
    try:
        arch = ArchSpec(**fields[ArchSpec])
        opt = OptSpec(**fields[OptSpec])
        arch.validate()
        opt.validate()
    except InvalidParams as exc:
        raise ConfigError(f"invalid network spec: {exc}")

    cfg = ExperimentConfig(template0, template1, q=q, cnn_arch=arch,
                           cnn_opt=opt, **fields[ExperimentConfig])
    cfg.validate()
    return cfg
