"""Experiment harness: sample-size sweeps with repetition medians.

For every repetition and every training-set size, a fresh balanced train
set and a fresh test set are drawn from the two deformed templates, each
requested classifier is fitted (or built) and labels the test set, and the
empirical misclassification risk, the share of wrong labels, is recorded.
Aggregation takes the median across repetitions.  Every random draw derives
from the experiment seed through named substreams, so reports are
byte-identical across runs.  Items run one after another; a failing item
yields NaN rows and does not stop the sweep.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .align import align_images, build_gallery, check_grid_side, classify_1nn
from .cnn import build_filter_bank, check_scale_limit, classify_bank
from .datagen import Dataset, DeformDistribution, generate_dataset, unit_arrays
from .errors import ConfigError
from .io import read_bytes, read_pgm
from .model import (MAX_RESOLUTION, GrayImage, TemplateFunction,
                    check_resolution, cone, cross, raster_interp, tent)
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

    def __post_init__(self):
        if not self.n_list or any(n < 1 for n in self.n_list):
            raise ConfigError("n_list must be non-empty with entries >= 1")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.n_test < 1:
            raise ConfigError("n_test must be >= 1")
        if not self.classifiers:
            raise ConfigError(f"classifiers must name at least one of {CLASSIFIERS}")
        for c in self.classifiers:
            if c not in CLASSIFIERS:
                raise ConfigError(f"unknown classifier {c!r}; valid: {CLASSIFIERS}")
        # A repeated entry would repeat its rows and weight the median.
        for name, entries in (("n_list", self.n_list),
                              ("classifiers", self.classifiers)):
            repeated = [e for i, e in enumerate(entries) if e in entries[:i]]
            if repeated:
                raise ConfigError(f"{name} repeats {repeated[0]!r}")
        if self.q is None:
            raise ConfigError("the experiment needs a deformation distribution q")
        if self.align_m is not None:
            check_grid_side(self.align_m, "align.m")
        # Only the cap on d: a side below MIN_RESOLUTION still parses and
        # fails in each item, as perfbench's d = 2 self-test expects.
        if self.d > MAX_RESOLUTION:
            check_resolution(self.d)
        # Checked whatever the classifiers, as the other fields are.
        check_scale_limit(self.bank_xi_max)


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
# Runner
# ---------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig) -> RiskReport:
    """Run the full sweep; returns one row per (classifier, n, repetition)."""
    bank = None
    if "CNN_EXPLICIT" in cfg.classifiers:
        bank = build_filter_bank(cfg.template0, cfg.template1, cfg.bank_xi_max,
                                 cfg.d)

    def run_item(rep: int, n: int) -> list[RiskRow]:
        try:
            train, test = _draw_template_sets(cfg, rep, n)
            truth = np.array([item.label for item in test.items])
            aligned = unit_test = None  # each built once, shared by two runners
            rows = []
            for name in cfg.classifiers:
                if name in ("CNN_EXPLICIT", "CNN_TRAINED") and unit_test is None:
                    unit_test = unit_arrays(test)[0]
                if name in ("IAC", "IAC_FLIPS"):
                    if aligned is None:
                        aligned = (
                            build_gallery([item.image for item in train.items],
                                          [item.label for item in train.items],
                                          m=cfg.align_m),
                            align_images([item.image for item in test.items],
                                         cfg.align_m))
                    predicted = [label for label, _, _, _ in classify_1nn(
                        *aligned, flips=name == "IAC_FLIPS")]
                elif name == "CNN_EXPLICIT":
                    predicted = [classify_bank(bank, GrayImage(x)).label
                                 for x in unit_test]
                else:
                    seed = _derived_seed(cfg.seed, rep, n, 3)
                    net = train_least_squares(*unit_arrays(train), cfg.cnn_arch,
                                              replace(cfg.cnn_opt, seed=seed))
                    # Chunks no larger than the training batch, so prediction
                    # never holds more forward state than training did.
                    predicted = net.predict_batch(
                        unit_test, min(cfg.cnn_opt.batch_size, len(train)))
                risk = int(np.count_nonzero(truth != predicted)) / len(truth)
                rows.append(RiskRow(classifier=name, n=n, repetition=rep,
                                    risk=risk))
            return rows
        except Exception as exc:  # noqa: BLE001 - per-item isolation
            print(f"item failed (repetition {rep}, n={n}): "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return [RiskRow(classifier=name, n=n, repetition=rep,
                            risk=float("nan"), error=str(exc))
                    for name in cfg.classifiers]

    rows = [row for rep in range(cfg.repetitions) for n in cfg.n_list
            for row in run_item(rep, n)]
    rows.sort(key=lambda r: (r.classifier, r.n, r.repetition))
    return RiskReport(rows=tuple(rows))


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

_TEMPLATE_KINDS = {"tent": tent, "cone": cone, "cross": cross}


def parse_template_spec(spec: str) -> TemplateFunction:
    """Template from a spec string like ``tent:delta=0.25`` or ``cone:radius=0.2``.

    ``tent``, ``cone`` and ``cross`` pass each key=value part, at most once,
    as a keyword to the constructor of that name, which holds the defaults.
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
            if key in kwargs:
                raise ConfigError(f"template spec {spec!r} repeats key {key!r}")
            kwargs[key] = _num(value, f"template parameter {key!r}")
    try:
        if name == "pgm":
            return raster_interp(read_pgm(read_bytes(path)).pixels)
        if name in _TEMPLATE_KINDS:
            return _TEMPLATE_KINDS[name](**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad arguments for template {name!r}: {exc}")
    except ConfigError as exc:
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
    return tuple(part.strip() for part in value.split(","))


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
    except ConfigError as exc:
        raise ConfigError(f"invalid distribution: {exc}")
    try:
        arch = ArchSpec(**fields[ArchSpec])
        opt = OptSpec(**fields[OptSpec])
    except ConfigError as exc:
        raise ConfigError(f"invalid network spec: {exc}")

    return ExperimentConfig(template0, template1, q=q, cnn_arch=arch,
                            cnn_opt=opt, **fields[ExperimentConfig])
