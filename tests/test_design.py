"""Design guards: each keeps one concept of the package in one module.

Every rule reads the package's modules line by line with ``re``.  A new
guard that forbids a pattern outside some modules is a row of ``FORBIDDEN``.
"""
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "deformclass"


def _lines(name: str) -> list[str]:
    return (SRC / name).read_text(encoding="utf-8").splitlines()


def _matches(pattern: str, names) -> list[str]:
    """``file:line: text`` of every line of the named modules that matches."""
    return [f"{name}:{no}: {line.strip()}"
            for name in names
            for no, line in enumerate(_lines(name), 1)
            if re.search(pattern, line)]


MODULES = sorted(path.name for path in SRC.glob("*.py"))

_ORACLES = ("feature_max|max_tree|grad_check|non_identifiable_pair|_grid_bumps|"
            "template_sum|reparametrize|discrete_l2_norm|riemann_error_report|"
            "grid_inner_product|seven_call_params")
_ORACLE_CLASSES = ("GradCheckResult|NonIdentifiablePair|RiemannRow|FilterTooLarge|"
                   "InvalidFixtureParams")

# (rule, pattern no line may match, modules allowed to match it, why)
FORBIDDEN = [
    ("no_validate_method", r"def validate\(|\.validate\(", (),
     "each parameter type checks its fields in __post_init__; a validate() "
     "method, or a call to one, would split those checks"),
    ("oracles_stay_in_tests",
     rf"\b(def ({_ORACLES})|class ({_ORACLE_CLASSES}))\b", (),
     "the lemma fixtures and slow exact references live in tests/oracles.py; "
     "no module, CLI path or benchmark workload of the package reaches them"),
    ("error_classes_in_errors_py", r"^\s*class \w+\(.*(Error|Exception)\b",
     ("errors.py",),
     "errors.py defines one class per CLI exit code, and the message, not a "
     "class, names the condition"),
    ("base_error_never_raised", r"raise DeformClassError\b", (),
     "the CLI maps the base class to no exit code"),
    ("norm_checks_in_model", r"check_norm\(", ("model.py", "cnn.py"),
     "model.unit_scale checks the norm of every grid it scales to unit norm; "
     "classify_bank checks only that its query's norm is finite, since a zero "
     "query is valid there"),
    ("norm_division_in_model", re.escape("norms[:, None, None]"), ("model.py",),
     "model.unit_scale divides a stack by its norms; no other module does"),
    ("square_grids_in_model", r"asarray\(self\.(pixels|grid)\b", (),
     "model.square_grid checks, and copies and freezes where needed, every "
     "square grid a record holds; no record casts or copies its own grid"),
    ("one_template_per_class", r"\btemplate_index\b", ("io.py",),
     "no dataset record carries a template index; io.py writes the manifest's "
     "template_index column as 0 and rejects any other value"),
    ("allocator_policy_in_cli", r"mallopt", ("cli.py",),
     "cli.main sets glibc's thresholds for the deformclass process; library "
     "functions leave their caller's allocator as it is"),
    ("one_support_crop", r"\bdef nonzero_boxes\b", (),
     "model.support_canvas is the one crop of an image stack to its nonzero "
     "box"),
]


@pytest.mark.parametrize("rule, pattern, allowed, why", FORBIDDEN,
                         ids=[row[0] for row in FORBIDDEN])
def test_forbidden_pattern(rule, pattern, allowed, why):
    names = [name for name in MODULES if name not in allowed]
    assert _matches(pattern, names) == [], why


def test_errors_py_defines_one_class_per_exit_code():
    # DeformClassError, then one subclass per CLI exit code: 2, 3 and 4.
    classes = [m.group(0) for line in _lines("errors.py")
               if (m := re.match(r"\s*class \w+", line))]
    assert classes == ["class DeformClassError", "class ConfigError",
                       "class DataError", "class NumericError"]


def test_spec_parser_pops_no_defaults():
    # The template constructors hold the only copy of the spec's defaults.
    assert _matches(r"kwargs.pop\(", ["harness.py"]) == []


def test_cnn_classifiers_share_one_input_path():
    """A sweep item scales its test set to unit norm once, as one stack
    (datagen.unit_arrays), for the bank and the trained net alike, and
    model.support_canvas is the one crop of an image stack to its nonzero
    box on a zero frame: train.forward_batch and cnn._patches_by_side call
    it and frame nothing themselves (the summed-area table's leading zeros
    are not a frame)."""
    assert _matches("normalize_l2", ["harness.py"]) == []
    for name in ("train.py", "cnn.py"):
        assert _matches(re.escape("support_canvas("), [name]), name
    framing = _matches(r"np\.pad\(|canvas = np\.(zeros|empty)",
                       ["train.py", "cnn.py"])
    assert [m for m in framing if "np.pad(x.cumsum(0).cumsum(1)" not in m] == []
