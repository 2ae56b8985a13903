"""Random image-deformation model with alignment-based and CNN classifiers.

Images are random brightness/scale/shift deformations of latent template
functions.  The package generates such data, aligns and classifies images
by nearest neighbor in transform space, quantifies template separation and
support regularity, and provides both an explicit scale-indexed CNN
classifier and a small trainable CNN with verified gradients.
"""

from .align import AlignedRep, align_images, build_gallery, classify_1nn
from .cnn import (BankDecision, Filter, FilterBank, build_filter_bank,
                  class1_probability, classify_bank)
from .datagen import (Dataset, DeformDistribution, LabeledImage,
                      generate_dataset, sample_params, unit_arrays)
from .errors import ConfigError, DataError, DeformClassError, NumericError
from .geometry import BoundaryCurve, GammaScan, gamma_scan, trace_boundary
from .harness import (ExperimentConfig, RiskReport, RiskRow, emit_report,
                      parse_config, parse_template_spec, run_experiment)
from .io import (parse_idx_images, read_dataset, read_pgm, write_dataset,
                 write_pgm)
from .model import (IDENTITY, DeformParams, GrayImage, TemplateFunction,
                    cone, cross, normalize_l2, raster_interp, rasterize,
                    rasterize_batch, shift_bounds, tent)
from .separation import SearchConfig, SeparationResult, estimate_separation
from .train import (ArchSpec, OptSpec, TrainableCnn, load_checkpoint,
                    save_checkpoint, train_least_squares)

__version__ = "0.1.0"

__all__ = [
    "AlignedRep", "ArchSpec", "BankDecision", "BoundaryCurve", "ConfigError",
    "DataError", "Dataset", "DeformClassError", "DeformDistribution",
    "DeformParams", "ExperimentConfig", "Filter", "FilterBank", "GammaScan",
    "GrayImage", "IDENTITY", "LabeledImage", "NumericError", "OptSpec",
    "RiskReport", "RiskRow", "SearchConfig", "SeparationResult",
    "TemplateFunction", "TrainableCnn", "align_images", "build_filter_bank",
    "build_gallery", "class1_probability", "classify_1nn", "classify_bank",
    "cone", "cross", "emit_report", "estimate_separation", "gamma_scan",
    "generate_dataset", "load_checkpoint", "normalize_l2", "parse_config",
    "parse_idx_images", "parse_template_spec", "raster_interp", "rasterize",
    "rasterize_batch", "read_dataset", "read_pgm", "run_experiment",
    "sample_params", "save_checkpoint", "shift_bounds", "tent",
    "trace_boundary", "train_least_squares", "unit_arrays", "write_dataset",
    "write_pgm",
]
