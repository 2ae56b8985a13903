"""Random image-deformation model with alignment-based and CNN classifiers.

Images are random brightness/scale/shift deformations of latent template
functions.  The package generates such data, aligns and classifies images
by nearest neighbor in transform space, quantifies template separation and
support regularity, and provides both an explicit scale-indexed CNN
classifier and a small trainable CNN with verified gradients.
"""

from .align import AlignedRep, align_images, build_gallery, classify_1nn
from .cnn import (BankDecision, Filter, FilterBank, build_filter_bank,
                  class1_probability, classify_bank, feature_max, max_tree)
from .datagen import (Dataset, DeformDistribution, LabeledImage,
                      NonIdentifiablePair, generate_dataset,
                      non_identifiable_pair, sample_params, unit_arrays)
from .errors import (AllZeroImage, BadMagic, ConfigError, DataError,
                     DeformClassError, DegenerateCurve, DimMismatch,
                     EmptyDataset, EmptyGallery, EmptyList, EmptyMask,
                     EmptySupport, FilterTooLarge, InvalidDistribution,
                     InvalidFixtureParams, InvalidParams, MalformedHeader,
                     MalformedManifest, MultipleComponents, NumericError,
                     ResolutionMismatch, ResolutionTooSmall, TruncatedPayload,
                     ZeroNorm)
from .geometry import BoundaryCurve, GammaScan, gamma_scan, trace_boundary
from .harness import (ExperimentConfig, RiskReport, RiskRow, emit_report,
                      parse_config, parse_template_spec, run_experiment)
from .io import (parse_idx_images, parse_idx_labels, read_dataset, read_pgm,
                 write_dataset, write_pgm)
from .model import (IDENTITY, DeformParams, GrayImage, TemplateFunction,
                    cone, cross, discrete_l2_norm, normalize_l2,
                    raster_interp, rasterize, rasterize_batch, reparametrize,
                    shift_bounds, template_sum, tent)
from .separation import (RiemannRow, SearchConfig, SeparationResult,
                         estimate_separation, grid_inner_product,
                         riemann_error_report)
from .train import (ArchSpec, GradCheckResult, OptSpec, TrainableCnn,
                    grad_check, load_checkpoint, save_checkpoint,
                    train_least_squares)

__version__ = "0.1.0"

__all__ = [
    "AlignedRep", "AllZeroImage", "ArchSpec", "BadMagic", "BankDecision",
    "BoundaryCurve", "ConfigError", "DataError", "Dataset",
    "DeformClassError", "DeformDistribution", "DeformParams",
    "DegenerateCurve", "DimMismatch", "EmptyDataset", "EmptyGallery",
    "EmptyList", "EmptyMask", "EmptySupport", "ExperimentConfig", "Filter",
    "FilterBank", "FilterTooLarge", "GammaScan", "GradCheckResult",
    "GrayImage", "IDENTITY", "InvalidDistribution", "InvalidFixtureParams",
    "InvalidParams", "LabeledImage", "MalformedHeader", "MalformedManifest",
    "MultipleComponents", "NonIdentifiablePair", "NumericError", "OptSpec",
    "ResolutionMismatch", "ResolutionTooSmall", "RiemannRow",
    "RiskReport", "RiskRow", "SearchConfig", "SeparationResult",
    "TemplateFunction", "TrainableCnn", "TruncatedPayload", "ZeroNorm",
    "align_images", "build_filter_bank", "build_gallery",
    "class1_probability", "classify_1nn", "classify_bank", "cone", "cross",
    "discrete_l2_norm", "emit_report", "estimate_separation",
    "feature_max", "gamma_scan", "generate_dataset", "grad_check",
    "grid_inner_product", "load_checkpoint", "max_tree",
    "non_identifiable_pair", "normalize_l2", "parse_config",
    "parse_idx_images", "parse_idx_labels", "parse_template_spec",
    "raster_interp", "rasterize", "rasterize_batch", "read_dataset",
    "read_pgm", "reparametrize", "riemann_error_report", "run_experiment",
    "sample_params", "save_checkpoint", "shift_bounds", "template_sum",
    "tent", "trace_boundary", "train_least_squares", "unit_arrays",
    "write_dataset", "write_pgm",
]
