"""Conditional diffusion model for graphic layout generation.

Train a permutation-equivariant transformer to denoise layout bounding
boxes conditioned on element attributes, sample new layouts by ancestral
diffusion, and score collections with the standard layout quality metrics.
"""

__version__ = "0.1.0"

from .data import (Batch, Dataset, Element, Layout, SynthSpec, batch_to_layouts,
                   grid_rule_box, load_dataset, make_synthetic_dataset, pad_batch,
                   save_dataset, to_corner_form)
from .denoiser import DenoiserConfig, denoise, init_denoiser_params, timestep_embedding
from .diffusion import (DiffusionConfig, NoiseSchedule, SampleResult, TrainConfig,
                        build_schedule, p_sample_step, posterior_mean, q_sample,
                        sample, train, training_step)
from .exceptions import (DataError, LayoutDiffusionError, NotFittedError, NumericError)
from .metrics import (FeatureSet, MetricFrame, alignment_blt, alignment_kikuchi,
                      evaluate_collections, frechet_distance, frechet_gaussian,
                      max_iou, overlap_blt, overlap_kikuchi, pair_max_iou,
                      perceptual_iou, trivial_features)
from .model import LayoutDiffusion
from .optim import AdamState, adam_step
from .render import render_svg
from .rng import RngStream
from .tensor import Tensor, backward, collect_grads

__all__ = [
    "AdamState", "Batch", "DataError", "Dataset", "DenoiserConfig",
    "DiffusionConfig", "Element", "FeatureSet", "Layout", "LayoutDiffusion",
    "LayoutDiffusionError", "MetricFrame", "NoiseSchedule", "NotFittedError",
    "NumericError", "RngStream", "SampleResult", "SynthSpec",
    "Tensor", "TrainConfig", "adam_step", "alignment_blt", "alignment_kikuchi",
    "backward", "batch_to_layouts", "build_schedule", "collect_grads", "denoise",
    "evaluate_collections", "frechet_distance", "frechet_gaussian", "grid_rule_box",
    "init_denoiser_params", "load_dataset", "make_synthetic_dataset", "max_iou",
    "overlap_blt", "overlap_kikuchi", "p_sample_step", "pad_batch", "pair_max_iou",
    "perceptual_iou", "posterior_mean", "q_sample", "render_svg", "sample", "save_dataset",
    "timestep_embedding", "to_corner_form", "train", "training_step", "trivial_features",
]
