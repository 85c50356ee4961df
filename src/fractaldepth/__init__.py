"""Fractal next-scale autoregressive depth generation with per-scale
conditional diffusion and robust consensus aggregation."""

from .core import (DepthMap, ScaleConfig, SchedulePlan, build_schedule_plan, denormalize,
                   downsample_mean, log_normalize, named_scale_config,
                   split_patches_with_context, upsample_bilinear)
from .diffusion import (NoiseSchedule, forward_noise, make_linear_schedule, respace,
                        reverse_step, sample)
from .errors import (ConfigError, FractalDepthError, InputError, NumericsError,
                     ResampleError, ShapeError, TimestepError)
from .fractal import (FractalModel, GenerationTrace, decode_level_depth, encode_targets,
                      generate, init_model, load_model, save_model, train_step)
from .rng import RngStream
from .urca import (AlignmentParams, ConsensusOutput, URCAConfig, align_samples,
                   fuse, uncertainty_stats)

__version__ = "0.1.0"
