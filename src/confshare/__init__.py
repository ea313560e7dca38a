"""confshare: a desk-scale conformer size-reduction laboratory.

Shrinks a conformer encoder by reusing parameters (full-layer repetition,
module sharing, sub-component sharing) and by low-rank factorization of
the feed-forward linears, with exact parameter accounting against the
published sweep sizes, budget fitting, and a fully verified float64
forward/backward pass.
"""

from .accounting import (ParamReport, SizeBudget, calibrate, count_params,
                         fit_dim_to_budget, report_table)
from .autodiff import (NonFiniteError, Rng, ShapeError, Tape, Tensor,
                       backward, finite_diff_grad)
from .blocks import (AttentionParams, BlockParams, ConvParams,
                     FeedForwardParams, ModelConfig, attention,
                     conformer_block, conv_module, feed_forward)
from .checkpoint import load_checkpoint, save_checkpoint
from .configio import parse_config_file, parse_config_text, serialize_config
from .encoder import BoundModel, EvalCounter, bind_model, encoder_forward
from .lowrank import LowRankFactors, LowRankSpec
from .presets import Preset, preset, preset_names
from .sharing import (BoundSchedule, ParameterStore, SharingPlan,
                      bind_parameters, physical_group_counts, repeat_plan,
                      unshare_module, unshare_subcomponent, validate_plan)
from .training import (OptimizerState, ToyTaskSpec, TrainReport,
                       generate_toy_batch, gradcheck_model, serialize_report,
                       train_steps)

__version__ = "0.1.0"
