"""Raw-waveform environmental sound classifier with a self-contained
tensor/autodiff core, multi-resolution front-end, multi-level feature
aggregation, training protocol, probability-voting evaluation, and
learned-filter analysis."""

from .analysis import (ResponseMatrix, central_frequency, export_all_branches,
                       filter_response, response_matrix, spectral_centroid)
from .audio import (AudioClip, Window, decode_wav, encode_wav_pcm16,
                    load_clip_file, peak_normalize, random_crop,
                    resample_linear, segment_for_voting)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .datasets import (DatasetManifest, ManifestEntry, dump_manifest,
                       fold_split, load_manifest, synth_dataset,
                       write_synth_dataset)
from .errors import (CheckpointError, ConfigError, DecodeError, ManifestError,
                     NonFiniteLossError, ShapeError)
from .evaluation import (AblationResult, AblationRow, EvalReport,
                         ablate_levels, ablate_temporal, cross_validate,
                         evaluate, level_variant_configs, predict_clip,
                         temporal_variants)
from .model import (BranchSpec, Model, ModelConfig, build_model,
                    full_scale_config, param_count, single_branch_variant)
from .optim import sgd_step
from .tensor import (DTYPES, Parameter, Tensor, backward, grad_enabled,
                     no_grad, zero_grads)
from .training import TrainConfig, lr_at, train, train_epoch

__version__ = "0.1.0"
