"""Post-training quantization with lossless scale folding.

Channel-wise affine quantizers fitted after LayerNorm are folded into
layer-wise ones by moving the per-channel ratios into the LayerNorm affine
factors and the downstream weights; log-sqrt2 Softmax quantizers are rewritten
as base-2 shifts with a parity-adjusted scale.  Both rewrites preserve the
emitted integer codes, so a calibrated model and its folded form quantize
identically while the folded form dequantizes with cheaper kernels.
"""

from .calibration import CalibConfig, calibrate_tensor, compute_affine_params
from .container import (ContainerError, ModelContainer, activations_from_container,
                        blocks_from_container, container_from_activations,
                        container_from_model, read_container, write_container)
from .model import (ACTIVATION_SITES, SITES, WEIGHT_SITES, BlockWeights,
                    ModelConfig, block_forward, model_forward, site_names)
from .pipeline import (EvalReport, PipelineError, QuantizeConfig, calibrate_model,
                       evaluate, quantize_model, reparameterize_model, run_pipeline)
from .quantizers import (Granularity, QuantParams, Scheme, base_change_scale,
                         fake_quantize, log2_dequantize, log2_dequantize_shift,
                         log2_quantize, logsqrt2_dequantize,
                         logsqrt2_dequantize_shift, logsqrt2_quantize,
                         uniform_dequantize, uniform_quantize)
from .reparam import (ReparamRecord, apply_affine_adjustment,
                      apply_weight_compensation, build_reparam_record,
                      reparameterize_layernorm_site)
from .synth import SynthSpec, gen_activations, gen_model

__version__ = "0.1.0"

__all__ = [
    "ACTIVATION_SITES",
    "SITES",
    "WEIGHT_SITES",
    "BlockWeights",
    "CalibConfig",
    "ContainerError",
    "EvalReport",
    "Granularity",
    "ModelConfig",
    "ModelContainer",
    "PipelineError",
    "QuantParams",
    "QuantizeConfig",
    "ReparamRecord",
    "Scheme",
    "SynthSpec",
    "activations_from_container",
    "apply_affine_adjustment",
    "apply_weight_compensation",
    "base_change_scale",
    "block_forward",
    "blocks_from_container",
    "build_reparam_record",
    "calibrate_model",
    "calibrate_tensor",
    "compute_affine_params",
    "container_from_activations",
    "container_from_model",
    "evaluate",
    "fake_quantize",
    "gen_activations",
    "gen_model",
    "log2_dequantize",
    "log2_dequantize_shift",
    "log2_quantize",
    "logsqrt2_dequantize",
    "logsqrt2_dequantize_shift",
    "logsqrt2_quantize",
    "model_forward",
    "quantize_model",
    "read_container",
    "reparameterize_layernorm_site",
    "reparameterize_model",
    "run_pipeline",
    "site_names",
    "uniform_dequantize",
    "uniform_quantize",
    "write_container",
]
