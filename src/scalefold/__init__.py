"""Post-training quantization with lossless scale folding.

Channel-wise affine quantizers fitted after LayerNorm are folded into
layer-wise ones by moving the per-channel ratios into the LayerNorm affine
factors and the downstream weights; log-sqrt2 Softmax quantizers are rewritten
as base-2 shifts with a parity-adjusted scale.  Both rewrites preserve the
emitted integer codes, so a calibrated model and its folded form quantize
identically while the folded form dequantizes with cheaper kernels.
"""

from .container import (ContainerError, activations_from_container,
                        blocks_from_container, container_from_model,
                        read_container, write_container)
from .model import ModelConfig, model_forward
from .pipeline import (EvalReport, PipelineError, QuantizeConfig, calibrate_model,
                       evaluate, quantize_model, reparameterize_model, run_pipeline)
from .quantizers import (QuantParams, logsqrt2_dequantize,
                         logsqrt2_dequantize_shift, logsqrt2_quantize)
from .synth import SynthSpec, gen_activations, gen_model

__version__ = "0.1.0"

__all__ = [
    "ContainerError",
    "EvalReport",
    "ModelConfig",
    "PipelineError",
    "QuantParams",
    "QuantizeConfig",
    "SynthSpec",
    "activations_from_container",
    "blocks_from_container",
    "calibrate_model",
    "container_from_model",
    "evaluate",
    "gen_activations",
    "gen_model",
    "logsqrt2_dequantize",
    "logsqrt2_dequantize_shift",
    "logsqrt2_quantize",
    "model_forward",
    "quantize_model",
    "read_container",
    "reparameterize_model",
    "run_pipeline",
    "write_container",
]
