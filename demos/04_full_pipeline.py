"""The whole pipeline in memory: generate, calibrate, fold, quantize, score.

No optimization loop anywhere. One capture pass fits every quantizer, one
algebraic rewrite turns the channel-wise LayerNorm quantizers into
layer-wise ones, and the weight codes drop out. The evaluation report at
the end carries the two ablations: LayerNorm granularity (naive layer-wise
vs channel-wise vs folded) and the post-Softmax family (power-of-two vs
half-power vs its shift-path rewrite).
"""

import time

from scalefold.container import container_from_model
from scalefold.model import ModelConfig
from scalefold.pipeline import evaluate, run_pipeline
from scalefold.synth import SynthSpec, gen_activations, gen_model

cfg = ModelConfig()
spec = SynthSpec()
print(f"model: {cfg.blocks} blocks, dim {cfg.dim}, {cfg.heads} heads, "
      f"{cfg.patches} patches")

model_c = container_from_model(cfg, gen_model(cfg, spec))
calib = gen_activations(cfg, spec, 64)
held_out = gen_activations(cfg, spec, 32, stream=1)

t0 = time.perf_counter()
q_c = run_pipeline(model_c, calib)
print(f"calibrate + fold + quantize: {time.perf_counter() - t0:.2f}s "
      f"on {calib.shape[0]} batches")
print("stage:", q_c.stage)

report = evaluate(model_c, q_c, held_out)
print(f"\noutput mse    {report.output_mse:.3e}")
print(f"output cosine {report.output_cosine:.4f}")
print(f"code equality {report.code_equality_rate:.4f} "
      "(folded codes vs channel-wise codes)")

print("\nLayerNorm-site granularity, end-to-end output MSE:")
for arm in ("layer_wise", "channel_wise", "reparam"):
    print(f"  {arm:12s} {report.ln_ablation[arm]:.3e}")
print("the fold keeps channel-wise accuracy in a layer-wise quantizer.")

print("\npost-Softmax reconstruction MSE:")
for arm in ("log2", "log_sqrt2", "base_changed"):
    print(f"  {arm:12s} {report.softmax_ablation[arm]:.3e}")
print("the shift-path rewrite is exact: half-power and base-changed match.")
