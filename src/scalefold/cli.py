"""Command-line front end: gen, calibrate, reparam, quantize, eval, inspect.

Exit codes: 0 on success, 1 on data errors (bad containers, mismatched
configs), 2 on usage errors.
"""

import argparse
import json
import os
import sys

from .container import (ContainerError, container_from_activations,
                        container_from_model, read_container, write_container)
from .model import ModelConfig
from .pipeline import (PipelineError, QuantizeConfig, calibrate_model,
                       evaluate, quantize_model, reparameterize_model)
from .synth import SynthSpec, gen_activations, gen_model


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _add_bits_flags(p):
    p.add_argument("--bits-w", type=int, default=4, help="weight bit width (default 4)")
    p.add_argument("--bits-a", type=int, default=4, help="activation bit width (default 4)")
    p.add_argument("--percentile", type=float, default=99.99,
                   help="activation clip percentile (default 99.99)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="scalefold",
        description="Post-training quantization with scale folding on a toy encoder.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic model plus calibration/eval data")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the generator seed")
    p.add_argument("--config", default=None,
                   help="JSON file with model/synth/batch overrides")

    p = sub.add_parser("calibrate", help="fit quantizers from calibration data")
    p.add_argument("--model", required=True, help="float model container")
    p.add_argument("--data", required=True, help="calibration activations container")
    p.add_argument("--out", required=True, help="output container path")
    _add_bits_flags(p)

    p = sub.add_parser("reparam", help="fold channel-wise LayerNorm quantizers into layer-wise ones")
    p.add_argument("--model", required=True, help="calibrated container")
    p.add_argument("--data", required=True, help="calibration activations container")
    p.add_argument("--out", required=True, help="output container path")

    p = sub.add_parser("quantize", help="emit integer weight codes")
    p.add_argument("--model", required=True, help="folded container")
    p.add_argument("--out", required=True, help="output container path")

    p = sub.add_parser("eval", help="compare a quantized container against its float source")
    p.add_argument("--fp", required=True, help="float model container")
    p.add_argument("--q", required=True, help="quantized container")
    p.add_argument("--data", required=True, help="evaluation activations container")
    p.add_argument("--out", default=None, help="optional JSON report path")

    p = sub.add_parser("inspect", help="print a container's manifest summary")
    p.add_argument("path", help="container path")

    return parser


def _cmd_gen(args):
    overrides = _load_json(args.config) if args.config else {}
    cfg = ModelConfig.from_json({**ModelConfig().to_json(), **overrides.get("model", {})})
    spec_d = {**SynthSpec().to_json(), **overrides.get("synth", {})}
    if args.seed is not None:
        spec_d["seed"] = args.seed
    spec = SynthSpec.from_json(spec_d)
    n_calib = int(overrides.get("calib_batches", spec.batch))
    n_eval = int(overrides.get("eval_batches", spec.batch))

    os.makedirs(args.out, exist_ok=True)
    blocks = gen_model(cfg, spec)
    model_c = container_from_model(cfg, blocks, stage="fp",
                                   meta_extra={"synth_spec": spec.to_json()})
    paths = {
        "model": os.path.join(args.out, "model_fp.rvq"),
        "calib": os.path.join(args.out, "calib.rvq"),
        "eval": os.path.join(args.out, "eval.rvq"),
    }
    write_container(model_c, paths["model"])
    write_container(container_from_activations(cfg, gen_activations(cfg, spec, n_calib, stream=0)),
                    paths["calib"])
    write_container(container_from_activations(cfg, gen_activations(cfg, spec, n_eval, stream=1)),
                    paths["eval"])
    for label, path in paths.items():
        print(f"{label}: {path}")
    return 0


def _acts(path):
    from .container import activations_from_container
    return activations_from_container(read_container(path))


def _cmd_calibrate(args):
    qcfg = QuantizeConfig(bits_w=args.bits_w, bits_a=args.bits_a,
                          percentile=args.percentile)
    out = calibrate_model(read_container(args.model), _acts(args.data), qcfg)
    write_container(out, args.out)
    print(f"calibrated: {args.out}")
    return 0


def _cmd_reparam(args):
    out = reparameterize_model(read_container(args.model), _acts(args.data))
    write_container(out, args.out)
    print(f"folded: {args.out}")
    return 0


def _cmd_quantize(args):
    out = quantize_model(read_container(args.model))
    write_container(out, args.out)
    print(f"quantized: {args.out}")
    return 0


def _cmd_eval(args):
    report = evaluate(read_container(args.fp), read_container(args.q), _acts(args.data))
    print(f"output mse:        {report.output_mse:.6e}")
    print(f"output cosine:     {report.output_cosine:.9f}")
    print(f"code equality:     {report.code_equality_rate:.6f}")
    for name, rate in sorted(report.code_equality.items()):
        print(f"  {name}: {rate:.6f}")
    print("layernorm ablation (end-to-end mse):")
    for name in ("layer_wise", "channel_wise", "reparam"):
        if name in report.ln_ablation:
            print(f"  {name}: {report.ln_ablation[name]:.6e}")
    print("softmax ablation (site mse):")
    for name in ("log2", "log_sqrt2", "base_changed"):
        print(f"  {name}: {report.softmax_ablation[name]:.6e}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
        print(f"report: {args.out}")
    return 0


def _cmd_inspect(args):
    c = read_container(args.path)
    print(f"kind:  {c.kind}")
    if c.stage:
        print(f"stage: {c.stage}")
    if "model_config" in c.meta:
        print(f"model: {json.dumps(c.meta['model_config'], sort_keys=True)}")
    print(f"tensors ({len(c.tensors)}):")
    for name in sorted(c.tensors):
        arr = c.tensors[name]
        print(f"  {name}  shape={list(arr.shape)}  dtype={arr.dtype}")
    sites = c.meta.get("sites", {})
    if sites:
        print(f"sites ({len(sites)}):")
        for name in sorted(sites):
            d = sites[name]
            gran = d.get("granularity")
            print(f"  {name}  {d['scheme']}  b={d['bits']}  {gran}")
    records = c.meta.get("reparam_records", {})
    if records:
        print(f"fold records: {', '.join(sorted(records))}")
    passes = c.meta.get("passes", [])
    if passes:
        trail = " -> ".join(p["name"] for p in passes)
        print(f"passes: {trail}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "calibrate": _cmd_calibrate,
    "reparam": _cmd_reparam,
    "quantize": _cmd_quantize,
    "eval": _cmd_eval,
    "inspect": _cmd_inspect,
}


def cli_main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except (ContainerError, PipelineError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main())
