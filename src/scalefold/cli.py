"""Command-line front end: gen, calibrate, reparam, quantize, eval, inspect.

Exit codes: 0 on success, 1 on data errors (bad containers, mismatched
configs), 2 on usage errors.
"""

import argparse
import json
import os
import sys

from .container import (activations_from_container, container_from_activations,
                        container_from_model, from_bytes, payload_size, read_container,
                        write_container)
from .model import ModelConfig
from .pipeline import (PipelineError, QuantizeConfig, calibrate_model, evaluate,
                       load_records, load_sites, quantize_model, reparameterize_model)
from .synth import SynthSpec, gen_activations, gen_model


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _seed(text):
    """`gen --seed`: a non-negative integer, else an argparse usage error."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="scalefold",
        description="Post-training quantization with scale folding on a toy encoder.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic model plus calibration/eval data")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=_seed, default=SynthSpec().seed,
                   help=f"generator seed (default {SynthSpec().seed})")
    p.add_argument("--config", default=None,
                   help="JSON file with model and sample-count overrides")

    p = sub.add_parser("calibrate", help="fit quantizers from calibration data")
    p.add_argument("--model", required=True, help="float model container")
    p.add_argument("--data", required=True, help="calibration activations container")
    p.add_argument("--out", required=True, help="output container path")
    defaults = QuantizeConfig()
    p.add_argument("--bits-w", type=int, default=defaults.bits_w,
                   help=f"weight bit width (default {defaults.bits_w})")
    p.add_argument("--bits-a", type=int, default=defaults.bits_a,
                   help=f"activation bit width (default {defaults.bits_a})")

    p = sub.add_parser("reparam", help="fold channel-wise LayerNorm quantizers into layer-wise ones")
    p.add_argument("--model", required=True, help="calibrated container")
    p.add_argument("--data", default=None,
                   help="ignored and never opened: the fold reads no data")
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


# top-level keys of a `gen --config` file; calib_batches and eval_batches,
# the samples of calib.rvq and eval.rvq, are 32 each unless it sets them
_GEN_KEYS = ("model", "calib_batches", "eval_batches")


def _batch_count(overrides, key):
    n = overrides.get(key, 32)
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"--config {key} must be a positive integer, got {n!r}")
    return n


def _cmd_gen(args):
    overrides = _load_json(args.config) if args.config else {}
    if not (isinstance(overrides, dict) and set(overrides) <= set(_GEN_KEYS)
            and isinstance(overrides.get("model", {}), dict)):
        raise ValueError(f"--config takes an object with keys from {list(_GEN_KEYS)}, "
                         "with an object under model")
    cfg = ModelConfig.from_json({**ModelConfig().to_json(), **overrides.get("model", {})})
    spec = SynthSpec(seed=args.seed)
    n_calib, n_eval = (_batch_count(overrides, key) for key in ("calib_batches", "eval_batches"))

    os.makedirs(args.out, exist_ok=True)
    blocks = gen_model(cfg, spec)
    model_c = container_from_model(cfg, blocks, stage="fp")
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
    return activations_from_container(read_container(path))


def _cmd_calibrate(args):
    qcfg = QuantizeConfig(bits_w=args.bits_w, bits_a=args.bits_a)
    out = calibrate_model(read_container(args.model), _acts(args.data), qcfg)
    write_container(out, args.out)
    print(f"calibrated: {args.out}")
    return 0


def _cmd_reparam(args):
    out = reparameterize_model(read_container(args.model))
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
    for title, arms in (("layernorm ablation (end-to-end mse)", report.ln_ablation),
                        ("softmax ablation (site mse)", report.softmax_ablation)):
        print(f"{title}:")
        for name, mse in arms.items():
            print(f"  {name}: {mse:.6e}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
        print(f"report: {args.out}")
    return 0


def _cmd_inspect(args):
    with open(args.path, "rb") as fh:
        raw = fh.read()
    c = from_bytes(raw)
    # a malformed site table or fold record fails before any line is printed
    folded = c.stage in ("reparameterized", "quantized")
    sites = load_sites(c) if folded or "sites" in c.meta else None
    records = load_records(c, sites) if folded else {}
    print(f"kind:  {c.kind}")
    if c.stage:
        print(f"stage: {c.stage}")
    if "model_config" in c.meta:
        print(f"model: {json.dumps(c.meta['model_config'], sort_keys=True)}")
    # from_bytes has checked the header that holds the manifest's length
    print(f"bytes: {len(raw)}  manifest={int.from_bytes(raw[8:16], 'little')}")
    print(f"tensors ({len(c.tensors)}):")
    for name in sorted(c.tensors):
        arr = c.tensors[name]
        tag, size = payload_size(name, arr)
        print(f"  {name}  shape={list(arr.shape)}  dtype={tag}  bytes={size}")
    if sites is not None:
        print(f"sites ({len(sites)}):")
        for name, qp in sorted(sites.items()):
            gran = f"per_channel  channels={qp.scale.size}" if qp.scale.size > 1 else "per_layer"
            print(f"  {name}  {qp.scheme.value}  b={qp.bits}  {gran}")
    if records:
        print(f"fold records: {', '.join(records)}")
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
    except (PipelineError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
