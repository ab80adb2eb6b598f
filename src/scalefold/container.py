"""The .rvq container: a JSON manifest plus a raw little-endian blob.

Layout (format version 2):

    bytes 0..8    magic "RVQM0001"
    bytes 8..16   manifest length, unsigned 64-bit little-endian
    manifest      UTF-8 JSON
    blob          tensor payloads, back to back in tensor-table order

The manifest holds the format version, a stage marker, the model
configuration, the tensor table and the per-layer quantizer sites. Each
tensor-table entry is exactly {name, shape, dtype}; `to_bytes` lists the
tensors in name order. A payload's byte length follows from its shape and
dtype, so the blob is exactly the table's payloads in table order:
a blob with bytes left over or missing raises ContainerError, and so does an
entry with any other field, such as the byte offset and length that version
1 stored. A file of another version raises ContainerError.

Each container has one byte form, the one `to_bytes` writes, and
`from_bytes` accepts no other: the manifest must be compact JSON with sorted
keys (`json.dumps(..., sort_keys=True, separators=(",", ":"))` of what it
parses to), the table must be in name order, and each tensor must carry the
dtype tag `to_bytes` gives its name and values. So every accepted file
re-serializes to itself, and equal containers have equal bytes.

Float tensors are "f64" (float64 LE) when their name
ends in ".scale", so quantizer scales read back bit-exact, and "f32"
(float32 LE) otherwise. Integer tensors are "u4" when every value lies in
[0, 15] and "u8" (one unsigned byte each) otherwise; writing an integer
tensor with a value outside [0, 255] raises ContainerError. A u4 payload
packs two codes per byte: element 2i in the low nibble of byte i, element
2i + 1 in the high nibble, so it is ceil(count / 2) bytes long, and an odd
count leaves the last byte's high nibble zero; a nonzero pad nibble raises
ContainerError. Both integer tags read back as writable uint8 arrays, both
float tags as float64, and a non-finite float raises ContainerError.
A float tensor of either tag computes in float64 once read.
Serialization is deterministic: equal containers produce equal bytes.

A per-channel quantizer ships as two tensors, never in the manifest:
`<key>.scale` (f64) and `<key>.zero` (u4/u8); `channel_tensors` writes them
and `channel_params` reads them back. A quantized container ships each
weight matrix only as its codes, `block{i}.{w}.codes` for w in w_qkv, w_o,
w_1 and w_2 (u4 at 4 bits or fewer, else u8), next to its site's
`block{i}.{w}.scale` and `.zero`, float biases and LayerNorm parameters.
`blocks_from_container` loads those codes as `CodeBlock`s centred on the
zero points, at the container's `quantize_config.bits_w`; every other stage
holds and loads float weights.
"""

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .model import WEIGHT_SITES, BlockWeights, CodeBlock, ModelConfig
from .quantizers import QuantParams, Scheme
from .tensors import ShapeError, as_tensor

MAGIC = b"RVQM0001"
FORMAT_VERSION = 2

_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8"), "u8": np.dtype("u1"),
           "u4": np.dtype("u1")}
# JSON type of each field of a tensor-table entry, which has no other field
_ENTRY_TYPES = {"name": str, "shape": list, "dtype": str}

WEIGHT_FIELDS = tuple(f.name for f in fields(BlockWeights))


class ContainerError(ValueError):
    """Malformed or inconsistent container bytes."""


@dataclass
class ModelContainer:
    """In-memory form: manifest metadata plus named float64 or integer tensors."""

    meta: dict
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def kind(self):
        return self.meta.get("kind")

    @property
    def stage(self):
        return self.meta.get("stage")

    def config(self):
        try:
            return ModelConfig.from_json(self.meta["model_config"])
        except (KeyError, TypeError, ValueError) as e:
            raise ContainerError(f"bad model_config: {type(e).__name__}: {e}") from None


def _payload_dtype(name, arr):
    if arr.dtype.kind == "f":
        return "f64" if name.endswith(".scale") else "f32"
    if arr.dtype.kind in "iu":
        lo, hi = arr.min(initial=0), arr.max(initial=0)
        if lo < 0 or hi > 255:
            raise ContainerError(f"integer tensor {name!r} has values outside [0, 255]")
        return "u4" if hi <= 15 else "u8"
    raise ContainerError(f"tensor {name!r} has unsupported dtype {arr.dtype}")


def _payload_length(tag, count):
    return (count + 1) // 2 if tag == "u4" else count * _DTYPES[tag].itemsize


def payload_size(name, arr):
    """(dtype tag, byte length) of tensor `arr`'s payload in a container file."""
    tag = _payload_dtype(name, arr)
    return tag, _payload_length(tag, arr.size)


def _pack_u4(arr):
    """Two codes per byte, the even-indexed one in the low nibble."""
    flat = arr.astype(np.uint8).ravel()
    if flat.size % 2:
        flat = np.append(flat, np.uint8(0))
    return (flat[0::2] | (flat[1::2] << 4)).tobytes()


def _unpack_u4(name, packed, count):
    codes = np.empty(2 * packed.size, dtype=np.uint8)
    codes[0::2] = packed & 15
    codes[1::2] = packed >> 4
    if count % 2 and codes[-1]:
        raise ContainerError(f"tensor {name!r} has a nonzero pad nibble")
    return codes[:count]


def to_bytes(container):
    """Serialize deterministically; tensors are laid out in name order."""
    table = []
    chunks = []
    for name in sorted(container.tensors):
        arr = container.tensors[name]
        tag = _payload_dtype(name, arr)
        table.append({"name": name, "shape": list(arr.shape), "dtype": tag})
        chunks.append(_pack_u4(arr) if tag == "u4"
                      else np.ascontiguousarray(arr, dtype=_DTYPES[tag]).tobytes())
    manifest = dict(container.meta)
    manifest["format_version"] = FORMAT_VERSION
    manifest["tensors"] = table
    doc = _manifest_bytes(manifest)
    return MAGIC + len(doc).to_bytes(8, "little") + doc + b"".join(chunks)


def _manifest_bytes(manifest):
    """The manifest's one byte form: compact JSON with sorted keys."""
    return json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")


def from_bytes(raw):
    """Parse and validate container bytes; inverse of `to_bytes`.

    The payloads are read back to back in table order, and must fill the
    blob exactly. Bytes that `to_bytes` would not write for what they parse
    to raise ContainerError (see the module docstring).
    """
    if len(raw) < 16 or raw[:8] != MAGIC:
        raise ContainerError("bad magic: not a container file")
    doc_len = int.from_bytes(raw[8:16], "little")
    if 16 + doc_len > len(raw):
        raise ContainerError("manifest length exceeds file size")
    doc = raw[16:16 + doc_len]
    try:
        manifest = json.loads(doc.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ContainerError(f"manifest is not valid JSON: {e}") from None
    if not isinstance(manifest, dict):
        raise ContainerError(f"manifest is a JSON {type(manifest).__name__}, not an object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION or not isinstance(version, int):
        raise ContainerError(f"unsupported format version {version}")
    if not isinstance(manifest.get("tensors"), list):
        raise ContainerError("manifest has no tensor list")
    blob = raw[16 + doc_len:]

    tensors = {}
    offset = 0
    last = ""
    for entry in manifest["tensors"]:
        if not (isinstance(entry, dict) and entry.keys() == _ENTRY_TYPES.keys()
                and all(isinstance(entry[k], t) for k, t in _ENTRY_TYPES.items())
                and all(type(v) is int and v >= 0 for v in entry["shape"])):
            raise ContainerError(f"malformed tensor entry {entry!r}")
        name, tag, shape = entry["name"], entry["dtype"], tuple(entry["shape"])
        if name in tensors:
            raise ContainerError(f"duplicate tensor name {name!r}")
        if name < last:
            raise ContainerError(f"tensor table is not in name order: {name!r} follows {last!r}")
        last = name
        if tag not in _DTYPES:
            raise ContainerError(f"tensor {name!r} has unknown dtype {tag!r}")
        count = math.prod(shape)
        length = _payload_length(tag, count)
        if offset + length > len(blob):
            raise ContainerError(f"tensor {name!r} extends past the blob")
        flat = np.frombuffer(blob, dtype=_DTYPES[tag], count=length // _DTYPES[tag].itemsize,
                             offset=offset)
        offset += length
        if tag in ("f32", "f64"):
            arr = flat.astype(np.float64)
            if not np.isfinite(arr).all():
                raise ContainerError(f"tensor {name!r} contains non-finite values")
        elif tag == "u4":
            arr = _unpack_u4(name, flat, count)
        else:
            arr = flat.copy()   # own its bytes: frombuffer's view is read-only
        written = _payload_dtype(name, arr)
        if written != tag:
            raise ContainerError(f"tensor {name!r} is stored as {tag}, but to_bytes writes "
                                 f"it as {written}")
        tensors[name] = arr.reshape(shape)
    if offset != len(blob):
        raise ContainerError(f"blob is {len(blob)} bytes, but its tensors' shapes "
                             f"take {offset}")
    if _manifest_bytes(manifest) != doc:
        raise ContainerError("manifest is not compact JSON with sorted keys, the form "
                             "to_bytes writes")

    meta = {k: v for k, v in manifest.items() if k not in ("tensors", "format_version")}
    return ModelContainer(meta=meta, tensors=tensors)


def write_container(container, path):
    data = to_bytes(container)
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def read_container(path):
    with open(path, "rb") as fh:
        return from_bytes(fh.read())


def container_from_model(cfg, blocks, stage="fp", meta_extra=None):
    """Pack encoder weights into a container."""
    if len(blocks) != cfg.blocks:
        raise ContainerError(f"{len(blocks)} blocks for a {cfg.blocks}-block config")
    tensors = {}
    for i, bw in enumerate(blocks):
        bw.validate(cfg)
        for name in WEIGHT_FIELDS:
            tensors[f"block{i}.{name}"] = getattr(bw, name)
    meta = {"kind": "model", "stage": stage, "model_config": cfg.to_json()}
    if meta_extra:
        meta.update(meta_extra)
    return ModelContainer(meta=meta, tensors=tensors)


def _tensor(container, key):
    if key not in container.tensors:
        raise ContainerError(f"model container is missing tensor {key!r}")
    return container.tensors[key]


def channel_tensors(key, qp):
    """The two tensors that ship per-channel uniform quantizer `qp` of `key`."""
    return {key + ".scale": qp.scale, key + ".zero": qp.zero_point}


def channel_params(container, key, bits):
    """`key`'s `bits`-bit uniform quantizer, read back from its `channel_tensors`.

    A missing tensor, or vectors and bits that make no quantizer (a scale
    that is not positive, a zero point past 2**bits - 1, lengths that
    differ), raise ContainerError naming the key.
    """
    scale, zero = _tensor(container, key + ".scale"), _tensor(container, key + ".zero")
    try:
        return QuantParams(Scheme.UNIFORM, bits, scale=scale, zero_point=zero)
    except ValueError as e:
        raise ContainerError(f"quantizer tensors {key}.scale and {key}.zero: {e}") from None


def _weight_bits(container):
    qcfg = container.meta.get("quantize_config")
    if not isinstance(qcfg, dict) or "bits_w" not in qcfg:
        raise ContainerError("quantized container has no quantize_config.bits_w for its codes")
    return qcfg["bits_w"]


def _code_block(container, key, bits):
    """The weight at `key` of a quantized container, from its codes, scale and zero."""
    codes = _tensor(container, key + ".codes")
    qp = channel_params(container, key, bits)
    try:
        return CodeBlock.from_codes(codes, qp)
    except ValueError as e:
        raise ContainerError(f"tensor {key + '.codes'!r}: {e}") from None


def blocks_from_container(container):
    """Unpack (config, [BlockWeights]) from a model container.

    A quantized container's weight matrices load as `CodeBlock`s, centred
    once here. A missing tensor, a malformed quantizer (see
    `channel_params`), codes past its range or of another width, and shapes
    that do not fit the config raise ContainerError naming them.
    """
    if container.kind != "model":
        raise ContainerError(f"expected a model container, got kind {container.kind!r}")
    cfg = container.config()
    codes = WEIGHT_SITES if container.stage == "quantized" else ()
    bits = _weight_bits(container) if codes else None
    blocks = []
    for i in range(cfg.blocks):
        pre = f"block{i}."
        kwargs = {name: _code_block(container, pre + name, bits) if name in codes
                  else _tensor(container, pre + name) for name in WEIGHT_FIELDS}
        try:
            blocks.append(BlockWeights(**kwargs).validate(cfg))
        except ShapeError as e:
            raise ContainerError(f"block{i}: {e}") from None
    return cfg, blocks


def container_from_activations(cfg, acts):
    """Pack an activation batch (n, patches, dim) into a container."""
    acts = as_tensor(acts, check_finite=True)
    if acts.ndim != 3 or acts.shape[1:] != (cfg.patches, cfg.dim):
        raise ContainerError(
            f"activations must be (n, {cfg.patches}, {cfg.dim}), got {acts.shape}"
        )
    meta = {"kind": "activations", "model_config": cfg.to_json()}
    return ModelContainer(meta=meta, tensors={"activations": acts})


def activations_from_container(container):
    if container.kind != "activations":
        raise ContainerError(f"expected an activations container, got kind {container.kind!r}")
    if "activations" not in container.tensors:
        raise ContainerError("activations container has no activations tensor")
    return container.tensors["activations"]
