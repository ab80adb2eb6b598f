"""Container format tests: determinism, round trips, malformed input."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from scalefold.container import (
    FORMAT_VERSION,
    MAGIC,
    ContainerError,
    ModelContainer,
    activations_from_container,
    blocks_from_container,
    container_from_activations,
    container_from_model,
    from_bytes,
    payload_size,
    read_container,
    to_bytes,
    write_container,
)
from scalefold.model import WEIGHT_SITES, CodeBlock, ModelConfig
from scalefold.pipeline import QuantizeConfig, run_pipeline
from scalefold.synth import SynthSpec, gen_activations, gen_model


def tiny_container():
    rng = np.random.default_rng(70)
    return ModelContainer(
        meta={"kind": "model", "stage": "fp",
              "model_config": ModelConfig().to_json()},
        tensors={
            "b.weight": rng.normal(size=(4, 3)).astype(np.float32).astype(np.float64),
            "a.codes": rng.integers(0, 16, size=(4, 3)).astype(np.int32),
        },
    )


def _entries(raw):
    """The tensor table of container bytes `raw`."""
    return json.loads(raw[16:16 + int.from_bytes(raw[8:16], "little")])["tensors"]


def _blob(raw):
    """The payload bytes of container bytes `raw`, after its manifest."""
    return raw[16 + int.from_bytes(raw[8:16], "little"):]


class TestRoundTrip:
    def test_bytes_round_trip_is_exact(self):
        c = tiny_container()
        back = from_bytes(to_bytes(c))
        assert back.meta == c.meta
        assert sorted(back.tensors) == sorted(c.tensors)
        for name in c.tensors:
            np.testing.assert_array_equal(back.tensors[name], c.tensors[name])

    def test_floats_round_to_f32_once_then_stick(self):
        """Write-read-write: the first write is lossy to f32, the second isn't."""
        c = ModelContainer(meta={"kind": "model", "stage": "fp",
                                 "model_config": ModelConfig().to_json()},
                           tensors={"w": np.array([0.1, 1.0 / 3.0])})
        once = from_bytes(to_bytes(c))
        twice = from_bytes(to_bytes(once))
        np.testing.assert_array_equal(once.tensors["w"], twice.tensors["w"])
        np.testing.assert_array_equal(once.tensors["w"],
                                      np.array([0.1, 1.0 / 3.0], dtype=np.float32))

    def test_serialization_is_deterministic(self):
        c = tiny_container()
        assert to_bytes(c) == to_bytes(c)
        # insertion order must not leak into the bytes
        swapped = ModelContainer(meta=dict(c.meta),
                                 tensors=dict(reversed(list(c.tensors.items()))))
        assert to_bytes(swapped) == to_bytes(c)

    def test_read_write_read_stable(self, tmp_path):
        c = tiny_container()
        p1, p2 = tmp_path / "a.rvq", tmp_path / "b.rvq"
        write_container(c, p1)
        write_container(read_container(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_in_memory_dtypes_after_read(self):
        back = from_bytes(to_bytes(tiny_container()))
        assert back.tensors["b.weight"].dtype == np.float64
        assert back.tensors["a.codes"].dtype == np.uint8

    def test_u8_codes_round_trip_as_one_byte_each(self):
        codes = np.arange(256, dtype=np.int64).reshape(16, 16)[::-1]
        c = ModelContainer(meta={"kind": "model"}, tensors={"w.codes": codes})
        raw = to_bytes(c)
        assert _entries(raw) == [{"name": "w.codes", "shape": [16, 16], "dtype": "u8"}]
        assert len(_blob(raw)) == 256
        back = from_bytes(raw).tensors["w.codes"]
        assert back.dtype == np.uint8 and back.flags.writeable
        np.testing.assert_array_equal(back, codes)
        assert to_bytes(from_bytes(raw)) == raw

    @pytest.mark.parametrize("count", [0, 1, 2, 7, 10])
    def test_u4_codes_round_trip_two_per_byte(self, count):
        codes = np.arange(count, dtype=np.int64) * 7 % 16
        raw = to_bytes(ModelContainer(meta={"kind": "model"}, tensors={"w.codes": codes}))
        assert _entries(raw)[0]["dtype"] == "u4"
        blob = _blob(raw)
        assert len(blob) == (count + 1) // 2
        # element 2i in the low nibble of byte i, element 2i + 1 in the high one
        padded = np.append(codes, [0] * (count % 2))
        assert list(blob) == list(padded[0::2] + 16 * padded[1::2])
        back = from_bytes(raw).tensors["w.codes"]
        assert back.dtype == np.uint8 and back.shape == (count,) and back.flags.writeable
        np.testing.assert_array_equal(back, codes)
        assert to_bytes(from_bytes(raw)) == raw

    def test_u4_shape_survives_packing(self):
        codes = np.arange(15, dtype=np.uint8).reshape(3, 5)
        back = from_bytes(to_bytes(ModelContainer(meta={}, tensors={"w": codes})))
        np.testing.assert_array_equal(back.tensors["w"], codes)

    @pytest.mark.parametrize("top, tag", [(15, "u4"), (16, "u8")])
    def test_one_value_past_15_moves_the_tensor_to_u8(self, top, tag):
        codes = np.array([0, 3, top, 9], dtype=np.uint8)
        assert payload_size("w", codes) == (tag, 2 if tag == "u4" else 4)
        raw = to_bytes(ModelContainer(meta={}, tensors={"w": codes}))
        assert _entries(raw)[0]["dtype"] == tag
        np.testing.assert_array_equal(from_bytes(raw).tensors["w"], codes)

    def test_nonzero_pad_nibble_is_refused(self):
        raw = to_bytes(ModelContainer(meta={}, tensors={"w": np.array([1, 2, 3])}))
        assert raw[-1] == 3
        with pytest.raises(ContainerError, match="'w'.*pad nibble"):
            from_bytes(raw[:-1] + bytes([0x13]))

    @pytest.mark.parametrize("length", [0, 1, 3])
    def test_u4_length_other_than_half_the_count_is_refused(self, length):
        """Four u4 codes take two bytes; a blob of any other length is refused."""
        entry = {"name": "w", "shape": [4], "dtype": "u4"}
        raw = _raw({"format_version": FORMAT_VERSION, "tensors": [entry]}, b"\x00" * length)
        with pytest.raises(ContainerError, match="'w' extends past the blob|blob is 3 bytes"):
            from_bytes(raw)

    def test_scales_ship_as_exact_f64(self):
        """A tensor named `.scale` keeps every bit; any other float tensor rounds to f32."""
        values = np.array([0.1, 1.0 / 3.0, 2.0**-60, 1e30])
        raw = to_bytes(ModelContainer(meta={}, tensors={"w.scale": values, "w": values}))
        assert {e["name"]: e["dtype"] for e in _entries(raw)} == {"w": "f32", "w.scale": "f64"}
        assert len(_blob(raw)) == 16 + 32
        assert payload_size("w.scale", values) == ("f64", 32)
        back = from_bytes(raw).tensors
        assert back["w.scale"].dtype == np.float64 and back["w.scale"].flags.writeable
        np.testing.assert_array_equal(back["w.scale"].view(np.uint64), values.view(np.uint64))
        assert not np.array_equal(back["w"], values)
        assert to_bytes(from_bytes(raw)) == raw

    @pytest.mark.parametrize("length", [0, 8, 12, 24])
    def test_f64_length_other_than_eight_per_value_is_refused(self, length):
        """Two f64 values take 16 bytes; a blob of any other length is refused."""
        entry = {"name": "w.scale", "shape": [2], "dtype": "f64"}
        raw = _raw({"format_version": FORMAT_VERSION, "tensors": [entry]},
                   np.ones(3).tobytes()[:length])
        with pytest.raises(ContainerError, match="'w.scale' extends past the blob|blob is 24"):
            from_bytes(raw)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_f64_is_refused(self, value):
        raw = to_bytes(ModelContainer(meta={}, tensors={"w.scale": np.array([1.0, value])}))
        with pytest.raises(ContainerError, match="'w.scale'.*non-finite"):
            from_bytes(raw)

    @pytest.mark.parametrize("values", [[0, 256], [-1, 3], [2**31 - 1]])
    def test_integer_tensor_outside_u8_is_refused_on_write(self, values):
        c = ModelContainer(meta={"kind": "model"},
                           tensors={"w.codes": np.array(values, dtype=np.int64)})
        with pytest.raises(ContainerError, match="'w.codes'.*outside"):
            to_bytes(c)


class TestMalformed:
    ENTRY = {"name": "x", "shape": [1], "dtype": "f32"}

    def test_bad_magic(self):
        with pytest.raises(ContainerError, match="magic"):
            from_bytes(b"NOTMAGIC" + b"\x00" * 32)

    def test_truncated_header(self):
        with pytest.raises(ContainerError):
            from_bytes(MAGIC[:4])

    def test_manifest_length_overruns(self):
        raw = MAGIC + (10**6).to_bytes(8, "little") + b"{}"
        with pytest.raises(ContainerError, match="length"):
            from_bytes(raw)

    def test_manifest_not_json(self):
        doc = b"this is not json"
        with pytest.raises(ContainerError, match="JSON"):
            from_bytes(MAGIC + len(doc).to_bytes(8, "little") + doc)

    def test_wrong_version(self):
        doc = json.dumps({"format_version": 999, "tensors": []}).encode()
        with pytest.raises(ContainerError, match="version"):
            from_bytes(MAGIC + len(doc).to_bytes(8, "little") + doc)

    def test_duplicate_tensor_names(self):
        raw = _raw({"format_version": FORMAT_VERSION, "tensors": [self.ENTRY, self.ENTRY]},
                   b"\x00" * 8)
        with pytest.raises(ContainerError, match="duplicate"):
            from_bytes(raw)

    def test_tensor_overruns_blob(self):
        raw = _raw({"format_version": FORMAT_VERSION,
                    "tensors": [{**self.ENTRY, "shape": [4]}]}, b"\x00" * 2)
        with pytest.raises(ContainerError, match="blob"):
            from_bytes(raw)

    def test_shape_length_mismatch(self):
        """A blob one f32 longer than the shapes take is refused, not read short."""
        raw = _raw({"format_version": FORMAT_VERSION,
                    "tensors": [{**self.ENTRY, "shape": [3]}]}, b"\x00" * 16)
        with pytest.raises(ContainerError, match="blob is 16 bytes, but its tensors' shapes "
                                                 "take 12"):
            from_bytes(raw)

    def test_unknown_dtype(self):
        raw = _raw({"format_version": FORMAT_VERSION,
                    "tensors": [{**self.ENTRY, "dtype": "f16"}]}, b"\x00" * 2)
        with pytest.raises(ContainerError, match="dtype"):
            from_bytes(raw)

    def test_nonfinite_payload_rejected(self):
        raw = _raw({"format_version": FORMAT_VERSION, "tensors": [self.ENTRY]},
                   np.array([np.nan], dtype="<f4").tobytes())
        with pytest.raises(ContainerError, match="finite"):
            from_bytes(raw)


class TestExactBlob:
    """The blob is the table's payloads back to back, in table order, and nothing else."""

    def test_blob_is_the_payloads_in_table_order(self, quantized_bytes):
        q = from_bytes(quantized_bytes)
        payloads = []
        for entry in _entries(quantized_bytes):
            arr = q.tensors[entry["name"]]
            assert sorted(entry) == ["dtype", "name", "shape"]
            assert payload_size(entry["name"], arr)[0] == entry["dtype"]
            payloads.append(to_bytes(ModelContainer(meta={}, tensors={entry["name"]: arr})))
        assert b"".join(_blob(p) for p in payloads) == _blob(quantized_bytes)

    def test_one_trailing_byte_is_refused(self, quantized_bytes):
        n = len(_blob(quantized_bytes))
        with pytest.raises(ContainerError, match=f"blob is {n + 1} bytes, but its tensors' "
                                                 f"shapes take {n}"):
            from_bytes(quantized_bytes + b"\x00")

    def test_one_byte_short_is_refused(self, quantized_bytes):
        last = _entries(quantized_bytes)[-1]["name"]
        with pytest.raises(ContainerError, match=f"tensor {last!r} extends past the blob"):
            from_bytes(quantized_bytes[:-1])

    def test_gapped_payloads_are_refused(self):
        """A byte between two payloads shifts the second and leaves one byte over."""
        first, second = np.array([16, 17, 18], dtype=np.uint8), np.array([20, 21], dtype=np.uint8)
        entries = [{"name": "a", "shape": [3], "dtype": "u8"},
                   {"name": "b", "shape": [2], "dtype": "u8"}]
        raw = _raw({"format_version": FORMAT_VERSION, "tensors": entries},
                   first.tobytes() + b"\x00" + second.tobytes())
        with pytest.raises(ContainerError, match="blob is 6 bytes, but its tensors' shapes take 5"):
            from_bytes(raw)

    def test_aliased_payloads_are_refused(self):
        """Two entries cannot share one payload: the second needs bytes of its own."""
        entries = [{"name": "w", "shape": [4], "dtype": "u4"},
                   {"name": "w2", "shape": [4], "dtype": "u4"}]
        raw = _raw({"format_version": FORMAT_VERSION, "tensors": entries}, b"\x21\x43")
        with pytest.raises(ContainerError, match="tensor 'w2' extends past the blob"):
            from_bytes(raw)

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_any_container_round_trips_and_fills_its_blob_exactly(self, data):
        """Random tensors of every tag, empty ones included, read back equal from a blob
        exactly as long as their payloads, and one byte more or less is refused."""
        tensors = {}
        for i, tag in enumerate(data.draw(st.lists(st.sampled_from(["f32", "f64", "u4", "u8"]),
                                                   max_size=5))):
            shape = data.draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5))
            if tag in ("f32", "f64"):
                elements = st.floats(width=32 if tag == "f32" else 64, allow_nan=False,
                                     allow_infinity=False)
                arr = data.draw(hnp.arrays(np.float64, shape, elements=elements))
            else:
                top = 15 if tag == "u4" else 255
                arr = data.draw(hnp.arrays(np.uint8, shape, elements=st.integers(0, top)))
            tensors[f"t{i}" + (".scale" if tag == "f64" else "")] = arr
        raw = to_bytes(ModelContainer(meta={}, tensors=tensors))
        back = from_bytes(raw).tensors
        assert sorted(back) == sorted(tensors)
        for name, arr in tensors.items():
            np.testing.assert_array_equal(back[name], arr)
        assert len(_blob(raw)) == sum(payload_size(k, v)[1] for k, v in tensors.items())
        with pytest.raises(ContainerError, match="blob is"):
            from_bytes(raw + b"\x00")
        if _blob(raw):
            with pytest.raises(ContainerError, match="extends past the blob"):
                from_bytes(raw[:-1])

    @pytest.mark.parametrize("extra", ["offset", "length"])
    def test_version_1_layout_is_refused(self, quantized_bytes, extra):
        """A version-1 file, whose entries carry their byte offset and length, does not load.

        Nor does such an entry under the current version number: an entry has
        exactly its name, shape and dtype.
        """
        tensors = from_bytes(quantized_bytes).tensors
        table, offset = [], 0
        for entry in _entries(quantized_bytes):
            length = payload_size(entry["name"], tensors[entry["name"]])[1]
            table.append({**entry, "offset": offset, "length": length})
            offset += length
        doc_len = int.from_bytes(quantized_bytes[8:16], "little")
        manifest = {**json.loads(quantized_bytes[16:16 + doc_len]), "tensors": table}
        blob = _blob(quantized_bytes)
        with pytest.raises(ContainerError, match="unsupported format version 1$"):
            from_bytes(_raw({**manifest, "format_version": 1}, blob))
        manifest["tensors"] = [{k: e[k] for k in ("name", "shape", "dtype", extra)}
                               for e in table]
        with pytest.raises(ContainerError, match=f"malformed tensor entry .*'{extra}'"):
            from_bytes(_raw(manifest, blob))


def _raw(manifest, blob=b""):
    doc = json.dumps(manifest).encode()
    return MAGIC + len(doc).to_bytes(8, "little") + doc + blob


class TestMalformedManifest:
    ENTRY = {"name": "x", "shape": [1], "dtype": "f32"}

    @pytest.mark.parametrize("manifest", [
        [FORMAT_VERSION],
        {"format_version": FORMAT_VERSION},
        {"format_version": FORMAT_VERSION, "tensors": 3},
        {"format_version": FORMAT_VERSION, "tensors": [7]},
        {"format_version": FORMAT_VERSION, "tensors": [{**ENTRY, "name": None}]},
        {"format_version": FORMAT_VERSION,
         "tensors": [{k: v for k, v in ENTRY.items() if k != "name"}]},
        {"format_version": FORMAT_VERSION, "tensors": [{**ENTRY, "shape": 1}]},
        {"format_version": FORMAT_VERSION, "tensors": [{**ENTRY, "shape": "1"}]},
        {"format_version": FORMAT_VERSION, "tensors": [{**ENTRY, "shape": [-1, -1]}]},
        {"format_version": FORMAT_VERSION, "tensors": [{**ENTRY, "shape": [1.0]}]},
        {"format_version": FORMAT_VERSION, "tensors": [{**ENTRY, "dtype": ["f32"]}]},
        {"format_version": FORMAT_VERSION, "tensors": [{**ENTRY, "offset": 0}]},
    ])
    def test_rejected_with_container_error(self, manifest):
        with pytest.raises(ContainerError):
            from_bytes(_raw(manifest, b"\x00" * 4))

    @pytest.mark.parametrize("meta", [
        {}, {"model_config": None}, {"model_config": []},
        {"model_config": {**ModelConfig().to_json(), "dims": 8}},
        {"model_config": {**ModelConfig().to_json(), "dim": None}},
    ])
    def test_bad_model_config_is_container_error(self, meta):
        with pytest.raises(ContainerError, match="model_config"):
            ModelContainer(meta={"kind": "model", **meta}).config()


_CANONICAL = {"sort_keys": True, "separators": (",", ":")}
_ITEMSIZE = {"f32": 4, "f64": 8, "u8": 1}


def _parts(raw):
    """(manifest, payloads in table order) of container bytes `raw`."""
    doc_len = int.from_bytes(raw[8:16], "little")
    manifest = json.loads(raw[16:16 + doc_len])
    blob, payloads, offset = _blob(raw), [], 0
    for entry in manifest["tensors"]:
        count = math.prod(entry["shape"])
        length = (count + 1) // 2 if entry["dtype"] == "u4" else count * _ITEMSIZE[entry["dtype"]]
        payloads.append(blob[offset:offset + length])
        offset += length
    return manifest, payloads


def _assemble(manifest, payloads, dumps=_CANONICAL):
    doc = json.dumps(manifest, **dumps).encode("utf-8")
    return MAGIC + len(doc).to_bytes(8, "little") + doc + b"".join(payloads)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8)


@st.composite
def _containers(draw):
    """Containers of random metadata and tensors of every tag, unicode names included."""
    tensors = {}
    for stem in draw(st.lists(st.text(min_size=1, max_size=3), unique=True, max_size=4)):
        tag = draw(st.sampled_from(["f32", "f64", "u4", "u8"]))
        shape = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4))
        if tag in ("f32", "f64"):
            elements = st.floats(width=32 if tag == "f32" else 64, allow_nan=False,
                                 allow_infinity=False)
            arr = draw(hnp.arrays(np.float64, shape, elements=elements))
        else:
            top = 15 if tag == "u4" else 255
            arr = draw(hnp.arrays(np.uint8, shape, elements=st.integers(0, top)))
        tensors[stem + (".scale" if tag == "f64" else "")] = arr
    meta = draw(st.dictionaries(
        st.text(max_size=6).filter(lambda k: k not in ("tensors", "format_version")),
        _JSON_VALUES, max_size=4))
    return ModelContainer(meta=meta, tensors=tensors)


def _retagged(raw, data):
    """`raw` with one tensor stored under another tag, its payload rewritten to match."""
    manifest, payloads = _parts(raw)
    table = manifest["tensors"]
    if not table:
        return raw
    i = data.draw(st.integers(0, len(table) - 1))
    values = from_bytes(raw).tensors[table[i]["name"]]
    tag = {"u4": "u8", "u8": "f32", "f32": "f64", "f64": "f32"}[table[i]["dtype"]]
    with np.errstate(over="ignore"):        # an f64 past the f32 range becomes inf
        payloads[i] = values.astype({"u8": "u1", "f32": "<f4", "f64": "<f8"}[tag]).tobytes()
    table[i]["dtype"] = tag
    return _assemble(manifest, payloads)


def _perturbed(raw, how, data):
    """Container bytes `raw` changed in one way that may leave them loadable."""
    if how == "byte":
        pos = data.draw(st.integers(0, len(raw) - 1))
        return raw[:pos] + bytes([raw[pos] ^ data.draw(st.integers(1, 255))]) + raw[pos + 1:]
    if how == "retag":
        return _retagged(raw, data)
    manifest, payloads = _parts(raw)
    table = manifest["tensors"]
    if how == "reorder":
        order = data.draw(st.permutations(range(len(table))))
        manifest["tensors"] = [table[i] for i in order]
        return _assemble(manifest, [payloads[i] for i in order])
    if how == "format":
        return _assemble(manifest, payloads, {
            "sort_keys": data.draw(st.booleans()),
            "indent": data.draw(st.sampled_from([None, 0, 1])),
            "separators": data.draw(st.sampled_from([(",", ":"), (", ", ": ")])),
            "ensure_ascii": data.draw(st.booleans())})
    if how == "version":
        manifest["format_version"] = float(FORMAT_VERSION)
    elif how == "bool_shape":
        for entry in table:
            entry["shape"] = [{0: False, 1: True}.get(v, v) for v in entry["shape"]]
    return _assemble(manifest, payloads)


class TestOneByteForm:
    """A container has one byte form, the one `to_bytes` writes; no other loads."""

    def test_table_out_of_name_order_is_refused(self):
        raw = to_bytes(tiny_container())
        manifest, payloads = _parts(raw)
        assert [e["name"] for e in manifest["tensors"]] == ["a.codes", "b.weight"]
        manifest["tensors"].reverse()
        with pytest.raises(ContainerError, match="not in name order: 'a.codes' follows "
                                                 "'b.weight'"):
            from_bytes(_assemble(manifest, payloads[::-1]))

    @pytest.mark.parametrize("dumps", [
        {"sort_keys": True},
        {"sort_keys": False, "separators": (",", ":")},
        {"sort_keys": True, "separators": (",", ":"), "indent": 0},
        {"sort_keys": True, "separators": (",", ":"), "ensure_ascii": False},
    ], ids=["spaced", "unsorted", "indented", "raw-utf8"])
    def test_manifest_in_another_json_form_is_refused(self, dumps):
        c = tiny_container()
        c.meta["note"] = "\u00e9t\u00e9"
        manifest, payloads = _parts(to_bytes(c))
        manifest = {"tensors": manifest.pop("tensors"), **manifest}   # keys out of order
        raw = _assemble(manifest, payloads, dumps)
        with pytest.raises(ContainerError, match="compact JSON with sorted keys"):
            from_bytes(raw)
        assert from_bytes(_assemble(manifest, payloads)).meta == c.meta

    @pytest.mark.parametrize("name, values, stored, written", [
        ("w.codes", np.array([1, 15, 0]), "u8", "u4"),
        ("w", np.array([0.5, -2.0]), "f64", "f32"),
        ("w.scale", np.array([0.5, -2.0]), "f32", "f64"),
    ])
    def test_tag_other_than_the_written_one_is_refused(self, name, values, stored, written):
        dtype = {"u8": "u1", "f64": "<f8", "f32": "<f4"}[stored]
        raw = _assemble({"format_version": FORMAT_VERSION, "tensors": [
            {"dtype": stored, "name": name, "shape": [values.size]}]},
            [values.astype(dtype).tobytes()])
        with pytest.raises(ContainerError, match=f"{name!r} is stored as {stored}, but to_bytes "
                                                 f"writes it as {written}"):
            from_bytes(raw)

    @pytest.mark.parametrize("how", ["version", "bool_shape"])
    def test_json_values_equal_to_the_written_ones_are_refused(self, how):
        """A format version of 2.0, or a shape of [true], compares equal but is not the form."""
        raw = to_bytes(ModelContainer(meta={}, tensors={"w": np.zeros(1)}))
        with pytest.raises(ContainerError, match="version 2.0|malformed tensor entry"):
            from_bytes(_perturbed(raw, how, None))

    @settings(deadline=None, max_examples=300)
    @given(_containers(), st.sampled_from(["none", "reorder", "format", "retag", "version",
                                           "bool_shape", "byte"]), st.data())
    def test_every_accepted_file_reserializes_to_itself(self, c, how, data):
        raw = to_bytes(c)
        assert to_bytes(from_bytes(raw)) == raw
        changed = raw if how == "none" else _perturbed(raw, how, data)
        try:
            back = from_bytes(changed)
        except ContainerError:
            return
        assert to_bytes(back) == changed


@pytest.fixture(scope="module")
def quantized_bytes():
    """A small quantized container: manifest with sites and fold records."""
    cfg = ModelConfig(patches=2, dim=4, heads=1, head_dim=4, mlp_dim=4, blocks=1)
    spec = SynthSpec(seed=9)
    acts = gen_activations(cfg, spec, 2)
    q = run_pipeline(container_from_model(cfg, gen_model(cfg, spec)), acts,
                     QuantizeConfig(bits_w=3, bits_a=3))
    return to_bytes(q)


def _parse_and_load(raw):
    """from_bytes, then blocks_from_container on what parsed."""
    blocks_from_container(from_bytes(raw))


class TestFuzz:
    """Damaged bytes of a valid container either load or raise ContainerError.

    Loading covers both parsing and `blocks_from_container`, which centres
    the u8 codes against the damaged site table.
    """

    def test_undamaged_bytes_load(self, quantized_bytes):
        _parse_and_load(quantized_bytes)

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_truncation(self, quantized_bytes, data):
        cut = data.draw(st.integers(0, len(quantized_bytes) - 1))
        try:
            _parse_and_load(quantized_bytes[:cut])
        except ContainerError:
            pass

    @settings(deadline=None, max_examples=400)
    @given(st.data())
    def test_single_byte_change(self, quantized_bytes, data):
        raw = quantized_bytes
        head = 16 + int.from_bytes(raw[8:16], "little")
        # most of the schema lives in the manifest, so aim half the draws there
        pos = data.draw(st.one_of(st.integers(0, head - 1), st.integers(0, len(raw) - 1)))
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[pos]))
        try:
            _parse_and_load(raw[:pos] + bytes([byte]) + raw[pos + 1:])
        except ContainerError:
            pass


class TestModelPacking:
    def test_model_round_trip(self):
        cfg = ModelConfig()
        blocks = gen_model(cfg, SynthSpec(seed=6))
        c = container_from_model(cfg, blocks)
        cfg2, blocks2 = blocks_from_container(from_bytes(to_bytes(c)))
        assert cfg2 == cfg
        for a, b in zip(blocks, blocks2):
            np.testing.assert_array_equal(b.w_qkv, a.w_qkv.astype(np.float32))
            np.testing.assert_array_equal(b.gamma2, a.gamma2.astype(np.float32))

    def test_block_count_mismatch(self):
        cfg = ModelConfig()
        blocks = gen_model(cfg, SynthSpec())
        with pytest.raises(ContainerError):
            container_from_model(cfg, blocks[:1])

    def test_missing_tensor_detected(self):
        cfg = ModelConfig()
        c = container_from_model(cfg, gen_model(cfg, SynthSpec()))
        del c.tensors["block1.w_o"]
        with pytest.raises(ContainerError, match="block1.w_o"):
            blocks_from_container(c)

    def test_kind_checked(self):
        cfg = ModelConfig()
        acts = container_from_activations(cfg, gen_activations(cfg, SynthSpec(), 2))
        with pytest.raises(ContainerError, match="model"):
            blocks_from_container(acts)

    def test_float_shape_mismatch_is_container_error(self):
        cfg = ModelConfig()
        c = container_from_model(cfg, gen_model(cfg, SynthSpec()))
        c.tensors["block0.b_o"] = np.zeros(cfg.dim + 1)
        with pytest.raises(ContainerError, match="block0: b_o has shape"):
            blocks_from_container(c)


def _damage_codes(q, key, **replace):
    """A copy of quantized container q with tensors `key.codes`, `.scale` or `.zero` replaced.

    Each keyword names a suffix; "drop" deletes that tensor.
    """
    tensors = dict(q.tensors)
    for suffix, value in replace.items():
        if isinstance(value, str):
            del tensors[f"{key}.{suffix}"]
        else:
            tensors[f"{key}.{suffix}"] = value
    return ModelContainer(meta=q.meta, tensors=tensors)


class TestCodeBlocks:
    """A quantized container loads its weights as codes, and rejects inconsistent ones."""

    def test_weights_load_as_centred_codes(self, quantized_bytes):
        q = from_bytes(quantized_bytes)
        cfg, blocks = blocks_from_container(q)
        assert not any(f"block0.{w}" in q.tensors for w in WEIGHT_SITES)
        for w in WEIGHT_SITES:
            block = getattr(blocks[0], w)
            assert isinstance(block, CodeBlock)
            assert block.centred.dtype == np.float32
            np.testing.assert_array_equal(block.centred + block.params.zero_point,
                                          q.tensors[f"block0.{w}.codes"])
            assert block.params.bits == q.meta["quantize_config"]["bits_w"] == 3
            assert block.params.scale is q.tensors[f"block0.{w}.scale"]
            np.testing.assert_array_equal(block.params.zero_point, q.tensors[f"block0.{w}.zero"])
            assert f"block0.{w}" not in q.meta["sites"]

    @pytest.mark.parametrize("replace, named", [
        ({"codes": "drop"}, "missing tensor 'block0.w_o.codes'"),
        ({"scale": "drop"}, "missing tensor 'block0.w_o.scale'"),
        ({"scale": np.full(4, -0.5)}, "block0.w_o.scale.*positive"),
        ({"codes": np.zeros((4, 5), dtype=np.uint8)}, "'block0.w_o.codes'.*5 channels"),
        ({"codes": np.zeros((5, 4), dtype=np.uint8)}, "block0: w_o has shape"),
        ({"codes": np.full((4, 4), 8, dtype=np.uint8)}, "'block0.w_o.codes'.*outside \\[0, 7\\]"),
        ({"codes": np.zeros((4, 4))}, "'block0.w_o.codes'.*integer"),
        ({"zero": np.full(4, 8, dtype=np.uint8)}, "block0.w_o.zero.*outside \\[0, 7\\]"),
        ({"zero": "drop"}, "missing tensor 'block0.w_o.zero'"),
        ({"scale": np.ones(5), "zero": np.zeros(5, dtype=np.uint8)},
         "'block0.w_o.codes'.*4 channels but params carry 5"),
        ({"scale": np.ones(5)}, "block0.w_o.zero.*length"),
        ({"zero": np.zeros(4)}, "block0.w_o.zero.*integers"),
    ], ids=["no-codes", "no-site", "bad-site", "channels", "shape", "past-qmax", "float-codes",
            "zero-past-qmax", "no-zero", "scale-length", "unequal-lengths", "float-zero"])
    def test_inconsistent_codes_are_named(self, quantized_bytes, replace, named):
        q = from_bytes(quantized_bytes)
        with pytest.raises(ContainerError, match=named):
            blocks_from_container(_damage_codes(q, "block0.w_o", **replace))

    @pytest.mark.parametrize("qcfg", [None, {}, {"bits_w": 4.7}, {"bits_w": True}, {"bits_w": 9}])
    def test_weight_bit_width_is_the_quantize_configs(self, quantized_bytes, qcfg):
        """The codes take `quantize_config.bits_w`; a missing or bad one is named."""
        q = from_bytes(quantized_bytes)
        meta = {k: v for k, v in q.meta.items() if k != "quantize_config"}
        if qcfg is not None:
            meta["quantize_config"] = qcfg
        with pytest.raises(ContainerError, match="bits_w|bit width"):
            blocks_from_container(ModelContainer(meta=meta, tensors=q.tensors))

    def test_no_site_table_is_needed(self, quantized_bytes):
        """The codes carry their quantizers in their own tensors, not in the site table."""
        q = from_bytes(quantized_bytes)
        meta = {k: v for k, v in q.meta.items() if k != "sites"}
        _, blocks = blocks_from_container(ModelContainer(meta=meta, tensors=q.tensors))
        _, want = blocks_from_container(q)
        np.testing.assert_array_equal(blocks[0].w_o.dequantize(), want[0].w_o.dequantize())


class TestActivationsPacking:
    def test_round_trip(self):
        cfg = ModelConfig()
        acts = gen_activations(cfg, SynthSpec(seed=8), 3)
        c = from_bytes(to_bytes(container_from_activations(cfg, acts)))
        np.testing.assert_array_equal(activations_from_container(c),
                                      acts.astype(np.float32))

    def test_shape_enforced(self):
        cfg = ModelConfig()
        with pytest.raises(ContainerError):
            container_from_activations(cfg, np.zeros((2, 3, 4)))

    def test_kind_checked(self):
        cfg = ModelConfig()
        c = container_from_model(cfg, gen_model(cfg, SynthSpec()))
        with pytest.raises(ContainerError, match="activations"):
            activations_from_container(c)

    def test_missing_tensor_is_container_error(self):
        c = ModelContainer(meta={"kind": "activations"})
        with pytest.raises(ContainerError, match="no activations tensor"):
            activations_from_container(c)
