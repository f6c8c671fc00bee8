import json
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hiekge.baselines import BaselineConfig, BaselineParams
from hiekge.baselines import init_params as init_baseline
from hiekge.checkpoint import (
    MAGIC,
    BadMagicError,
    CheckpointError,
    ShapeMismatchError,
    TruncatedError,
    load_checkpoint,
    save_checkpoint,
    sidecar_path,
)
from hiekge.hie_model import HieConfig

from helpers import random_hie_params


def hie_fixture(seed=0):
    config = HieConfig(dim=8, levels=2, lambdas=(0.5, 0.5))
    params = random_hie_params(np.random.default_rng(seed), 7, 3, config)
    meta = {"model_kind": "hie", "dim": 8, "levels": 2, "step": 120, "seed": seed}
    return params, meta


class TestRoundTrip:
    def test_hie_round_trip_bit_exact(self, tmp_path):
        params, meta = hie_fixture()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, meta, path)
        loaded = load_checkpoint(path)
        for (name_a, a), (name_b, b) in zip(params.field_items(), loaded.params.field_items()):
            assert name_a == name_b
            assert a.shape == b.shape
            assert np.array_equal(a, b), name_a
        assert loaded.meta["model_kind"] == "hie"
        assert loaded.meta["step"] == 120

    @pytest.mark.parametrize("kind", ["transe", "distmult", "rotate"])
    def test_baseline_round_trip_bit_exact(self, tmp_path, kind):
        config = BaselineConfig(kind=kind, dim=6)
        params = init_baseline(9, 4, config, seed=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, {"model_kind": kind}, path)
        loaded = load_checkpoint(path)
        # the kind rides in the sidecar; the params are the baseline class's two tables
        assert loaded.meta["model_kind"] == kind
        assert type(loaded.params) is BaselineParams
        assert np.array_equal(loaded.params.ent, params.ent)
        assert np.array_equal(loaded.params.rel, params.rel)

    def test_save_load_save_identical_bytes(self, tmp_path):
        params, meta = hie_fixture(seed=3)
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(params, meta, first)
        loaded = load_checkpoint(first)
        save_checkpoint(loaded.params, meta, second)
        assert first.read_bytes() == second.read_bytes()
        assert sidecar_path(first).read_bytes() == sidecar_path(second).read_bytes()

    def test_zero_rank_blend_logit_survives(self, tmp_path):
        params, meta = hie_fixture(seed=4)
        params.blend_logit = np.asarray(0.31)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, meta, path)
        loaded = load_checkpoint(path)
        assert loaded.params.blend_logit.shape == ()
        assert float(loaded.params.blend_logit) == 0.31

    def test_loaded_arrays_are_writable(self, tmp_path):
        params, meta = hie_fixture(seed=5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, meta, path)
        loaded = load_checkpoint(path)
        loaded.params.ent[0, 0] = 42.0  # frombuffer views would blow up here
        assert loaded.params.ent[0, 0] == 42.0

    def test_metadata_survives_verbatim(self, tmp_path):
        params, meta = hie_fixture(seed=6)
        meta["metrics"] = {"mrr": 0.42, "hits10": 0.9}
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, meta, path)
        loaded = load_checkpoint(path)
        assert loaded.meta["metrics"] == {"mrr": 0.42, "hits10": 0.9}
        # the writer records the tensor table in the sidecar
        names = [entry["name"] for entry in loaded.meta["tensors"]]
        assert names[0] == "ent" and "blend_logit" in names

    def test_sidecar_has_no_volatile_fields(self, tmp_path):
        params, meta = hie_fixture(seed=7)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, meta, path)
        doc = json.loads(sidecar_path(path).read_text())
        blob = sidecar_path(path).read_text()
        assert doc == json.loads(blob)
        for banned in ("time", "date", "host", "user"):
            assert banned not in doc


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        params, meta = hie_fixture()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, meta, path)
        blob = bytearray(path.read_bytes())
        blob[:8] = b"NOTMAGIC"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError):
            load_checkpoint(path)

    def test_empty_file_is_bad_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"")
        with pytest.raises(BadMagicError):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        params, meta = hie_fixture()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, meta, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])
        with pytest.raises(TruncatedError):
            load_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(MAGIC + struct.pack("<I", 3) + struct.pack("<I", 2))
        with pytest.raises(TruncatedError):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        params, meta = hie_fixture()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, meta, path)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00")
        with pytest.raises(ShapeMismatchError, match="trailing"):
            load_checkpoint(path)

    def test_metadata_shape_mismatch(self, tmp_path):
        params, meta = hie_fixture()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, meta, path)
        doc = json.loads(sidecar_path(path).read_text())
        doc["tensors"][0]["shape"] = [3, 3]
        sidecar_path(path).write_text(json.dumps(doc))
        with pytest.raises(ShapeMismatchError, match="ent"):
            load_checkpoint(path)

    def test_metadata_count_mismatch(self, tmp_path):
        params, meta = hie_fixture()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, meta, path)
        doc = json.loads(sidecar_path(path).read_text())
        doc["tensors"] = doc["tensors"][:-1]
        sidecar_path(path).write_text(json.dumps(doc))
        with pytest.raises(ShapeMismatchError, match="count"):
            load_checkpoint(path)

    def test_absurd_rank_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(MAGIC + struct.pack("<I", 1) + struct.pack("<I", 999))
        with pytest.raises(ShapeMismatchError, match="rank"):
            load_checkpoint(path)

    def test_missing_sidecar(self, tmp_path):
        params, meta = hie_fixture()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, meta, path)
        sidecar_path(path).unlink()
        with pytest.raises(CheckpointError, match="sidecar"):
            load_checkpoint(path)

    def test_missing_hie_tensor_rejected(self, tmp_path):
        params, meta = hie_fixture()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, meta, path)
        doc = json.loads(sidecar_path(path).read_text())
        doc["tensors"][-1]["name"] = "mystery"
        sidecar_path(path).write_text(json.dumps(doc))
        with pytest.raises(ShapeMismatchError, match="blend_logit"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "sidecar",
        [
            b'{"model_kind": "hie", "tensors": [',  # malformed JSON
            b"\xff\xfe not utf-8",
            b'["model_kind", "hie"]',  # not an object
            b"3",
        ],
    )
    def test_unreadable_sidecar(self, tmp_path, sidecar):
        params, meta = hie_fixture()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, meta, path)
        sidecar_path(path).write_bytes(sidecar)
        with pytest.raises(CheckpointError, match="sidecar"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "entry",
        [
            {"name": "ent"},  # no shape
            {"shape": [7, 8]},  # no name
            {"name": "ent", "shape": 56},
            {"name": ["ent"], "shape": [7, 8]},
            "ent",
        ],
    )
    def test_malformed_tensor_entry(self, tmp_path, entry):
        params, meta = hie_fixture()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, meta, path)
        doc = json.loads(sidecar_path(path).read_text())
        doc["tensors"][0] = entry
        sidecar_path(path).write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="malformed tensor entry"):
            load_checkpoint(path)

    @pytest.mark.parametrize("kind", ["hie", "transe", "distmult", "rotate"])
    def test_tensor_missing_from_blob_and_sidecar_is_named(self, tmp_path, kind):
        # the blob and the sidecar agree with each other, but the kind's params class needs the tensor
        if kind == "hie":
            params, meta = hie_fixture()
        else:
            params, meta = init_baseline(5, 2, BaselineConfig(kind=kind, dim=4), seed=0), {"model_kind": kind}
        path = tmp_path / "model.ckpt"
        for dropped, _ in params.field_items():
            kept = [(n, t) for n, t in params.field_items() if n != dropped]
            # save_checkpoint writes whatever tensors field_items lists, to the blob and the sidecar
            save_checkpoint(SimpleNamespace(field_items=lambda: kept), meta, path)
            with pytest.raises(ShapeMismatchError, match=rf"missing tensors \['{dropped}'\]"):
                load_checkpoint(path)

    @pytest.mark.parametrize("kind", ["bogus", None, 3, ["hie"]])
    def test_unknown_model_kind(self, tmp_path, kind):
        config = BaselineConfig(kind="transe", dim=4)
        params = init_baseline(5, 2, config, seed=0)
        path = tmp_path / "model.ckpt"
        meta = {} if kind is None else {"model_kind": kind}
        save_checkpoint(params, meta, path)
        with pytest.raises(CheckpointError, match="unknown model kind"):
            load_checkpoint(path)

    def test_huge_dims_are_truncation_not_overflow(self, tmp_path):
        # (2**16)**4 wraps a 64-bit element count to 0; the payload is missing
        path = tmp_path / "model.ckpt"
        dims = struct.pack("<4I", 2**16, 2**16, 2**16, 2**16)
        path.write_bytes(MAGIC + struct.pack("<I", 1) + struct.pack("<I", 4) + dims)
        with pytest.raises(TruncatedError):
            load_checkpoint(path)

    def test_error_types_are_distinct_checkpoint_errors(self):
        for exc in (BadMagicError, TruncatedError, ShapeMismatchError):
            assert issubclass(exc, CheckpointError)
        assert not issubclass(BadMagicError, TruncatedError)
        assert not issubclass(TruncatedError, ShapeMismatchError)


def _valid_files(tmp_path):
    config = BaselineConfig(kind="rotate", dim=4)
    params = init_baseline(3, 2, config, seed=0)
    path = tmp_path / "seed.ckpt"
    save_checkpoint(params, {"model_kind": "rotate"}, path)
    return path.read_bytes(), sidecar_path(path).read_bytes()


def _mutate(data, draw):
    """Random splice of a valid file: cut, overwrite bytes, or append junk."""
    data = bytearray(data)
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["cut", "flip", "append"]))
        pos = draw(st.integers(0, len(data)))
        if op == "cut":
            del data[pos : pos + draw(st.integers(1, 16))]
        elif op == "flip" and pos < len(data):
            data[pos] = draw(st.integers(0, 255))
        else:
            data[pos:pos] = draw(st.binary(max_size=16))
    return bytes(data)


class TestFuzz:
    @given(data=st.data())
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_only_checkpoint_errors_escape(self, tmp_path, data):
        blob, sidecar = _valid_files(tmp_path)
        path = tmp_path / "fuzz.ckpt"
        for target, valid in ((path, blob), (sidecar_path(path), sidecar)):
            if data.draw(st.booleans()):
                target.write_bytes(data.draw(st.binary(max_size=64)))
            else:
                target.write_bytes(_mutate(valid, data.draw))
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass
