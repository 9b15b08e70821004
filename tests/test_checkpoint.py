"""Binary checkpoint format: round trips, integrity, malformed input."""

import struct
import zlib

import numpy as np
import pytest

from spiderft.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from spiderft.errors import CorruptCheckpointError, FormatError
from spiderft.tensors import FlatTensor, TensorMap

from helpers import tmap


def sample_map():
    rng = np.random.default_rng(60)
    return TensorMap.from_tensors(
        [
            FlatTensor.of("layer0.weight", rng.normal(size=(5, 4))),
            FlatTensor.of("layer0.bias", rng.normal(size=5)),
            FlatTensor.of("layer1.weight", rng.normal(size=(3, 5))),
        ]
    )


def record(name: bytes, dims: tuple, payload: np.ndarray) -> bytes:
    return (
        struct.pack("<Q", len(name))
        + name
        + struct.pack("<Q", len(dims))
        + struct.pack(f"<{len(dims)}Q", *dims)
        + payload.astype("<f4").tobytes()
    )


def file_of(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


def test_round_trip_within_one_float32_ulp(tmp_path):
    path = tmp_path / "m.ckpt"
    original = sample_map()
    save_checkpoint(original, path)
    loaded = load_checkpoint(path)
    assert loaded.layout == original.layout
    for a, b in zip(original, loaded):
        ulp = np.spacing(np.abs(a.data).astype(np.float32)).astype(np.float64)
        assert np.all(np.abs(a.data - b.data) <= ulp)


def test_float32_representable_values_round_trip_exactly(tmp_path):
    path = tmp_path / "m.ckpt"
    original = tmap(w=[1.0, -2.5, 0.0, 1024.0, 0.15625])
    save_checkpoint(original, path)
    assert np.array_equal(load_checkpoint(path)["w"].data, original["w"].data)


def test_load_then_save_is_byte_identical(tmp_path):
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    save_checkpoint(sample_map(), first)
    save_checkpoint(load_checkpoint(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_empty_map_round_trip(tmp_path):
    path = tmp_path / "empty.ckpt"
    save_checkpoint(TensorMap.from_tensors([]), path)
    assert len(load_checkpoint(path)) == 0


def test_shapes_survive_round_trip(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(sample_map(), path)
    loaded = load_checkpoint(path)
    assert loaded["layer0.weight"].shape == (5, 4)
    assert loaded["layer0.bias"].shape == (5,)
    assert loaded.names == ["layer0.weight", "layer0.bias", "layer1.weight"]


def test_save_is_deterministic(tmp_path):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(sample_map(), a)
    save_checkpoint(sample_map(), b)
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# Integrity and format violations
# ---------------------------------------------------------------------------


def test_flipped_payload_byte_fails_checksum(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(sample_map(), path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptCheckpointError):
        load_checkpoint(path)


def test_bad_magic_rejected_before_checksum(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(sample_map(), path)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_too_short_file_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(MAGIC)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_truncated_tensor_table_with_valid_checksum(tmp_path):
    # a structurally short body whose CRC is still correct must be reported
    # as a format problem, not a corruption
    body = MAGIC + struct.pack("<Q", 1) + struct.pack("<Q", 4) + b"na"
    path = tmp_path / "m.ckpt"
    path.write_bytes(file_of(body))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path):
    body = (
        MAGIC
        + struct.pack("<Q", 1)
        + record(b"w", (2,), np.array([1.0, 2.0]))
        + b"extra"
    )
    path = tmp_path / "m.ckpt"
    path.write_bytes(file_of(body))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_duplicate_tensor_names_rejected(tmp_path):
    rec = record(b"w", (2,), np.array([1.0, 2.0]))
    body = MAGIC + struct.pack("<Q", 2) + rec + rec
    path = tmp_path / "m.ckpt"
    path.write_bytes(file_of(body))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_implausible_rank_rejected(tmp_path):
    body = (
        MAGIC
        + struct.pack("<Q", 1)
        + struct.pack("<Q", 1)
        + b"w"
        + struct.pack("<Q", 33)  # rank beyond the format limit
    )
    path = tmp_path / "m.ckpt"
    path.write_bytes(file_of(body))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_non_utf8_name_rejected(tmp_path):
    body = (
        MAGIC
        + struct.pack("<Q", 1)
        + struct.pack("<Q", 2)
        + b"\xff\xfe"
        + struct.pack("<Q", 1)
        + struct.pack("<Q", 1)
        + np.array([1.0]).astype("<f4").tobytes()
    )
    path = tmp_path / "m.ckpt"
    path.write_bytes(file_of(body))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_nan_payload_rejected_on_load(tmp_path):
    payload = np.array([np.nan], dtype=np.float32)
    body = MAGIC + struct.pack("<Q", 1) + (
        struct.pack("<Q", 1) + b"w" + struct.pack("<Q", 1) + struct.pack("<Q", 1)
        + payload.tobytes()
    )
    path = tmp_path / "m.ckpt"
    path.write_bytes(file_of(body))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_values_beyond_float32_range_rejected_on_save(tmp_path):
    path = tmp_path / "m.ckpt"
    with pytest.raises(FormatError):
        save_checkpoint(tmap(w=[1e300]), path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_checkpoint(tmp_path / "nope.ckpt")
