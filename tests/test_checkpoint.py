"""Binary checkpoint format: round trips, integrity, malformed input."""

import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spiderft.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from spiderft.errors import CorruptCheckpointError, FormatError, SpiderftError
from spiderft.tensors import FlatTensor, TensorMap
from spiderft.trainer import ToyModel, build_model

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
    # zero-size tensors (an empty payload is finite) and a rank-0 tensor
    odd = TensorMap.from_tensors([FlatTensor("empty", (0,), np.empty(0)),
                                  FlatTensor("no_columns", (2, 0), np.empty(0)),
                                  FlatTensor("scalar", (), np.array([1.5]))])
    save_checkpoint(odd, path)
    loaded = load_checkpoint(path)
    assert loaded.layout == odd.layout and [t.shape for t in loaded] == [(0,), (2, 0), ()]
    assert loaded.flat.tolist() == [1.5]


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


# ---------------------------------------------------------------------------
# Damaged files, re-sealed so that the checksum passes
# ---------------------------------------------------------------------------


def _model_file() -> tuple[bytes, list[int]]:
    """A saved 3-4-2 model's bytes, and the offset of every u64 field in them."""
    tm = build_model([3, 4, 2], seed=0).tensor_map()
    body = file_of(b"".join([MAGIC, struct.pack("<Q", len(tm))] + [
        record(t.name.encode(), t.shape, t.data) for t in tm]))
    fields, pos = [len(MAGIC)], len(MAGIC) + 8
    for t in tm:
        fields.append(pos)  # name length
        pos += 8 + len(t.name)
        fields += [pos + 8 * i for i in range(len(t.shape) + 1)]  # rank, then dims
        pos += 8 * (len(t.shape) + 1) + 4 * t.size
    assert pos + 4 == len(body)
    return body, fields


MODEL_FILE, U64_FIELDS = _model_file()


@st.composite
def damaged_model_files(draw) -> bytes:
    body = bytearray(MODEL_FILE[:-4])
    kind = draw(st.sampled_from(["truncate", "flip", "u64"]))
    if kind == "truncate":
        del body[draw(st.integers(0, len(body) - 1)):]
    elif kind == "flip":
        for _ in range(draw(st.integers(1, 4))):
            body[draw(st.integers(0, len(body) - 1))] ^= draw(st.integers(1, 255))
    else:
        at = draw(st.sampled_from(U64_FIELDS))
        value = draw(st.sampled_from([0, 1, 33, 2**31, 2**62, 2**64 - 1]))
        body[at : at + 8] = struct.pack("<Q", value)
    return file_of(bytes(body))


# the tensor count, and the first dimension of the first tensor
@pytest.mark.parametrize("at", [U64_FIELDS[0], U64_FIELDS[3]], ids=["count", "dim"])
def test_a_claimed_size_of_2_62_allocates_no_more_than_the_file(tmp_path, at):
    body = bytearray(MODEL_FILE[:-4])
    body[at : at + 8] = struct.pack("<Q", 2**62)
    raw = file_of(bytes(body))
    path = tmp_path / "huge.ckpt"
    path.write_bytes(raw)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(raw) + 64 * 1024


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=damaged_model_files())
def test_damaged_files_load_as_a_map_or_a_typed_error(tmp_path, raw):
    path = tmp_path / "damaged.ckpt"
    path.write_bytes(raw)
    try:
        tm = load_checkpoint(path)
    except (FormatError, CorruptCheckpointError):
        return
    try:
        ToyModel(tm)
    except SpiderftError:
        pass
