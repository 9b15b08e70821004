"""Binary tensor checkpoints with a trailing integrity checksum.

Layout, all integers little-endian:

    magic   8 bytes  b"SPIDRCK1"
    count   u64
    tensor  (name_len u64, name utf-8, rank u64, dims u64 x rank,
             payload f32 x prod(dims))     -- repeated `count` times
    crc32   u32      zlib.crc32 of every preceding byte

Values are computed in 64-bit and stored in 32-bit, so a save/load round
trip lands within one 32-bit ULP of the original. A reload of a saved
file re-serializes byte-identically.
"""

from __future__ import annotations

import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import CorruptCheckpointError, FormatError
from .tensors import Layout, TensorMap, require_path

MAGIC = b"SPIDRCK1"
_MAX_RANK = 32


def save_checkpoint(tm: TensorMap, path: str | Path) -> None:
    chunks = [MAGIC, struct.pack("<Q", len(tm))]
    for t in tm:
        with np.errstate(over="ignore"):
            payload = t.data.astype("<f4")
        if not np.all(np.isfinite(payload)):
            raise FormatError(f"{t.name}: value out of 32-bit float range")
        name, rank = t.name.encode("utf-8"), len(t.shape)
        chunks += struct.pack(f"<Q{len(name)}sQ{rank}Q", len(name), name, rank, *t.shape), payload
    # every chunk checked before the file is opened; the payloads are written
    # from their arrays, and the checksum is folded in chunk by chunk
    crc = 0
    with open(require_path(path, "checkpoint path"), "wb") as f:
        for chunk in chunks:
            f.write(chunk)
            crc = zlib.crc32(chunk, crc)
        f.write(struct.pack("<I", crc))


def load_checkpoint(path: str | Path) -> TensorMap:
    raw = Path(require_path(path, "checkpoint path")).read_bytes()
    if len(raw) < len(MAGIC) + 8 + 4:
        raise FormatError("file too short to be a checkpoint")
    if raw[: len(MAGIC)] != MAGIC:
        raise FormatError("bad magic, not a checkpoint file")

    # views of the file's bytes: no payload is copied before its conversion
    body, crc_bytes = memoryview(raw)[:-4], raw[-4:]
    if struct.unpack("<I", crc_bytes)[0] != zlib.crc32(body):
        raise CorruptCheckpointError(f"{path}: checksum mismatch")

    pos = len(MAGIC)

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(body):
            raise FormatError("checkpoint truncated")
        pos += n
        return body[pos - n : pos]

    def u64() -> int:
        return struct.unpack("<Q", take(8))[0]

    count = u64()
    shapes: dict[str, tuple[int, ...]] = {}
    payloads = []
    for _ in range(count):
        name_len = u64()
        try:
            name = bytes(take(name_len)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"tensor name is not valid utf-8: {exc}") from exc
        rank = u64()
        if rank > _MAX_RANK:
            raise FormatError(f"{name}: implausible rank {rank}")
        dims = tuple(u64() for _ in range(rank))
        payload = np.frombuffer(take(4 * math.prod(dims)), dtype="<f4")
        if not np.isfinite(payload).all():
            raise FormatError(f"{name}: non-finite entries")
        if name in shapes:
            raise FormatError(f"duplicate tensor name {name!r}")
        shapes[name] = dims
        payloads.append(payload)
    if pos != len(body):
        raise FormatError("trailing bytes after tensor table")
    # one float64 buffer for every payload, in file order
    flat = np.concatenate(payloads, dtype=np.float64) if payloads else np.empty(0)
    return TensorMap.over(Layout(tuple(shapes), tuple(shapes.values())), flat)
