"""Self-describing, CRC-checked stream frames — the one codec layer.

Every channel that moves VM state (the MigrationTP proxy wire, the PRAM
encoding parsed across the kexec boundary, UISR documents, cluster plan
blobs) wraps its payloads in the same frame format:

    +--------+---------+------+--------+-----------+-------+
    | magic  | version | type | length | payload   | crc32 |
    | u32 LE | u8      | u8   | u32 LE | length B  | u32 LE|
    +--------+---------+------+--------+-----------+-------+

The CRC32 trailer covers the header *and* the payload, so a bit flip
anywhere — magic, type tag, length field or body — fails loudly as a
:class:`~repro.errors.StateFormatError` rather than decoding to a
silently-wrong guest.  Frame type ``0`` is reserved as the END marker a
finished stream must close with; :meth:`FrameReader.expect_end` rejects
truncated streams and concatenated garbage tails alike.

The module also hosts the low-level :class:`Packer`/:class:`Unpacker`
pair that every hypervisor's format code packs with — the only place in
the tree allowed to touch ``struct``, enforced by the
``io-format-hygiene`` lint rule.
"""

import struct
import zlib
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.errors import StateFormatError

FRAME_MAGIC = 0x52494F31  # "RIO1"
FRAME_VERSION = 1

#: frame type 0 terminates a finished stream (empty payload).
END_FRAME = 0

_HEADER = struct.Struct("<IBBI")
_CRC = struct.Struct("<I")
_U32 = struct.Struct("<I")

#: fixed per-frame overhead: header + CRC32 trailer.
FRAME_OVERHEAD = _HEADER.size + _CRC.size


class Packer:
    """Append-only binary writer."""

    def __init__(self):
        self._parts: List[bytes] = []
        self._length = 0

    def reset(self) -> "Packer":
        """Clear accumulated parts so one Packer can serve many records.

        High-volume encoders (the campaign journal appends thousands of
        records per run) reuse a single instance to keep per-record
        allocations — and with them GC pressure — off their hot path.
        """
        self._parts.clear()
        self._length = 0
        return self

    def u8(self, value: int) -> "Packer":
        return self._pack("<B", value)

    def u16(self, value: int) -> "Packer":
        return self._pack("<H", value)

    def u32(self, value: int) -> "Packer":
        return self._pack("<I", value)

    def u64(self, value: int) -> "Packer":
        return self._pack("<Q", value)

    def i64(self, value: int) -> "Packer":
        return self._pack("<q", value)

    def f64(self, value: float) -> "Packer":
        return self._pack("<d", value)

    def string(self, value: str) -> "Packer":
        """Length-prefixed UTF-8 string (u32 byte length + bytes)."""
        data = value.encode("utf-8")
        size = len(data)
        if size > 0xFFFFFFFF:
            raise StateFormatError(
                f"string of {size} bytes exceeds the u32 length prefix")
        # Hot path for per-record codecs (journal transitions): one
        # pre-compiled struct and two list appends, no intermediate copy.
        self._parts.append(_U32.pack(size))
        self._parts.append(data)
        self._length += 4 + size
        return self

    def raw(self, data: bytes) -> "Packer":
        if not isinstance(data, bytes):
            data = bytes(data)
        self._parts.append(data)
        self._length += len(data)
        return self

    def u64_seq(self, values: Iterable[int]) -> "Packer":
        values = list(values)
        self.u32(len(values))
        for value in values:
            self.u64(value)
        return self

    def _pack(self, fmt: str, value: int) -> "Packer":
        try:
            part = struct.pack(fmt, value)
        except struct.error as exc:
            raise StateFormatError(f"cannot pack {value!r} as {fmt}: {exc}") from exc
        self._parts.append(part)
        self._length += len(part)
        return self

    def bytes(self) -> bytes:
        return b"".join(self._parts)

    def __len__(self) -> int:
        return self._length


class Unpacker:
    """Sequential binary reader with bounds checking."""

    def __init__(self, data: bytes):
        self._data = data
        self._offset = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._offset

    def u8(self) -> int:
        return self._unpack("<B", 1)

    def u16(self) -> int:
        return self._unpack("<H", 2)

    def u32(self) -> int:
        return self._unpack("<I", 4)

    def u64(self) -> int:
        return self._unpack("<Q", 8)

    def i64(self) -> int:
        return self._unpack("<q", 8)

    def f64(self) -> float:
        return self._unpack("<d", 8)

    def string(self) -> str:
        """Length-prefixed UTF-8 string (u32 byte length + bytes)."""
        length = self.u32()
        try:
            return self.raw(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StateFormatError(
                f"malformed UTF-8 string blob: {exc}") from exc

    def raw(self, length: int) -> bytes:
        if length < 0 or self.remaining < length:
            raise StateFormatError(
                f"truncated blob: want {length} bytes, have {self.remaining}"
            )
        chunk = self._data[self._offset:self._offset + length]
        self._offset += length
        return chunk

    def u64_seq(self) -> Tuple[int, ...]:
        count = self.u32()
        # Validate against the buffer before materializing: a corrupt
        # 4-byte count must not drive a multi-GB tuple allocation.
        if count * 8 > self.remaining:
            raise StateFormatError(
                f"truncated blob: u64 sequence of {count} needs "
                f"{count * 8} bytes, have {self.remaining}"
            )
        return tuple(self.u64() for _ in range(count))

    def expect_end(self) -> None:
        if self.remaining:
            raise StateFormatError(f"{self.remaining} trailing bytes in blob")

    def _unpack(self, fmt: str, size: int):
        if self.remaining < size:
            raise StateFormatError(
                f"truncated blob: want {size} bytes, have {self.remaining}"
            )
        (value,) = struct.unpack_from(fmt, self._data, self._offset)
        self._offset += size
        return value


def encode_frame(frame_type: int, payload: bytes) -> bytes:
    """One self-contained frame: header, payload, CRC32 trailer."""
    if not 0 <= frame_type <= 0xFF:
        raise StateFormatError(f"frame type {frame_type} out of range")
    if frame_type == END_FRAME and payload:
        raise StateFormatError("END frame must carry an empty payload")
    header = _HEADER.pack(FRAME_MAGIC, FRAME_VERSION, frame_type, len(payload))
    crc = zlib.crc32(payload, zlib.crc32(header))
    return header + payload + _CRC.pack(crc)


def decode_frame(data: bytes, offset: int = 0) -> Tuple[int, bytes, int]:
    """Parse one frame at ``offset``; returns (type, payload, consumed).

    Error messages locate the failure by its byte offset and, once the
    header parsed, by the frame's type tag — so a bad CRC in a long
    multi-frame stream names the exact frame, not just "bad CRC".
    """
    if len(data) - offset < _HEADER.size:
        raise StateFormatError(
            f"truncated frame at byte offset {offset}: want "
            f"{_HEADER.size}-byte header, have {len(data) - offset}"
        )
    magic, version, frame_type, length = _HEADER.unpack_from(data, offset)
    if magic != FRAME_MAGIC:
        raise StateFormatError(
            f"bad frame magic {magic:#x} at byte offset {offset}"
        )
    if version != FRAME_VERSION:
        raise StateFormatError(
            f"unsupported frame version {version} at byte offset {offset}"
        )
    total = _HEADER.size + length + _CRC.size
    if len(data) - offset < total:
        raise StateFormatError(
            f"truncated frame (type {frame_type}) at byte offset {offset}: "
            f"want {total} bytes, have {len(data) - offset}"
        )
    body_end = offset + _HEADER.size + length
    payload = bytes(data[offset + _HEADER.size:body_end])
    (stored_crc,) = _CRC.unpack_from(data, body_end)
    computed = zlib.crc32(data[offset:body_end])
    if stored_crc != computed:
        raise StateFormatError(
            f"frame CRC mismatch (type {frame_type}) at byte offset {offset}: "
            f"stored {stored_crc:#010x}, computed {computed:#010x}"
        )
    if frame_type == END_FRAME and payload:
        raise StateFormatError(
            f"END frame at byte offset {offset} carries a non-empty payload"
        )
    return frame_type, payload, total


class FrameWriter:
    """Streaming frame encoder.

    ``frame()`` appends one typed frame; ``finish()`` appends the END
    marker and returns the whole stream.  Open-ended channels (the
    migration wire) use ``getvalue()`` without finishing — completeness
    there is the receiver state machine's job.
    """

    def __init__(self):
        self._parts: List[bytes] = []
        self.bytes_written = 0
        self.frames_written = 0
        self._finished = False

    def frame(self, frame_type: int, payload: bytes) -> int:
        """Append one frame; returns its encoded size."""
        if self._finished:
            raise StateFormatError("cannot append to a finished stream")
        if frame_type == END_FRAME:
            raise StateFormatError("END frames are written by finish()")
        encoded = encode_frame(frame_type, payload)
        self._parts.append(encoded)
        self.bytes_written += len(encoded)
        self.frames_written += 1
        return len(encoded)

    def finish(self) -> bytes:
        """Terminate the stream with an END frame and return its bytes."""
        if self._finished:
            raise StateFormatError("stream already finished")
        encoded = encode_frame(END_FRAME, b"")
        self._parts.append(encoded)
        self.bytes_written += len(encoded)
        self._finished = True
        return self.getvalue()

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class FrameReader:
    """Streaming frame decoder over an in-memory stream.

    ``read()`` returns the next ``(type, payload)`` pair, or ``None`` once
    the END frame is reached; running out of bytes *before* END is a
    truncation error.  ``expect_end()`` additionally rejects trailing
    bytes after END — concatenated or garbage tails fail loudly.
    """

    def __init__(self, data: bytes):
        self._data = data
        self._offset = 0
        self._ended = False

    @property
    def remaining(self) -> int:
        return len(self._data) - self._offset

    def read(self) -> Optional[Tuple[int, bytes]]:
        if self._ended:
            raise StateFormatError("read past END frame")
        if not self.remaining:
            raise StateFormatError("truncated stream: missing END frame")
        frame_type, payload, consumed = decode_frame(self._data, self._offset)
        self._offset += consumed
        if frame_type == END_FRAME:
            self._ended = True
            return None
        return frame_type, payload

    def frames(self) -> Iterator[Tuple[int, bytes]]:
        """Iterate frames until the END marker."""
        while True:
            result = self.read()
            if result is None:
                return
            yield result

    def expect_end(self) -> None:
        """Require that END was reached and nothing trails it."""
        if not self._ended:
            raise StateFormatError("stream not terminated by an END frame")
        if self.remaining:
            raise StateFormatError(
                f"{self.remaining} trailing bytes after END frame"
            )
