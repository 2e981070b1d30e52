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
from repro.obs.metrics import MetricsRegistry

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
            raise StateFormatError(f"malformed UTF-8 string blob: {exc}")

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


class StreamMeter:
    """The bytes-in / bytes-out / dedup-hits triple for one channel.

    Counts locally (always) and mirrors into ``io_{channel}_*`` counters
    of a :class:`~repro.obs.metrics.MetricsRegistry` when one is given.
    """

    def __init__(self, channel: str,
                 registry: Optional[MetricsRegistry] = None):
        self.channel = channel
        self.bytes_in = 0
        self.bytes_out = 0
        self.dedup_hits = 0
        self._in = self._out = self._dedup = None
        if registry is not None:
            self._in = registry.counter(
                f"io_{channel}_bytes_in", f"bytes decoded from the {channel} stream")
            self._out = registry.counter(
                f"io_{channel}_bytes_out", f"bytes encoded onto the {channel} stream")
            self._dedup = registry.counter(
                f"io_{channel}_dedup_hits",
                f"page records elided by digest dedup on the {channel} stream")

    def count_in(self, amount: int) -> None:
        self.bytes_in += amount
        if self._in is not None:
            self._in.inc(amount)

    def count_out(self, amount: int) -> None:
        self.bytes_out += amount
        if self._out is not None:
            self._out.inc(amount)

    def count_dedup(self, amount: int = 1) -> None:
        self.dedup_hits += amount
        if self._dedup is not None:
            self._dedup.inc(amount)


def encode_frame(frame_type: int, payload: bytes) -> bytes:
    """One self-contained frame: header, payload, CRC32 trailer."""
    if not 0 <= frame_type <= 0xFF:
        raise StateFormatError(f"frame type {frame_type} out of range")
    if frame_type == END_FRAME and payload:
        raise StateFormatError("END frame must carry an empty payload")
    header = _HEADER.pack(FRAME_MAGIC, FRAME_VERSION, frame_type, len(payload))
    crc = zlib.crc32(payload, zlib.crc32(header))
    return header + payload + _CRC.pack(crc)


def decode_frame(data: bytes, offset: int = 0, *,
                 base_offset: int = 0) -> Tuple[int, bytes, int]:
    """Parse one frame at ``offset``; returns (type, payload, consumed).

    Error messages locate the failure by its absolute byte offset
    (``offset + base_offset``) and, once the header parsed, by the frame's
    type tag — so a bad CRC in a long multi-frame stream names the exact
    frame, not just "bad CRC".  ``base_offset`` lets incremental callers
    (:func:`read_stream_frame`) report stream positions even though they
    hand in a buffer holding a single frame.
    """
    at = offset + base_offset
    if len(data) - offset < _HEADER.size:
        raise StateFormatError(
            f"truncated frame at byte offset {at}: want "
            f"{_HEADER.size}-byte header, have {len(data) - offset}"
        )
    magic, version, frame_type, length = _HEADER.unpack_from(data, offset)
    if magic != FRAME_MAGIC:
        raise StateFormatError(
            f"bad frame magic {magic:#x} at byte offset {at}"
        )
    if version != FRAME_VERSION:
        raise StateFormatError(
            f"unsupported frame version {version} at byte offset {at}"
        )
    total = _HEADER.size + length + _CRC.size
    if len(data) - offset < total:
        raise StateFormatError(
            f"truncated frame (type {frame_type}) at byte offset {at}: "
            f"want {total} bytes, have {len(data) - offset}"
        )
    body_end = offset + _HEADER.size + length
    payload = bytes(data[offset + _HEADER.size:body_end])
    (stored_crc,) = _CRC.unpack_from(data, body_end)
    computed = zlib.crc32(data[offset:body_end])
    if stored_crc != computed:
        raise StateFormatError(
            f"frame CRC mismatch (type {frame_type}) at byte offset {at}: "
            f"stored {stored_crc:#010x}, computed {computed:#010x}"
        )
    if frame_type == END_FRAME and payload:
        raise StateFormatError(
            f"END frame at byte offset {at} carries a non-empty payload"
        )
    return frame_type, payload, total


def read_stream_frame(stream, offset: int = 0,
                      meter: Optional[StreamMeter] = None
                      ) -> Tuple[int, bytes, int]:
    """Read exactly one frame from a binary file object (blocking).

    Returns ``(type, payload, consumed)``.  The pipe-transport flavour of
    the codec: where :class:`FrameReader` walks an in-memory buffer, this
    reads incrementally — header first, then exactly the body the header
    promises — so two processes can speak frames over a pipe without
    buffering the whole stream.  ``offset`` is the caller's running byte
    position on the channel, reported in every error message.

    EOF cleanly *between* frames raises ``StateFormatError("stream
    closed...")``; EOF mid-frame reports a truncation at the absolute
    offset.  Callers that treat endpoint death as a recoverable event
    (the ``repro.par`` worker pool) catch the error and handle it.
    """
    header = _read_exact(stream, _HEADER.size)
    if not header:
        raise StateFormatError(
            f"stream closed at byte offset {offset}: expected a frame header"
        )
    if len(header) < _HEADER.size:
        raise StateFormatError(
            f"truncated frame at byte offset {offset}: want "
            f"{_HEADER.size}-byte header, have {len(header)}"
        )
    _, _, frame_type, length = _HEADER.unpack(header)
    rest = _read_exact(stream, length + _CRC.size)
    if len(rest) < length + _CRC.size:
        raise StateFormatError(
            f"truncated frame (type {frame_type}) at byte offset {offset}: "
            f"want {_HEADER.size + length + _CRC.size} bytes, have "
            f"{_HEADER.size + len(rest)}"
        )
    frame_type, payload, consumed = decode_frame(header + rest,
                                                 base_offset=offset)
    if meter is not None:
        meter.count_in(consumed)
    return frame_type, payload, consumed


def _read_exact(stream, size: int) -> bytes:
    """Read up to ``size`` bytes, looping over short reads; may return
    fewer only at EOF."""
    parts: List[bytes] = []
    have = 0
    while have < size:
        chunk = stream.read(size - have)
        if not chunk:
            break
        parts.append(chunk)
        have += len(chunk)
    return b"".join(parts)


class FrameWriter:
    """Streaming frame encoder.

    ``frame()`` appends one typed frame; ``finish()`` appends the END
    marker and returns the whole stream.  Open-ended channels (the
    migration wire) use ``getvalue()`` without finishing — completeness
    there is the receiver state machine's job.
    """

    def __init__(self, meter: Optional[StreamMeter] = None):
        self._parts: List[bytes] = []
        self._meter = meter
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
        if self._meter is not None:
            self._meter.count_out(len(encoded))
        return len(encoded)

    def finish(self) -> bytes:
        """Terminate the stream with an END frame and return its bytes."""
        if self._finished:
            raise StateFormatError("stream already finished")
        encoded = encode_frame(END_FRAME, b"")
        self._parts.append(encoded)
        self.bytes_written += len(encoded)
        if self._meter is not None:
            self._meter.count_out(len(encoded))
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

    def __init__(self, data: bytes, meter: Optional[StreamMeter] = None):
        self._data = data
        self._offset = 0
        self._meter = meter
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
        if self._meter is not None:
            self._meter.count_in(consumed)
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
