"""``repro.io`` — the one streaming codec layer for VM-state movement.

Every channel that moves VM state (the MigrationTP proxy wire, the PRAM
encoding, UISR documents, cluster plan blobs) shares this layer:

* :mod:`frames` — self-describing CRC32-checked frames with a streaming
  :class:`FrameWriter`/:class:`FrameReader` API, plus the low-level
  :class:`Packer`/:class:`Unpacker` pair;
* :mod:`pages` — the shared page-record batch encoder with run-length
  coalescing and cross-batch digest dedup.

See ``docs/state-io.md`` for the byte formats.
"""

from repro.io.frames import (
    END_FRAME,
    FRAME_MAGIC,
    FRAME_OVERHEAD,
    FRAME_VERSION,
    FrameReader,
    FrameWriter,
    Packer,
    Unpacker,
    decode_frame,
    encode_frame,
    read_stream_frame,
)
from repro.io.pages import (
    DedupStats,
    PageStreamDecoder,
    PageStreamEncoder,
    decode_entry_records,
    encode_entry_records,
)

__all__ = [
    "FRAME_MAGIC",
    "FRAME_VERSION",
    "FRAME_OVERHEAD",
    "END_FRAME",
    "encode_frame",
    "decode_frame",
    "read_stream_frame",
    "FrameWriter",
    "FrameReader",
    "Packer",
    "Unpacker",
    "DedupStats",
    "PageStreamEncoder",
    "PageStreamDecoder",
    "encode_entry_records",
    "decode_entry_records",
]
