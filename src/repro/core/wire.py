"""MigrationTP wire protocol.

The byte format that travels between the source and destination proxies
during a (heterogeneous) live migration: a negotiation header, one message
per pre-copy round carrying page batches, the UISR document for the VM_i
State, and a completion handshake with an end-to-end digest.

Every message rides a ``repro.io`` frame (magic, version, type tag,
length, CRC32 trailer), and PAGES payloads go through the shared
:mod:`repro.io.pages` batch encoder: consecutive GFNs run-length
coalesce, and a page whose content digest already crossed this stream is
sent as a back-reference, not a second copy.  Guest page *contents* are
represented by their digests (as everywhere in the simulation); the
protocol itself is byte-exact, so malformed or reordered streams fail
loudly, and the destination reconstructs the guest image purely from
what arrived on the wire — the digest check at the end is a real
end-to-end property, not bookkeeping.
"""

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import MigrationError, StateFormatError
from repro.io.frames import (
    END_FRAME,
    Packer,
    Unpacker,
    decode_frame,
    encode_frame,
)
from repro.io.pages import DedupStats, PageStreamDecoder, PageStreamEncoder

WIRE_VERSION = 1


class MessageType(enum.Enum):
    HELLO = 1
    ROUND = 2
    PAGES = 3
    UISR = 4
    DONE = 5


@dataclass(frozen=True)
class Hello:
    """Stream negotiation: who is sending what to whom."""

    vm_name: str
    source_hypervisor: str
    target_hypervisor: str
    vcpus: int
    memory_bytes: int
    page_size: int


@dataclass(frozen=True)
class RoundHeader:
    """Start of one pre-copy round (round 0 = stop-and-copy)."""

    index: int
    page_count: int


@dataclass(frozen=True)
class PageBatch:
    """A batch of (gfn, digest) page records within the current round."""

    pages: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class UISRPayload:
    """The encoded UISR document for the VM_i State."""

    blob: bytes


@dataclass(frozen=True)
class Done:
    """End of stream: the source's final whole-image digest."""

    final_digest: int


Message = object  # union of the dataclasses above

MAX_BATCH_PAGES = 1024


class WireEncoder:
    """Stateful message encoder for one stream direction.

    Holds the stream-scoped page digest table, so identical-content
    pages dedup across batches and across pre-copy rounds.
    """

    def __init__(self):
        self._pages = PageStreamEncoder()

    @property
    def page_stats(self) -> DedupStats:
        return self._pages.stats

    def encode(self, message: Message) -> bytes:
        """Serialize one protocol message to its wire frame."""
        packer = Packer()
        if isinstance(message, Hello):
            name = message.vm_name.encode()
            packer.u32(WIRE_VERSION)
            packer.u16(len(name)).raw(name)
            src = message.source_hypervisor.encode()
            dst = message.target_hypervisor.encode()
            packer.u8(len(src)).raw(src)
            packer.u8(len(dst)).raw(dst)
            packer.u32(message.vcpus)
            packer.u64(message.memory_bytes)
            packer.u32(message.page_size)
            return self._frame(MessageType.HELLO, packer.bytes())
        if isinstance(message, RoundHeader):
            packer.u32(message.index).u64(message.page_count)
            return self._frame(MessageType.ROUND, packer.bytes())
        if isinstance(message, PageBatch):
            if len(message.pages) > MAX_BATCH_PAGES:
                raise MigrationError(
                    f"page batch too large: {len(message.pages)}"
                )
            return self._frame(MessageType.PAGES,
                               self._pages.encode_batch(message.pages))
        if isinstance(message, UISRPayload):
            packer.u32(len(message.blob)).raw(message.blob)
            return self._frame(MessageType.UISR, packer.bytes())
        if isinstance(message, Done):
            packer.u64(message.final_digest)
            return self._frame(MessageType.DONE, packer.bytes())
        raise MigrationError(f"unknown wire message {type(message).__name__}")

    def _frame(self, msg_type: MessageType, payload: bytes) -> bytes:
        return encode_frame(msg_type.value, payload)


class WireDecoder:
    """Stateful message decoder mirroring :class:`WireEncoder`."""

    def __init__(self):
        self._pages = PageStreamDecoder()

    def decode(self, data: bytes, offset: int = 0) -> Tuple[Message, int]:
        """Parse one frame at ``offset``; returns (message, consumed)."""
        frame_type, payload, consumed = decode_frame(data, offset)
        if frame_type == END_FRAME:
            raise StateFormatError(
                "unexpected END frame on the migration wire"
            )
        try:
            msg_type = MessageType(frame_type)
        except ValueError as exc:
            raise StateFormatError(
                f"unknown wire message type: {exc}"
            ) from exc

        if msg_type is MessageType.PAGES:
            pages = self._pages.decode_batch(payload)
            if len(pages) > MAX_BATCH_PAGES:
                raise StateFormatError(
                    f"page batch too large: {len(pages)}"
                )
            return PageBatch(pages=tuple(pages)), consumed

        body = Unpacker(payload)
        if msg_type is MessageType.HELLO:
            version = body.u32()
            if version != WIRE_VERSION:
                raise StateFormatError(f"unsupported wire version {version}")
            vm_name = body.raw(body.u16()).decode()
            src = body.raw(body.u8()).decode()
            dst = body.raw(body.u8()).decode()
            message = Hello(
                vm_name=vm_name, source_hypervisor=src,
                target_hypervisor=dst, vcpus=body.u32(),
                memory_bytes=body.u64(), page_size=body.u32(),
            )
        elif msg_type is MessageType.ROUND:
            message = RoundHeader(index=body.u32(), page_count=body.u64())
        elif msg_type is MessageType.UISR:
            message = UISRPayload(blob=body.raw(body.u32()))
        else:
            message = Done(final_digest=body.u64())
        body.expect_end()
        return message, consumed


def encode_message(message: Message) -> bytes:
    """Serialize one message with a fresh (stream-less) encoder."""
    return WireEncoder().encode(message)


def decode_message(frame: bytes) -> Tuple[Message, int]:
    """Parse one frame with a fresh (stream-less) decoder."""
    return WireDecoder().decode(frame)


class MigrationStream:
    """An in-order, in-memory message channel between the two proxies.

    The encoder/decoder pair is stream-scoped, so the page digest table
    (and with it the dedup savings) spans every batch the stream carries.
    """

    def __init__(self):
        self._buffer = bytearray()
        self.bytes_sent = 0
        self.messages_sent = 0
        self._encoder = WireEncoder()
        self._decoder = WireDecoder()

    @property
    def page_stats(self) -> DedupStats:
        """Dedup statistics for every page batch sent on this stream."""
        return self._encoder.page_stats

    def send(self, message: Message) -> int:
        frame = self._encoder.encode(message)
        self._buffer.extend(frame)
        self.bytes_sent += len(frame)
        self.messages_sent += 1
        return len(frame)

    def receive_all(self) -> Iterator[Message]:
        """Drain and decode every buffered message, in order."""
        view = bytes(self._buffer)
        self._buffer.clear()
        offset = 0
        while offset < len(view):
            message, consumed = self._decoder.decode(view, offset)
            offset += consumed
            yield message


def send_pages(stream: MigrationStream, round_index: int,
               pages: List[Tuple[int, int]]) -> None:
    """Send one round: header followed by bounded batches."""
    stream.send(RoundHeader(index=round_index, page_count=len(pages)))
    for start in range(0, len(pages), MAX_BATCH_PAGES):
        stream.send(PageBatch(pages=tuple(pages[start:start + MAX_BATCH_PAGES])))


class StreamReceiver:
    """Destination-side protocol state machine.

    Applies messages in order and accumulates the reconstructed guest image
    as a GFN -> digest map; ``finish`` verifies the end-to-end digest.
    """

    def __init__(self):
        self.hello: Optional[Hello] = None
        self.page_digests: Dict[int, int] = {}
        self.uisr_blob: Optional[bytes] = None
        self.rounds_seen: List[int] = []
        self._expected_in_round = 0
        self._received_in_round = 0
        self.done: Optional[Done] = None

    def feed(self, message: Message) -> None:
        if isinstance(message, Hello):
            if self.hello is not None:
                raise MigrationError("duplicate HELLO on migration stream")
            self.hello = message
            return
        if self.hello is None:
            raise MigrationError("migration stream did not start with HELLO")
        if self.done is not None:
            raise MigrationError("message after DONE on migration stream")
        if isinstance(message, RoundHeader):
            if self._received_in_round != self._expected_in_round:
                raise MigrationError(
                    f"round {self.rounds_seen[-1]} truncated: "
                    f"{self._received_in_round}/{self._expected_in_round} pages"
                )
            self.rounds_seen.append(message.index)
            self._expected_in_round = message.page_count
            self._received_in_round = 0
            return
        if isinstance(message, PageBatch):
            if not self.rounds_seen:
                raise MigrationError("PAGES before any ROUND header")
            for gfn, digest in message.pages:
                self.page_digests[gfn] = digest
            self._received_in_round += len(message.pages)
            if self._received_in_round > self._expected_in_round:
                raise MigrationError("round overflow: too many pages")
            return
        if isinstance(message, UISRPayload):
            self.uisr_blob = message.blob
            return
        if isinstance(message, Done):
            if self._received_in_round != self._expected_in_round:
                raise MigrationError("DONE while a round is incomplete")
            self.done = message
            return
        raise MigrationError(f"unexpected message {type(message).__name__}")

    def finish(self, computed_digest: int) -> None:
        """Verify completeness and the end-to-end image digest."""
        if self.hello is None or self.done is None:
            raise MigrationError("migration stream incomplete")
        if self.uisr_blob is None:
            raise MigrationError("migration stream carried no UISR payload")
        expected_pages = self.hello.memory_bytes // self.hello.page_size
        if len(self.page_digests) != expected_pages:
            raise MigrationError(
                f"stream delivered {len(self.page_digests)} distinct pages, "
                f"guest has {expected_pages}"
            )
        if computed_digest != self.done.final_digest:
            raise MigrationError(
                "end-to-end digest mismatch after migration"
            )
