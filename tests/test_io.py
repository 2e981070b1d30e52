"""Tests for the repro.io streaming frame layer and page codecs."""

import pytest

from repro.core import wire
from repro.core.pram import PRAMFilesystem
from repro.errors import StateFormatError
from repro.guest.image import GuestImage
from repro.hw.memory import PAGE_4K, PhysicalMemory
from repro.io import (
    END_FRAME,
    FRAME_OVERHEAD,
    FrameReader,
    FrameWriter,
    Packer,
    PageStreamDecoder,
    PageStreamEncoder,
    Unpacker,
    decode_entry_records,
    decode_frame,
    encode_entry_records,
    encode_frame,
)

MIB = 1024 * 1024


def finished_stream(payloads=((1, b"hello"), (2, b"\x00" * 32))):
    writer = FrameWriter()
    for frame_type, payload in payloads:
        writer.frame(frame_type, payload)
    return writer.finish()


def read_all(data):
    reader = FrameReader(data)
    frames = list(reader.frames())
    reader.expect_end()
    return frames


class TestFrameCodec:
    def test_single_frame_roundtrip(self):
        encoded = encode_frame(7, b"payload")
        frame_type, payload, consumed = decode_frame(encoded)
        assert (frame_type, payload) == (7, b"payload")
        assert consumed == len(encoded) == FRAME_OVERHEAD + len(b"payload")

    def test_decode_at_offset(self):
        prefix = encode_frame(1, b"a")
        encoded = prefix + encode_frame(2, b"bb")
        frame_type, payload, _ = decode_frame(encoded, offset=len(prefix))
        assert (frame_type, payload) == (2, b"bb")

    def test_empty_payload_roundtrip(self):
        frame_type, payload, _ = decode_frame(encode_frame(3, b""))
        assert (frame_type, payload) == (3, b"")

    def test_type_out_of_range_rejected(self):
        with pytest.raises(StateFormatError):
            encode_frame(256, b"")
        with pytest.raises(StateFormatError):
            encode_frame(-1, b"")

    def test_end_frame_with_payload_rejected(self):
        with pytest.raises(StateFormatError):
            encode_frame(END_FRAME, b"x")


class TestFrameCorruption:
    def test_bit_flip_any_byte_fails_loudly(self):
        # The acceptance bar: no single-byte corruption anywhere in the
        # stream — magic, version, type, length, payload or CRC — may
        # decode silently.
        stream = finished_stream()
        for position in range(len(stream)):
            corrupted = bytearray(stream)
            corrupted[position] ^= 0xFF
            with pytest.raises(StateFormatError):
                read_all(bytes(corrupted))

    def test_single_bit_flip_fails_loudly(self):
        stream = finished_stream()
        for position in range(len(stream)):
            corrupted = bytearray(stream)
            corrupted[position] ^= 0x01
            with pytest.raises(StateFormatError):
                read_all(bytes(corrupted))

    def test_truncation_at_every_offset_fails_loudly(self):
        stream = finished_stream()
        for cut in range(len(stream)):
            with pytest.raises(StateFormatError):
                read_all(stream[:cut])

    def test_trailing_garbage_rejected(self):
        stream = finished_stream()
        reader = FrameReader(stream + b"tail")
        list(reader.frames())
        with pytest.raises(StateFormatError, match="trailing"):
            reader.expect_end()


class TestFrameWriterReader:
    def test_multi_frame_roundtrip(self):
        payloads = ((1, b"a"), (9, b"bc"), (255, b""))
        assert read_all(finished_stream(payloads)) == list(payloads)

    def test_writer_rejects_end_type(self):
        with pytest.raises(StateFormatError):
            FrameWriter().frame(END_FRAME, b"")

    def test_writer_rejects_append_after_finish(self):
        writer = FrameWriter()
        writer.finish()
        with pytest.raises(StateFormatError):
            writer.frame(1, b"late")
        with pytest.raises(StateFormatError):
            writer.finish()

    def test_writer_accounting(self):
        writer = FrameWriter()
        size = writer.frame(1, b"abc")
        assert size == FRAME_OVERHEAD + 3
        assert writer.frames_written == 1
        assert writer.bytes_written == size
        assert len(writer.finish()) == size + FRAME_OVERHEAD

    def test_reader_rejects_read_past_end(self):
        reader = FrameReader(finished_stream(()))
        assert reader.read() is None
        with pytest.raises(StateFormatError, match="past END"):
            reader.read()

    def test_expect_end_requires_end_frame(self):
        reader = FrameReader(finished_stream())
        reader.read()
        with pytest.raises(StateFormatError, match="not terminated"):
            reader.expect_end()


class TestPackerUnpacker:
    def test_running_length_matches_bytes(self):
        packer = Packer()
        assert len(packer) == 0
        packer.u8(1).u16(2).u32(3).u64(4).i64(-5).raw(b"xyz")
        packer.u64_seq([7, 8])
        assert len(packer) == len(packer.bytes())

    def test_u64_seq_corrupt_count_rejected_before_materializing(self):
        # A flipped count must not drive a multi-GB allocation: the
        # validation happens against the remaining buffer first.
        blob = Packer().u32(0xFFFFFFFF).u64(1).bytes()
        with pytest.raises(StateFormatError, match="truncated"):
            Unpacker(blob).u64_seq()

    def test_u64_seq_roundtrip(self):
        blob = Packer().u64_seq([1, 2, 3]).bytes()
        assert Unpacker(blob).u64_seq() == (1, 2, 3)


class TestPageStream:
    def test_batch_roundtrip(self):
        records = [(0, 11), (1, 22), (5, 33)]
        encoded = PageStreamEncoder().encode_batch(records)
        assert PageStreamDecoder().decode_batch(encoded) == records

    def test_cross_batch_dedup(self):
        # The digest table is stream-scoped: content sent in batch 1 is a
        # 4-byte back-reference in batch 2, and the decoder resolves it.
        encoder = PageStreamEncoder()
        decoder = PageStreamDecoder()
        first = encoder.encode_batch([(0, 111), (1, 222)])
        second = encoder.encode_batch([(2, 222), (3, 111)])
        assert len(second) < len(first)
        assert decoder.decode_batch(first) == [(0, 111), (1, 222)]
        assert decoder.decode_batch(second) == [(2, 222), (3, 111)]
        assert encoder.stats.dedup_hits == 2
        assert encoder.stats.unique_digests == 2

    def test_rle_coalesces_contiguous_gfns(self):
        contiguous = PageStreamEncoder().encode_batch(
            [(gfn, 1000 + gfn) for gfn in range(64)])
        scattered = PageStreamEncoder().encode_batch(
            [(gfn * 2, 1000 + gfn) for gfn in range(64)])
        assert len(contiguous) < len(scattered)

    def test_undefined_ref_rejected(self):
        encoder = PageStreamEncoder()
        encoder.encode_batch([(0, 111)])
        referencing = encoder.encode_batch([(1, 111)])
        # A fresh decoder never saw the literal the ref points at.
        with pytest.raises(StateFormatError, match="undefined digest"):
            PageStreamDecoder().decode_batch(referencing)

    def test_run_coverage_mismatch_rejected(self):
        blob = (Packer().u32(3).u32(1).u64(0).u32(2)
                .u8(0).u64(1).u8(0).u64(2).bytes())
        with pytest.raises(StateFormatError, match="runs cover"):
            PageStreamDecoder().decode_batch(blob)

    def test_unknown_tag_rejected(self):
        blob = Packer().u32(1).u32(1).u64(0).u32(1).u8(7).bytes()
        with pytest.raises(StateFormatError, match="unknown page record"):
            PageStreamDecoder().decode_batch(blob)


class TestEntryRecords:
    def test_contiguous_entries_coalesce_to_runs(self):
        records = [(gfn, gfn + 100, 9) for gfn in range(256)]
        encoded = encode_entry_records(records)
        assert len(encoded) < 8 * len(records)
        assert decode_entry_records(encoded) == records

    def test_scattered_entries_stay_raw(self):
        records = [(gfn * 3, gfn * 7 + 1, 0) for gfn in range(16)]
        encoded = encode_entry_records(records)
        assert len(encoded) == 1 + 4 + 8 * len(records)
        assert decode_entry_records(encoded) == records

    def test_empty_roundtrip(self):
        assert decode_entry_records(encode_entry_records([])) == []

    def test_unknown_mode_rejected(self):
        with pytest.raises(StateFormatError, match="unknown entry-record"):
            decode_entry_records(b"\x07")

    def test_raw_corrupt_count_rejected(self):
        blob = Packer().u8(0).u32(0xFFFFFF).u64(0).bytes()
        with pytest.raises(StateFormatError, match="truncated"):
            decode_entry_records(blob)


class TestCrossPathDedup:
    def test_wire_and_pram_stats_match(self):
        # The acceptance bar for unification: the MigrationTP wire and the
        # PRAM contents encoding push the same guest image through the
        # same page codec, so their dedup statistics are identical —
        # batch for batch, byte for byte.
        memory = PhysicalMemory(16 * MIB)
        image = GuestImage(memory, 2 * MIB, page_size=PAGE_4K)  # 512 pages
        for gfn in range(512):
            image.write_page(gfn, (gfn % 16) * 2 + 1)  # duplicate-heavy

        records = [(gfn, image.read_page(gfn))
                   for gfn, _ in sorted(image.mappings())]
        stream = wire.MigrationStream()
        stream.send(wire.PageBatch(pages=tuple(records)))
        wire_stats = stream.page_stats

        fs = PRAMFilesystem(memory)
        fs.add_vm_file("vm0", image.mappings(), page_size=PAGE_4K)
        fs.encode(include_contents=True)
        pram_stats = fs.last_encode_stats

        assert wire_stats.dedup_hits > 0
        assert wire_stats.as_dict() == pram_stats.as_dict()


class TestFrameErrorDiagnostics:
    """Truncation and CRC errors must carry the byte offset and the
    frame's type tag, so a fault in a long multi-frame stream pinpoints
    the broken frame instead of just failing."""

    def test_crc_error_reports_offset_and_type(self):
        first = encode_frame(1, b"hello")
        second = bytearray(encode_frame(7, b"world"))
        second[-1] ^= 0xFF  # corrupt the second frame's CRC trailer
        stream = first + bytes(second) + encode_frame(END_FRAME, b"")
        with pytest.raises(StateFormatError) as excinfo:
            read_all(stream)
        message = str(excinfo.value)
        assert f"byte offset {len(first)}" in message
        assert "(type 7)" in message
        assert "CRC mismatch" in message

    def test_truncated_body_reports_offset_and_type(self):
        first = encode_frame(1, b"hello")
        second = encode_frame(9, b"payload-that-gets-cut")
        stream = first + second[:-6]
        with pytest.raises(StateFormatError) as excinfo:
            decode_frame(stream, len(first))
        message = str(excinfo.value)
        assert f"byte offset {len(first)}" in message
        assert "(type 9)" in message
        assert "truncated" in message

    def test_truncated_header_reports_offset(self):
        first = encode_frame(3, b"abc")
        with pytest.raises(StateFormatError) as excinfo:
            decode_frame(first + b"\x01\x02", len(first))
        assert f"byte offset {len(first)}" in str(excinfo.value)

    def test_bad_magic_reports_offset(self):
        first = encode_frame(3, b"abc")
        junk = b"\xde\xad\xbe\xef" + b"\x00" * 8
        with pytest.raises(StateFormatError) as excinfo:
            decode_frame(first + junk, len(first))
        message = str(excinfo.value)
        assert "magic" in message
        assert f"byte offset {len(first)}" in message
