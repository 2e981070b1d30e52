"""Shared page-record batch encoding with RLE and cross-batch dedup.

Both state-movement paths that carry guest pages — MigrationTP ``PAGES``
wire messages and the PRAM node-page encoding — funnel through this
module, so Fig. 8/9's transferred-bytes and Fig. 14's structure sizes
come from one measured implementation.

Two codecs live here:

* :class:`PageStreamEncoder`/:class:`PageStreamDecoder` — batches of
  ``(gfn, digest)`` records.  Consecutive GFNs are run-length coalesced,
  and the digest table is *stream*-scoped: a page whose content digest
  was already sent in any earlier batch of the same stream is encoded as
  a 4-byte back-reference instead of an 8-byte literal (identical-content
  pages cross the wire once).  :class:`DedupStats` reports the ratio.
* :func:`encode_entry_records`/:func:`decode_entry_records` — PRAM page
  entries ``(gfn, mfn, order)``.  Contiguous entries (gfn+1, mfn+1, same
  order — what huge-page expansion produces) coalesce into runs; the
  encoding is self-describing and deterministically picks raw 8-byte
  packed entries whenever runs would be larger.
"""

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.errors import StateFormatError
from repro.io.frames import Packer, Unpacker

#: bytes one (gfn, digest) record costs un-encoded (two u64s) — the
#: baseline :attr:`DedupStats.ratio` measures against.
LOGICAL_RECORD_BYTES = 16

_LITERAL = 0
_REF = 1

# 64-bit packed page-entry layout (gfn:28, mfn:30, order:6) — covers
# 1 TiB hosts with 2 MB chunks.  Single source of truth; core.pram
# re-exports the pack/unpack pair.
ENTRY_GFN_BITS = 28
ENTRY_MFN_BITS = 30
ENTRY_ORDER_BITS = 6

_ENTRY_RAW = 0
_ENTRY_RUNS = 1


def pack_entry_record(gfn: int, mfn: int, order: int) -> int:
    if (gfn >= (1 << ENTRY_GFN_BITS) or mfn >= (1 << ENTRY_MFN_BITS)
            or order >= (1 << ENTRY_ORDER_BITS)):
        raise StateFormatError(
            f"page entry out of range: gfn={gfn} mfn={mfn} order={order}"
        )
    return ((gfn << (ENTRY_MFN_BITS + ENTRY_ORDER_BITS))
            | (mfn << ENTRY_ORDER_BITS) | order)


def unpack_entry_record(packed: int) -> Tuple[int, int, int]:
    order = packed & ((1 << ENTRY_ORDER_BITS) - 1)
    mfn = (packed >> ENTRY_ORDER_BITS) & ((1 << ENTRY_MFN_BITS) - 1)
    gfn = packed >> (ENTRY_MFN_BITS + ENTRY_ORDER_BITS)
    return gfn, mfn, order


@dataclass
class DedupStats:
    """What one page stream cost, and what dedup saved."""

    pages: int = 0
    batches: int = 0
    unique_digests: int = 0
    dedup_hits: int = 0
    logical_bytes: int = 0
    encoded_bytes: int = 0

    @property
    def ratio(self) -> float:
        """Logical-to-encoded size ratio (> 1.0 means dedup/RLE won)."""
        if not self.encoded_bytes:
            return 1.0
        return self.logical_bytes / self.encoded_bytes

    def as_dict(self) -> Dict[str, object]:
        return {
            "pages": self.pages,
            "batches": self.batches,
            "unique_digests": self.unique_digests,
            "dedup_hits": self.dedup_hits,
            "logical_bytes": self.logical_bytes,
            "encoded_bytes": self.encoded_bytes,
            "ratio": round(self.ratio, 6),
        }


def _gfn_runs(gfns: List[int]) -> List[Tuple[int, int]]:
    """Coalesce an ordered GFN list into (start, length) runs."""
    runs: List[Tuple[int, int]] = []
    for gfn in gfns:
        if runs and runs[-1][0] + runs[-1][1] == gfn:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((gfn, 1))
    return runs


class PageStreamEncoder:
    """Encodes (gfn, digest) batches with a stream-scoped digest table."""

    def __init__(self):
        self._digest_refs: Dict[int, int] = {}
        self.stats = DedupStats()

    def encode_batch(self, pages: Iterable[Tuple[int, int]]) -> bytes:
        pages = list(pages)
        runs = _gfn_runs([gfn for gfn, _ in pages])
        packer = Packer()
        packer.u32(len(pages))
        packer.u32(len(runs))
        for start, length in runs:
            packer.u64(start).u32(length)
        for _, digest in pages:
            ref = self._digest_refs.get(digest)
            if ref is None:
                self._digest_refs[digest] = len(self._digest_refs)
                packer.u8(_LITERAL).u64(digest)
            else:
                packer.u8(_REF).u32(ref)
                self.stats.dedup_hits += 1
        encoded = packer.bytes()
        self.stats.pages += len(pages)
        self.stats.batches += 1
        self.stats.unique_digests = len(self._digest_refs)
        self.stats.logical_bytes += len(pages) * LOGICAL_RECORD_BYTES
        self.stats.encoded_bytes += len(encoded)
        return encoded


class PageStreamDecoder:
    """Decodes batches produced by one :class:`PageStreamEncoder`.

    The digest table accumulates across batches exactly as the encoder's
    did, so back-references resolve; a reference into an index the stream
    never defined fails loudly.
    """

    def __init__(self):
        self._digests: List[int] = []

    def decode_batch(self, payload: bytes) -> List[Tuple[int, int]]:
        unpacker = Unpacker(payload)
        count = unpacker.u32()
        run_count = unpacker.u32()
        gfns: List[int] = []
        for _ in range(run_count):
            start = unpacker.u64()
            length = unpacker.u32()
            gfns.extend(range(start, start + length))
        if len(gfns) != count:
            raise StateFormatError(
                f"page batch runs cover {len(gfns)} pages, header says {count}"
            )
        pages: List[Tuple[int, int]] = []
        for gfn in gfns:
            tag = unpacker.u8()
            if tag == _LITERAL:
                digest = unpacker.u64()
                self._digests.append(digest)
            elif tag == _REF:
                ref = unpacker.u32()
                if ref >= len(self._digests):
                    raise StateFormatError(
                        f"page batch references undefined digest #{ref} "
                        f"(stream has {len(self._digests)})"
                    )
                digest = self._digests[ref]
            else:
                raise StateFormatError(f"unknown page record tag {tag}")
            pages.append((gfn, digest))
        unpacker.expect_end()
        return pages


def _entry_runs(
    records: List[Tuple[int, int, int]]
) -> List[Tuple[int, int, int, int]]:
    """Coalesce contiguous entries into (gfn, mfn, order, count) runs."""
    runs: List[Tuple[int, int, int, int]] = []
    for gfn, mfn, order in records:
        if runs:
            rg, rm, ro, rc = runs[-1]
            if ro == order and rg + rc == gfn and rm + rc == mfn:
                runs[-1] = (rg, rm, ro, rc + 1)
                continue
        runs.append((gfn, mfn, order, 1))
    return runs


def encode_entry_records(records: Iterable[Tuple[int, int, int]]) -> bytes:
    """Encode PRAM page entries, run-coalesced when that is smaller."""
    records = list(records)
    runs = _entry_runs(records)
    raw_size = 1 + 4 + 8 * len(records)
    runs_size = 1 + 4 + 21 * len(runs)
    packer = Packer()
    if runs_size < raw_size:
        packer.u8(_ENTRY_RUNS).u32(len(runs))
        for gfn, mfn, order, count in runs:
            packer.u64(gfn).u64(mfn).u8(order).u32(count)
    else:
        packer.u8(_ENTRY_RAW).u32(len(records))
        for gfn, mfn, order in records:
            packer.u64(pack_entry_record(gfn, mfn, order))
    return packer.bytes()


def decode_entry_records(blob: bytes) -> List[Tuple[int, int, int]]:
    """Decode PRAM page entries back to (gfn, mfn, order) tuples."""
    unpacker = Unpacker(blob)
    mode = unpacker.u8()
    records: List[Tuple[int, int, int]] = []
    if mode == _ENTRY_RUNS:
        for _ in range(unpacker.u32()):
            gfn = unpacker.u64()
            mfn = unpacker.u64()
            order = unpacker.u8()
            count = unpacker.u32()
            records.extend((gfn + i, mfn + i, order) for i in range(count))
    elif mode == _ENTRY_RAW:
        count = unpacker.u32()
        if count * 8 > unpacker.remaining:
            raise StateFormatError(
                f"truncated entry records: {count} entries need "
                f"{count * 8} bytes, have {unpacker.remaining}"
            )
        records.extend(
            unpack_entry_record(unpacker.u64()) for _ in range(count)
        )
    else:
        raise StateFormatError(f"unknown entry-record encoding {mode}")
    unpacker.expect_end()
    return records
