"""PRAM — the persistent-over-kexec memory file system (Fig. 4).

PRAM records each VM's memory as a *file*: a named sequence of page entries,
each entry being an 8-byte record holding the guest frame number, the
machine frame number and the chunk size as a power-of-two page count (so
2 MB host large pages cost one entry, not 512).

Structure (all metadata is page-aligned, as in the paper):

* the **PRAM pointer** — a single machine address passed to the target
  kernel on its boot command line;
* **root directory pages** (a linked list), each referring to file-info
  pages;
* **file-info pages**, one per VM file, heading a chain of **node pages**
  filled with page entries.

The implementation keeps the structure in real metadata pages allocated
from host RAM (so Fig. 14's "PRAM structures" series is *measured*), with a
byte-exact encoding of every page.
"""

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import PRAMError, StateFormatError
from repro.hw.memory import PAGE_4K, PhysicalMemory
from repro.io.frames import FrameReader, FrameWriter, Packer, Unpacker
from repro.io.pages import (
    DedupStats,
    PageStreamDecoder,
    PageStreamEncoder,
    decode_entry_records,
    encode_entry_records,
    pack_entry_record,
    unpack_entry_record,
)

# Byte budget per metadata page and record sizes.
_PAGE_BYTES = PAGE_4K
_PAGE_ENTRY_BYTES = 8
_NODE_HEADER_BYTES = 16  # next-node pointer + entry count
_ENTRIES_PER_NODE = (_PAGE_BYTES - _NODE_HEADER_BYTES) // _PAGE_ENTRY_BYTES
_FILEINFO_HEADER_BYTES = 64  # name, size, mode, first-node pointer
_FILES_PER_ROOT_PAGE = (_PAGE_BYTES - 16) // 8

# The 8-byte (gfn:28, mfn:30, order:6) page-entry bit layout lives in
# repro.io.pages — the shared codec layer — and is wrapped here so range
# violations surface as PRAMError.
def _pack_entry(gfn: int, mfn: int, order: int) -> int:
    try:
        return pack_entry_record(gfn, mfn, order)
    except StateFormatError as exc:
        raise PRAMError(str(exc)) from exc


def _unpack_entry(packed: int) -> Tuple[int, int, int]:
    return unpack_entry_record(packed)


# Frame type tags of the PRAM stream (see docs/state-io.md).
_FRAME_HEADER = 1
_FRAME_FILE = 2
_FRAME_CONTENTS = 3


@dataclass(frozen=True)
class PageEntry:
    """One chunk of guest memory: GFN, MFN, 2**order base (4K) pages."""

    gfn: int
    mfn: int
    order: int

    @property
    def byte_size(self) -> int:
        return PAGE_4K << self.order

    def packed(self) -> int:
        return _pack_entry(self.gfn, self.mfn, self.order)

    @staticmethod
    def unpacked(value: int) -> "PageEntry":
        gfn, mfn, order = _unpack_entry(value)
        return PageEntry(gfn=gfn, mfn=mfn, order=order)


@dataclass
class PRAMFile:
    """One VM's memory described as a PRAM file.

    ``entries`` are the on-disk-format records at *entry* granularity (4 KB
    without the huge-page optimisation, 2 MB with it); ``guest_layout`` is
    the GFN -> MFN map at the guest's own page granularity, which is what
    restoration consumes.
    """

    name: str
    page_size: int  # guest page size
    entries: List[PageEntry] = field(default_factory=list)
    guest_layout: Dict[int, int] = field(default_factory=dict)
    mode: int = 0o600

    @property
    def total_bytes(self) -> int:
        return sum(entry.byte_size for entry in self.entries)

    def layout(self) -> Dict[int, int]:
        """GFN -> MFN map (in guest page_size units)."""
        return dict(self.guest_layout)

    @property
    def node_page_count(self) -> int:
        if not self.entries:
            return 1
        return -(-len(self.entries) // _ENTRIES_PER_NODE)

    def metadata_bytes(self) -> int:
        """Bytes of node pages + file-info header this file consumes."""
        return self.node_page_count * _PAGE_BYTES


class PRAMFilesystem:
    """The whole PRAM structure for one machine.

    Building the structure allocates real metadata pages from host RAM and
    pins them (plus every described guest frame) so the micro-reboot cannot
    recycle them.  ``teardown`` releases the metadata after restoration —
    the "extra memory is given back" note of §5.5.
    """

    def __init__(self, memory: PhysicalMemory):
        self.memory = memory
        self.files: Dict[str, PRAMFile] = {}
        self._metadata_mfns: List[int] = []
        self.pram_pointer: Optional[int] = None
        self._sealed = False
        #: dedup statistics of the last ``encode(include_contents=True)``.
        self.last_encode_stats: Optional[DedupStats] = None

    # -- construction -------------------------------------------------------

    def add_vm_file(self, name: str, mappings: Iterable[Tuple[int, int]],
                    page_size: int,
                    entry_page_size: Optional[int] = None) -> PRAMFile:
        """Describe one VM's memory as a file of page entries.

        ``mappings`` yields (gfn, mfn) in *guest page* units.  With the
        huge-page optimisation (the default), each guest page costs a single
        8-byte record; passing ``entry_page_size=PAGE_4K`` for a huge-paged
        guest models the unoptimised patchset, where every 4 KB base page
        gets its own record (512x the metadata, §4.2.5).
        """
        if self._sealed:
            raise PRAMError("PRAM structure already sealed")
        if name in self.files:
            raise PRAMError(f"duplicate PRAM file {name!r}")
        entry_page_size = entry_page_size or page_size
        if entry_page_size > page_size or page_size % entry_page_size:
            raise PRAMError(
                f"entry page size {entry_page_size} does not divide guest "
                f"page size {page_size}"
            )
        order = (entry_page_size // PAGE_4K).bit_length() - 1
        if PAGE_4K << order != entry_page_size:
            raise PRAMError(
                f"page size {entry_page_size} is not a power-of-two multiple "
                f"of 4K"
            )
        guest_layout = dict(mappings)
        expansion = page_size // entry_page_size
        entries = []
        for gfn, mfn in guest_layout.items():
            for sub in range(expansion):
                entries.append(PageEntry(gfn=gfn * expansion + sub,
                                         mfn=mfn + sub, order=order))
        pram_file = PRAMFile(name=name, page_size=page_size, entries=entries,
                             guest_layout=guest_layout)
        self.files[name] = pram_file
        return pram_file

    def seal(self) -> int:
        """Finalize: allocate+pin metadata pages, pin guest frames.

        Returns the PRAM pointer (the MFN of the first root directory page)
        that will be passed on the target kernel's command line.
        """
        if self._sealed:
            raise PRAMError("PRAM structure already sealed")
        root_pages = max(1, -(-len(self.files) // _FILES_PER_ROOT_PAGE))
        node_pages = sum(f.node_page_count for f in self.files.values())
        fileinfo_pages = len(self.files)
        metadata_frames = self.memory.allocate_many(
            root_pages + fileinfo_pages + node_pages, size=PAGE_4K
        )
        self._metadata_mfns = [frame.mfn for frame in metadata_frames]
        for mfn in self._metadata_mfns:
            self.memory.pin(mfn)
        # Pinning happens at the allocator's granularity: the guest layout
        # names base frames, which cover any finer-grained entry records.
        for pram_file in self.files.values():
            for mfn in pram_file.guest_layout.values():
                self.memory.pin(mfn)
        self.pram_pointer = self._metadata_mfns[0] if self._metadata_mfns else None
        self._sealed = True
        return self.pram_pointer

    # -- queries ---------------------------------------------------------------

    @property
    def sealed(self) -> bool:
        return self._sealed

    def layout_of(self, name: str) -> Dict[int, int]:
        try:
            return self.files[name].layout()
        except KeyError:
            raise PRAMError(f"no PRAM file named {name!r}") from None

    def total_entries(self) -> int:
        return sum(len(f.entries) for f in self.files.values())

    def metadata_bytes(self) -> int:
        """Measured metadata footprint (the Fig. 14 'PRAM structures' series)."""
        if self._sealed:
            return len(self._metadata_mfns) * _PAGE_BYTES
        root_pages = max(1, -(-len(self.files) // _FILES_PER_ROOT_PAGE))
        node_pages = sum(f.node_page_count for f in self.files.values())
        return (root_pages + len(self.files) + node_pages) * _PAGE_BYTES

    def described_bytes(self) -> int:
        return sum(f.total_bytes for f in self.files.values())

    # -- serialization (what early boot parses) ----------------------------------

    def encode(self, include_contents: bool = False) -> bytes:
        """Byte-exact encoding of the metadata pages (what early boot parses).

        One ``repro.io`` framed stream: a header frame, one FILE frame per
        VM (entries run-coalesced when smaller), and — with
        ``include_contents=True`` — one CONTENTS frame per file carrying
        the described frames' ``(gfn, digest)`` records through the shared
        page-batch encoder, so the restored guest can be verified against
        what was sealed (stats land in :attr:`last_encode_stats`).
        """
        writer = FrameWriter()
        header = Packer().u32(len(self.files)).u8(
            1 if include_contents else 0)
        writer.frame(_FRAME_HEADER, header.bytes())
        pages_encoder = PageStreamEncoder() if include_contents else None
        self.last_encode_stats = None
        for name in sorted(self.files):
            pram_file = self.files[name]
            encoded_name = name.encode()
            packer = Packer()
            packer.u16(len(encoded_name)).raw(encoded_name)
            packer.u32(pram_file.page_size)
            packer.u32(pram_file.mode)
            packer.raw(encode_entry_records(
                (e.gfn, e.mfn, e.order) for e in pram_file.entries))
            writer.frame(_FRAME_FILE, packer.bytes())
            if pages_encoder is not None:
                records = [(gfn, self.memory.read(mfn))
                           for gfn, mfn
                           in sorted(pram_file.guest_layout.items())]
                contents = Packer()
                contents.u16(len(encoded_name)).raw(encoded_name)
                contents.raw(pages_encoder.encode_batch(records))
                writer.frame(_FRAME_CONTENTS, contents.bytes())
        if pages_encoder is not None:
            self.last_encode_stats = pages_encoder.stats
        return writer.finish()

    @staticmethod
    def decode(blob: bytes, memory: PhysicalMemory) -> "PRAMFilesystem":
        """Rebuild a PRAM view from its encoding (target's early boot).

        When the stream carries CONTENTS frames, every recorded page
        digest is checked against the frame it describes — state that was
        scribbled over during the kexec fails loudly instead of restoring
        a silently-wrong guest.
        """
        try:
            return PRAMFilesystem._decode_frames(blob, memory)
        except PRAMError:
            raise
        except StateFormatError as exc:
            raise PRAMError(f"corrupt PRAM encoding: {exc}") from exc

    @staticmethod
    def _decode_frames(blob: bytes, memory: PhysicalMemory) -> "PRAMFilesystem":
        reader = FrameReader(blob)
        first = reader.read()
        if first is None or first[0] != _FRAME_HEADER:
            raise PRAMError("PRAM stream does not start with a header frame")
        header = Unpacker(first[1])
        file_count = header.u32()
        has_contents = bool(header.u8())
        header.expect_end()
        fs = PRAMFilesystem(memory)
        pages_decoder = PageStreamDecoder() if has_contents else None
        for frame_type, payload in reader.frames():
            if frame_type == _FRAME_FILE:
                unpacker = Unpacker(payload)
                name = unpacker.raw(unpacker.u16()).decode()
                page_size = unpacker.u32()
                mode = unpacker.u32()
                entries = [
                    PageEntry(gfn=gfn, mfn=mfn, order=order)
                    for gfn, mfn, order in decode_entry_records(
                        unpacker.raw(unpacker.remaining))
                ]
                guest_layout: Dict[int, int] = {}
                if entries:
                    expansion = page_size // entries[0].byte_size
                    for entry in entries:
                        if entry.gfn % expansion == 0:
                            guest_layout[entry.gfn // expansion] = entry.mfn
                if name in fs.files:
                    raise PRAMError(f"duplicate PRAM file {name!r}")
                fs.files[name] = PRAMFile(
                    name=name, page_size=page_size, entries=entries,
                    guest_layout=guest_layout, mode=mode)
            elif frame_type == _FRAME_CONTENTS:
                if pages_decoder is None:
                    raise PRAMError(
                        "CONTENTS frame in a stream whose header declared none")
                unpacker = Unpacker(payload)
                name = unpacker.raw(unpacker.u16()).decode()
                pram_file = fs.files.get(name)
                if pram_file is None:
                    raise PRAMError(
                        f"CONTENTS frame for unknown PRAM file {name!r}")
                records = pages_decoder.decode_batch(
                    unpacker.raw(unpacker.remaining))
                for gfn, digest in records:
                    mfn = pram_file.guest_layout.get(gfn)
                    if mfn is None:
                        raise PRAMError(
                            f"content record for unmapped gfn {gfn} in "
                            f"PRAM file {name!r}")
                    if memory.read(mfn) != digest:
                        raise PRAMError(
                            f"content digest mismatch for gfn {gfn} of "
                            f"{name!r}: frame was modified across the kexec")
            else:
                raise PRAMError(f"unknown PRAM frame type {frame_type}")
        reader.expect_end()
        if len(fs.files) != file_count:
            raise PRAMError(
                f"PRAM stream carried {len(fs.files)} files, "
                f"header declared {file_count}")
        return fs

    # -- teardown ------------------------------------------------------------

    def release_guest_pins(self, name: str) -> None:
        """Unpin one VM's frames after its restoration completed."""
        for mfn in self.files[name].guest_layout.values():
            self.memory.unpin(mfn)

    def teardown(self) -> int:
        """Free all metadata pages; returns bytes returned to the host."""
        freed = 0
        for mfn in self._metadata_mfns:
            self.memory.unpin(mfn)
            self.memory.free(mfn)
            freed += _PAGE_BYTES
        self._metadata_mfns = []
        return freed
