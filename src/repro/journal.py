"""``repro.journal`` — a write-ahead log for fleet campaigns.

HyperTP's whole point is shrinking the disclosure->remediated window, yet
the campaign controller is itself a single point of failure: if the
process driving a 1000-host emergency campaign dies, the window re-opens.
This module makes campaigns *crash-consistent*: every host transition,
wave boundary and checkpoint is appended to the journal **before** the
controller acts on it (group-flushed to the OS at wave boundaries — see
:class:`CampaignJournal`), and :func:`recover` rebuilds a controller from
the journal and resumes the campaign, producing a final metrics/trace
artifact byte-identical to an uninterrupted run of the same seed.

The journal rides the :mod:`repro.io` frame codec — CRC32-checked,
self-describing, END-terminated — with five record types::

    CAMPAIGN_META    the full campaign shape: config, failure rates,
                     injector seed, retry policy (record 0, JSON payload)
    HOST_TRANSITION  one host state change (seq, time, host, src, dst, why)
    WAVE_BARRIER     a wave boundary: release / evac-done / wave-done
    CHECKPOINT       a digest of the controller's rebuildable state —
                     placement, per-host states, retry counters, RNG
                     stream positions — cross-checked during recovery
    COMMIT           the terminal record: completion time + a digest of
                     the controller's final recoverable state (which the
                     metrics document is a deterministic function of);
                     followed by END

**Recovery model.**  The campaign is a seeded deterministic simulation, so
the volatile state a crash destroys (generator frames, the event queue)
is rebuilt by *verified replay*: :func:`recover` reads the journal's valid
prefix, reconstructs the controller from ``CAMPAIGN_META``, and re-runs
the campaign with the journal in *replay mode* — every record the
controller would write is byte-compared against the journaled prefix
(divergence fails closed with :class:`~repro.errors.JournalDivergence`,
the discipline interrupted migrations demand: never half-applied), and
once the prefix is exhausted the journal switches back to append mode and
the campaign continues from exactly where the crash cut it off.

**Torn-write policy.**  A crash can tear the last record mid-write.  On
resume the valid prefix wins: the torn tail is truncated from the file
and reported loudly (``torn_bytes``/``torn_error`` on the journal, the
``journal_torn_bytes_total`` metric, a stderr warning in the CLI).  Any
CRC-valid prefix is trusted; bytes after a valid END frame are corruption,
not a torn write, and fail loudly instead.

Crash-point fault injection (``crash_after=N``) raises
:class:`~repro.errors.JournalCrash` immediately after the Nth record
reaches the file — the hook the kill-at-every-record resume tests and the
CI smoke job drive.
"""

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import JournalCrash, JournalDivergence, JournalError
from repro.io.frames import (
    Packer,
    Unpacker,
    decode_frame,
    encode_frame,
)
from repro.obs.metrics import MetricsRegistry

JOURNAL_FORMAT = "hypertp-journal"
JOURNAL_VERSION = 1

#: journal frame types (frame type 0 is the codec's END marker)
CAMPAIGN_META_FRAME = 0x10
HOST_TRANSITION_FRAME = 0x11
WAVE_BARRIER_FRAME = 0x12
CHECKPOINT_FRAME = 0x13
COMMIT_FRAME = 0x14

FRAME_NAMES = {
    CAMPAIGN_META_FRAME: "CAMPAIGN_META",
    HOST_TRANSITION_FRAME: "HOST_TRANSITION",
    WAVE_BARRIER_FRAME: "WAVE_BARRIER",
    CHECKPOINT_FRAME: "CHECKPOINT",
    COMMIT_FRAME: "COMMIT",
}

#: the legal WAVE_BARRIER kinds, in the order a wave passes them
BARRIER_KINDS = ("release", "evac-done", "wave-done")


# -- record payload codecs ----------------------------------------------------


def encode_meta(meta: Dict) -> bytes:
    """CAMPAIGN_META payload: canonical sorted-key JSON."""
    return json.dumps(meta, sort_keys=True).encode("utf-8")


def decode_meta(payload: bytes) -> Dict:
    try:
        meta = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise JournalError(
            f"malformed CAMPAIGN_META payload: {exc}") from exc
    if meta.get("format") != JOURNAL_FORMAT:
        raise JournalError(
            f"not a campaign journal: format {meta.get('format')!r}, "
            f"want {JOURNAL_FORMAT!r}"
        )
    if meta.get("version") != JOURNAL_VERSION:
        raise JournalError(
            f"unsupported journal version {meta.get('version')!r}"
        )
    return meta


def encode_transition(seq: int, time_s: float, host: str, source: str,
                      target: str, reason: str,
                      into: Optional[Packer] = None) -> bytes:
    """Encode one HOST_TRANSITION payload.

    ``into`` lets the journal reuse one :class:`Packer` across the
    thousands of transitions a campaign appends (see
    :meth:`Packer.reset`); callers without a hot path just omit it.
    """
    packer = into.reset() if into is not None else Packer()
    packer.u32(seq).f64(time_s).string(host)
    packer.string(source).string(target).string(reason)
    return packer.bytes()


def decode_transition(payload: bytes) -> Dict:
    unpacker = Unpacker(payload)
    record = {
        "seq": unpacker.u32(),
        "time_s": unpacker.f64(),
        "host": unpacker.string(),
        "source": unpacker.string(),
        "target": unpacker.string(),
        "reason": unpacker.string(),
    }
    unpacker.expect_end()
    return record


def encode_barrier(seq: int, time_s: float, wave: int, kind: str) -> bytes:
    if kind not in BARRIER_KINDS:
        raise JournalError(
            f"unknown wave-barrier kind {kind!r}; want one of {BARRIER_KINDS}"
        )
    packer = Packer()
    packer.u32(seq).f64(time_s).u32(wave).string(kind)
    return packer.bytes()


def decode_barrier(payload: bytes) -> Dict:
    unpacker = Unpacker(payload)
    record = {
        "seq": unpacker.u32(),
        "time_s": unpacker.f64(),
        "wave": unpacker.u32(),
        "kind": unpacker.string(),
    }
    unpacker.expect_end()
    return record


def encode_checkpoint(seq: int, time_s: float, digest: bytes,
                      done_hosts: int, migrations_executed: int) -> bytes:
    if len(digest) != 32:
        raise JournalError(
            f"checkpoint digest must be 32 bytes, got {len(digest)}"
        )
    packer = Packer()
    packer.u32(seq).f64(time_s).raw(digest)
    packer.u32(done_hosts).u32(migrations_executed)
    return packer.bytes()


def decode_checkpoint(payload: bytes) -> Dict:
    unpacker = Unpacker(payload)
    record = {
        "seq": unpacker.u32(),
        "time_s": unpacker.f64(),
        "digest": unpacker.raw(32).hex(),
        "done_hosts": unpacker.u32(),
        "migrations_executed": unpacker.u32(),
    }
    unpacker.expect_end()
    return record


def encode_commit(seq: int, completed_at_s: float, digest: bytes) -> bytes:
    if len(digest) != 32:
        raise JournalError(
            f"commit digest must be 32 bytes, got {len(digest)}"
        )
    packer = Packer()
    packer.u32(seq).f64(completed_at_s).raw(digest)
    return packer.bytes()


def decode_commit(payload: bytes) -> Dict:
    unpacker = Unpacker(payload)
    record = {
        "seq": unpacker.u32(),
        "completed_at_s": unpacker.f64(),
        "digest": unpacker.raw(32).hex(),
    }
    unpacker.expect_end()
    return record


_DECODERS = {
    CAMPAIGN_META_FRAME: decode_meta,
    HOST_TRANSITION_FRAME: decode_transition,
    WAVE_BARRIER_FRAME: decode_barrier,
    CHECKPOINT_FRAME: decode_checkpoint,
    COMMIT_FRAME: decode_commit,
}


def decode_record(frame_type: int, payload: bytes):
    """Decode one journal record payload into a plain dict (introspection)."""
    decoder = _DECODERS.get(frame_type)
    if decoder is None:
        raise JournalError(f"unknown journal frame type {frame_type:#x}")
    return decoder(payload)


# -- reading ------------------------------------------------------------------


@dataclass
class JournalScan:
    """The result of scanning journal bytes with the valid-prefix policy."""

    #: CRC-valid records in file order, as ``(frame_type, payload)``
    records: List[Tuple[int, bytes]] = field(default_factory=list)
    #: the codec END marker was present (clean close)
    complete: bool = False
    #: a COMMIT record was present (campaign finished)
    committed: bool = False
    #: byte length of the valid prefix
    valid_bytes: int = 0
    #: bytes of torn tail discarded after the valid prefix
    torn_bytes: int = 0
    #: the decode error that cut the scan short, for loud reporting
    torn_error: Optional[str] = None


def scan_journal(data: bytes) -> JournalScan:
    """Parse journal bytes, applying the torn-write recovery policy.

    The valid prefix wins: records parse until the first CRC/truncation
    failure, which marks the torn tail.  Bytes *after* a valid END frame
    are not a torn write — a crash cannot append past a close — so they
    raise :class:`JournalError` instead of being silently dropped.
    """
    scan = JournalScan()
    offset = 0
    while offset < len(data):
        try:
            frame_type, payload, consumed = decode_frame(data, offset)
        except Exception as exc:  # StateFormatError; keep the valid prefix
            scan.torn_bytes = len(data) - offset
            scan.torn_error = str(exc)
            return scan
        offset += consumed
        if frame_type == 0:  # END
            scan.complete = True
            scan.valid_bytes = offset
            if offset < len(data):
                raise JournalError(
                    f"{len(data) - offset} bytes after the END frame: "
                    f"corrupt journal, not a torn write"
                )
            return scan
        if frame_type not in _DECODERS:
            raise JournalError(
                f"unknown journal frame type {frame_type:#x} at byte "
                f"offset {offset - consumed}"
            )
        if frame_type == COMMIT_FRAME:
            scan.committed = True
        scan.records.append((frame_type, payload))
        scan.valid_bytes = offset
    return scan


def read_journal(path: str) -> JournalScan:
    """Scan a journal file with the valid-prefix-wins policy."""
    try:
        with open(path, "rb") as handle:
            return scan_journal(handle.read())
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from exc


def dump_records(path: str) -> List[Dict]:
    """Decode every valid record of a journal file (debugging/tests)."""
    scan = read_journal(path)
    return [
        {"type": FRAME_NAMES[frame_type], **decode_record(frame_type, payload)}
        for frame_type, payload in scan.records
    ]


# -- the journal --------------------------------------------------------------


class CampaignJournal:
    """Write-ahead log of one campaign, with a verified-replay resume mode.

    Constructed via :meth:`create` (fresh campaign) or :meth:`resume`
    (recover after a crash).  The controller calls :meth:`transition`,
    :meth:`wave_barrier`, :meth:`checkpoint` and :meth:`commit`; in
    replay mode each call is byte-verified against the journaled prefix,
    after which calls append — written *before* the caller proceeds,
    which is what makes the log write-ahead.

    **Group commit.**  Transition appends are queued in call order and
    materialized/flushed at wave boundaries (:meth:`wave_barrier`,
    :meth:`checkpoint`, :meth:`commit`, :meth:`close`) rather than per
    record: recovery replays the valid prefix and re-derives the rest
    deterministically, so a hard kill mid-wave costs at most one wave of
    *re-executed* work, never correctness — and the campaign's hot path
    pays a list append per transition instead of an encode, a CRC and a
    write.  The file bytes are identical to eager appends.
    """

    def __init__(self, path: str, handle, meta: Dict,
                 replay: Optional[List[Tuple[int, bytes]]] = None,
                 complete: bool = False,
                 torn_bytes: int = 0, torn_error: Optional[str] = None,
                 crash_after: Optional[int] = None):
        self.path = path
        self._handle = handle
        self.meta = meta
        self._resumed = replay is not None
        self._replay = list(replay) if replay is not None else []
        self._cursor = 0
        self._seq = 1 + len(self._replay)  # META is record 0
        self._complete = complete
        self._closed = False
        self.torn_bytes = torn_bytes
        self.torn_error = torn_error
        self.records_appended = 0
        self.records_replayed = 0
        self.bytes_appended = 0
        self._crash_after = crash_after
        self._packer = Packer()  # reused per record; see encode_transition
        #: transitions queued in append mode, materialized at group commit
        self._pending: List[Tuple] = []

    # -- construction --------------------------------------------------------

    @classmethod
    def create(cls, path: str, meta: Dict, *,
               crash_after: Optional[int] = None) -> "CampaignJournal":
        """Start a fresh journal: truncate ``path``, write CAMPAIGN_META."""
        meta = dict(meta)
        meta.setdefault("format", JOURNAL_FORMAT)
        meta.setdefault("version", JOURNAL_VERSION)
        decode_meta(encode_meta(meta))  # validate before the first write
        try:
            handle = open(path, "wb")
        except OSError as exc:
            raise JournalError(f"cannot create journal {path}: {exc}") from exc
        journal = cls(path, handle, meta, crash_after=crash_after)
        # META is record 0; appended records claim seqs from 1 (__init__).
        journal._append(CAMPAIGN_META_FRAME, encode_meta(meta))
        return journal

    @classmethod
    def resume(cls, path: str, *,
               crash_after: Optional[int] = None) -> "CampaignJournal":
        """Reopen a crashed (or finished) journal for verified replay.

        Applies the torn-write policy: the valid prefix wins, a torn tail
        is truncated from the file and reported loudly via
        :attr:`torn_bytes`/:attr:`torn_error`.
        """
        scan = read_journal(path)
        if not scan.records:
            raise JournalError(
                f"{path}: no valid records — cannot recover a campaign "
                f"from an empty journal"
            )
        first_type, first_payload = scan.records[0]
        if first_type != CAMPAIGN_META_FRAME:
            raise JournalError(
                f"{path}: first record is {FRAME_NAMES.get(first_type)}, "
                f"not CAMPAIGN_META — cannot recover"
            )
        meta = decode_meta(first_payload)
        if scan.torn_bytes:
            # Valid prefix wins; make the discard durable before appending.
            with open(path, "r+b") as trunc:
                trunc.truncate(scan.valid_bytes)
        handle = open(path, "ab")
        return cls(path, handle, meta, replay=scan.records[1:],
                   complete=scan.complete,
                   torn_bytes=scan.torn_bytes, torn_error=scan.torn_error,
                   crash_after=crash_after)

    # -- status --------------------------------------------------------------

    @property
    def is_resume(self) -> bool:
        """True for a journal reopened via :meth:`resume`."""
        return self._resumed

    @property
    def replaying(self) -> bool:
        """True while calls verify against the journaled prefix."""
        return self._cursor < len(self._replay)

    @property
    def pending_replay(self) -> int:
        """Journaled records not yet verified by the recovering campaign."""
        return len(self._replay) - self._cursor

    @property
    def records_total(self) -> int:
        """Records durable in the file right now (including META)."""
        base = 1 + len(self._replay) if self._resumed else 0
        return base + self.records_appended

    def report_into(self, registry: MetricsRegistry) -> MetricsRegistry:
        """Publish the journal's operational totals into a metrics registry.

        Counters add up, so journals published into one registry report
        their sum.
        """
        registry.counter(
            "journal_records_total", "journal records appended",
        ).inc(self.records_appended)
        registry.counter(
            "journal_bytes_total", "journal bytes appended",
        ).inc(self.bytes_appended)
        registry.counter(
            "journal_replayed_records_total",
            "journaled records verified during recovery",
        ).inc(self.records_replayed)
        registry.counter(
            "journal_torn_bytes_total",
            "torn-tail bytes discarded on recovery",
        ).inc(self.torn_bytes)
        return registry

    # -- the write-ahead interface -------------------------------------------

    def transition(self, time_s: float, host: str, source: str,
                   target: str, reason: str = "") -> None:
        """Journal one host state change (called *before* the mutation).

        In append mode the record is queued and materialized at the next
        group-commit point (:meth:`wave_barrier`, :meth:`checkpoint`,
        :meth:`commit`, :meth:`close`): the append call — and with it the
        write-ahead ordering — still precedes the mutation, but the
        campaign's hot path pays one list append per transition instead
        of an encode and a file write.  File bytes are identical to
        eager appends; only the moment they reach the handle moves.
        """
        if self.replaying:
            payload = encode_transition(self._next_seq(), time_s, host,
                                        source, target, reason,
                                        into=self._packer)
            self._record(HOST_TRANSITION_FRAME, payload)
            return
        self._check_open(HOST_TRANSITION_FRAME)
        self._pending.append((self._next_seq(), time_s, host, source,
                              target, reason))

    def wave_barrier(self, time_s: float, wave: int, kind: str) -> None:
        """Journal one wave boundary (called *before* waiters wake).

        Barriers are the group-commit points: the wave's buffered
        transitions reach the OS here.
        """
        payload = encode_barrier(self._next_seq(), time_s, wave, kind)
        self._record(WAVE_BARRIER_FRAME, payload)
        self._flush()

    def checkpoint(self, time_s: float, digest: bytes, done_hosts: int,
                   migrations_executed: int) -> None:
        """Journal a state digest; replay cross-checks it byte-for-byte."""
        payload = encode_checkpoint(self._next_seq(), time_s, digest,
                                    done_hosts, migrations_executed)
        self._record(CHECKPOINT_FRAME, payload)
        self._flush()

    def commit(self, completed_at_s: float, digest: bytes) -> None:
        """Terminate the journal: COMMIT record, END frame, close.

        In replay mode the COMMIT must match the journaled one — the
        enforcement teeth of the resume determinism contract: a resumed
        campaign that would produce a different metrics document than the
        journaled COMMIT promises fails closed here.
        """
        payload = encode_commit(self._next_seq(), completed_at_s, digest)
        self._record(COMMIT_FRAME, payload)
        if not self._complete:
            end = encode_frame(0, b"")
            self._handle.write(end)
            self._handle.flush()
            self.bytes_appended += len(end)
            self._complete = True
        self.close()

    def close(self) -> None:
        """Flush queued records and release the file handle (without END —
        a crashed/abandoned log stays resumable)."""
        if self._closed:
            return
        try:
            self._flush_pending()
            self._handle.flush()
        finally:
            # Crash injection inside the flush loop closes the journal
            # itself before raising; don't close the handle twice.
            if not self._closed:
                self._handle.close()
                self._closed = True

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- internals ------------------------------------------------------------

    def _next_seq(self) -> int:
        """Claim the next record seq (replay verifies, append consumes)."""
        if self.replaying:
            return 1 + self._cursor
        seq = self._seq
        self._seq += 1
        return seq

    def _check_open(self, frame_type: int) -> None:
        if self._closed:
            raise JournalError(
                f"journal {self.path} is closed; cannot record "
                f"{FRAME_NAMES.get(frame_type, frame_type)}"
            )
        if not self.replaying and self._complete:
            raise JournalError(
                f"journal {self.path} already committed; cannot append "
                f"{FRAME_NAMES.get(frame_type, frame_type)}"
            )

    def _record(self, frame_type: int, payload: bytes) -> None:
        self._check_open(frame_type)
        if self.replaying:
            self._verify(frame_type, payload)
        else:
            self._flush_pending()
            self._append(frame_type, payload)

    def _verify(self, frame_type: int, payload: bytes) -> None:
        expected_type, expected_payload = self._replay[self._cursor]
        if frame_type != expected_type or payload != expected_payload:
            raise JournalDivergence(
                f"replay diverged at record {1 + self._cursor}: journal "
                f"holds {FRAME_NAMES.get(expected_type)} "
                f"{decode_record(expected_type, expected_payload)!r}, "
                f"recovering campaign produced "
                f"{FRAME_NAMES.get(frame_type)} "
                f"{decode_record(frame_type, payload)!r}"
            )
        self._cursor += 1
        self.records_replayed += 1

    def _flush(self) -> None:
        """Push buffered appends to the OS (the group-commit point)."""
        if not self._closed:
            self._flush_pending()
            self._handle.flush()

    def _flush_pending(self) -> None:
        """Materialize queued transitions into the file, in call order.

        Runs as a tight batch loop so the encode/CRC/write work happens
        with hot caches at group-commit points instead of scattered
        through the simulation.  Each record still routes through
        :meth:`_append`, so ``crash_after`` fires at exact record
        boundaries; on an injected crash the not-yet-written tail of the
        queue is discarded, exactly like a dead process's buffer.
        """
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        if self._crash_after is None:
            # Bulk path: bound attrs and batched bookkeeping; same bytes.
            write = self._handle.write
            packer = self._packer
            total = 0
            for args in pending:
                encoded = encode_frame(
                    HOST_TRANSITION_FRAME,
                    encode_transition(*args, into=packer))
                write(encoded)
                total += len(encoded)
            self.records_appended += len(pending)
            self.bytes_appended += total
            return
        for args in pending:
            self._append(HOST_TRANSITION_FRAME,
                         encode_transition(*args, into=self._packer))

    def _append(self, frame_type: int, payload: bytes) -> None:
        encoded = encode_frame(frame_type, payload)
        self._handle.write(encoded)
        self.records_appended += 1
        self.bytes_appended += len(encoded)
        if self._crash_after is not None \
                and self.records_appended >= self._crash_after:
            # close() flushes, so the file holds exactly the records
            # appended so far — crash points stay exact record boundaries
            # even under group commit.  Then drop the handle like a dead
            # process would before surfacing the crash.
            self.close()
            raise JournalCrash(
                f"injected crash after journal record "
                f"{self.records_appended} "
                f"({FRAME_NAMES.get(frame_type, frame_type)}, "
                f"{self.bytes_appended} bytes durable)"
            )


# -- campaign glue ------------------------------------------------------------


def campaign_meta(config, injector, retry) -> Dict:
    """The CAMPAIGN_META document for a controller's full configuration.

    The mechanism policy is journaled only when it differs from the
    hybrid default: default campaigns stay byte-identical to journals
    written before the policy knob existed, and :func:`recover` falls
    back to the FleetConfig default for the missing key either way.
    """
    meta = {
        "format": JOURNAL_FORMAT,
        "version": JOURNAL_VERSION,
        "config": {
            "hosts": config.hosts,
            "vms_per_host": config.vms_per_host,
            "inplace_fraction": config.inplace_fraction,
            "group_size": config.group_size,
            "seed": config.seed,
            "concurrency": config.concurrency,
            "sequential_groups": config.sequential_groups,
            "migration_streams": config.migration_streams,
            "stall_timeout_s": config.stall_timeout_s,
            "kexec_watchdog_s": config.kexec_watchdog_s,
            "verify_fixed_s": config.verify_fixed_s,
            "verify_per_vm_s": config.verify_per_vm_s,
            "trigger_cve": config.trigger_cve,
            "current_hypervisor": config.current_hypervisor,
            "pool": list(config.pool),
            "disclosure_at_s": config.disclosure_at_s,
        },
        "failures": {
            "rates": {phase.value: rate
                      for phase, rate in sorted(injector.rates.items(),
                                                key=lambda kv: kv[0].value)},
            "seed": injector.seed,
        },
        "retry": {
            "max_retries": retry.max_retries,
            "backoff_base_s": retry.backoff_base_s,
            "backoff_factor": retry.backoff_factor,
            "backoff_max_s": retry.backoff_max_s,
        },
    }
    if config.mechanism != "hybrid":
        meta["config"]["mechanism"] = config.mechanism
    if config.target_override is not None:
        meta["config"]["target_override"] = config.target_override
    return meta


def recover(path: str, *, crash_after: Optional[int] = None):
    """Rebuild a campaign controller from a journal.

    Returns ``(controller, journal)``: the controller is reconstructed
    from the journal's ``CAMPAIGN_META`` (config, failure rates, injector
    seed, retry policy) with the journal attached in replay mode —
    ``controller.run()`` replays the journaled prefix under byte
    verification, then continues the campaign, appending new records.
    """
    from repro.fleet.controller import FleetConfig, FleetController
    from repro.fleet.failures import FailureInjector, FailurePhase, RetryPolicy

    journal = CampaignJournal.resume(path, crash_after=crash_after)
    meta = journal.meta
    try:
        config_kwargs = dict(meta["config"])
        config_kwargs["pool"] = tuple(config_kwargs["pool"])
        config = FleetConfig(**config_kwargs)
        injector = FailureInjector(
            {FailurePhase(name): rate
             for name, rate in meta["failures"]["rates"].items()},
            seed=meta["failures"]["seed"],
        )
        retry = RetryPolicy(**meta["retry"])
    except (KeyError, TypeError, ValueError) as exc:
        journal.close()
        raise JournalError(
            f"{path}: CAMPAIGN_META does not describe a recoverable "
            f"campaign: {exc!r}"
        ) from exc
    controller = FleetController(config, injector=injector, retry=retry,
                                 journal=journal)
    return controller, journal


__all__ = [
    "JOURNAL_FORMAT",
    "JOURNAL_VERSION",
    "CAMPAIGN_META_FRAME",
    "HOST_TRANSITION_FRAME",
    "WAVE_BARRIER_FRAME",
    "CHECKPOINT_FRAME",
    "COMMIT_FRAME",
    "BARRIER_KINDS",
    "CampaignJournal",
    "JournalScan",
    "scan_journal",
    "read_journal",
    "dump_records",
    "decode_record",
    "campaign_meta",
    "recover",
]
