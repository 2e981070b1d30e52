"""Tests for repro.journal — the campaign write-ahead log.

The acceptance bar (mirrored by the CI smoke job): kill-and-resume at
*every* journal record index of a seeded campaign yields a final metrics
JSON and Perfetto trace byte-identical to the uninterrupted run, and the
resumed journal file itself converges to the uninterrupted journal's
bytes.
"""

import json

import pytest

from repro.errors import JournalCrash, JournalDivergence, JournalError
from repro.fleet import (
    FailureInjector,
    FleetConfig,
    FleetController,
    RetryPolicy,
)
from repro.io.frames import decode_frame, encode_frame
from repro.journal import (
    BARRIER_KINDS,
    CAMPAIGN_META_FRAME,
    HOST_TRANSITION_FRAME,
    WAVE_BARRIER_FRAME,
    CampaignJournal,
    campaign_meta,
    decode_record,
    dump_records,
    read_journal,
    recover,
    scan_journal,
)
from repro.journal import (
    decode_barrier,
    decode_checkpoint,
    decode_commit,
    decode_transition,
    encode_barrier,
    encode_checkpoint,
    encode_commit,
    encode_meta,
    encode_transition,
)

#: the ISSUE's acceptance campaign: 10 hosts, 1% injected failures
CAMPAIGN = dict(hosts=10, vms_per_host=10, inplace_fraction=0.8,
                group_size=2, seed=42, concurrency=8)
FAIL_RATE = 0.01


def campaign_parts(**overrides):
    settings = dict(CAMPAIGN)
    settings.update(overrides)
    config = FleetConfig(**settings)
    injector = FailureInjector(FAIL_RATE, seed=config.seed)
    retry = RetryPolicy(max_retries=3, backoff_base_s=5.0)
    return config, injector, retry


def controller_for(journal=None, **overrides):
    config, injector, retry = campaign_parts(**overrides)
    return FleetController(config, injector=injector, retry=retry,
                           journal=journal)


def journaled_reference(path):
    """One uninterrupted journaled run: (doc, chrome trace, file bytes)."""
    journal = CampaignJournal.create(
        str(path), campaign_meta(*campaign_parts()))
    controller = controller_for(journal=journal)
    doc = controller.run().to_json()
    trace = controller.timeline().to_chrome_trace()
    return doc, trace, path.read_bytes(), journal


def record_offsets(data):
    """Byte offset of each frame boundary (start of each record)."""
    offsets = []
    offset = 0
    while offset < len(data):
        offsets.append(offset)
        _, _, consumed = decode_frame(data, offset)
        offset += consumed
    offsets.append(offset)
    return offsets


# -- record codecs -------------------------------------------------------------

class TestRecordCodecs:
    def test_transition_round_trip(self):
        payload = encode_transition(7, 12.5, "node3", "migrating",
                                    "verifying", "retry 2")
        assert decode_transition(payload) == {
            "seq": 7, "time_s": 12.5, "host": "node3",
            "source": "migrating", "target": "verifying",
            "reason": "retry 2",
        }

    def test_transition_packer_reuse_is_byte_identical(self):
        from repro.io.frames import Packer

        packer = Packer()
        packer.u32(99)  # stale state the reuse path must clear
        reused = encode_transition(1, 0.0, "h", "a", "b", "", into=packer)
        fresh = encode_transition(1, 0.0, "h", "a", "b", "")
        assert reused == fresh

    def test_barrier_round_trip(self):
        for kind in BARRIER_KINDS:
            payload = encode_barrier(3, 60.0, 1, kind)
            assert decode_barrier(payload)["kind"] == kind

    def test_barrier_rejects_unknown_kind(self):
        with pytest.raises(JournalError, match="wave-barrier kind"):
            encode_barrier(3, 60.0, 1, "flag-day")

    def test_checkpoint_round_trip(self):
        digest = bytes(range(32))
        payload = encode_checkpoint(9, 120.0, digest, 4, 17)
        record = decode_checkpoint(payload)
        assert record["digest"] == digest.hex()
        assert record["done_hosts"] == 4
        assert record["migrations_executed"] == 17

    def test_checkpoint_rejects_short_digest(self):
        with pytest.raises(JournalError, match="32 bytes"):
            encode_checkpoint(9, 120.0, b"short", 4, 17)

    def test_commit_round_trip(self):
        digest = bytes(32)
        record = decode_commit(encode_commit(40, 900.5, digest))
        assert record == {"seq": 40, "completed_at_s": 900.5,
                          "digest": digest.hex()}

    def test_decode_record_rejects_unknown_type(self):
        with pytest.raises(JournalError, match="unknown journal frame"):
            decode_record(0x7F, b"")

    def test_meta_rejects_wrong_format(self):
        with pytest.raises(JournalError, match="not a campaign journal"):
            decode_record(CAMPAIGN_META_FRAME,
                          json.dumps({"format": "tarball"}).encode())

    def test_meta_round_trips_the_campaign_shape(self):
        meta = campaign_meta(*campaign_parts())
        assert decode_record(CAMPAIGN_META_FRAME, encode_meta(meta)) == meta


# -- the acceptance loop: kill and resume at every record ----------------------

class TestCrashResumeEveryRecord:
    def test_resume_at_every_record_is_byte_identical(self, tmp_path):
        ref_doc, ref_trace, ref_bytes, ref_journal = journaled_reference(
            tmp_path / "ref.journal")
        total = ref_journal.records_appended
        assert total > 40  # the campaign must be big enough to mean anything

        for crash_at in range(1, total + 1):
            path = tmp_path / f"crash{crash_at}.journal"
            # crash_after counts records reaching the file *including*
            # CAMPAIGN_META, so crash_at=1 fires inside create() itself.
            with pytest.raises(JournalCrash):
                journal = CampaignJournal.create(
                    str(path), campaign_meta(*campaign_parts()),
                    crash_after=crash_at)
                controller_for(journal=journal).run()

            # the file holds exactly the records the crash let through
            assert len(read_journal(str(path)).records) == crash_at

            controller, resumed = recover(str(path))
            doc = controller.run().to_json()
            assert doc == ref_doc, f"metrics diverged at crash {crash_at}"
            assert controller.timeline().to_chrome_trace() == ref_trace, \
                f"trace diverged at crash {crash_at}"
            assert path.read_bytes() == ref_bytes, \
                f"journal file diverged at crash {crash_at}"
            assert resumed.records_replayed == crash_at - 1

    def test_journal_never_perturbs_the_campaign(self, tmp_path):
        plain = controller_for().run().to_json()
        journal = CampaignJournal.create(
            str(tmp_path / "c.journal"), campaign_meta(*campaign_parts()))
        journaled = controller_for(journal=journal).run().to_json()
        assert journaled == plain

    def test_group_commit_bytes_match_eager_appends(self, tmp_path):
        # crash_after (never reached) forces the per-record append path;
        # the bulk group-commit path must produce the very same file.
        eager = tmp_path / "eager.journal"
        journal = CampaignJournal.create(
            str(eager), campaign_meta(*campaign_parts()),
            crash_after=10 ** 9)
        controller_for(journal=journal).run()
        _, _, bulk_bytes, _ = journaled_reference(tmp_path / "bulk.journal")
        assert eager.read_bytes() == bulk_bytes

    def test_resuming_a_committed_journal_is_idempotent(self, tmp_path):
        ref_doc, _, ref_bytes, _ = journaled_reference(
            tmp_path / "done.journal")
        controller, journal = recover(str(tmp_path / "done.journal"))
        assert journal.is_resume
        doc = controller.run().to_json()
        assert doc == ref_doc
        assert (tmp_path / "done.journal").read_bytes() == ref_bytes


# -- torn writes and truncation ------------------------------------------------

class TestTornWritePolicy:
    def crashed_journal(self, tmp_path, crash_at=30):
        path = tmp_path / "crashed.journal"
        with pytest.raises(JournalCrash):
            journal = CampaignJournal.create(
                str(path), campaign_meta(*campaign_parts()),
                crash_after=crash_at)
            controller_for(journal=journal).run()
        return path

    def test_scan_at_every_record_boundary(self, tmp_path):
        _, _, ref_bytes, ref_journal = journaled_reference(
            tmp_path / "ref.journal")
        offsets = record_offsets(ref_bytes)
        # offsets[k] starts record k; the last boundary ends the END frame
        for k in range(1, len(offsets) - 1):
            scan = scan_journal(ref_bytes[:offsets[k]])
            assert len(scan.records) == k
            assert scan.torn_bytes == 0
            assert not scan.complete
        full = scan_journal(ref_bytes)
        assert full.complete and full.committed
        assert len(full.records) == ref_journal.records_appended

    def test_scan_mid_record_truncation_reports_torn_tail(self, tmp_path):
        _, _, ref_bytes, _ = journaled_reference(tmp_path / "ref.journal")
        offsets = record_offsets(ref_bytes)
        for k in (1, 5, 20):
            cut = offsets[k] + (offsets[k + 1] - offsets[k]) // 2
            scan = scan_journal(ref_bytes[:cut])
            assert len(scan.records) == k
            assert scan.torn_bytes == cut - offsets[k]
            assert scan.torn_error

    def test_resume_truncates_the_torn_tail_and_completes(self, tmp_path):
        ref_doc, _, ref_bytes, _ = journaled_reference(
            tmp_path / "ref.journal")
        path = self.crashed_journal(tmp_path)
        valid = path.read_bytes()
        # tear the last record: append half of a transition frame
        torn = encode_frame(HOST_TRANSITION_FRAME,
                            encode_transition(999, 1.0, "nodeX", "a", "b", ""))
        path.write_bytes(valid + torn[:len(torn) // 2])

        controller, journal = recover(str(path))
        assert journal.torn_bytes == len(torn) // 2
        assert journal.torn_error
        # the discard is durable before any new append
        assert path.read_bytes()[:len(valid)] == valid
        assert controller.run().to_json() == ref_doc
        assert path.read_bytes() == ref_bytes

    def test_garbage_tail_is_torn_not_fatal(self, tmp_path):
        path = self.crashed_journal(tmp_path)
        valid = path.read_bytes()
        path.write_bytes(valid + b"\xde\xad\xbe\xef")
        _, journal = recover(str(path))
        assert journal.torn_bytes == 4

    def test_frame_reader_rejects_what_scan_resumes(self, tmp_path):
        # Two policies over the same endless (crashed) bytes: the strict
        # stream reader treats a missing END as truncation, while the
        # journal scan treats the same bytes as a resumable valid prefix.
        from repro.errors import StateFormatError
        from repro.io.frames import FrameReader

        path = self.crashed_journal(tmp_path)
        data = path.read_bytes()
        reader = FrameReader(data)
        for _ in range(len(scan_journal(data).records)):
            assert reader.read() is not None
        with pytest.raises(StateFormatError, match="missing END"):
            reader.read()

    def test_bytes_after_end_are_corruption_not_torn(self, tmp_path):
        _, _, ref_bytes, _ = journaled_reference(tmp_path / "ref.journal")
        with pytest.raises(JournalError, match="after the END frame"):
            scan_journal(ref_bytes + b"\x00")

    def test_empty_journal_cannot_recover(self, tmp_path):
        path = tmp_path / "empty.journal"
        path.write_bytes(b"")
        with pytest.raises(JournalError, match="empty journal"):
            CampaignJournal.resume(str(path))

    def test_first_record_must_be_meta(self, tmp_path):
        path = tmp_path / "notmeta.journal"
        path.write_bytes(encode_frame(
            WAVE_BARRIER_FRAME, encode_barrier(1, 0.0, 0, "release")))
        with pytest.raises(JournalError, match="not CAMPAIGN_META"):
            CampaignJournal.resume(str(path))


# -- replay verification fails closed ------------------------------------------

class TestReplayVerification:
    def test_tampered_record_raises_divergence(self, tmp_path):
        path = tmp_path / "tampered.journal"
        with pytest.raises(JournalCrash):
            journal = CampaignJournal.create(
                str(path), campaign_meta(*campaign_parts()),
                crash_after=30)
            controller_for(journal=journal).run()

        # re-frame one transition with a doctored reason: the CRC is
        # valid, so only byte-verified replay can catch it
        data = path.read_bytes()
        out, offset, tampered = [], 0, False
        while offset < len(data):
            frame_type, payload, consumed = decode_frame(data, offset)
            offset += consumed
            if not tampered and frame_type == HOST_TRANSITION_FRAME:
                record = decode_transition(payload)
                record["reason"] = "not what happened"
                payload = encode_transition(**record)
                tampered = True
            out.append(encode_frame(frame_type, payload))
        assert tampered
        path.write_bytes(b"".join(out))

        controller, _ = recover(str(path))
        with pytest.raises(JournalDivergence, match="replay diverged"):
            controller.run()

    def test_divergence_message_names_both_records(self, tmp_path):
        path = tmp_path / "j.journal"
        journal = CampaignJournal.create(
            str(path), campaign_meta(*campaign_parts()))
        journal.transition(1.0, "node0", "pending", "draining")
        journal.close()

        _, journal = recover(str(path))
        with pytest.raises(JournalDivergence) as err:
            journal.transition(1.0, "node0", "pending", "migrating")
        assert "draining" in str(err.value)
        assert "migrating" in str(err.value)


# -- journal object behaviour --------------------------------------------------

class TestJournalLifecycle:
    def meta(self):
        return campaign_meta(*campaign_parts())

    def test_closed_journal_rejects_records(self, tmp_path):
        journal = CampaignJournal.create(
            str(tmp_path / "j.journal"), self.meta())
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.transition(0.0, "node0", "pending", "draining")

    def test_committed_journal_rejects_appends(self, tmp_path):
        _, _, _, journal = journaled_reference(tmp_path / "j.journal")
        controller, journal = recover(str(tmp_path / "j.journal"))
        controller.run()
        with pytest.raises(JournalError, match="closed|committed"):
            journal.wave_barrier(0.0, 0, "release")

    def test_records_total_spans_resume(self, tmp_path):
        path = tmp_path / "j.journal"
        journal = CampaignJournal.create(str(path), self.meta())
        journal.transition(1.0, "node0", "pending", "draining")
        journal.close()
        assert journal.records_total == 2  # META + one transition

        resumed = CampaignJournal.resume(str(path))
        assert resumed.records_total == 2
        assert resumed.pending_replay == 1
        assert resumed.replaying
        resumed.transition(1.0, "node0", "pending", "draining")
        assert not resumed.replaying
        resumed.transition(2.0, "node0", "draining", "migrating")
        resumed.close()
        assert resumed.records_total == 3

    def test_pending_transitions_flush_on_close(self, tmp_path):
        path = tmp_path / "j.journal"
        journal = CampaignJournal.create(str(path), self.meta())
        journal.transition(1.0, "node0", "pending", "draining")
        # group commit: the record is queued (and META may still sit in
        # the stdio buffer) — neither is durable yet
        assert len(read_journal(str(path)).records) < 2
        journal.close()
        assert len(read_journal(str(path)).records) == 2

    def test_barrier_is_a_group_commit_point(self, tmp_path):
        path = tmp_path / "j.journal"
        journal = CampaignJournal.create(str(path), self.meta())
        journal.transition(1.0, "node0", "pending", "draining")
        journal.wave_barrier(2.0, 0, "release")
        # both the queued transition and the barrier are durable, in order
        types = [t for t, _ in read_journal(str(path)).records]
        assert types == [CAMPAIGN_META_FRAME, HOST_TRANSITION_FRAME,
                         WAVE_BARRIER_FRAME]
        journal.close()

    def test_dump_records_names_every_type(self, tmp_path):
        _, _, _, journal = journaled_reference(tmp_path / "j.journal")
        records = dump_records(str(tmp_path / "j.journal"))
        kinds = {record["type"] for record in records}
        assert kinds == {"CAMPAIGN_META", "HOST_TRANSITION", "WAVE_BARRIER",
                         "CHECKPOINT", "COMMIT"}
        assert records[0]["type"] == "CAMPAIGN_META"
        assert records[-1]["type"] == "COMMIT"
        seqs = [r["seq"] for r in records[1:]]
        assert seqs == list(range(1, len(records)))

    def test_journal_metrics_count_appends_and_replays(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        path = tmp_path / "j.journal"
        with pytest.raises(JournalCrash):
            journal = CampaignJournal.create(
                str(path), campaign_meta(*campaign_parts()), crash_after=30)
            controller_for(journal=journal).run()
        metrics = journal.report_into(MetricsRegistry()).snapshot()["metrics"]
        assert metrics["journal_records_total"]["value"] == 30
        assert metrics["journal_bytes_total"]["value"] == path.stat().st_size

        # One registry, built after the run, holds the recovered
        # campaign's metrics and its journal's counters.
        controller, journal = recover(str(path))
        registry = controller.run().report_into(MetricsRegistry())
        metrics = journal.report_into(registry).snapshot()["metrics"]
        assert metrics["journal_replayed_records_total"]["value"] == 29
        assert metrics["journal_torn_bytes_total"]["value"] == 0
        assert metrics["fleet_hosts_done_total"]["value"] > 0


# -- CLI surface ---------------------------------------------------------------

class TestJournalCli:
    def fleet(self, *extra):
        from repro.cli import main
        return main(["fleet", "--hosts", "4", "--vms-per-host", "4",
                     "--group-size", "2", "--fail-rate", "0.01",
                     "--seed", "7", *extra])

    def test_journal_flag_writes_a_committed_journal(self, tmp_path,
                                                     capsys):
        journal = tmp_path / "c.journal"
        assert self.fleet("--journal", str(journal)) == 0
        assert read_journal(str(journal)).committed

    def test_crash_exit_code_and_resume(self, tmp_path, capsys):
        journal = tmp_path / "c.journal"
        ref = tmp_path / "ref.json"
        out = tmp_path / "resumed.json"
        assert self.fleet("--journal", str(tmp_path / "ref.journal"),
                          "--json", str(ref)) == 0
        assert self.fleet("--journal", str(journal),
                          "--crash-after", "20") == 3
        assert self.fleet("--resume", str(journal),
                          "--json", str(out)) == 0
        assert out.read_bytes() == ref.read_bytes()
        err = capsys.readouterr().err
        assert "resuming" in err

    def test_resume_reports_the_journaled_campaign(self, tmp_path, capsys):
        # The resumed run's header comes from the journal, not from the
        # flags' defaults (CVE-2016-6258, concurrency 8, no fail rate).
        from repro.cli import main

        journal = str(tmp_path / "c.journal")
        assert main(["fleet", "--hosts", "4", "--vms-per-host", "4",
                     "--cve", "CVE-2013-90001", "--concurrency", "3",
                     "--fail-rate", "0.01", "--journal", journal,
                     "--crash-after", "10"]) == 3
        capsys.readouterr()
        assert main(["fleet", "--resume", journal]) == 0
        out = capsys.readouterr().out
        assert out.startswith("CVE-2013-90001 disclosed")
        assert "waves, concurrency 3, fail rate 1%\n" in out

    def test_resume_warns_about_a_torn_tail(self, tmp_path, capsys):
        journal = tmp_path / "c.journal"
        assert self.fleet("--journal", str(journal),
                          "--crash-after", "20") == 3
        with open(journal, "ab") as handle:
            handle.write(b"\x00\x01\x02")  # half a frame header
        capsys.readouterr()
        assert self.fleet("--resume", str(journal)) == 0
        err = capsys.readouterr().err
        assert "torn tail — discarded 3 trailing byte(s)" in err
        assert "verifying 19 journaled record(s)" in err

    def test_journaled_metrics_snapshot_counts_the_journal(self, tmp_path,
                                                          capsys):
        journal = tmp_path / "c.journal"
        snapshot = tmp_path / "m.json"
        assert self.fleet("--journal", str(journal),
                          "--metrics", str(snapshot)) == 0
        metrics = json.loads(snapshot.read_text())["metrics"]
        records = len(read_journal(str(journal)).records)
        assert metrics["journal_records_total"]["value"] == records
        assert metrics["journal_bytes_total"]["value"] == \
            journal.stat().st_size
        assert "fleet_hosts_done_total" in metrics

    def test_resumed_metrics_snapshot_reports_a_torn_tail(self, tmp_path,
                                                         capsys):
        journal = tmp_path / "c.journal"
        snapshot = tmp_path / "m.json"
        assert self.fleet("--journal", str(journal),
                          "--crash-after", "20") == 3
        data = journal.read_bytes()
        journal.write_bytes(data[:-5])  # cut the last record mid-frame
        assert self.fleet("--resume", str(journal),
                          "--metrics", str(snapshot)) == 0
        metrics = json.loads(snapshot.read_text())["metrics"]
        assert metrics["journal_torn_bytes_total"]["value"] > 0
        # META and the torn 20th record are not replayed
        assert metrics["journal_replayed_records_total"]["value"] == 18

    def test_flag_validation(self, tmp_path, capsys):
        journal = str(tmp_path / "c.journal")
        assert self.fleet("--journal", journal, "--resume", journal) == 2
        assert self.fleet("--crash-after", "5") == 2

    def test_resume_missing_journal_fails_cleanly(self, tmp_path, capsys):
        assert self.fleet("--resume", str(tmp_path / "nope.journal")) == 2
