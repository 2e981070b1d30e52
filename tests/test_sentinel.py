"""Tests for the sentinel response plane (feed, inventory, policy,
responder, report)."""

import json

import pytest

from repro.errors import SentinelError
from repro.sentinel import (
    DAY_S,
    FeedSchedule,
    FleetInventory,
    PolicyConfig,
    ResponsePolicy,
    Sentinel,
    SentinelConfig,
    build_feed,
    feed_statistics,
)
from repro.vulndb.cve import CVERecord
from repro.vulndb.data import VulnerabilityDatabase, load_default_database


@pytest.fixture(scope="module")
def db():
    return load_default_database()


def _record(cve_id, affected, score=9.0, component="pv", year=2021,
            days_to_patch=10):
    return CVERecord(
        cve_id=cve_id, year=year, affected=frozenset(affected),
        component=component, cvss_score=score, days_to_patch=days_to_patch,
    )


#: the preemption scenario database: one critical flaw per hypervisor,
#: disclosed back to back, so the second lands on the first response's
#: target mid-flight
PREEMPT_DB = VulnerabilityDatabase([
    _record("CVE-2021-0001", {"xen"}),
    _record("CVE-2021-0002", {"kvm"}, score=9.5, component="ioctl"),
])


def _clean_schedule(**overrides):
    """A feed with every perturbation off: pure publication order."""
    defaults = dict(seed=7, mean_gap_days=1.0, jitter=0.0,
                    batch_probability=0.0, duplicate_probability=0.0,
                    out_of_order_probability=0.0)
    defaults.update(overrides)
    return FeedSchedule(**defaults)


class TestFeedSchedule:
    def test_bad_knobs_rejected(self):
        with pytest.raises(SentinelError):
            FeedSchedule(mean_gap_days=0.0)
        with pytest.raises(SentinelError):
            FeedSchedule(jitter=1.5)
        with pytest.raises(SentinelError):
            FeedSchedule(batch_probability=-0.1)
        with pytest.raises(SentinelError):
            FeedSchedule(duplicate_probability=2.0)
        with pytest.raises(SentinelError):
            FeedSchedule(limit=0)
        with pytest.raises(SentinelError):
            FeedSchedule(start_s=-1.0)


class TestBuildFeed:
    def test_same_seed_same_feed(self, db):
        schedule = FeedSchedule(seed=13)
        assert build_feed(db, schedule) == build_feed(db, schedule)

    def test_different_seeds_differ(self, db):
        a = build_feed(db, FeedSchedule(seed=1))
        b = build_feed(db, FeedSchedule(seed=2))
        assert a != b

    def test_limit_caps_distinct_advisories(self, db):
        events = build_feed(db, FeedSchedule(limit=10))
        assert len({e.cve_id for e in events}) == 10

    def test_clean_schedule_is_publication_order(self, db):
        events = build_feed(db, _clean_schedule(limit=20))
        records = sorted(db.all(), key=lambda r: (r.year, r.cve_id))[:20]
        assert [e.cve_id for e in events] == [r.cve_id for r in records]
        # exact gaps: k * mean_gap with jitter off
        assert [e.time_s for e in events] == [i * DAY_S for i in range(20)]

    def test_all_batched_collapses_to_start(self, db):
        events = build_feed(db, _clean_schedule(batch_probability=1.0,
                                                start_s=100.0, limit=15))
        assert all(e.time_s == 100.0 for e in events)

    def test_all_duplicated_doubles_the_feed(self, db):
        events = build_feed(db, _clean_schedule(duplicate_probability=1.0,
                                                limit=15))
        originals = [e for e in events if not e.duplicate]
        duplicates = [e for e in events if e.duplicate]
        assert len(originals) == len(duplicates) == 15
        first_seen = {e.cve_id: e.time_s for e in originals}
        assert all(d.time_s > first_seen[d.cve_id] for d in duplicates)

    def test_inversions_reported(self, db):
        events = build_feed(db, _clean_schedule(
            out_of_order_probability=1.0, limit=20))
        stats = feed_statistics(events, db)
        assert stats["out_of_order"] > 0

    def test_statistics_of_clean_feed(self, db):
        events = build_feed(db, _clean_schedule(limit=20))
        stats = feed_statistics(events, db)
        assert stats["advisories"] == 20
        assert stats["duplicates"] == 0
        assert stats["batched_pairs"] == 0
        assert stats["out_of_order"] == 0
        assert stats["first_at_s"] == 0.0
        assert stats["last_at_s"] == 19 * DAY_S

    def test_empty_feed_rejected(self, db):
        with pytest.raises(SentinelError):
            build_feed(VulnerabilityDatabase([]), FeedSchedule())


class TestInventory:
    def test_exposure_integral_is_exact(self):
        inv = FleetInventory({"a": "xen", "b": "xen", "c": "xen",
                              "d": "kvm"})
        flaw = _record("CVE-X", {"xen"})
        inv.open_cve(0.0, flaw)
        assert inv.exposure_count("CVE-X") == 3
        # 3 exposed hosts for 100 s, then one moves off xen
        inv.commit_host(100.0, "a", "kvm")
        assert inv.exposure_count("CVE-X") == 2
        # 2 exposed hosts for another 100 s, then the patch closes it
        inv.close_cve(200.0, "CVE-X")
        assert inv.exposure_host_days("CVE-X") == \
            pytest.approx((3 * 100 + 2 * 100) / DAY_S)
        # closed flaws stop accruing
        inv.advance(1000.0)
        assert inv.exposure_host_days("CVE-X") == \
            pytest.approx(500 / DAY_S)

    def test_commits_can_raise_exposure(self):
        inv = FleetInventory({"a": "xen", "b": "kvm"})
        inv.open_cve(0.0, _record("CVE-K", {"kvm"}))
        assert inv.exposure_count("CVE-K") == 1
        inv.commit_host(10.0, "a", "kvm")
        assert inv.exposure_count("CVE-K") == 2
        inv.close_cve(20.0, "CVE-K")
        assert inv.exposure_host_days("CVE-K") == \
            pytest.approx((1 * 10 + 2 * 10) / DAY_S)

    def test_time_cannot_go_backwards(self):
        inv = FleetInventory({"a": "xen"})
        inv.advance(100.0)
        with pytest.raises(SentinelError):
            inv.advance(99.0)

    def test_double_open_and_blind_close_rejected(self):
        inv = FleetInventory({"a": "xen"})
        flaw = _record("CVE-X", {"xen"})
        inv.open_cve(0.0, flaw)
        with pytest.raises(SentinelError):
            inv.open_cve(1.0, flaw)
        with pytest.raises(SentinelError):
            inv.close_cve(1.0, "CVE-NEVER-OPENED")

    def test_unknown_host_rejected(self):
        inv = FleetInventory({"a": "xen"})
        with pytest.raises(SentinelError):
            inv.kind_of("ghost")
        with pytest.raises(SentinelError):
            inv.commit_host(0.0, "ghost", "kvm")

    def test_kinds_and_snapshot_sorted(self):
        inv = FleetInventory({"b": "kvm", "a": "xen", "c": "xen"})
        assert inv.kinds() == {"kvm": ["b"], "xen": ["a", "c"]}
        snapshot = inv.snapshot()
        assert list(snapshot["hosts"]) == ["a", "b", "c"]
        assert snapshot["open_cves"] == []


class TestPolicy:
    def test_severity_gate(self, db):
        policy = ResponsePolicy(PolicyConfig(), db, ("xen", "kvm"))
        critical = db.get("CVE-2016-6258")  # xen critical
        medium = db.get("CVE-2015-8104")    # common medium
        assert policy.should_respond(critical, "xen")
        assert not policy.should_respond(critical, "kvm")  # unaffected
        assert not policy.should_respond(medium, "xen")    # below gate

    def test_medium_gate_opens_to_medium_flaws(self, db):
        policy = ResponsePolicy(PolicyConfig(severity_gate="medium"),
                                db, ("xen", "kvm"))
        assert policy.should_respond(db.get("CVE-2015-8104"), "xen")

    def test_choose_target_pool_order_breaks_ties(self):
        # One xen-only flaw: kvm and nova escape it equally, so strict
        # pool order decides.
        local = VulnerabilityDatabase([_record("CVE-A", {"xen"})])
        policy = ResponsePolicy(PolicyConfig(), local,
                                ("xen", "kvm", "nova"))
        choice = policy.choose_target("xen", ["CVE-A"])
        assert choice.target == "kvm"
        flipped = ResponsePolicy(PolicyConfig(), local,
                                 ("xen", "nova", "kvm"))
        assert flipped.choose_target("xen", ["CVE-A"]).target == "nova"

    def test_choose_target_blocks_vulnerable_candidates(self):
        local = VulnerabilityDatabase([
            _record("CVE-A", {"xen"}),
            _record("CVE-B", {"kvm"}),
        ])
        policy = ResponsePolicy(PolicyConfig(), local,
                                ("xen", "kvm", "nova"))
        choice = policy.choose_target("xen", ["CVE-A", "CVE-B"])
        assert choice.target == "nova"
        assert any(r.startswith("kvm:") for r in choice.rejected)

    def test_choose_target_none_when_common_flaw_pins_pool(self):
        local = VulnerabilityDatabase([
            _record("CVE-EVERYWHERE", {"xen", "kvm"}),
        ])
        policy = ResponsePolicy(PolicyConfig(), local, ("xen", "kvm"))
        assert policy.choose_target("xen", ["CVE-EVERYWHERE"]) is None

    def test_launch_at_maintenance_windows(self, db):
        policy = ResponsePolicy(PolicyConfig(
            maintenance_window_every_s=1000.0,
            maintenance_window_length_s=100.0,
        ), db, ("xen", "kvm"))
        assert policy.launch_at(50.0) == 50.0       # inside the window
        assert policy.launch_at(500.0) == 1000.0    # wait for the next
        assert policy.launch_at(1099.0) == 1099.0   # inside again
        no_windows = ResponsePolicy(PolicyConfig(), db, ("xen", "kvm"))
        assert no_windows.launch_at(12345.0) == 12345.0

    def test_patch_closes_at(self, db):
        policy = ResponsePolicy(PolicyConfig(patch_application_days=2.0),
                                db, ("xen", "kvm"))
        with_timeline = _record("CVE-T", {"xen"}, days_to_patch=10)
        assert policy.patch_closes_at(with_timeline, 0.0) == 12 * DAY_S
        no_timeline = _record("CVE-U", {"xen"}, days_to_patch=None)
        assert policy.patch_closes_at(no_timeline, DAY_S) == \
            DAY_S + 62 * DAY_S

    def test_bad_policy_config_rejected(self):
        with pytest.raises(SentinelError):
            PolicyConfig(severity_gate="catastrophic")
        with pytest.raises(SentinelError):
            PolicyConfig(patch_application_days=-1.0)
        with pytest.raises(SentinelError):
            PolicyConfig(maintenance_window_every_s=100.0)  # no length
        with pytest.raises(SentinelError):
            PolicyConfig(maintenance_window_every_s=100.0,
                         maintenance_window_length_s=200.0)
        with pytest.raises(SentinelError):
            PolicyConfig(max_concurrent_campaigns=0)


class TestSentinelConfig:
    def test_payload_roundtrip(self):
        config = SentinelConfig(
            hosts=6, pool=("xen", "kvm", "nova"),
            feed=FeedSchedule(seed=9, limit=12),
            policy=PolicyConfig(severity_gate="medium"),
        )
        assert SentinelConfig.from_payload(config.to_payload()) == config

    def test_validation(self):
        with pytest.raises(SentinelError):
            SentinelConfig(hosts=0)
        with pytest.raises(SentinelError):
            SentinelConfig(current_hypervisor="esxi")
        with pytest.raises(SentinelError):
            SentinelConfig(policy=PolicyConfig(
                preferred_hypervisor="nova"))  # not in the default pool


def _small_config(**overrides):
    defaults = dict(
        hosts=6, vms_per_host=4, group_size=2, seed=11,
        feed=FeedSchedule(seed=11, limit=40, mean_gap_days=7.0),
    )
    defaults.update(overrides)
    return SentinelConfig(**defaults)


class TestSentinelRun:
    @pytest.fixture(scope="class")
    def report(self):
        return Sentinel(_small_config()).run()

    def test_every_cve_resolves(self, report):
        document = report.to_dict()
        assert document["counters"]["disclosures"] > 0
        for cve in document["cves"]:
            assert cve["remediation"] in ("not-exposed", "transplant",
                                          "patch")
            assert cve["window_days"] is not None
        assert document["inventory"]["open_cves"] == []

    def test_rerun_byte_identical(self, report):
        again = Sentinel(_small_config()).run()
        assert again.to_json() == report.to_json()

    def test_campaign_indices_are_dense_and_referenced(self, report):
        document = report.to_dict()
        campaigns = document["campaigns"]
        assert [c["index"] for c in campaigns] == list(range(len(campaigns)))
        for cve in document["cves"]:
            for index in cve["campaigns"]:
                assert campaigns[index]["trigger_cve"] == cve["cve_id"]

    def test_transplant_windows_beat_patch_cycle(self, report):
        windows = report.to_dict()["windows"]
        transplant = windows["transplant_percentiles_days"]
        patch = windows["patch_cycle_percentiles_days"]
        assert windows["transplant_count"] > 0
        assert transplant["p50"] < patch["p50"]
        assert transplant["max"] < patch["max"]

    def test_counters_match_campaign_records(self, report):
        document = report.to_dict()
        kinds = [c["kind"] for c in document["campaigns"]]
        counters = document["counters"]
        assert kinds.count("response") == counters["campaigns_launched"]
        assert kinds.count("return") == counters["returns_launched"]

    def test_metrics_registry_population(self, report):
        from repro.obs import MetricsRegistry

        registry = report.report_into(MetricsRegistry())
        snapshot = registry.snapshot()["metrics"]
        assert snapshot["sentinel_disclosures_total"]["value"] == \
            report.counters["disclosures"]
        assert "sentinel_cve_window_seconds" in snapshot

    def test_different_seed_differs(self, report):
        other = Sentinel(_small_config(
            seed=12, feed=FeedSchedule(seed=12, limit=40))).run()
        assert other.to_json() != report.to_json()


class TestSentinelWorkers:
    def test_worker_pool_output_byte_identical(self):
        from repro.par import run_sentinel

        payload = {"config": _small_config().to_payload()}
        serial = run_sentinel(payload, workers=1)
        parallel = run_sentinel(payload, workers=2)
        assert json.dumps(serial, sort_keys=True) == \
            json.dumps(parallel, sort_keys=True)
        inline = Sentinel(_small_config()).run()
        assert serial["document"] == inline.to_dict()


class TestSentinelJournal:
    def test_journal_files_and_identical_report(self, tmp_path):
        baseline = Sentinel(_small_config()).run()
        journaled = Sentinel(_small_config(),
                             journal_dir=str(tmp_path)).run()
        assert journaled.to_json() == baseline.to_json()
        journals = sorted(p.name for p in tmp_path.iterdir())
        launched = [c for c in baseline.to_dict()["campaigns"]
                    if c["launched_at_s"] is not None]
        assert journals == [f"campaign-{c['index']:03d}.journal"
                            for c in launched]


class TestPreemption:
    """The overlapping-disclosure scenario: a second critical flaw lands
    on the first response's target while its campaign is in flight."""

    def _run(self, gap_days):
        config = SentinelConfig(
            hosts=4, vms_per_host=4, group_size=2, seed=7,
            current_hypervisor="xen", pool=("xen", "kvm", "nova"),
            feed=FeedSchedule(seed=7, mean_gap_days=gap_days, jitter=0.0,
                              batch_probability=0.0,
                              duplicate_probability=0.0,
                              out_of_order_probability=0.0),
        )
        return Sentinel(config, db=PREEMPT_DB).run().to_dict()

    def test_mid_campaign_preemption_and_readvice(self):
        # 17 s gap: the xen->kvm response has committed some hosts when
        # the kvm flaw drops; the rest must be cancelled and re-advised.
        document = self._run(gap_days=0.0002)
        counters = document["counters"]
        assert counters["preemptions"] == 1
        first = document["campaigns"][0]
        assert first["kind"] == "response"
        assert first["target"] == "kvm"
        assert first["preempted_by"] == "CVE-2021-0002"
        assert first["preempted_at_s"] is not None
        assert 0 < first["hosts_remediated"] < first["hosts"]
        # Re-advice routes the remaining xen hosts around the flawed kvm,
        # and the hosts stranded on kvm get their own response.
        followups = {(c["source"], c["target"])
                     for c in document["campaigns"]
                     if c["kind"] == "response" and c["index"] > 0}
        assert ("xen", "nova") in followups
        assert ("kvm", "nova") in followups
        # Everyone ends up remediated by transplant, then returns home.
        for cve in document["cves"]:
            assert cve["remediation"] == "transplant"
        assert document["campaigns"][-1]["kind"] == "return"
        fleet = document["inventory"]["hosts"]
        assert all(h["kind"] == "xen" for h in fleet.values())

    def test_preemption_before_any_commit_cancels_whole_campaign(self):
        # 8 s gap: the flaw on the target lands before the first commit;
        # the campaign is cancelled outright and the target flaw never
        # gains an exposed host.
        document = self._run(gap_days=0.0001)
        assert document["counters"]["preemptions"] == 1
        first = document["campaigns"][0]
        assert first["hosts_remediated"] == 0
        assert first["preempted_by"] == "CVE-2021-0002"
        by_id = {c["cve_id"]: c for c in document["cves"]}
        assert by_id["CVE-2021-0002"]["remediation"] == "not-exposed"
        assert by_id["CVE-2021-0002"]["exposure_host_days"] == 0.0
        assert by_id["CVE-2021-0001"]["remediation"] == "transplant"

    def test_wide_gap_needs_no_preemption(self):
        document = self._run(gap_days=1.0)
        assert document["counters"]["preemptions"] == 0
        for cve in document["cves"]:
            assert cve["remediation"] == "transplant"


class TestResidual:
    def test_common_flaw_rides_the_patch_cycle(self):
        local = VulnerabilityDatabase([
            _record("CVE-COMMON", {"xen", "kvm"}),
        ])
        config = SentinelConfig(
            hosts=4, vms_per_host=4, group_size=2, seed=3,
            feed=FeedSchedule(seed=3, mean_gap_days=1.0),
        )
        document = Sentinel(config, db=local).run().to_dict()
        cve = document["cves"][0]
        assert cve["remediation"] == "patch"
        assert cve["residual"] is True
        assert cve["window_days"] == pytest.approx(12.0)  # 10 + 2 app
        assert document["counters"]["campaigns_launched"] == 0
        assert document["counters"]["residual_unresolved"] >= 1


class TestTraceBuilder:
    def test_trace_sentinel_spans(self):
        sentinel = Sentinel(_small_config())
        report = sentinel.run()
        document = json.loads(sentinel.timeline().to_chrome_trace())
        names = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert any(e["name"] == "feed replay" for e in names)
        # track "cve/<id>" exports as process "cve", thread "<id>"
        cve_tracks = {e["args"]["name"]
                      for e in document["traceEvents"]
                      if e["name"] == "thread_name"
                      and e["args"]["name"].startswith("CVE-")}
        assert len(cve_tracks) == len(report.cves)
