"""Shape assertions over the benchmark harness outputs.

Each test runs a bench module's ``run()`` and checks the properties the
paper's corresponding artifact exhibits — the executable form of
EXPERIMENTS.md.  (The heavyweight sweep benches are covered by their own
pytest-benchmark runs; here we check the cheap ones end to end.)
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def load_bench(name):
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    return importlib.import_module(name)


class TestTable1Bench:
    def test_rows_match_paper(self):
        bench = load_bench("bench_table1_vulnerabilities")
        _, rows = bench.build_table1()
        assert rows[0] == [2013, 3, 38, 3, 21, 0, 0]
        assert rows[2] == [2015, 11, 20, 1, 4, 1, 2]
        total = rows[-1]
        assert total[0] == "Total"
        assert total[1] == 55 and total[3] == 13

    def test_render_includes_window_stats(self):
        bench = load_bench("bench_table1_vulnerabilities")
        text = bench.render()
        assert "mean=71d" in text
        assert "min=8d" in text and "max=180d" in text


class TestFig6Bench:
    def test_measured_within_tolerance_of_paper(self):
        bench = load_bench("bench_fig6_inplace_breakdown")
        rows = bench.run()
        for _machine, phase, measured, paper in rows:
            if phase == "Network":
                assert measured == paper
            elif phase == "downtime":
                assert measured == pytest.approx(paper, rel=0.15)
            else:
                assert measured == pytest.approx(paper, abs=0.12)


class TestTable4Bench:
    def test_ratio_and_totals(self):
        bench = load_bench("bench_table4_migration_baseline")
        rows = bench.run()
        downtime_row = rows[0]
        assert downtime_row[1] > 10 * downtime_row[3]  # Xen >> MigrationTP
        time_row = rows[1]
        assert time_row[1] == pytest.approx(time_row[3], rel=0.1)


class TestTable5Bench:
    def test_degradations_low_single_digits(self):
        bench = load_bench("bench_table5_spec")
        rows = bench.run()
        max_row = rows[-1]
        assert max_row[0] == "MAX"
        assert 0 < max_row[4] < 7.0  # InPlaceTP max deg %
        assert 0 < max_row[6] < 7.0  # MigrationTP max deg %
        assert len(rows) == 24  # 23 apps + MAX


class TestTable6Bench:
    def test_ordering_matches_paper(self):
        bench = load_bench("bench_table6_darknet")
        rows = bench.run()
        by_name = {row[0]: row for row in rows}
        default_longest = by_name["Default"][2]
        assert by_name["MigrationTP"][2] > default_longest
        assert by_name["Xen migration"][2] > by_name["MigrationTP"][2]
        assert by_name["InPlaceTP"][2] > by_name["Xen migration"][2]
        assert by_name["InPlaceTP"][2] == pytest.approx(4.97, abs=0.6)


class TestFig13Bench:
    def test_monotone_decline(self):
        bench = load_bench("bench_fig13_cluster")
        rows = bench.run()
        migrations = [row[1] for row in rows]
        assert migrations == sorted(migrations, reverse=True)
        assert migrations[0] > 100  # re-migrations at 0 %


class TestFig14Bench:
    def test_pram_exact_anchors(self):
        bench = load_bench("bench_fig14_memory_overhead")
        rows = bench.run()
        values = {(row[0], row[1]): row[2] for row in rows}
        assert values[("PRAM vs memory", "1 GiB")] == 16.0
        assert values[("PRAM vs memory", "12 GiB")] == 60.0
        assert values[("PRAM vs #VMs", "12 VMs")] == 148.0

    def test_uisr_linear(self):
        bench = load_bench("bench_fig14_memory_overhead")
        rows = [r for r in bench.run() if r[0] == "UISR vs vCPUs"]
        sizes = [r[2] for r in rows]
        assert sizes == sorted(sizes)
        assert sizes[-1] > 5 * sizes[0]


class TestSurfaceBench:
    def test_escape_fractions_high(self):
        bench = load_bench("bench_section2_surface")
        rows = bench.run()
        escapes = [r for r in rows if str(r[0]).startswith("escape")]
        assert len(escapes) == 6  # all ordered pairs in a 3-pool
        for row in escapes:
            fraction = float(row[3].rstrip("%"))
            assert fraction > 90.0


class TestFleetWindowBench:
    def test_smoke_sweep_shape(self, tmp_path):
        import json

        bench = load_bench("bench_fleet_window")
        results, stats = bench.run(smoke=True)
        entries = [r["entry"] for r in results]
        assert [entry["hosts"] for entry in entries] == [10] * 6
        assert [entry["fail_rate"] for entry in entries] == \
            [0.0, 0.01, 0.05, 0.0, 0.0, 0.0]
        assert [entry["mechanism"] for entry in entries] == \
            ["hybrid"] * 3 + ["inplace", "migration", "auto"]
        for result, entry in zip(results, entries, strict=True):
            assert entry["done_hosts"] + entry["rolled_back_hosts"] == 10
            assert result["wall_s"] >= 0
            assert "wall_s" not in entry  # volatile values stay out
            mix = entry["mechanism_mix"]
            assert sum(kind["hosts"] for kind in mix.values()) == 10
            if entry["percentiles_s"]:
                pct = entry["percentiles_s"]
                assert pct["p50"] <= pct["p95"] <= pct["p99"] <= pct["max"]
        by_mechanism = {e["mechanism"]: e for e in entries
                        if e["fail_rate"] == 0.0}
        assert by_mechanism["inplace"]["migrations_executed"] == 0
        assert (by_mechanism["migration"]["migrations_executed"]
                > by_mechanism["hybrid"]["migrations_executed"])
        path = bench.write_json(results, tmp_path / "BENCH_fleet_window.json",
                                stats=stats)
        document = json.loads(Path(path).read_text())
        assert document["format"] == "hypertp-bench-artifact"
        assert document["payload"]["format"] == "hypertp-bench-fleet-window"
        assert len(document["payload"]["results"]) == 6
        assert document["meta"]["workers"] == 1
        assert "host_env" in document["meta"]
        assert "wall_s" in document["meta"]

    def test_parallel_artifact_payload_matches_serial(self, tmp_path):
        from repro.bench.report import payloads_equal, read_bench_json

        bench = load_bench("bench_fleet_window")
        serial_results, serial_stats = bench.run(smoke=True, workers=1)
        parallel_results, parallel_stats = bench.run(smoke=True, workers=2)
        serial = bench.write_json(serial_results, tmp_path / "serial.json",
                                  workers=1, stats=serial_stats)
        parallel = bench.write_json(parallel_results,
                                    tmp_path / "parallel.json",
                                    workers=2, stats=parallel_stats)
        assert payloads_equal(read_bench_json(str(serial)),
                              read_bench_json(str(parallel)))


class TestAblationBench:
    def test_huge_pages_dominate(self):
        bench = load_bench("bench_ablation_optimizations")
        rows = bench.run()
        by_label = {row[0]: row for row in rows}
        baseline = by_label["all enabled"][1]
        assert by_label["-huge_pages"][1] > 50 * baseline
        assert by_label["all disabled"][1] > by_label["-huge_pages"][1]
        for label in ("-prepare_ahead", "-parallel", "-early_restoration"):
            assert by_label[label][1] > baseline


class TestIOThroughputBench:
    def test_smoke_sweep_shape(self, tmp_path):
        import json

        bench = load_bench("bench_io_throughput")
        results, walls = bench.run(smoke=True)
        assert [entry["pages"] for entry in results["pages"]] == [512, 512]
        dup_heavy, unique = results["pages"]
        assert dup_heavy["dedup_ratio"] > 1.0
        assert dup_heavy["dedup_hits"] > 0
        assert unique["dedup_hits"] == 0
        assert dup_heavy["encoded_bytes"] < unique["encoded_bytes"]
        for entry in results["pram_entries"]:
            assert entry["coalesce_ratio"] > 1.0
        path = bench.write_json(results, tmp_path / "BENCH_io_throughput.json")
        document = json.loads(Path(path).read_text())
        assert document["format"] == "hypertp-bench-io-throughput"

    def test_json_is_deterministic(self, tmp_path):
        # Acceptance bar: byte-identical artifacts across two seeded runs
        # (no wall-clock values may leak into the JSON document).
        bench = load_bench("bench_io_throughput")
        first = Path(bench.write_json(bench.run(smoke=True)[0],
                                      tmp_path / "first.json"))
        second = Path(bench.write_json(bench.run(smoke=True)[0],
                                       tmp_path / "second.json"))
        assert first.read_bytes() == second.read_bytes()
