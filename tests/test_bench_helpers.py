"""Tests for the bench harness helpers and report formatting."""


from repro.bench.report import (
    format_series,
    format_table,
    main as report_main,
    print_experiment,
    write_bench_json,
)
from repro.bench.runner import (
    inplace_breakdown,
    inplace_sweep,
    make_host,
    make_host_pair,
    migration_sweep,
)
from repro.hw.machine import M1_SPEC
from repro.hypervisors.base import HypervisorKind


class TestReport:
    def test_format_table_aligns(self):
        text = format_table(["name", "value"],
                            [["alpha", 1.0], ["b", 123.456]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert "alpha" in lines[3]
        assert "123.5" in lines[4]

    def test_format_series(self):
        text = format_series("s", [1, 2], [10.0, 20.0],
                             x_label="n", y_label="sec")
        assert "n" in text and "sec" in text

    def test_print_experiment(self, capsys):
        print_experiment("Fig. 0", "nothing", "body")
        out = capsys.readouterr().out
        assert "Fig. 0" in out and "body" in out

    def test_cmp_names_every_differing_field(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        write_bench_json(a, {"cells": {"fleet-5k": {"events": 7}},
                             "digests": ["x", "y", "z"], "seed": 7})
        write_bench_json(b, {"cells": {"fleet-5k": {"events": 5}, "new": 1},
                             "digests": ["x", "q"], "seed": 7})
        assert report_main(["cmp", a, b]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"cmp: payloads differ between {a} and {b}",
            '  payload.cells["fleet-5k"].events: 7 vs 5',
            "  payload.cells.new: (missing) vs 1",
            '  payload.digests[1]: "y" vs "q"',
            '  payload.digests[2]: "z" vs (missing)',
        ]
        assert report_main(["cmp", a, a]) == 0
        assert capsys.readouterr().out.startswith("payloads identical")


class TestRunner:
    def test_make_xen_host(self):
        machine = make_host(M1_SPEC, HypervisorKind.XEN, vm_count=2, vcpus=2)
        assert machine.hypervisor.kind is HypervisorKind.XEN
        assert len(machine.hypervisor.domains) == 2

    def test_make_kvm_host_has_24_pin_guests(self):
        machine = make_host(M1_SPEC, HypervisorKind.KVM, vm_count=1)
        domain = next(iter(machine.hypervisor.domains.values()))
        assert domain.vm.platform.ioapic.pin_count == 24

    def test_make_host_pair_connected(self):
        source, destination, fabric = make_host_pair(
            M1_SPEC, HypervisorKind.KVM
        )
        assert fabric.connected(source, destination)
        assert destination.hypervisor.kind is HypervisorKind.KVM

    def test_inplace_breakdown_both_directions(self):
        to_kvm = inplace_breakdown(M1_SPEC, HypervisorKind.KVM)
        to_xen = inplace_breakdown(M1_SPEC, HypervisorKind.XEN)
        assert to_kvm.target == "kvm"
        assert to_xen.target == "xen"
        assert to_xen.reboot_s > to_kvm.reboot_s

    def test_inplace_sweep_shapes(self):
        sweep = inplace_sweep(M1_SPEC, HypervisorKind.KVM,
                              vcpu_points=[1, 2], memory_points=[1.0],
                              vm_count_points=[1, 2])
        assert len(sweep["vcpus"]) == 2
        assert len(sweep["memory_gib"]) == 1
        assert sweep["vm_count"][1].vm_count == 2

    def test_migration_sweep_reaches_nova(self):
        sweep = migration_sweep(M1_SPEC, HypervisorKind.NOVA, [1], [], [])
        [[report]] = sweep["vcpus"]
        assert report.destination == "bench-dst/nova"
        assert report.heterogeneous

    def test_migration_sweep_shapes(self):
        sweep = migration_sweep(M1_SPEC, HypervisorKind.KVM,
                                vcpu_points=[1], memory_points=[1.0],
                                vm_count_points=[2])
        assert len(sweep["vcpus"][0]) == 1
        assert len(sweep["vm_count"][0]) == 2
