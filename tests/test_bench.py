"""Benchmark harness: per-vector outcomes, aggregation, speedups, and
deterministic report serialization."""

import csv
import dataclasses
import hashlib
import io
import json
import re

import pytest

from shatrv import bench, kernels
from shatrv.asm import assemble
from shatrv.bench import BenchReport, emit_report, run_benchmark
from shatrv.cavp import CavpVector, CavpVectorSet, load_bundled
from shatrv.emulator import CostModel, Machine
from shatrv.kernels import STRATEGIES


def make_set(variant, lengths, source="inline"):
    algo = variant.replace("-", "_")
    vectors = []
    for n, length in enumerate(lengths):
        msg = bytes((7 * n + i) & 0xFF for i in range(length))
        vectors.append(CavpVector(length * 8, msg, hashlib.new(algo, msg).digest()))
    return CavpVectorSet(variant=variant, source=source, vectors=vectors)


SMALL = make_set("sha3-256", [0, 17, 136], source="SHA3_256ShortMsg.rsp")


class TestRunBenchmark:
    def test_all_strategies_pass(self):
        report = run_benchmark([SMALL])
        assert all(o.status == "pass" for o in report.outcomes)
        assert len(report.outcomes) == 3 * len(STRATEGIES)
        assert {g.strategy for g in report.groups} == set(STRATEGIES)
        for g in report.groups:
            assert g.vectors == 3 and g.passed == 3
            assert sum(g.counts.values()) == g.total_retired
            assert abs(sum(g.mix_percent.values()) - 100.0) < 0.1

    def test_class_split_by_source_name(self):
        short = make_set("sha3-256", [200], source="SHA3_256ShortMsg.rsp")
        long_ = make_set("sha3-256", [16], source="SHA3_256LongMsg.rsp")
        report = run_benchmark([short, long_], strategies=("shatr",))
        classes = {(o.msg_class, o.length_bits) for o in report.outcomes}
        assert classes == {("short", 1600), ("long", 128)}

    def test_class_split_by_threshold(self):
        report = run_benchmark([make_set("sha3-256", [8, 500])], strategies=("shatr",))
        assert {o.msg_class for o in report.outcomes} == {"short", "long"}

    def test_per_round_ordering(self):
        report = run_benchmark([SMALL])
        per_round = {g.strategy: g.per_round_instructions for g in report.groups}
        assert per_round["shatr"] < per_round["sw-regopt"] < per_round["sw-mem"]
        assert per_round["shatr"] * 4 <= per_round["sw-regopt"]

    def test_speedups(self):
        report = run_benchmark([SMALL])
        by_baseline = {s["baseline"]: s["speedup"] for s in report.speedups}
        assert by_baseline["sw-mem"] > by_baseline["sw-regopt"] > 1.0

    def test_no_speedups_without_shatr_baseline(self):
        report = run_benchmark([SMALL], strategies=("sw-mem",))
        assert report.speedups == []

    def test_exactly_24_custom_per_entry(self):
        report = run_benchmark([SMALL], strategies=("shatr",))
        g = report.groups[0]
        assert g.region_counts["custom"] == 24 * g.region_entries
        assert g.region_counts["csr"] == 50 * g.region_entries

    def test_wrong_digest_is_a_fail_not_an_abort(self):
        bad = CavpVectorSet("sha3-256", "inline", [
            CavpVector(0, b"", bytes(32)),
            SMALL.vectors[1],
        ])
        report = run_benchmark([bad], strategies=("shatr",))
        statuses = [o.status for o in report.outcomes]
        assert statuses.count("fail") == 1
        assert statuses.count("pass") == 1
        g = report.groups[0]
        assert (g.passed, g.failed, g.errors) == (1, 1, 0)

    @pytest.mark.parametrize("patch, detail", [
        (bytes(4), "unsupported opcode"),
        (assemble("li a7, 9\necall").code, "unknown hypercall 9"),
        (assemble("li a0, 5\nli a7, 2\necall").code,
         "region 5 ended without begin"),
        # the emit check reads the length of the machine's memory view
        (assemble(f"li a0, {bench.DEFAULT_MEMORY_SIZE - 16}\nli a1, 32\n"
                  "li a7, 3\necall").code,
         f"emit of 32 bytes at {bench.DEFAULT_MEMORY_SIZE - 16:#x} outside memory"),
    ], ids=["undecodable-word", "unknown-hypercall", "region-end-without-begin",
            "emit-outside-memory"])
    def test_a_faulting_kernel_is_an_error_not_an_abort(
            self, monkeypatch, patch, detail):
        # the sha3-224 kernel starts with the patch, which faults; the
        # sha3-256 vectors after it still run
        real = bench.generate_kernel

        def kernel(strategy, variant, *routines):
            k = real(strategy, variant, *routines)
            if variant == "sha3-224":
                k = dataclasses.replace(k, code=patch + k.code[len(patch):])
            return k

        monkeypatch.setattr(bench, "generate_kernel", kernel)
        broken = make_set("sha3-224", [0, 17])
        report = run_benchmark([broken, SMALL], strategies=("sw-mem",))
        statuses = [(o.variant, o.status) for o in report.outcomes]
        assert statuses == [("sha3-224", "error")] * 2 + [("sha3-256", "pass")] * 3
        assert all(detail in o.detail
                   for o in report.outcomes if o.status == "error")

    @pytest.mark.parametrize("memory_size, detail", [
        (8192, "exceeds memory"),                 # no kernel's code fits
        (1 << 20, "data segment at 0x100000"),    # the code fits, its data not
    ], ids=["code", "data"])
    def test_a_kernel_that_does_not_fit_is_an_error_not_an_abort(
            self, memory_size, detail):
        report = run_benchmark([SMALL], memory_size=memory_size)
        assert len(report.outcomes) == 3 * len(STRATEGIES)
        assert all(o.status == "error" and detail in o.detail
                   for o in report.outcomes)
        assert all(g.errors == g.vectors for g in report.groups)

    def test_budget_exhaustion_is_an_error_outcome(self):
        report = run_benchmark([SMALL], strategies=("sw-mem",), budget=100)
        assert all(o.status == "error" for o in report.outcomes)
        assert all(o.detail for o in report.outcomes)

    @pytest.mark.parametrize("budget", [-1, 1.5, "3", True])
    def test_a_bad_budget_is_refused_before_any_kernel(self, monkeypatch, budget):
        def kernel(*args):
            raise AssertionError("kernel generated")

        monkeypatch.setattr(bench, "generate_kernel", kernel)
        with pytest.raises(ValueError) as from_bench:
            run_benchmark([SMALL], budget=budget)
        with pytest.raises(ValueError) as from_run:
            Machine(memory_size=1 << 16).run(max_instructions=budget)
        assert (str(from_bench.value) == str(from_run.value)
                == f"budget must be None or a non-negative int, got {budget!r}")

    @pytest.mark.parametrize("cost_model, message", [
        ("x", "cost_model must be a CostModel, got 'x'"),
        ({}, "cost_model must be a CostModel"),
    ], ids=["cost-model-str", "cost-model-dict"])
    def test_a_bad_cost_model_is_refused(self, cost_model, message):
        with pytest.raises(ValueError, match=message):
            run_benchmark([SMALL], strategies=("shatr",), cost_model=cost_model)

    def test_no_budget_means_no_limit(self):
        report = run_benchmark([SMALL], strategies=("shatr",), budget=None)
        assert all(o.status == "pass" for o in report.outcomes)

    def test_strategies_may_be_any_iterable(self):
        # a generator is read once, so the names it gives still run
        report = run_benchmark([SMALL], strategies=(s for s in ("shatr", "sw-mem")))
        assert [g.strategy for g in report.groups] == ["sw-mem", "shatr"]

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark([SMALL], strategies=("hw",))

    def test_cost_model_scales_cycles(self):
        flat = run_benchmark([SMALL], strategies=("shatr",))
        slow = run_benchmark([SMALL], strategies=("shatr",),
                             cost_model=CostModel(extra_mem_access_cycles=4))
        g0, g1 = flat.groups[0], slow.groups[0]
        mem_ops = g0.counts["mem_read"] + g0.counts["mem_write"]
        assert g1.total_cycles == g0.total_cycles + 4 * mem_ops
        assert g1.total_retired == g0.total_retired

    def test_a_group_s_cycles_are_the_sum_of_its_outcomes(self):
        # a group prices its summed counts once; under a model that prices
        # loads, stores and shatr apart, that must equal the sum of what
        # its outcomes' own counts cost
        report = run_benchmark([SMALL, make_set("sha3-512", [1, 72, 300])],
                               cost_model=CostModel(extra_mem_access_cycles=2,
                                                    shatr_cycles=4))
        for g in report.groups:
            key = g.variant, g.strategy, g.msg_class
            mine = [o.cycles for o in report.outcomes
                    if (o.variant, o.strategy, o.msg_class) == key]
            assert len(mine) == g.vectors > 0
            assert g.total_cycles == sum(mine) > g.total_retired
        assert report.speedups == bench.speedups(report.groups, STRATEGIES)


class TestStrategyTable:
    """Test-only rows: a strategy is one row of kernels.STRATEGY_TABLE, and
    bench takes its role from the row alone."""

    @pytest.fixture
    def attached(self, monkeypatch):
        """Add the test rows; returns the machines bench attaches a unit to.
        After the stock rows come a second unit strategy, a second baseline,
        and sw-mem's kernel in the unit's role (it never touches the unit)."""
        table = kernels.STRATEGY_TABLE
        monkeypatch.setitem(table, "shatr-2", table["shatr"])
        monkeypatch.setitem(table, "sw-mem-2", table["sw-mem"])
        monkeypatch.setitem(table, "sw-mem-unit", table["sw-mem"]._replace(round_unit=True))
        attached = []
        real = bench.attach

        def attach(m):
            attached.append(m)
            return real(m)

        monkeypatch.setattr(bench, "attach", attach)
        return attached

    def test_a_row_runs_only_when_selected(self, attached):
        stock = run_benchmark([SMALL], strategies=("sw-mem", "shatr"))
        assert [g.strategy for g in stock.groups] == ["sw-mem", "shatr"]
        report = run_benchmark([SMALL], strategies=("sw-mem-2", "shatr-2", "sw-mem"))
        assert [g.strategy for g in report.groups] == ["sw-mem", "shatr-2", "sw-mem-2"]
        assert all(o.status == "pass" for o in report.outcomes)

    @pytest.mark.parametrize("strategy, attaches", [
        ("shatr-2", 3), ("sw-mem-2", 0), ("sw-mem-unit", 3), ("sw-regopt", 0),
    ])
    def test_the_unit_is_attached_exactly_when_the_row_says(
            self, attached, strategy, attaches):
        report = run_benchmark([SMALL], strategies=(strategy,))
        assert len(attached) == attaches
        assert all(o.status == "pass" for o in report.outcomes)

    def test_each_unit_row_gets_a_speedup_against_each_baseline_that_ran(self, attached):
        names = ("sw-regopt", "sw-mem", "shatr", "shatr-2", "sw-mem-2", "sw-mem-unit")
        report = run_benchmark([SMALL], strategies=names)
        cycles = {g.strategy: g.total_cycles for g in report.groups}
        pairs = [(unit, base) for unit in ("shatr", "shatr-2", "sw-mem-unit")
                 for base in ("sw-regopt", "sw-mem", "sw-mem-2")]
        assert [(s["variant"], s["class"], s["baseline"], s["speedup"])
                for s in report.speedups] == [
            ("sha3-256", "short", base, round(cycles[base] / cycles[unit], 3))
            for unit, base in pairs]
        # the stock rows alone give the stock report's speedups
        stock = run_benchmark([SMALL])
        assert report.speedups[:2] == stock.speedups

    def test_the_table_note_names_every_unit_row(self, attached):
        report = run_benchmark([SMALL], strategies=("shatr-2",))
        assert emit_report(report, "table").endswith(
            "speedup vs shatr/shatr-2/sw-mem-unit (total cycles):\n"
            "  (needs shatr/shatr-2/sw-mem-unit plus at least one software strategy)\n")
        report = run_benchmark([SMALL], strategies=("sw-mem-2", "sw-mem-unit"),
                               memory_size=8192)
        assert "(no class has cycles under both shatr/shatr-2/sw-mem-unit and" \
            in emit_report(report, "table")

    @pytest.mark.parametrize("name", ["hw", "shatr-3", ["shatr"], {}, None],
                             ids=["unknown", "near-miss", "list", "dict", "none"])
    def test_an_unknown_or_unhashable_name_lists_the_choices(self, attached, name):
        choices = repr(tuple(kernels.STRATEGY_TABLE))
        assert "'shatr-2'" in choices
        message = f"unknown strategy {name!r}, expected one of {choices}"
        for call in (lambda: run_benchmark([SMALL], strategies=(name,)),
                     lambda: kernels.generate_kernel(name, "sha3-256")):
            with pytest.raises(ValueError, match=re.escape(message)):
                call()


class TestEmitReport:
    def test_json_round_trip_and_determinism(self):
        report = run_benchmark([SMALL])
        blob = emit_report(report, "json")
        again = emit_report(run_benchmark([SMALL]), "json")
        assert blob == again
        doc = json.loads(blob)
        assert set(doc) == {"cost_model", "groups", "speedups", "vectors"}
        assert len(doc["groups"]) == len(report.groups)
        assert all(v["status"] == "pass" for v in doc["vectors"])

    def test_csv_row_count(self):
        report = run_benchmark([SMALL])
        rows = list(csv.reader(io.StringIO(emit_report(report, "csv"))))
        assert rows[0][0] == "variant"
        assert len(rows) == 1 + len(report.groups)

    def test_table_mentions_every_group(self):
        report = run_benchmark([SMALL])
        text = emit_report(report, "table")
        for g in report.groups:
            assert g.strategy in text
        assert "speedup" in text

    @pytest.mark.parametrize("kwargs, note", [
        # every strategy ran, and every outcome is an error with 0 cycles
        ({"memory_size": 8192}, "(no class has cycles under both shatr and a "
                                "software strategy: see the err column)"),
        ({"strategies": ("sw-regopt", "sw-mem")},
         "(needs shatr plus at least one software strategy)"),
        ({"strategies": ("shatr",)},
         "(needs shatr plus at least one software strategy)"),
    ], ids=["no-cycles", "no-shatr", "no-software"])
    def test_table_names_why_there_is_no_speedup(self, kwargs, note):
        report = run_benchmark([SMALL], **kwargs)
        assert report.speedups == []
        assert emit_report(report, "table").endswith(
            "speedup vs shatr (total cycles):\n  " + note + "\n")

    def test_empty_report_serializes_everywhere(self):
        report = run_benchmark([])
        assert isinstance(report, BenchReport)
        assert json.loads(emit_report(report, "json"))["groups"] == []
        assert emit_report(report, "csv").startswith("variant")
        assert emit_report(report, "table")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(run_benchmark([]), "yaml")


class TestBundledIntegration:
    def test_short_bundle_end_to_end(self):
        vs = load_bundled("sha3-512", "short")
        report = run_benchmark([vs])
        assert all(o.status == "pass" for o in report.outcomes)
        assert {g.msg_class for g in report.groups} == {"short"}
