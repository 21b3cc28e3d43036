"""Benchmark harness: runs known-answer vectors through the guest
kernels, checks digests, and aggregates instruction statistics; each
outcome's cycles are its machine's counts priced by the call's CostModel,
and a group's are its outcomes' summed counts priced the same way. A
speedup (speedups) is a baseline's cycles over a round-unit strategy's,
in one variant and class; kernels.STRATEGY_TABLE says which strategy is
which.

Every vector runs on a fresh machine per strategy; the machines of one
run_benchmark call share one translation cache, so each kernel is
translated once per call.  Each message goes at kernels.MESSAGE_ADDR.
A digest mismatch, a guest fault, or a kernel or message that does not
fit in memory never aborts the batch; it lands in that vector's outcome
and the report's pass/fail/error tallies.  Vector classes follow the source
file identity (ShortMsg/LongMsg in the name) when present, else a
1024-bit threshold on the message length.

Reports serialize deterministically: identical inputs give byte-identical
JSON, CSV, and table output.
"""

import csv
import io
import json
from dataclasses import asdict, dataclass, field

from .cavp import BUNDLED_CLASSES
from .emulator import CostModel, EmulatorError, Machine, Translations, check_budget
from .isa import CATEGORIES
from .keccak import ROUNDS
from .kernels import (MESSAGE_ADDR, PERMUTE_REGION, STRATEGIES, STRATEGY_TABLE,
                      generate_kernel, select)
from .shatr import attach

__all__ = [
    "BenchGroup", "BenchReport", "VectorOutcome", "emit_report",
    "run_benchmark", "speedups", "vector_class",
]

DEFAULT_BUDGET = 10_000_000
DEFAULT_MEMORY_SIZE = 2 * 1024 * 1024


def vector_class(source, length_bits):
    """Short/long classification: file identity wins, else 1024 bits."""
    if "ShortMsg" in source:
        return "short"
    if "LongMsg" in source:
        return "long"
    return "short" if length_bits < 1024 else "long"


@dataclass(frozen=True)
class VectorOutcome:
    variant: str
    strategy: str
    msg_class: str
    index: int
    length_bits: int
    status: str          # pass | fail | error
    detail: str
    retired: int
    cycles: int


@dataclass
class BenchGroup:
    variant: str
    strategy: str
    msg_class: str
    vectors: int = 0
    passed: int = 0
    failed: int = 0
    errors: int = 0
    total_retired: int = 0
    total_cycles: int = 0
    counts: dict = field(default_factory=lambda: {c: 0 for c in CATEGORIES})
    region_entries: int = 0
    region_counts: dict = field(default_factory=lambda: {c: 0 for c in CATEGORIES})

    @property
    def mix_percent(self):
        if not self.total_retired:
            return {c: 0.0 for c in CATEGORIES}
        return {c: round(100.0 * n / self.total_retired, 2)
                for c, n in self.counts.items()}

    @property
    def per_round_instructions(self):
        if not self.region_entries:
            return 0.0
        return round(sum(self.region_counts.values()) / (ROUNDS * self.region_entries), 3)


@dataclass
class BenchReport:
    cost_model: dict
    groups: list
    speedups: list       # of {"variant", "class", "baseline", "speedup"}
    outcomes: list


def _run_one(kernel, strategy, vector, memory_size, budget, translations):
    """Run one vector on a fresh machine; returns (status, detail, machine)."""
    m = Machine(memory_size=memory_size, translations=translations)
    if STRATEGY_TABLE[strategy].round_unit:
        attach(m)
    try:
        m.load_program(kernel)
        end = MESSAGE_ADDR + len(vector.message)
        if end > memory_size:
            return "error", f"message of {len(vector.message)} bytes does not fit", m
        m.memory[MESSAGE_ADDR:end] = vector.message
        m.regs[10] = len(vector.message)
        status = m.run(max_instructions=budget)
    except EmulatorError as e:
        return "error", str(e), m
    if status != 0:
        return "error", f"guest exited with status {status}", m
    if not m.emitted:
        return "error", "guest exited without emitting a digest", m
    if m.emitted[0] != vector.digest:
        return "fail", (f"digest mismatch: got {m.emitted[0].hex()}, "
                        f"expected {vector.digest.hex()}"), m
    return "pass", "", m


def run_benchmark(vector_sets, strategies=STRATEGIES, cost_model=None, *,
                  memory_size=DEFAULT_MEMORY_SIZE, budget=DEFAULT_BUDGET):
    """Run every vector under every strategy and aggregate the results."""
    strategies = select(strategies)
    check_budget(budget)
    cost_model = CostModel() if cost_model is None else cost_model
    if not isinstance(cost_model, CostModel):
        raise ValueError(f"cost_model must be a CostModel, got {cost_model!r}")

    kernels, routines, groups, indices = {}, {}, {}, {}
    translations = Translations()
    outcomes = []

    for vs in vector_sets:
        for vector in vs.vectors:
            msg_class = vector_class(vs.source, vector.length_bits)
            index = indices.get((vs.variant, msg_class), 0)
            indices[(vs.variant, msg_class)] = index + 1
            for strategy in strategies:
                key = (vs.variant, strategy)
                if key not in kernels:
                    kernels[key] = generate_kernel(strategy, vs.variant, routines)
                status, detail, m = _run_one(
                    kernels[key], strategy, vector, memory_size, budget,
                    translations)
                stats = m.stats
                outcomes.append(VectorOutcome(
                    vs.variant, strategy, msg_class, index, vector.length_bits,
                    status, detail, stats.total_retired, cost_model.cycles(stats.counts)))
                g = groups.setdefault(
                    (vs.variant, strategy, msg_class),
                    BenchGroup(vs.variant, strategy, msg_class))
                g.vectors += 1
                g.passed += status == "pass"
                g.failed += status == "fail"
                g.errors += status == "error"
                g.total_retired += stats.total_retired
                for cat, n in stats.counts.items():
                    g.counts[cat] += n
                g.region_entries += stats.region_entry_count.get(PERMUTE_REGION, 0)
                for cat, n in stats.regions.get(PERMUTE_REGION, {}).items():
                    g.region_counts[cat] += n

    # cycles are linear in the counts, so a group's are its counts priced
    for g in groups.values():
        g.total_cycles = cost_model.cycles(g.counts)

    def order(x):   # a group or an outcome
        return x.variant, strategies.index(x.strategy), BUNDLED_CLASSES.index(x.msg_class)

    sorted_groups = sorted(groups.values(), key=order)
    outcomes.sort(key=lambda o: (*order(o), o.index))
    return BenchReport(cost_model=asdict(cost_model), groups=sorted_groups,
                       speedups=speedups(sorted_groups, strategies), outcomes=outcomes)


def speedups(groups, strategies):
    """{"variant", "class", "baseline", "speedup"} per group of a round-unit
    strategy with cycles and per baseline in `strategies` with cycles in
    its variant and class: the baseline's cycles over the group's."""
    baselines = [s for s in strategies if not STRATEGY_TABLE[s].round_unit]
    cycles = {(g.variant, g.msg_class, g.strategy): g.total_cycles for g in groups}
    return [
        {"variant": g.variant, "class": g.msg_class, "baseline": baseline,
         "speedup": round(other / g.total_cycles, 3)}
        for g in groups if g.total_cycles and STRATEGY_TABLE[g.strategy].round_unit
        for baseline in baselines
        if (other := cycles.get((g.variant, g.msg_class, baseline)))]


def _group_dict(g):
    return {
        "variant": g.variant,
        "strategy": g.strategy,
        "class": g.msg_class,
        "vectors": g.vectors,
        "passed": g.passed,
        "failed": g.failed,
        "errors": g.errors,
        "total_retired": g.total_retired,
        "total_cycles": g.total_cycles,
        "counts": dict(g.counts),
        "mix_percent": g.mix_percent,
        "region_entries": g.region_entries,
        "region_counts": dict(g.region_counts),
        "per_round_instructions": g.per_round_instructions,
    }


def _outcome_dict(o):
    return {
        "variant": o.variant,
        "strategy": o.strategy,
        "class": o.msg_class,
        "index": o.index,
        "length_bits": o.length_bits,
        "status": o.status,
        "detail": o.detail or None,
        "retired": o.retired,
        "cycles": o.cycles,
    }


_CSV_HEADER = (
    ["variant", "strategy", "class", "vectors", "passed", "failed", "errors",
     "total_retired", "total_cycles", "per_round_instructions"]
    + [f"pct_{c}" for c in CATEGORIES])


def emit_report(report, fmt="json"):
    """Serialize a report as json, csv, or an aligned text table."""
    if fmt == "json":
        doc = {
            "cost_model": report.cost_model,
            "groups": [_group_dict(g) for g in report.groups],
            "speedups": report.speedups,
            "vectors": [_outcome_dict(o) for o in report.outcomes],
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        w = csv.writer(out, lineterminator="\n")
        w.writerow(_CSV_HEADER)
        for g in report.groups:
            mix = g.mix_percent
            w.writerow([g.variant, g.strategy, g.msg_class, g.vectors,
                        g.passed, g.failed, g.errors, g.total_retired,
                        g.total_cycles, g.per_round_instructions]
                       + [mix[c] for c in CATEGORIES])
        return out.getvalue()
    if fmt == "table":
        return _format_table(report)
    raise ValueError(f"unknown report format {fmt!r}")


def _format_table(report):
    rows = [["variant", "class", "strategy", "vecs", "pass", "fail", "err",
             "retired", "cycles", "per-round"]]
    for g in report.groups:
        rows.append([g.variant, g.msg_class, g.strategy, str(g.vectors),
                     str(g.passed), str(g.failed), str(g.errors),
                     str(g.total_retired), str(g.total_cycles),
                     f"{g.per_round_instructions:.1f}"])
    lines = _align(rows)
    lines.append("")
    unit = "/".join(s for s, row in STRATEGY_TABLE.items() if row.round_unit)
    lines.append(f"speedup vs {unit} (total cycles):")
    srows = [["variant", "class", "baseline", "speedup"]] + [
        [s["variant"], s["class"], s["baseline"], f"{s['speedup']:.2f}x"]
        for s in report.speedups]
    roles = {STRATEGY_TABLE[g.strategy].round_unit for g in report.groups}
    if report.speedups:
        lines += _align(srows)
    elif len(roles) == 2:   # a strategy with the unit ran, and one without
        lines.append(f"  (no class has cycles under both {unit} and a software "
                     "strategy: see the err column)")
    else:
        lines.append(f"  (needs {unit} plus at least one software strategy)")
    return "".join(line + "\n" for line in lines)


def _align(rows):
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
            for r in rows]
