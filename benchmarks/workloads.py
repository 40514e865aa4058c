"""The benchmark's workloads and the closed loop that times them.

One caller in one process runs each iteration to completion before the
next starts. An iteration goes from a workload's OpenQASM text to its final
state (or, for the partition workload, its final partition): ``parse_qasm``,
``build_dag``, partition, then execution in the workload's mode, each called
through its module attribute the way ``hisim run`` calls it. Every iteration
is then checked outside the timed region; checks are never skipped.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from hisim import dag, dist, hier, partition, qasm, statevec
from hisim.errors import PartitionError

import circuits

#: the flat comparison tolerance of ``hisim run --verify``
VERIFY_ATOL = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    num_qubits: int
    depth: int
    mode: str  # "hierarchical", "multilevel", "distributed" or "partition"
    limit: int
    limit2: int | None = None
    rank_bits: int | None = None
    why: str = ""

    @property
    def has_state(self) -> bool:
        return self.mode != "partition"

    def text(self, seed: int) -> str:
        return circuits.qasm_text(self.family, self.num_qubits, self.depth, seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ising20-hier", "ising", 20, 2, "hierarchical", 14,
            why="execution-bound hierarchical run with a light partition; "
                "shows kernel and cache-blocking gains and bypasses dist",
        ),
        Workload(
            "qft20-dist", "qft", 20, 0, "distributed", 14, rank_bits=2,
            why="the only workload with layout switches, with mixed gate "
                "strides including swap and crz; shows redistribution costs",
        ),
        Workload(
            "qaoa20-multilevel", "qaoa", 20, 2, "multilevel", 14, limit2=8,
            why="many narrow nested stagings instead of a few wide ones; the "
                "only run of partition_multilevel and execute_multilevel",
        ),
        # qaoa(30, 6) with 1020 gates took 11-21 s per sample, one sample
        # per run, and its spread across seeds reached the largest bound;
        # see UNDECLARED for why even qaoa(30, 3) is run only by hand
        Workload(
            "qaoa30-partition", "qaoa", 30, 3, "partition", 14,
            why="525-gate dagp partition only (2^30 amplitudes would be "
                "16 GiB); bypasses statevec, hier and dist",
        ),
    )
}


#: runnable by name but left out of BENCHMARK.json, so they gate no change:
#: over ten seeds their solve_s quartile spread reached the largest bound
#: the benchmark may set (0.25-0.30 for ising20-hier, 0.24-0.50 for
#: qaoa30-partition) on a shared host whose speed drifts by up to half
UNDECLARED = frozenset({"ising20-hier", "qaoa30-partition"})


@dataclass
class Outcome:
    """What one iteration produced."""

    circuit: qasm.Circuit
    dag: dag.GateDag
    partition: partition.PartitionResult | partition.MultiLevelPartition
    state: statevec.StateVector | None = None
    comm: dist.CommStats | None = None

    @property
    def level1(self) -> partition.PartitionResult:
        p = self.partition
        return p.level1 if isinstance(p, partition.MultiLevelPartition) else p

    def signature(self) -> dict:
        """Counts that must repeat exactly from iteration to iteration."""
        sig = {"num_parts": self.level1.num_parts}
        if isinstance(self.partition, partition.MultiLevelPartition):
            sig["num_subparts"] = sum(s.num_parts for s in self.partition.sublevels)
        if self.comm is not None:
            sig["comm_remote_bytes"] = self.comm.total_bytes
            sig["comm_messages"] = self.comm.total_messages
            sig["layout_switches"] = self.comm.num_switches
            sig["comm_runs"] = sum(s.num_runs for s in self.comm.switches)
        return sig


def solve(w: Workload, text: str) -> Outcome:
    """One iteration: text to final state (or partition)."""
    circuit = qasm.parse_qasm(text)
    g = dag.build_dag(circuit)
    if w.mode == "multilevel":
        part = partition.partition_multilevel(g, w.limit, w.limit2)
    else:
        part = partition.partition_dagp(g, w.limit)
    out = Outcome(circuit, g, part)
    if w.mode == "hierarchical":
        out.state, _ = hier.execute_hierarchical(circuit, part, with_trace=True)
    elif w.mode == "multilevel":
        out.state, _ = hier.execute_multilevel(circuit, part, with_trace=True)
    elif w.mode == "distributed":
        run = dist.simulate_distributed(circuit, part, w.rank_bits)
        out.state, out.comm = run.state, run.stats
    return out


def check(
    w: Workload,
    out: Outcome,
    reference: statevec.StateVector | None,
    expect: dict | None,
) -> list[str]:
    """Every way the iteration's result is wrong; empty when it is right."""
    problems = []
    try:
        partition.check_partition(out.dag, out.level1)
    except PartitionError as e:
        problems.append(f"check_partition: {e}")
    if isinstance(out.partition, partition.MultiLevelPartition):
        problems += _sublevel_problems(out.partition)
    if w.has_state:
        delta = float(np.max(np.abs(out.state.data - reference.data)))
        if not delta < VERIFY_ATOL:
            problems.append(f"max |delta| {delta:.3e} not below {VERIFY_ATOL:.0e}")
    if expect is not None and out.signature() != expect:
        problems.append(f"counts {out.signature()} differ from {expect}")
    return problems


def _sublevel_problems(ml: partition.MultiLevelPartition) -> list[str]:
    problems = []
    for parent, sub, padded in zip(ml.level1.parts, ml.sublevels, ml.padded_qubits):
        gates = sorted(g for p in sub.parts for g in p.gate_indices)
        if gates != sorted(parent.gate_indices):
            problems.append(f"level-2 parts of part {parent.id} do not cover it once")
        for p, pad in zip(sub.parts, padded):
            if p.working_set > ml.limit2 or not set(p.qubits) <= set(pad) <= set(parent.qubits):
                problems.append(f"level-2 part {p.id} of part {parent.id} is misstaged")
    return problems


@dataclass
class LoopResult:
    times: list[float] = field(default_factory=list)
    warmups: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    expect: dict | None = None
    last: Outcome | None = None

    @property
    def attempted(self) -> int:
        return self.warmups + len(self.times)


def closed_loop(
    w: Workload,
    text: str,
    reference: statevec.StateVector | None,
    seconds: float,
    result: LoopResult,
    tracer=None,
    warmup: int = 0,
) -> LoopResult:
    """Run ``warmup`` iterations, then timed ones until ``seconds`` are used,
    at least one.

    Warm-up iterations are checked and counted like the others, but their
    times are left out of ``result.times`` and of the budget. A timed
    iteration starts only if the median iteration so far would still end
    within the budget. With a tracer, each iteration is one ``solve`` span
    carrying the iteration id; its checks run after the span closes.
    """
    for _ in range(warmup):
        _iterate(w, text, reference, result, tracer)
        result.warmups += 1
    start = time.perf_counter()
    while True:
        result.times.append(_iterate(w, text, reference, result, tracer))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(result.times) > seconds:
            return result


def _iterate(w, text, reference, result: LoopResult, tracer) -> float:
    """One checked iteration; returns its time and records any failure."""
    if tracer is not None:
        tracer.iteration = result.attempted
    # drop the previous result first, so peak memory does not grow with the
    # iteration count
    result.last = out = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = solve(w, text)
        else:
            with tracer.span("solve"):
                out = solve(w, text)
    except Exception as e:  # a raising iteration counts as failed
        problems = [f"{type(e).__name__}: {e}"]
    dt = time.perf_counter() - t0
    if out is not None:
        result.last = out
        try:
            if result.expect is None:
                result.expect = out.signature()
            problems = check(w, out, reference, result.expect)
        except Exception as e:  # a check that cannot run is a failure too
            problems = [f"check raised {type(e).__name__}: {e}"]
    if problems:
        result.failed += 1
        result.errors.extend(problems)
    return dt
