"""Which library functions the traced run wraps, and the per-layer metrics
derived from the spans they record.

A layer is a module of ``hisim``: ``qasm``, ``dag``, ``partition``,
``statevec``, ``hier`` and ``dist``. Functions are wrapped at the module
attribute the drivers call them through (``hier.run_part`` calls
``hisim.hier.apply_op``, ``simulate_distributed`` calls
``hisim.dist.run_part``), so one function re-exported in two modules gets
two targets. Kernel calls are always the ``statevec`` layer, whichever
module they are reached through.
"""

from __future__ import annotations

from hisim import dag, dist, hier, partition, qasm, statevec

from tracing import Span, Target, children, descendants, self_times

LAYERS = ("qasm", "dag", "partition", "statevec", "hier", "dist")
#: gate kinds the workloads use, each timed on its own
KINDS = ("h", "rx", "rz", "u1", "cx", "crz", "swap")
#: computed traffic of one pass over an amplitude: read and write 16 bytes
PASS_BYTES = 2 * 16


def _gates(args, kwargs, result) -> dict:
    return {"gates": result.num_ops}


def _kernel(args, kwargs, result) -> dict:
    arr, _, op = args[:3]
    return {"kind": op.kind.value, "amps": arr.size}


def _arg0_amps(args, kwargs, result) -> dict:
    return {"amps": args[0].size}


def _result_amps(args, kwargs, result) -> dict:
    return {"amps": result.size}


def targets() -> list[Target]:
    T = Target
    return [
        T(qasm, "parse_qasm", "qasm.parse", _gates),
        T(dag, "build_dag", "dag.build"),
        T(partition, "build_dag", "dag.build"),
        T(partition, "partition_dagp", "partition.dagp"),
        T(partition, "partition_multilevel", "partition.multilevel"),
        T(partition, "check_partition", "partition.check"),
        T(statevec, "apply_op", "statevec.apply_op", _kernel),
        T(hier, "apply_op", "statevec.apply_op", _kernel),
        T(statevec, "simulate_flat", "statevec.simulate_flat"),
        T(hier, "execute_hierarchical", "hier.execute"),
        T(hier, "execute_multilevel", "hier.execute"),
        T(hier, "run_part", "hier.run_part", _arg0_amps),
        T(hier, "part_block_indices", "hier.block_indices", _result_amps),
        T(hier, "remap_part", "hier.remap_part"),
        T(dist, "simulate_distributed", "dist.simulate"),
        T(dist, "run_part", "dist.run_part", _arg0_amps),
        T(dist, "part_block_indices", "dist.block_indices"),
        T(dist, "remap_part", "dist.remap_part"),
        T(dist, "choose_layout", "dist.choose_layout"),
        T(dist, "plan_redistribution", "dist.plan",
          lambda a, k, r: {"runs": r.num_runs}),
        T(dist.RedistributionPlan, "apply", "dist.apply",
          lambda a, k, r: {"amps": a[1].size}),
        T(dist, "distribute_state", "dist.distribute",
          lambda a, k, r: {"amps": a[0].data.size}),
        T(dist, "assemble_state", "dist.assemble", _arg0_amps),
    ]


#: every per-layer metric: name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {
    "qasm.parse_s": ("s", "lower"),
    "qasm.gates": ("count", "lower"),
    "dag.build_s": ("s", "lower"),
    "dag.builds": ("count", "lower"),
    "partition.dagp_s": ("s", "lower"),
    "partition.dagp_calls": ("count", "lower"),
    "partition.multilevel_s": ("s", "lower"),
    "partition.check_s": ("s", "lower"),
    "partition.max_w": ("qubits", "higher"),
    "partition.cut_edges": ("count", "lower"),
    "partition.level2_parts": ("count", "lower"),
    "partition.peak_mib": ("MiB", "lower"),
    "statevec.apply_op_s": ("s", "lower"),
    "statevec.apply_op_calls": ("count", "lower"),
    **{f"statevec.{k}_s": ("s", "lower") for k in KINDS},
    **{f"statevec.{k}_calls": ("count", "lower") for k in KINDS},
    "statevec.bytes_computed": ("B", "lower"),
    "statevec.achieved_gbps": ("GB/s", "higher"),
    "statevec.flat_s": ("s", "lower"),
    "hier.execute_s": ("s", "lower"),
    "hier.execute_self_s": ("s", "lower"),
    "hier.run_part_s": ("s", "lower"),
    "hier.run_part_calls": ("count", "lower"),
    "hier.staging_s": ("s", "lower"),
    "hier.block_indices_s": ("s", "lower"),
    "hier.remap_part_s": ("s", "lower"),
    "hier.staged_bytes_computed": ("B", "lower"),
    "hier.part_s.max": ("s", "lower"),
    "hier.peak_x_state": ("x", "lower"),
    "dist.simulate_s": ("s", "lower"),
    "dist.choose_layout_s": ("s", "lower"),
    "dist.plan_s": ("s", "lower"),
    "dist.apply_s": ("s", "lower"),
    "dist.runs": ("count", "lower"),
    "dist.distribute_s": ("s", "lower"),
    "dist.assemble_s": ("s", "lower"),
    "dist.run_part_s": ("s", "lower"),
    "dist.permuted_bytes_computed": ("B", "lower"),
    "dist.switch_peak_x_state": ("x", "lower"),
    "dist.remote_bytes": ("B", "lower"),
    "dist.messages": ("count", "lower"),
    "dist.layout_switches": ("count", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.glue_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "machine.copy_gbps": ("GB/s", "higher"),
}


def iteration_metrics(spans: list[Span], root: int) -> dict[str, float]:
    """Per-layer times, counts and computed bytes inside one ``solve`` span.

    Times are inclusive span durations summed per name, except ``*.self_s``,
    ``hier.execute_self_s`` and ``hier.staging_s``, which are self times.
    The layers' self times and ``trace.glue_s`` (the benchmark's own code
    between calls) add up to the root span's duration.
    """
    inside = descendants(spans, root)
    own = self_times(spans)
    kids = children(spans)
    named: dict[str, list[int]] = {}
    for i in inside:
        named.setdefault(spans[i].name, []).append(i)

    def total(name: str) -> float:
        return sum(spans[i].duration for i in named.get(name, ()))

    def calls(name: str) -> int:
        return len(named.get(name, ()))

    def attr_sum(name: str, key: str) -> int:
        return sum(spans[i].attrs.get(key, 0) for i in named.get(name, ()))

    kernels = named.get("statevec.apply_op", [])
    m: dict[str, float] = {
        "qasm.parse_s": total("qasm.parse"),
        "qasm.gates": attr_sum("qasm.parse", "gates"),
        "dag.build_s": total("dag.build"),
        "dag.builds": calls("dag.build"),
        "partition.dagp_s": total("partition.dagp"),
        "partition.dagp_calls": calls("partition.dagp"),
        "partition.multilevel_s": total("partition.multilevel"),
        "statevec.apply_op_s": total("statevec.apply_op"),
        "statevec.apply_op_calls": len(kernels),
        "statevec.bytes_computed": PASS_BYTES * attr_sum("statevec.apply_op", "amps"),
    }
    for k in KINDS:
        of_kind = [i for i in kernels if spans[i].attrs["kind"] == k]
        m[f"statevec.{k}_s"] = sum(spans[i].duration for i in of_kind)
        m[f"statevec.{k}_calls"] = len(of_kind)
    m["statevec.achieved_gbps"] = (
        m["statevec.bytes_computed"] / m["statevec.apply_op_s"] / 1e9
        if m["statevec.apply_op_s"] else 0.0
    )

    run_parts = named.get("hier.run_part", [])
    staged = sum(
        spans[i].attrs["amps"] for i in run_parts
        if any(spans[c].name == "hier.block_indices" for c in kids[i])
    ) + sum(
        spans[i].attrs["amps"] for i in named.get("hier.block_indices", ())
        if spans[spans[i].parent].name == "hier.execute"
    )
    m.update({
        "hier.execute_s": total("hier.execute"),
        "hier.execute_self_s": sum(own[i] for i in named.get("hier.execute", ())),
        "hier.run_part_s": total("hier.run_part"),
        "hier.run_part_calls": len(run_parts),
        "hier.staging_s": sum(own[i] for i in run_parts),
        "hier.block_indices_s": total("hier.block_indices"),
        "hier.remap_part_s": total("hier.remap_part"),
        "hier.staged_bytes_computed": PASS_BYTES * staged,
        "hier.part_s.max": max((spans[i].duration for i in run_parts), default=0.0),
        "dist.simulate_s": total("dist.simulate"),
        "dist.choose_layout_s": total("dist.choose_layout"),
        "dist.plan_s": total("dist.plan"),
        "dist.apply_s": total("dist.apply"),
        "dist.runs": attr_sum("dist.plan", "runs"),
        "dist.distribute_s": total("dist.distribute"),
        "dist.assemble_s": total("dist.assemble"),
        "dist.run_part_s": total("dist.run_part"),
        "dist.permuted_bytes_computed": PASS_BYTES * sum(
            attr_sum(n, "amps") for n in ("dist.apply", "dist.distribute", "dist.assemble")
        ),
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            own[i] for i in inside if spans[i].name.split(".", 1)[0] == layer
        )
    m["trace.glue_s"] = own[root]
    return m


def check_seconds(spans: list[Span], iteration: int) -> float:
    """Time in ``check_partition`` calls the benchmark made after a solve."""
    return sum(
        s.duration for s in spans
        if s.name == "partition.check" and s.parent is None and s.iteration == iteration
    )


def memory_metrics(spans: list[Span], state_bytes: int | None) -> dict[str, float]:
    """Peaks from one iteration traced with ``track_memory``.

    ``partition.peak_mib`` is the most memory partitioning allocated above
    what was live when it started. The ``*_x_state`` peaks divide the same
    quantity for execution and for layout switches (planning or applying)
    by the state size.
    """
    def peak(*names: str) -> int:
        return max((s.peak_bytes for s in spans if s.name in names), default=0)

    m = {"partition.peak_mib": peak("partition.dagp", "partition.multilevel") / 2**20}
    m["hier.peak_x_state"] = peak("hier.execute") / state_bytes if state_bytes else 0.0
    m["dist.switch_peak_x_state"] = (
        peak("dist.plan", "dist.apply") / state_bytes if state_bytes else 0.0
    )
    return m


def outcome_metrics(out) -> dict[str, float]:
    """Shape and communication counts of one iteration's result."""
    sig = out.signature()
    level1 = out.level1
    return {
        "partition.max_w": max((p.working_set for p in level1.parts), default=0),
        "partition.cut_edges": level1.cut_edges(out.dag),
        "partition.level2_parts": sig.get("num_subparts", 0),
        "dist.remote_bytes": sig.get("comm_remote_bytes", 0),
        "dist.messages": sig.get("comm_messages", 0),
        "dist.layout_switches": sig.get("layout_switches", 0),
    }
