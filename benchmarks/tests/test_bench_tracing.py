"""Traced-run mechanics, per-iteration checks and the benchmark's own
declaration, on circuits small enough to run in a test."""

import json
from pathlib import Path

import pytest

from hisim import hier
from hisim.statevec import simulate_flat

import layers
import run
import tracing
import workloads
from workloads import LoopResult, Workload, closed_loop

SMALL = [
    Workload("ising8-hier", "ising", 8, 2, "hierarchical", 4),
    Workload("ising8-multilevel", "ising", 8, 2, "multilevel", 6, limit2=3),
    Workload("qft12-dist", "qft", 12, 0, "distributed", 6, rank_bits=2),
]


def _reference(w):
    return simulate_flat(workloads.qasm.parse_qasm(w.text(0)))


def _originals():
    return {(t.owner, t.attr): vars(t.owner)[t.attr] for t in layers.targets()}


def _traced_loop(w, iterations=2):
    tracer = tracing.Tracer(layers.targets())
    result = LoopResult()
    ref = _reference(w)
    with tracer:
        for _ in range(iterations):
            closed_loop(w, w.text(0), ref, 0, result, tracer)
    return tracer, result


@pytest.mark.parametrize("w", SMALL, ids=lambda w: w.name)
def test_spans_nest(w):
    tracer, result = _traced_loop(w)
    assert result.failed == 0 and result.attempted == 2
    spans = tracer.spans
    roots = [i for i, s in enumerate(spans) if s.parent is None]
    assert {spans[i].name for i in roots} == {"solve", "partition.check"}
    for i, s in enumerate(spans):
        assert s.start <= s.end
        if s.parent is not None:
            p = spans[s.parent]
            assert s.parent < i
            assert p.start <= s.start and s.end <= p.end
            assert s.iteration == p.iteration
    names = {s.name for s in spans}
    assert {"qasm.parse", "dag.build", "statevec.apply_op"} <= names
    if w.mode == "distributed":
        assert {"dist.simulate", "dist.plan", "dist.apply", "dist.run_part"} <= names


@pytest.mark.parametrize("w", SMALL, ids=lambda w: w.name)
def test_self_times_fit_inside_parents(w):
    tracer, _ = _traced_loop(w)
    spans = tracer.spans
    own = tracing.self_times(spans)
    kids = tracing.children(spans)
    for i, s in enumerate(spans):
        assert sum(spans[c].duration for c in kids[i]) <= s.duration + 1e-12
        assert sum(own[c] for c in kids[i]) <= s.duration + 1e-12
    for root, s in enumerate(spans):
        if s.name == "solve":
            m = layers.iteration_metrics(spans, root)
            total = sum(m[f"{l}.self_s"] for l in layers.LAYERS) + m["trace.glue_s"]
            assert total == pytest.approx(s.duration, abs=1e-9)


@pytest.mark.parametrize("w", SMALL, ids=lambda w: w.name)
def test_library_functions_are_restored(w):
    before = _originals()
    closed_loop(w, w.text(0), _reference(w), 0, LoopResult())
    assert _originals() == before
    tracer = tracing.Tracer(layers.targets())
    with tracer:
        assert all(vars(t.owner)[t.attr] is not before[(t.owner, t.attr)]
                   for t in layers.targets())
        closed_loop(w, w.text(0), _reference(w), 0, LoopResult(), tracer)
    after = _originals()
    assert all(after[k] is before[k] for k in before)


def test_memory_pass_records_peaks():
    w = SMALL[0]
    peaks, loop = run.memory_pass(workloads, w, w.text(0), _reference(w))
    assert loop.failed == 0
    # execution allocates at least the state it returns
    assert peaks["hier.peak_x_state"] >= 1.0
    assert peaks["partition.peak_mib"] > 0


@pytest.mark.parametrize("warmup", [0, 1])
def test_corrupted_state_is_counted_as_failed(monkeypatch, warmup):
    w = SMALL[0]
    real = hier.execute_hierarchical

    def corrupt(*args, **kwargs):
        state, trace = real(*args, **kwargs)
        state.data[3] += 1e-6
        return state, trace

    monkeypatch.setattr(hier, "execute_hierarchical", corrupt)
    result = closed_loop(w, w.text(0), _reference(w), 0, LoopResult(), warmup=warmup)
    # warm-up iterations are checked and counted, but not timed
    assert (result.attempted, result.failed) == (1 + warmup, 1 + warmup)
    assert len(result.times) == 1
    assert "max |delta|" in result.errors[0]


def test_raising_iteration_and_changed_counts_are_failed(monkeypatch):
    w = SMALL[2]
    ref = _reference(w)
    result = LoopResult(expect={"num_parts": -1})
    closed_loop(w, w.text(0), ref, 0, result)
    assert result.failed == 1 and "differ" in result.errors[0]

    def boom(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(workloads.dist, "simulate_distributed", boom)
    result = closed_loop(w, w.text(0), ref, 0, LoopResult())
    assert (result.attempted, result.failed) == (1, 1)
    assert "injected" in result.errors[0]


@pytest.mark.parametrize("w", SMALL, ids=lambda w: w.name)
def test_traced_run_reports_every_per_layer_metric(w):
    ref = _reference(w)
    loops = [closed_loop(w, w.text(0), ref, 0, LoopResult())]
    out, _ = run.traced(workloads, w, w.text(0), ref, 0, loops)
    peaks, _ = run.memory_pass(workloads, w, w.text(0), ref)
    out.update(peaks)
    assert set(out) | {"statevec.flat_s", "machine.copy_gbps"} == set(layers.PER_LAYER)
    assert all(r.failed == 0 for r in loops)
    if w.mode == "distributed":
        assert out["dist.remote_bytes"] > 0 and out["dist.runs"] > 0
    else:
        assert out["hier.staged_bytes_computed"] > 0
        assert out["dist.simulate_s"] == 0


def test_declaration_matches_the_benchmark():
    decl = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in decl["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in decl["per_layer"]] == list(layers.PER_LAYER)
    for m in decl["end_to_end"]:
        assert (m["unit"], m["better"]) == run.END_TO_END[m["name"]]
    for m in decl["per_layer"]:
        assert (m["unit"], m["better"]) == layers.PER_LAYER[m["name"]]
    declared = [x["name"] for x in decl["workloads"]]
    assert declared == [n for n in workloads.WORKLOADS if n not in workloads.UNDECLARED]
    assert workloads.UNDECLARED <= set(workloads.WORKLOADS)
