"""hisim benchmark: time-to-state on fixed workloads, checked against the
flat oracle, with an optional outside-in layer trace.

Usage, from the repository root::

    python3 benchmarks/run.py --workload ising20-hier --seed 0 --seconds 20 --trace 0

One workload runs per process as a closed loop with a single caller. The
library is imported from ``src/`` beside this directory; nothing is
installed. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see ``layers.py``). Human-readable lines
and one ``report`` JSON line (with the machine block) come first; the last
line is the result object ``{"correct", "attempted", "failed", "metrics"}``.
Exit code 0 means a result was printed, whether or not every iteration
passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: thread-pool variables of the BLAS/OpenMP runtimes numpy may load
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: fresh child processes whose set-up is measured before the timed loop,
#: and again after it; with this process's own, the median of 9 set-ups
SETUP_PROBES = 4
#: checked but untimed iterations before the timed loop: the first
#: iteration pays for first-touch page faults and lazy imports
WARMUP = 1
#: the array the copy-bandwidth probe uses when there is no state (n=20)
PROBE_AMPS = 1 << 20

END_TO_END = {
    "setup_s": ("s", "lower"),
    "solve_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "num_parts": ("count", "lower"),
}


def cap_threads() -> dict[str, int]:
    """Cap every thread pool at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    caps = {}
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= nproc:
            os.environ[var] = str(nproc)
        caps[var] = int(os.environ[var])
    return caps


def import_library():
    """Import the library from ``src/`` and the modules that drive it."""
    sys.path.insert(0, str(SRC))
    try:
        import hisim
    except ImportError as e:
        sys.exit(f"benchmark: cannot import hisim from {SRC}: {e}")
    if Path(hisim.__file__).resolve().parent != SRC / "hisim":
        sys.exit(f"benchmark: hisim imported from {hisim.__file__}, not {SRC}")
    import workloads

    return workloads


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # a child process that only measures one set-up and prints it
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_probes(args) -> list[float]:
    """Set-up times of ``SETUP_PROBES`` fresh processes, each measured inside it."""
    cmd = [sys.executable, __file__, "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    return [
        float(subprocess.run(
            cmd, check=True, capture_output=True, text=True, timeout=120
        ).stdout.split()[-1])
        for _ in range(SETUP_PROBES)
    ]


# --- machine block ----------------------------------------------------------

def cache_sizes() -> dict[str, int | None]:
    """Unified/data cache sizes in bytes by level, read from sysfs."""
    sizes: dict[str, int | None] = {"L2": None, "L3": None}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and f"L{level}" in sizes and size.endswith("K"):
            sizes[f"L{level}"] = int(size[:-1]) * 1024
    return sizes


def copy_gbps(amps: int) -> float:
    """``np.copyto`` bandwidth on a complex128 array, read plus write."""
    import numpy as np

    src = np.full(amps, 1 + 1j, dtype=np.complex128)
    dst = np.empty_like(src)
    times = []
    for _ in range(15):
        t = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t)
    return 2 * src.nbytes / statistics.median(times[3:]) / 1e9


def machine_block(w, caps: dict[str, int]) -> dict:
    import numpy as np

    caches = cache_sizes()
    state_bytes = 16 << w.num_qubits
    probe_amps = 1 << w.num_qubits if w.has_state else PROBE_AMPS
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": caps,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cache_bytes": caches,
        "state_bytes": state_bytes,
        "state_allocated": w.has_state,
        "state_x_cache": {
            lvl: state_bytes / size for lvl, size in caches.items() if size
        },
        "copy_bytes": 16 * probe_amps,
        "copy_gbps": copy_gbps(probe_amps),
    }


def machine_lines(m: dict) -> list[str]:
    mib = 2**20
    caches = ", ".join(
        f"{lvl} {size / mib:g} MiB" for lvl, size in m["cache_bytes"].items() if size
    )
    caps = ", ".join(f"{k}={v}" for k, v in m["thread_caps"].items())
    rel = ", ".join(f"{x:.3g}x {lvl}" for lvl, x in m["state_x_cache"].items())
    lines = [
        f"machine: nproc {m['nproc']}, thread caps {caps}, numpy {m['numpy']}, {caches}",
        f"machine: copy_gbps {m['copy_gbps']:.2f} GB/s on a {m['copy_bytes'] / mib:g} MiB "
        "array (read + write); achieved_gbps figures are relative to this, not to DRAM",
        f"machine: state {m['state_bytes'] / mib:g} MiB = {rel}"
        + ("" if m["state_allocated"] else " (computed; never allocated)"),
    ]
    l3 = m["cache_bytes"].get("L3")
    if m["state_allocated"] and l3 and m["state_bytes"] < 4 * l3:
        lines.append(
            "machine: the state fits the shared L3, so this is not a DRAM-bound "
            "run; the 4x-LLC rule would need a state of "
            f"{4 * l3 / mib:g} MiB (n >= {(4 * l3 // 16).bit_length()})"
        )
    return lines


# --- the run ----------------------------------------------------------------

def run(args, w, text: str, setup: float, caps: dict[str, int], wl):
    """Measure one workload; returns (report, result, human lines)."""
    import layers

    # set-ups both sides of the timed loop, so one slow spell on a shared
    # host does not decide the median
    setups = [setup] + setup_probes(args)
    machine = machine_block(w, caps)
    reference, flat_s = flat_reference(wl, w, text)
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = wl.closed_loop(
        w, text, reference, budget, wl.LoopResult(), warmup=WARMUP
    )
    loops = [untraced]
    setups += setup_probes(args)
    e2e = {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(untraced.times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "num_parts": (untraced.expect or {}).get("num_parts", 0),
    }
    layer, extra = None, []
    if args.trace:
        layer, extra = traced(wl, w, text, reference, budget, loops)
        peaks, loop = memory_pass(wl, w, text, reference, untraced.expect)
        loops.append(loop)
        layer.update(peaks)
        layer["statevec.flat_s"] = flat_s or 0.0
        layer["machine.copy_gbps"] = machine["copy_gbps"]

    attempted = sum(r.attempted for r in loops)
    failed = sum(r.failed for r in loops)
    report = {
        "workload": w.name,
        "why": w.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "circuit": {"family": w.family, "num_qubits": w.num_qubits,
                    "depth": w.depth, "mode": w.mode, "limit": w.limit,
                    "limit2": w.limit2, "rank_bits": w.rank_bits},
        "loop": "closed, 1 caller, 1 process",
        "machine": machine,
        "setup_samples_s": setups,
        "solve_samples_s": untraced.times,
        "flat_s": flat_s,
        "counts": untraced.expect or {},
        "attempted": attempted,
        "failed": failed,
        "failed_ops_ratio": failed / attempted,
        "errors": [e for r in loops for e in r.errors][:20],
        "end_to_end": e2e,
        "per_layer": layer,
    }
    metrics, units = (layer, layers.PER_LAYER) if args.trace else (e2e, END_TO_END)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, (u, _) in units.items()},
    }
    lines = [f"workload {w.name} seed {args.seed}: {w.why}"]
    lines += machine_lines(machine)
    lines += e2e_lines(e2e, report, untraced)
    return report, result, lines + extra


def flat_reference(wl, w, text: str):
    """The oracle state and the time ``simulate_flat`` took to make it."""
    if not w.has_state:
        return None, None
    circuit = wl.qasm.parse_qasm(text)
    t = time.perf_counter()
    reference = wl.statevec.simulate_flat(circuit)
    return reference, time.perf_counter() - t


def e2e_lines(e2e: dict, report: dict, untraced) -> list[str]:
    lines = [
        f"setup_s {e2e['setup_s']:.4f} s (median of {len(report['setup_samples_s'])} set-ups)",
        f"solve_s {e2e['solve_s']:.4f} s (median of {len(untraced.times)} iteration(s) "
        f"after {untraced.warmups} untimed warm-up; "
        "too few for a tail percentile)",
    ]
    if report["flat_s"] is not None:
        lines.append(
            f"flat_s {report['flat_s']:.4f} s (single-pass simulate_flat on the same circuit)"
        )
        lines.append(
            f"flat_s/solve_s {report['flat_s'] / e2e['solve_s']:.3f} "
            "(speed-up of the partitioned run; for reading only, not gated)"
        )
    lines.append(f"peak_rss_mib {e2e['peak_rss_mib']:.1f} MiB (ru_maxrss of this process)")
    for k, v in report["counts"].items():
        lines.append(f"{k} {v} {'B' if k.endswith('bytes') else 'count'}")
    lines.append(
        f"failed_ops_ratio {report['failed_ops_ratio']:.4g} "
        f"({report['failed']} failed of {report['attempted']} attempted)"
    )
    return lines


# --- the traced run ---------------------------------------------------------

def traced(wl, w, text, reference, budget, loops) -> tuple[dict, list[str]]:
    """Traced iterations after the untraced ones in ``loops[0]``."""
    import layers
    import tracing

    untraced = loops[0]
    tracer = tracing.Tracer(layers.targets())
    with tracer:
        traced_loop = wl.closed_loop(
            w, text, reference, budget, wl.LoopResult(expect=untraced.expect), tracer
        )
    loops.append(traced_loop)
    spans = tracer.spans
    per_iter = []
    for i, s in enumerate(spans):
        if s.name == "solve":
            m = layers.iteration_metrics(spans, i)
            m["partition.check_s"] = layers.check_seconds(spans, s.iteration)
            m["solve_s"] = s.duration
            per_iter.append(m)
    out = {k: statistics.median(m[k] for m in per_iter) for k in per_iter[0]}
    last = traced_loop.last or untraced.last
    if last is not None:
        out.update(layers.outcome_metrics(last))
    untraced_solve = statistics.median(untraced.times)
    out["trace.overhead_s"] = out["solve_s"] - untraced_solve

    layer_self = {l: out[f"{l}.self_s"] for l in layers.LAYERS}
    shares = ", ".join(
        f"{l} {100 * v / out['solve_s']:.1f}%" for l, v in layer_self.items() if v
    )
    extra = [
        f"traced solve_s {out['solve_s']:.4f} s (median of {traced_loop.attempted}); "
        f"layer self-time shares: {shares}",
        f"layer self times sum to {sum(layer_self.values()):.4f} s against untraced "
        f"solve_s {untraced_solve:.4f} s; trace.overhead_s {out['trace.overhead_s']:.4f} s, "
        f"trace.glue_s {out['trace.glue_s']:.4f} s",
        "memory peaks come from one more iteration under tracemalloc; "
        "its times are discarded",
    ]
    del out["solve_s"]
    return out, extra


def memory_pass(wl, w, text, reference, expect=None):
    """One iteration traced with ``tracemalloc``; returns (peaks, loop)."""
    import tracemalloc

    import layers
    import tracing

    tracer = tracing.Tracer(layers.targets(), track_memory=True)
    tracemalloc.start()
    try:
        with tracer:
            loop = wl.closed_loop(w, text, reference, 0, wl.LoopResult(expect=expect), tracer)
    finally:
        tracemalloc.stop()
    peaks = layers.memory_metrics(tracer.spans, 16 << w.num_qubits if w.has_state else None)
    return peaks, loop


def main(argv=None) -> int:
    args = parse_args(argv)
    caps = cap_threads()
    t0 = time.perf_counter()
    wl = import_library()
    if args.workload not in wl.WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(wl.WORKLOADS)}")
    w = wl.WORKLOADS[args.workload]
    text = w.text(args.seed)
    setup = time.perf_counter() - t0
    if args.setup_probe:
        print(setup)
        return 0
    report, result, lines = run(args, w, text, setup, caps, wl)
    for line in lines:
        print(line)
    for e in report["errors"]:
        print(f"check failed: {e}", file=sys.stderr)
    print("report " + json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
