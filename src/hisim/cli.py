"""Command-line interface: partition circuits, run them, study the gap
between the dagp heuristic and the brute-force optimum.

Exit codes are a stable contract: 0 success, 1 usage error, 2 input or
partition error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import bench
from .dag import GateDag, build_dag, to_dot, to_json as dag_to_json
from .errors import (
    PartitionError,
    QasmError,
    SimulationError,
    VerificationError,
)
from .hier import (
    _trace,
    check_deviation,
    execute_hierarchical,
    max_deviation_from_flat,
)
from .dist import simulate_distributed
from .partition import (
    STRATEGIES,
    MultiLevelPartition,
    PartitionResult,
    optimal_parts_bruteforce,
    partition_dagp,
    partition_dfs,
    partition_from_json,
    partition_multilevel,
    partition_nat,
    partition_to_json,
)
from .qasm import Circuit, parse_qasm
from .statevec import save_state, simulate_flat

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_VERIFY = 3

VERIFY_MAX_QUBITS = 16

_MODES = ("flat", "hierarchical", "distributed")
#: defaults of the flags that parse to None, so that a command can tell a
#: given flag from a defaulted one (``_refuse_ignored``)
_DEFAULTS = {"strategy": "dagp", "seed": 0, "trials": 16, "p": 1}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad arguments; our contract reserves 2 for
    input errors, so usage problems exit 1 instead."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_from(low: int):
    """argparse type: an int of at least ``low``, so a flag out of range is
    a usage error like any other bad flag."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value

    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


# --- shared helpers ---------------------------------------------------------

def _load_circuit(spec: str) -> tuple[str, Circuit]:
    """Accept a .qasm file or the name of a bundled circuit, built by its
    factory; a directory is no file, so it never hides a name."""
    path = Path(spec)
    if path.is_file():
        return path.stem, parse_qasm(path.read_text())
    if spec in bench.available():
        return spec, bench.build(spec)
    raise FileNotFoundError(f"no such file or bundled circuit: {spec}")


def _default_limit(circuit: Circuit) -> int:
    """Half the qubits, but never below the widest gate."""
    widest = max((len(op.qubits) for op in circuit.ops), default=1)
    return max(math.ceil(circuit.num_qubits / 2), widest)


def _partition(args, dag: GateDag) -> PartitionResult | MultiLevelPartition:
    """The partition the flags ask for: under ``--l2``, two levels, dagp at
    ``--limit`` and again at ``--l2`` inside each part; else ``--strategy``
    under ``--limit``. The limit defaults to ``_default_limit``."""
    limit = args.limit if args.limit is not None else _default_limit(dag.circuit)
    if args.l2 is not None:
        if args.l2 > limit:
            raise _UsageError(f"--l2 {args.l2} exceeds the level-1 limit {limit}")
        return partition_multilevel(dag, limit, args.l2)
    if args.strategy == "nat":
        return partition_nat(dag, limit)
    if args.strategy == "dfs":
        return partition_dfs(dag, limit, trials=args.trials, seed=args.seed)
    return partition_dagp(dag, limit)


def _refuse_ignored(args, rows) -> None:
    """Refuse a flag the command would ignore, each row ``(flag, given,
    used, where it applies)``; then set every flag left at None to its
    ``_DEFAULTS`` value."""
    for flag, given, used, where in rows:
        if given and not used:
            raise _UsageError(f"{flag} {where}")
    for name, value in _DEFAULTS.items():
        if getattr(args, name, value) is None:
            setattr(args, name, value)


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        print(text)
    else:
        Path(out).write_text(text + "\n")


# --- partition --------------------------------------------------------------

def cmd_partition(args) -> int:
    levels = args.l2 is not None
    dfs = args.strategy == "dfs"
    _refuse_ignored(args, (
        ("--strategy", args.strategy is not None, not levels,
         "applies only to a one-level partition (not with --l2)"),
        ("--seed", args.seed is not None, dfs, "applies only to --strategy dfs"),
        ("--trials", args.trials is not None, dfs,
         "applies only to --strategy dfs"),
    ))
    name, circuit = _load_circuit(args.circuit)
    dag = build_dag(circuit)
    summary_stream = sys.stdout if args.out else sys.stderr

    if args.dag:
        dag_path = Path(args.dag)
        text = to_dot(dag) if dag_path.suffix == ".dot" else dag_to_json(dag)
        dag_path.write_text(text + "\n")

    partition = _partition(args, dag)
    _write_or_print(partition_to_json(dag, partition), args.out)
    if levels:
        head = (
            f"multilevel limits {partition.limit1}/{partition.limit2}, "
            f"{partition.level1.num_parts} level-1 parts, "
            f"{sum(s.num_parts for s in partition.sublevels)} level-2 parts"
        )
        tails = [
            f", level-2 working sets {[p.working_set for p in sub.parts]}"
            for sub in partition.sublevels
        ]
    else:
        head = (
            f"{partition.strategy} limit {partition.limit}, "
            f"{partition.num_parts} parts"
        )
        tails = [""] * partition.num_parts
    print(f"{name}: {head}", file=summary_stream)
    for part, tail in zip(partition.parts, tails):
        print(
            f"  part {part.id}: working set {part.working_set}, "
            f"{len(part.gate_indices)} gates{tail}",
            file=summary_stream,
        )
    return EXIT_OK


# --- run --------------------------------------------------------------------

def _probabilities(data: np.ndarray, num_qubits: int) -> dict[str, float] | None:
    """Largest finite basis-state probabilities, qubit n-1 leftmost; small
    n only."""
    if num_qubits > VERIFY_MAX_QUBITS:
        return None
    probs = np.abs(data) ** 2
    probs[~np.isfinite(probs)] = 0.0  # JSON has no NaN or Infinity
    order = np.argsort(probs)[::-1][:64]
    out = {}
    for idx in order:
        if probs[idx] < 1e-9:
            break
        out[format(int(idx), f"0{num_qubits}b")] = round(float(probs[idx]), 12)
    return out


def _run_report_parts(partition) -> list[dict]:
    return [
        {
            "id": p.id,
            "working_set": p.working_set,
            "gates": len(p.gate_indices),
        }
        for p in partition.parts
    ]


def _run_report_limits(partition) -> dict:
    """The run report's strategy and limits, read off the partition that ran."""
    if isinstance(partition, MultiLevelPartition):
        return {
            "strategy": "multilevel",
            "limit": None,
            "limit1": partition.limit1,
            "limit2": partition.limit2,
        }
    return {
        "strategy": partition.strategy if partition is not None else None,
        "limit": partition.limit if partition is not None else None,
        "limit1": None,
        "limit2": None,
    }


def cmd_run(args) -> int:
    name, circuit = _load_circuit(args.circuit)
    n = circuit.num_qubits
    if args.verify and n > VERIFY_MAX_QUBITS:
        raise _UsageError(
            f"--verify supports up to {VERIFY_MAX_QUBITS} qubits, circuit has {n}"
        )

    partitions = args.mode != "flat" and args.partition is None
    dfs = partitions and args.strategy == "dfs"
    runs_parts = "applies only to a partitioned run (any --mode but flat)"
    builds = ("applies only to a run that partitions (not --mode flat, nor "
              "with --partition)")
    _refuse_ignored(args, (
        ("--partition", args.partition is not None, args.mode != "flat", runs_parts),
        ("--trace", args.trace is not None, args.mode != "flat", runs_parts),
        ("--limit", args.limit is not None, partitions, builds),
        ("--l2", args.l2 is not None, partitions, builds),
        ("--strategy", args.strategy is not None,
         partitions and args.l2 is None,
         "applies only to a run that partitions in one level (not --mode "
         "flat, nor with --partition or --l2)"),
        ("--seed", args.seed is not None, dfs,
         "applies only to a run that partitions with --strategy dfs"),
        ("--trials", args.trials is not None, dfs,
         "applies only to a run that partitions with --strategy dfs"),
        ("--p", args.p is not None, args.mode == "distributed",
         "applies only to --mode distributed"),
    ))

    partition: PartitionResult | MultiLevelPartition | None = None
    comm = None

    t0 = time.perf_counter()
    if args.mode == "flat":
        state = simulate_flat(circuit)
    else:
        dag = build_dag(circuit)
        if args.partition is not None:
            partition = partition_from_json(dag, Path(args.partition).read_text())
        else:
            partition = _partition(args, dag)
        if args.mode == "distributed":
            state, comm = simulate_distributed(circuit, partition, args.p)
        else:
            state = execute_hierarchical(circuit, partition)
    wall = time.perf_counter() - t0

    max_delta = None
    if args.verify:
        max_delta = max_deviation_from_flat(circuit, state)

    parts = _run_report_parts(partition) if partition is not None else None
    report = {
        "circuit": {"name": name, "num_qubits": n, "num_gates": circuit.num_ops},
        "mode": args.mode,
        **_run_report_limits(partition),
        "num_rank_bits": args.p if args.mode == "distributed" else None,
        "num_parts": len(parts) if parts is not None else None,
        "parts": parts,
        "wall_time_s": round(wall, 6),
        # JSON has no NaN: a non-finite delta is written as null
        "max_abs_delta": (
            max_delta if max_delta is None or math.isfinite(max_delta) else None
        ),
        "comm": comm.to_json() if comm is not None else None,
        "probabilities": _probabilities(state.data, n),
    }

    if args.out:
        save_state(state, args.out)
    if args.trace:
        rows = _trace(n, partition).part_rows()
        Path(args.trace).write_text("".join(json.dumps(r) + "\n" for r in rows))
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
        parts_note = (
            f", {report['num_parts']} parts" if report["num_parts"] else ""
        )
        print(
            f"{name}: n={n}, {circuit.num_ops} gates, mode={args.mode}"
            f"{parts_note}, {wall:.3f}s"
        )
    else:
        print(json.dumps(report, indent=2))

    if max_delta is not None:
        print(f"verify: max |delta| = {max_delta:.3e}", file=sys.stderr)
        check_deviation(max_delta)
    return EXIT_OK


# --- oracle gap -------------------------------------------------------------

def cmd_oracle_gap(args) -> int:
    names = args.circuits if args.circuits else list(bench.DESK_NAMES)
    rows = []
    for spec in names:
        cname, circuit = _load_circuit(spec)
        if args.truncate and circuit.num_ops > args.truncate:
            circuit = Circuit(circuit.num_qubits, circuit.ops[: args.truncate])
        dag = build_dag(circuit)
        for limit in args.limits:
            row = {
                "circuit": cname,
                "num_gates": circuit.num_ops,
                "limit": limit,
                "dagp": None,
                "optimal": None,
                "gap": None,
                "note": "",
            }
            try:
                row["dagp"] = partition_dagp(dag, limit).num_parts
                row["optimal"] = optimal_parts_bruteforce(dag, limit)
                row["gap"] = row["dagp"] - row["optimal"]
            except PartitionError as e:  # TooLargeForOracleError included
                row["note"] = str(e)
            rows.append(row)

    header = f"{'circuit':<14} {'gates':>5} {'limit':>5} {'dagp':>5} {'optimal':>7} {'gap':>4}"
    print(header)
    print("-" * len(header))
    for row in rows:
        if row["gap"] is None:
            print(
                f"{row['circuit']:<14} {row['num_gates']:>5} {row['limit']:>5} "
                f"-- {row['note']}"
            )
        else:
            print(
                f"{row['circuit']:<14} {row['num_gates']:>5} {row['limit']:>5} "
                f"{row['dagp']:>5} {row['optimal']:>7} {row['gap']:>4}"
            )
    scored = [r for r in rows if r["gap"] is not None]
    if scored:
        zeros = sum(1 for r in scored if r["gap"] == 0)
        print(
            f"{zeros}/{len(scored)} combinations optimal, "
            f"max gap {max(r['gap'] for r in scored)}"
        )
    if args.out:
        Path(args.out).write_text(json.dumps(rows, indent=2) + "\n")
    return EXIT_OK


# --- wiring -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hisim",
        description=(
            "Partitioned state-vector simulator: split a circuit's gate DAG "
            "into acyclic parts under a qubit limit, then execute the parts "
            "through cache-sized inner vectors, optionally across emulated "
            "ranks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "partition", help="partition a circuit and write the result as JSON"
    )
    r = sub.add_parser("run", help="simulate a circuit and report the run")
    r.add_argument("--mode", choices=_MODES, default="flat")
    for s in (p, r):
        s.add_argument("circuit", help=".qasm path or bundled circuit name")
        s.add_argument("--strategy", choices=STRATEGIES,
                       help=f"partitioner (default: {_DEFAULTS['strategy']})")
        s.add_argument("--limit", type=int,
                       help="working-set limit, of level 1 under --l2 "
                            "(default: n/2)")
        s.add_argument("--l2", type=int,
                       help="partition in two levels, dagp at --limit and "
                            "then at this limit inside each part")
        s.add_argument("--seed", type=int,
                       help=f"dfs shuffle seed (default: {_DEFAULTS['seed']})")
        s.add_argument("--trials", type=_int_from(1),
                       help=f"dfs restarts (default: {_DEFAULTS['trials']})")
    p.add_argument("--out", help="write partition JSON here instead of stdout")
    p.add_argument("--dag", help="also export the gate DAG (.json or .dot)")
    p.set_defaults(func=cmd_partition)

    r.add_argument("--p", type=_int_from(0),
                   help=f"rank bits for distributed mode, 2**p ranks "
                        f"(default: {_DEFAULTS['p']})")
    r.add_argument("--partition", help="run a partition loaded from JSON")
    r.add_argument("--verify", action="store_true",
                   help="compare against the flat reference (n <= 16)")
    r.add_argument("--report", help="write the run report JSON here")
    r.add_argument("--trace", help="write per-part trace JSON lines here")
    r.add_argument("--out", help="save the final state vector here")
    r.set_defaults(func=cmd_run)

    g = sub.add_parser(
        "oracle-gap",
        help="compare dagp part counts against the brute-force optimum",
    )
    g.add_argument("--circuits", nargs="+",
                   help="circuit names or paths (default: bundled set)")
    g.add_argument("--limits", nargs="+", type=int, default=[3, 4, 5, 6])
    g.add_argument("--truncate", type=_int_from(0), default=20,
                   help="keep only the first K gates (0 = no truncation)")
    g.add_argument("--out", help="write the table as JSON here")
    g.set_defaults(func=cmd_oracle_gap)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse handles --help and bad arguments by exiting; callers of
        # main() get the code back as a return value instead
        return int(e.code or 0)
    try:
        return args.func(args)
    except _UsageError as e:
        print(f"{parser.prog}: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationError as e:
        print(f"{parser.prog}: verification failed: {e}", file=sys.stderr)
        return EXIT_VERIFY
    except (QasmError, PartitionError, SimulationError, OSError, ValueError) as e:
        # json.JSONDecodeError is a ValueError
        print(f"{parser.prog}: error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
