"""Hierarchical state-vector quantum circuit simulator.

Pipeline: parse OpenQASM (:mod:`hisim.qasm`) -> build the gate DAG
(:mod:`hisim.dag`) -> partition it under a working-set limit
(:mod:`hisim.partition`) -> execute flat (:mod:`hisim.statevec`),
hierarchically (:mod:`hisim.hier`), or across emulated ranks
(:mod:`hisim.dist`).
"""

from .dag import GateDag, build_dag
from .dist import (
    CommStats,
    DistributedRun,
    RankLayout,
    choose_layout,
    plan_redistribution,
    simulate_distributed,
)
from .hier import (
    ExecutionTrace,
    execute_hierarchical,
    execute_multilevel,
    verify_against_flat,
)
from .partition import (
    MultiLevelPartition,
    Part,
    PartitionResult,
    check_partition,
    optimal_parts_bruteforce,
    partition_dagp,
    partition_dfs,
    partition_multilevel,
    partition_nat,
)
from .qasm import Circuit, GateKind, GateOp, parse_qasm, to_qasm, validate
from .statevec import (
    StateVector,
    gate_matrix,
    simulate_flat,
    state_bytes,
    zero_state,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "GateKind",
    "GateOp",
    "parse_qasm",
    "to_qasm",
    "validate",
    "GateDag",
    "build_dag",
    "StateVector",
    "gate_matrix",
    "simulate_flat",
    "state_bytes",
    "zero_state",
    "Part",
    "PartitionResult",
    "MultiLevelPartition",
    "check_partition",
    "partition_nat",
    "partition_dfs",
    "partition_dagp",
    "partition_multilevel",
    "optimal_parts_bruteforce",
    "ExecutionTrace",
    "execute_hierarchical",
    "execute_multilevel",
    "verify_against_flat",
    "RankLayout",
    "CommStats",
    "DistributedRun",
    "choose_layout",
    "plan_redistribution",
    "simulate_distributed",
    "__version__",
]
