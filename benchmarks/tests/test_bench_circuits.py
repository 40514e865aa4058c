"""The benchmark's input generator against the package's own circuits."""

from collections import Counter

import pytest

from hisim import bench
from hisim.qasm import parse_qasm

import circuits

CASES = [
    (("ising", 20, 2), bench.ising(20)),
    (("qft", 20, 0), bench.qft(20)),
    (("qaoa", 20, 2), bench.qaoa(20)),
    (("qaoa", 30, 3), bench.qaoa(30, 3)),
    (("qaoa", 30, 6), bench.qaoa(30, 6)),
]


@pytest.mark.parametrize("spec,expected", CASES, ids=lambda c: str(c))
def test_seed_zero_is_the_package_circuit(spec, expected):
    assert parse_qasm(circuits.qasm_text(*spec, seed=0)) == expected


@pytest.mark.parametrize("spec,expected", CASES, ids=lambda c: str(c))
@pytest.mark.parametrize("seed", [1, 2, 7, 12345])
def test_other_seeds_keep_the_gate_histogram(spec, expected, seed):
    got = parse_qasm(circuits.qasm_text(*spec, seed=seed))
    assert got.num_qubits == expected.num_qubits
    assert Counter(op.kind for op in got.ops) == Counter(op.kind for op in expected.ops)
    assert got != expected
    assert circuits.qasm_text(*spec, seed=seed) == circuits.qasm_text(*spec, seed=seed)


def test_unknown_family_is_refused():
    with pytest.raises(ValueError):
        circuits.qasm_text("grover", 7, 1, 0)
