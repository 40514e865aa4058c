"""Parser and serializer tests for the OpenQASM subset."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hisim import bench
from hisim.cli import main
from hisim.errors import (
    DuplicateQubitError,
    InvalidParamError,
    InvalidQubitCountError,
    QasmSyntaxError,
    QubitOutOfRangeError,
    UnsupportedGateError,
)
from hisim.qasm import Circuit, GateKind, GateOp, parse_qasm, to_qasm, validate


def test_gate_kind_arities_and_params():
    assert GateKind.H.arity == 1 and GateKind.H.num_params == 0
    assert GateKind.CX.arity == 2 and GateKind.CX.num_params == 0
    assert GateKind.CCX.arity == 3
    assert GateKind.RZ.num_params == 1
    assert GateKind.U3.num_params == 3
    assert GateKind.CRY.arity == 2 and GateKind.CRY.num_params == 1
    assert len(GateKind) == 19


def test_parse_simple_circuit():
    c = parse_qasm(
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "qreg q[2];\n"
        "h q[0];\n"
        "cx q[0], q[1];\n"
    )
    assert c.num_qubits == 2
    assert c.num_ops == 2
    assert c.ops[0] == GateOp(GateKind.H, (0,), ())
    assert c.ops[1] == GateOp(GateKind.CX, (0, 1), ())


def test_parse_skips_comments_and_barriers():
    c = parse_qasm(
        "OPENQASM 2.0;\n"
        "qreg q[2];\n"
        "// prepare\n"
        "x q[1]; // flip\n"
        "barrier q;\n"
        "z q[0];\n"
    )
    assert [op.kind for op in c.ops] == [GateKind.X, GateKind.Z]


def test_angle_expressions():
    c = parse_qasm(
        "OPENQASM 2.0;\n"
        "qreg q[1];\n"
        "rz(pi/2) q[0];\n"
        "rz(-pi/4) q[0];\n"
        "rz(2*pi/8) q[0];\n"
        "rz(pi^2) q[0];\n"
        "rz(3*pi/4) q[0];\n"
        "rz(0.25) q[0];\n"
    )
    angles = [op.params[0] for op in c.ops]
    assert angles == pytest.approx(
        [math.pi / 2, -math.pi / 4, math.pi / 4, math.pi**2, 3 * math.pi / 4, 0.25]
    )


def test_angle_division_by_zero_is_a_syntax_error():
    with pytest.raises(QasmSyntaxError):
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\nrz(pi/0) q[0];\n")


@pytest.mark.parametrize(
    "angle,value",
    [
        ("-pi^2", -math.pi**2),  # ^ binds tighter than unary minus
        ("-2^0.5", -math.sqrt(2)),
        ("2^-1", 0.5),
        ("2^3^2", 512.0),  # right-associative
        ("-(pi/2)", -math.pi / 2),
        ("((1+1)*(pi-(pi/2)))", math.pi),
    ],
)
def test_angle_precedence_and_nested_parens(angle, value):
    c = parse_qasm(f"OPENQASM 2.0;\nqreg q[1];\nrz({angle}) q[0];\n")
    assert c.ops[0].params == pytest.approx((value,))


def test_nested_parens_in_a_parameter_list():
    c = parse_qasm("OPENQASM 2.0;\nqreg q[2];\nu3((pi),-(pi/2),(1)) q[1];\n")
    assert c.ops[0] == GateOp(GateKind.U3, (1,), (math.pi, -math.pi / 2, 1.0))


@pytest.mark.parametrize(
    "angle",
    ["2^10000", "1e999", "-1e999", "1e308*10", "1/1e999", "(-2)^0.5"],
)
def test_non_finite_or_complex_angle_is_a_syntax_error(angle):
    with pytest.raises(QasmSyntaxError) as exc:
        parse_qasm(f"OPENQASM 2.0;\nqreg q[1];\nh q[0];\nrx({angle}) q[0];\n")
    assert exc.value.line == 4


@pytest.mark.parametrize("angle", ["2^10000", "1e999", "(-2)^0.5"])
@pytest.mark.parametrize("command", ["run", "partition"])
def test_bad_angle_is_an_input_error_on_the_command_line(
    tmp_path, capsys, command, angle
):
    path = tmp_path / "bad.qasm"
    path.write_text(f"OPENQASM 2.0;\nqreg q[2];\nrx({angle}) q[0];\ncx q[0],q[1];\n")
    assert main([command, str(path)]) == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body,err",
    [
        ("h q[0]", QasmSyntaxError),  # missing semicolon
        ("h q[0]; h q[", QasmSyntaxError),
        ("frobnicate q[0];", UnsupportedGateError),
        ("measure q[0] -> c[0];", UnsupportedGateError),
        ("reset q[0];", UnsupportedGateError),
        ("if (c == 0) x q[0];", UnsupportedGateError),
        ("creg c[2];", UnsupportedGateError),
        ("h q[5];", QubitOutOfRangeError),
        ("cx q[1], q[1];", DuplicateQubitError),
        ("cx q[0];", InvalidQubitCountError),  # wrong operand count
        ("rz q[0];", InvalidQubitCountError),  # missing parameter
        ("h(0.5) q[0];", InvalidQubitCountError),  # unexpected parameter
    ],
)
def test_error_taxonomy(body, err):
    with pytest.raises(err):
        parse_qasm(f"OPENQASM 2.0;\nqreg q[2];\n{body}\n")


def test_syntax_errors_carry_position():
    with pytest.raises(QasmSyntaxError) as exc:
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[0]\n")
    assert exc.value.line == 3


def test_missing_qreg_rejected():
    with pytest.raises(QasmSyntaxError):
        parse_qasm("OPENQASM 2.0;\nh q[0];\n")


def test_two_qregs_rejected():
    with pytest.raises(UnsupportedGateError):
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\nqreg r[2];\n")


_KINDS = list(GateKind)


@st.composite
def circuits(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    num_ops = draw(st.integers(min_value=0, max_value=25))
    ops = []
    for _ in range(num_ops):
        kind = draw(st.sampled_from(_KINDS))
        qubits = tuple(
            draw(
                st.lists(
                    st.integers(0, n - 1),
                    min_size=kind.arity,
                    max_size=kind.arity,
                    unique=True,
                )
            )
        )
        params = tuple(
            draw(
                st.lists(
                    st.floats(
                        min_value=-10, max_value=10,
                        allow_nan=False, allow_infinity=False,
                    ),
                    min_size=kind.num_params,
                    max_size=kind.num_params,
                )
            )
        )
        ops.append(GateOp(kind, qubits, params))
    return Circuit(n, tuple(ops))


@settings(max_examples=60, deadline=None)
@given(circuits())
def test_roundtrip_through_text(circuit):
    """Serializing and reparsing reproduces the exact op list."""
    back = parse_qasm(to_qasm(circuit))
    assert back.num_qubits == circuit.num_qubits
    assert back.ops == circuit.ops


BAD_PARAMS = {
    "inf": math.inf, "-inf": -math.inf, "nan": math.nan, "1j": 1j,
    "complex-real": complex(0.5, 0), "True": True, "np.True_": np.True_,
    "str": "0.5", "None": None, "10**400": 10**400, "2**60+1": 2**60 + 1,
}


@pytest.mark.parametrize("param", BAD_PARAMS.values(), ids=BAD_PARAMS.keys())
def test_validate_rejects_params_that_do_not_round_trip(param):
    """Only finite reals that a float holds exactly survive to_qasm."""
    c = Circuit(2, (GateOp(GateKind.H, (0,), ()),
                    GateOp(GateKind.RX, (1,), (param,))))
    with pytest.raises(InvalidParamError, match=r"^op 1: rx param"):
        validate(c)


@pytest.mark.parametrize("param", [np.float64(0.5), np.float32(0.1), 3, -0.0])
def test_numpy_and_int_params_round_trip(param):
    c = Circuit(1, (GateOp(GateKind.RZ, (0,), (param,)),))
    validate(c)
    text = to_qasm(c)
    assert text.splitlines()[-1] == f"rz({float(param)!r}) q[0];"
    assert parse_qasm(text) == c


@pytest.mark.parametrize("name", bench.DESK_NAMES)
def test_bundled_files_parse_and_match_factories(name):
    assert bench.load(name) == bench.build(name)


def test_bv_30_shape():
    c = bench.build("bv_30")
    assert c.num_qubits == 30
    assert c.num_ops == 102


def test_bundled_names_cover_desk_set():
    assert set(bench.DESK_NAMES) <= set(bench.available())
    assert len(bench.DESK_NAMES) == 13
