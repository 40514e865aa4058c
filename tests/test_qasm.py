"""Parser and serializer tests for the OpenQASM subset."""

from __future__ import annotations

import ast
import math
import operator

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
from hisim.qasm import (
    Circuit,
    GateKind,
    GateOp,
    _eval_angle,
    _statements,
    parse_qasm,
    to_qasm,
    validate,
)


def test_gate_kind_arities_and_params():
    assert GateKind.H.arity == 1 and GateKind.H.num_params == 0
    assert GateKind.CX.arity == 2 and GateKind.CX.num_params == 0
    assert GateKind.CCX.arity == 3
    assert GateKind.RZ.num_params == 1
    assert GateKind.U3.num_params == 3
    assert GateKind.CRY.arity == 2 and GateKind.CRY.num_params == 1
    assert len(GateKind) == 19


def test_every_gate_kind_is_its_row():
    """Each kind's mnemonic, which is its value and reads back to it,
    its arity and its number of angles."""
    rows = {
        "H": ("h", 1, 0), "X": ("x", 1, 0), "Y": ("y", 1, 0),
        "Z": ("z", 1, 0), "S": ("s", 1, 0), "T": ("t", 1, 0),
        "SDG": ("sdg", 1, 0), "TDG": ("tdg", 1, 0),
        "RX": ("rx", 1, 1), "RY": ("ry", 1, 1), "RZ": ("rz", 1, 1),
        "U1": ("u1", 1, 1), "U3": ("u3", 1, 3),
        "CX": ("cx", 2, 0), "CZ": ("cz", 2, 0), "CRZ": ("crz", 2, 1),
        "CRY": ("cry", 2, 1), "SWAP": ("swap", 2, 0), "CCX": ("ccx", 3, 0),
    }
    assert {k.name: (k.value, k.arity, k.num_params) for k in GateKind} == rows
    for kind in GateKind:
        assert GateKind(kind.value) is kind


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


def test_empty_parentheses_are_no_parameters():
    c = parse_qasm("OPENQASM 2.0;\nqreg q[2];\nh() q[0];\nx( ) q[1];\n")
    assert c.ops == (GateOp(GateKind.H, (0,), ()), GateOp(GateKind.X, (1,), ()))


@pytest.mark.parametrize(
    "angle",
    ["2^10000", "1e999", "-1e999", "1e308*10", "1/1e999", "(-2)^0.5"],
)
def test_non_finite_or_complex_angle_is_a_syntax_error(angle):
    with pytest.raises(QasmSyntaxError) as exc:
        parse_qasm(f"OPENQASM 2.0;\nqreg q[1];\nh q[0];\nrx({angle}) q[0];\n")
    assert exc.value.line == 4


#: binary operators of the angle grammar: (precedence, the operation);
#: ``^`` is right-associative, the others left
_BINARY = {
    "+": (1, operator.add), "-": (1, operator.sub),
    "*": (2, operator.mul), "/": (2, operator.truediv),
    "^": (4, operator.pow),
}
_UNARY = 3  # looser than ^, tighter than * and /
_ATOM = 5


class _Refused(Exception):
    pass


def _value(val):
    if isinstance(val, complex) or not math.isfinite(val):
        raise _Refused
    return val


def _fold(tree):
    """The tree's value, by the grammar's rules; ``_Refused`` where a value
    is not a finite real or an operation fails."""
    tag = tree[0]
    if tag == "num":
        return _value(float(tree[1]))
    if tag == "pi":
        return math.pi
    if tag == "paren":
        return _fold(tree[1])
    if tag == "neg":
        return -_fold(tree[1])
    try:
        return _value(_BINARY[tree[1]][1](_fold(tree[2]), _fold(tree[3])))
    except (ZeroDivisionError, OverflowError):
        raise _Refused from None


def _render(tree, space):
    """QASM text of the tree and its precedence, with only the parentheses
    the grammar needs (and the tree's own ``paren`` nodes)."""
    tag = tree[0]
    if tag == "num":
        return tree[1], _ATOM
    if tag == "pi":
        return "pi", _ATOM
    if tag == "paren":
        return f"({_render(tree[1], space)[0]})", _ATOM

    def operand(sub, least):
        text, prec = _render(sub, space)
        return text if prec >= least else f"({text})"

    if tag == "neg":
        return "-" + operand(tree[1], _UNARY), _UNARY
    op = tree[1]
    prec = _BINARY[op][0]
    left, right = (_ATOM, _UNARY) if op == "^" else (prec, prec + 1)
    text = space.join((operand(tree[2], left), op, operand(tree[3], right)))
    return text, prec


_LITERALS = st.sampled_from(["09", ".5", "5.", "1e-3", "2", "0", "1E+2",
                             "3.25e1", "1e308", "0.0"]) | st.from_regex(
    r"\A(\d{1,3}\.\d{0,3}|\.?\d{1,3})([eE][+-]?\d{1,2})?\Z")
_TREES = st.recursive(
    st.tuples(st.just("num"), _LITERALS) | st.just(("pi",)),
    lambda sub: (
        st.tuples(st.just("neg"), sub)
        | st.tuples(st.just("paren"), sub)
        | st.tuples(st.just("bin"), st.sampled_from(sorted(_BINARY)), sub, sub)
    ),
    max_leaves=12,
)


@settings(max_examples=400, deadline=None)
@given(_TREES, st.sampled_from(["", " "]))
def test_angles_fold_like_their_expression_tree(tree, space):
    """An expression tree rendered with the grammar's precedence parses
    back to the tree: its value is the tree's own fold, bit for bit, and
    it is refused exactly where the fold meets a value that is not a
    finite real."""
    text, _ = _render(tree, space)
    try:
        expect = _fold(tree)
    except _Refused:
        with pytest.raises(QasmSyntaxError):
            _eval_angle(text, 3, 4)
        return
    assert _eval_angle(text, 3, 4) == expect


@pytest.mark.parametrize(
    "angle",
    ["2**3", "inf", "nan", "1e999", "0x10", "1_0", "1j", "pi pi", "e",
     "1/(1e308*10)", "()", "(1)(2)", "pi(2)", "1 2", "2^", "-", "1..5"],
)
def test_angles_outside_the_grammar_are_refused(angle):
    with pytest.raises(QasmSyntaxError) as exc:
        _eval_angle(angle, 3, 4)
    assert (exc.value.line, exc.value.col) == (3, 4)


@pytest.mark.parametrize("angle", ["1e999", "2*1e999", "1e308*10"])
def test_a_non_finite_angle_says_so(angle):
    with pytest.raises(QasmSyntaxError, match="not a finite real number"):
        _eval_angle(angle, 1, 1)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0, allow_nan=False, allow_infinity=False))
def test_literal_angles_read_as_the_fold_reads_them(x):
    """A text that is one unsigned number literal is read without the
    ``ast`` fold, to the fold's value bit for bit: the repr of any finite
    non-negative float, and its exponent spellings (``e`` or ``E``, the
    exponent signed or not, zero-padded, blanks around), read as the same
    text in parentheses, which only the fold reads."""
    x = abs(x)  # -0.0 spells a sign
    mantissa, exp = f"{x:.17e}".split("e")
    e = int(exp)
    spellings = [
        repr(x), f"{mantissa}e{e}", f"{mantissa}E{e:+d}", f"{mantissa}e{e:+04d}",
        f" {x!r}\t",
    ]
    for text in spellings:
        fast, slow = _eval_angle(text, 1, 1), _eval_angle(f"({text})", 1, 1)
        assert type(fast) is float and fast.hex() == slow.hex()


def test_literal_angles_skip_the_ast(monkeypatch):
    """A lone literal is not parsed by ``ast``; anything more is."""
    parsed = []
    real = ast.parse

    def spy(source, *args, **kwargs):
        parsed.append(source)
        return real(source, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", spy)
    for text in ["2", " 0.5 ", "1e-3", ".25", "3.", "1E+2"]:
        assert _eval_angle(text, 1, 1) == float(text)
    assert parsed == []
    for text in ["(2)", "+1", "pi", "1/2"]:
        _eval_angle(text, 1, 1)
    assert len(parsed) == 4


@pytest.mark.parametrize(
    "text, expect",
    [
        ("1e999", "angle '1e999' is not a finite real number"),
        ("inf", "bad angle expression 'inf'"),
        ("nan", "bad angle expression 'nan'"),
        ("1e", "bad angle expression '1e'"),
        (".", "bad angle expression '.'"),
        ("1.5.2", "bad angle expression '1.5.2'"),
        ("+1", 1.0),
        (" 2 ", 2.0),
    ],
)
def test_texts_near_a_literal_keep_their_reading(text, expect):
    """Texts at the edge of the literal shortcut read as they did before
    it: the same value, or the same error class, message, line and
    column."""
    if isinstance(expect, float):
        assert _eval_angle(text, 3, 4) == expect
        return
    with pytest.raises(QasmSyntaxError) as exc:
        _eval_angle(text, 3, 4)
    assert type(exc.value) is QasmSyntaxError
    assert str(exc.value) == f"line 3, col 4: {expect}"
    assert (exc.value.line, exc.value.col) == (3, 4)


@pytest.mark.parametrize(
    "angle",
    ["(" * 600 + "1" + ")" * 600, "-" * 5000 + "1", "+".join(["1"] * 1500),
     "+".join(["1"] * 5000), "^".join(["1"] * 5000)],
    ids=["600 parens", "5000 minuses", "1500 sums", "5000 sums", "5000 powers"],
)
def test_deep_angles_are_syntax_errors(angle):
    """Python's parser caps nesting at 200 parentheses and the fold
    recurses once per level, so an angle far past either is refused as
    a QasmSyntaxError, not a RecursionError or MemoryError."""
    with pytest.raises(QasmSyntaxError):
        parse_qasm(f"OPENQASM 2.0;\nqreg q[1];\nrz({angle}) q[0];\n")


def test_nesting_within_the_bounds_parses():
    angle = "(" * 200 + "-" * 300 + "+".join(["1"] * 300) + ")" * 200
    c = parse_qasm(f"OPENQASM 2.0;\nqreg q[1];\nrz({angle}) q[0];\n")
    assert c.ops[0].params == (300.0,)


@pytest.mark.parametrize(
    "angle",
    ["2^10000", "1e999", "(-2)^0.5", "pi,", ",pi", "1,,2",
     pytest.param("(" * 600 + "1" + ")" * 600, id="600 parens")],
)
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
        ("rz(pi,) q[0];", QasmSyntaxError),  # empty parameter entries
        ("rz(,pi) q[0];", QasmSyntaxError),
        ("u3(1,,2,3) q[0];", QasmSyntaxError),
    ],
)
def test_error_taxonomy(body, err):
    with pytest.raises(err):
        parse_qasm(f"OPENQASM 2.0;\nqreg q[2];\n{body}\n")


def test_syntax_errors_carry_position():
    with pytest.raises(QasmSyntaxError) as exc:
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[0]\n")
    assert exc.value.line == 3


def test_statements_carry_the_position_of_their_first_character():
    text = (
        "// header comment\n"
        "\n"
        "OPENQASM 2.0; // trailing ; comment\n"
        "   qreg q[3];\n"
        "\t\n"
        "  // a comment line\n"
        "  cx q[0],\n"
        "     q[1];  h\n"
        "q[2]\n"
        "  ;;  rz(pi //\n"
        "/2) q[0];\n"
    )
    assert list(_statements(text)) == [
        ("OPENQASM 2.0", 3, 1),
        ("qreg q[3]", 4, 4),
        ("cx q[0],      q[1]", 7, 3),
        ("h q[2]", 8, 13),
        ("rz(pi  /2) q[0]", 10, 7),
    ]
    assert parse_qasm(text).ops == (
        GateOp(GateKind.CX, (0, 1)),
        GateOp(GateKind.H, (2,)),
        GateOp(GateKind.RZ, (0,), (math.pi / 2,)),
    )


@pytest.mark.parametrize(
    "tail,line,col",
    [("h q[0]", 4, 1), ("  // c\n\n   x\nq[1]", 6, 4), ("h q[0]; // c\n  z q[1]", 5, 3)],
)
def test_a_tail_without_its_semicolon_is_refused_where_it_starts(tail, line, col):
    text = "OPENQASM 2.0;\n// c\nqreg q[2];\n" + tail
    with pytest.raises(QasmSyntaxError, match="missing ';'") as exc:
        list(_statements(text))
    assert (exc.value.line, exc.value.col) == (line, col)
    with pytest.raises(QasmSyntaxError) as exc:
        parse_qasm(text)
    assert (exc.value.line, exc.value.col) == (line, col)


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


@pytest.mark.parametrize("name", bench.available())
def test_bundled_files_parse_and_match_factories(name):
    """Every bundled circuit, as its factory builds it for ``hisim run
    NAME``, is valid and reads back from its OpenQASM text unchanged."""
    circuit = bench.build(name)
    validate(circuit)
    assert parse_qasm(to_qasm(circuit)) == circuit


def test_bv_30_shape():
    c = bench.build("bv_30")
    assert c.num_qubits == 30
    assert c.num_ops == 102


def test_bundled_names_cover_desk_set():
    assert set(bench.DESK_NAMES) <= set(bench.available())
    assert len(bench.DESK_NAMES) == 13
