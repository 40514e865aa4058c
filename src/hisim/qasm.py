"""OpenQASM 2.0 subset frontend.

Parses flat, measurement-free circuits into an immutable gate-list IR and
serializes them back to canonical text. The supported statements are the
header (``OPENQASM 2.0;``), ``include``, a single ``qreg``, ``barrier``
(ignored), comments, and applications of the fixed gate set below. Angle
expressions (``pi/2``, ``-3*pi/4`` ...) are evaluated at parse time.
"""

from __future__ import annotations

import enum
import math
import numbers
import re
from dataclasses import dataclass, field

from .errors import (
    DuplicateQubitError,
    InvalidParamError,
    InvalidQubitCountError,
    QasmSyntaxError,
    QubitOutOfRangeError,
    UnsupportedGateError,
)


class GateKind(enum.Enum):
    """Supported gates. The value is the OpenQASM mnemonic."""

    H = "h"
    X = "x"
    Y = "y"
    Z = "z"
    S = "s"
    T = "t"
    SDG = "sdg"
    TDG = "tdg"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    U1 = "u1"
    U3 = "u3"
    CX = "cx"
    CZ = "cz"
    CRZ = "crz"
    CRY = "cry"
    SWAP = "swap"
    CCX = "ccx"

    @property
    def arity(self) -> int:
        return _ARITY[self]

    @property
    def num_params(self) -> int:
        return _NUM_PARAMS[self]


_ARITY = {
    GateKind.H: 1, GateKind.X: 1, GateKind.Y: 1, GateKind.Z: 1,
    GateKind.S: 1, GateKind.T: 1, GateKind.SDG: 1, GateKind.TDG: 1,
    GateKind.RX: 1, GateKind.RY: 1, GateKind.RZ: 1,
    GateKind.U1: 1, GateKind.U3: 1,
    GateKind.CX: 2, GateKind.CZ: 2, GateKind.CRZ: 2, GateKind.CRY: 2,
    GateKind.SWAP: 2,
    GateKind.CCX: 3,
}

_NUM_PARAMS = {
    GateKind.RX: 1, GateKind.RY: 1, GateKind.RZ: 1, GateKind.U1: 1,
    GateKind.U3: 3, GateKind.CRZ: 1, GateKind.CRY: 1,
}
for _k in GateKind:
    _NUM_PARAMS.setdefault(_k, 0)

_BY_NAME = {k.value: k for k in GateKind}


@dataclass(frozen=True)
class GateOp:
    """One gate application. ``qubits`` are distinct indices into the register.

    For controlled gates the controls come first and the target last, matching
    the OpenQASM operand order (``cx c, t``; ``ccx c1, c2, t``).
    """

    kind: GateKind
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()


@dataclass(frozen=True)
class Circuit:
    """A flat circuit: a register size and the gate list in program order."""

    num_qubits: int
    ops: tuple[GateOp, ...] = field(default_factory=tuple)

    @property
    def num_ops(self) -> int:
        return len(self.ops)


def validate(circuit: Circuit) -> None:
    """Check IR invariants; raises a QasmError subclass on the first failure.

    Idempotent and side-effect free: circuits built programmatically get the
    same checks the parser applies.
    """
    if circuit.num_qubits < 1:
        raise InvalidQubitCountError(
            f"circuit needs at least one qubit, got {circuit.num_qubits}"
        )
    for i, op in enumerate(circuit.ops):
        if len(op.qubits) != op.kind.arity:
            raise InvalidQubitCountError(
                f"op {i}: {op.kind.value} takes {op.kind.arity} qubits, "
                f"got {len(op.qubits)}"
            )
        if len(op.params) != op.kind.num_params:
            raise InvalidQubitCountError(
                f"op {i}: {op.kind.value} takes {op.kind.num_params} params, "
                f"got {len(op.params)}"
            )
        for p in op.params:
            if not _is_angle(p):
                raise InvalidParamError(
                    f"op {i}: {op.kind.value} param {p!r} is not a finite "
                    f"real that a float holds exactly"
                )
        if len(set(op.qubits)) != len(op.qubits):
            raise DuplicateQubitError(f"op {i}: repeated qubit in {op.qubits}")
        for q in op.qubits:
            if not 0 <= q < circuit.num_qubits:
                raise QubitOutOfRangeError(
                    f"op {i}: qubit {q} outside [0, {circuit.num_qubits})"
                )


def _is_angle(p: object) -> bool:
    """A finite real that a float holds exactly (bools excluded), so
    ``to_qasm`` writes it as a literal that parses back equal."""
    if isinstance(p, bool) or not isinstance(p, numbers.Real):
        return False
    try:
        x = float(p)
    except OverflowError:
        return False
    return math.isfinite(x) and x == p


# --- angle expression evaluation -------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+\.\d*(?:[eE][+-]?\d+)?|\.?\d+(?:[eE][+-]?\d+)?)|(pi)|([()+\-*/^]))")
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def _eval_angle(text: str, line: int, col: int) -> float:
    """Evaluate an angle expression: numbers, pi, + - * / ^, parentheses.

    ``^`` is right-associative and binds tighter than unary minus, as
    Python's ``**`` does. Every literal and every intermediate result must
    be a finite real; anything else is a QasmSyntaxError.
    """
    def finite(val: float | complex) -> float:
        if isinstance(val, complex) or not math.isfinite(val):
            raise QasmSyntaxError(
                f"angle {text!r} is not a finite real number", line, col
            )
        return val

    tokens: list[str | float] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise QasmSyntaxError(
                    f"bad angle expression {text!r}", line, col
                )
            break
        num, pi, sym = m.groups()
        if num is not None:
            tokens.append(finite(float(num)))
        elif pi is not None:
            tokens.append(math.pi)
        else:
            tokens.append(sym)
        pos = m.end()

    def parse_expr(i: int, min_prec: int = 0) -> tuple[float, int]:
        val, i = parse_atom(i)
        while i < len(tokens) and isinstance(tokens[i], str) and tokens[i] in _PREC:
            op = tokens[i]
            if _PREC[op] < min_prec:
                break
            # ^ is right-associative, the rest left
            nxt = _PREC[op] if op == "^" else _PREC[op] + 1
            rhs, i = parse_expr(i + 1, nxt)
            if op == "+":
                val += rhs
            elif op == "-":
                val -= rhs
            elif op == "*":
                val *= rhs
            elif op == "/":
                val /= rhs
            else:
                val **= rhs
            val = finite(val)
        return val, i

    def parse_atom(i: int) -> tuple[float, int]:
        if i >= len(tokens):
            raise QasmSyntaxError(f"bad angle expression {text!r}", line, col)
        tok = tokens[i]
        if isinstance(tok, float):
            return tok, i + 1
        if tok == "-":
            val, j = parse_expr(i + 1, _PREC["^"])
            return -val, j
        if tok == "+":
            return parse_expr(i + 1, _PREC["^"])
        if tok == "(":
            val, j = parse_expr(i + 1)
            if j >= len(tokens) or tokens[j] != ")":
                raise QasmSyntaxError(f"unbalanced parens in {text!r}", line, col)
            return val, j + 1
        raise QasmSyntaxError(f"bad angle expression {text!r}", line, col)

    if not tokens:
        raise QasmSyntaxError("empty angle expression", line, col)
    try:
        val, end = parse_expr(0)
    except ZeroDivisionError:
        raise QasmSyntaxError(f"division by zero in {text!r}", line, col) from None
    except OverflowError:
        raise QasmSyntaxError(f"angle {text!r} overflows", line, col) from None
    if end != len(tokens):
        raise QasmSyntaxError(f"trailing junk in angle {text!r}", line, col)
    return val


# --- parsing ----------------------------------------------------------------

_QREG_RE = re.compile(r"qreg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$")
_QUBIT_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$")
# the parameter list runs to the last ')', so it may nest parentheses;
# operands hold none
_GATE_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*(\((.*)\))?\s*([^()]*)$")

_REJECTED = {
    "measure": "measurement is not supported (simulation is pure-state)",
    "reset": "reset is not supported",
    "creg": "classical registers are not supported",
    "if": "classical control is not supported",
    "gate": "custom gate definitions are not supported",
    "opaque": "opaque gates are not supported",
}


def _statements(text: str):
    """Split source into ';'-terminated statements with line/col positions."""
    line, col = 1, 1
    buf: list[str] = []
    start: tuple[int, int] | None = None
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "/" and text[i : i + 2] == "//":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            if buf:
                buf.append(" ")
            continue
        if ch == ";":
            if start is not None:
                stmt = "".join(buf).strip()
                if stmt:
                    yield stmt, start[0], start[1]
            buf = []
            start = None
        elif not ch.isspace() and start is None:
            start = (line, col)
            buf.append(ch)
        elif start is not None:
            buf.append(ch)
        col += 1
        i += 1
    if start is not None and "".join(buf).strip():
        raise QasmSyntaxError("statement missing ';'", start[0], start[1])


def parse_qasm(text: str) -> Circuit:
    """Parse OpenQASM 2.0 source into a Circuit.

    Raises QasmSyntaxError / UnsupportedGateError / QubitOutOfRangeError /
    DuplicateQubitError / InvalidQubitCountError. Exactly one qreg is
    required; barriers and comments are dropped.
    """
    reg_name: str | None = None
    num_qubits = 0
    ops: list[GateOp] = []

    for stmt, line, col in _statements(text):
        head = stmt.split(None, 1)[0] if stmt.split() else stmt
        if head == "OPENQASM":
            continue
        if head == "include":
            continue
        if head == "barrier":
            continue
        if head in _REJECTED:
            raise UnsupportedGateError(
                f"line {line}: {_REJECTED[head]}"
            )
        if head == "qreg":
            m = _QREG_RE.match(stmt)
            if m is None:
                raise QasmSyntaxError("malformed qreg", line, col)
            if reg_name is not None:
                raise UnsupportedGateError(
                    f"line {line}: only one quantum register is supported"
                )
            reg_name = m.group(1)
            num_qubits = int(m.group(2))
            if num_qubits < 1:
                raise InvalidQubitCountError(
                    f"line {line}: register must hold at least one qubit"
                )
            continue

        m = _GATE_RE.match(stmt)
        if m is None:
            raise QasmSyntaxError("unrecognized statement", line, col)
        name, paren, params_text, operands_text = m.groups()
        kind = _BY_NAME.get(name)
        if kind is None:
            raise UnsupportedGateError(f"line {line}: unsupported gate {name!r}")
        if reg_name is None:
            raise QasmSyntaxError("gate application before qreg", line, col)

        params: tuple[float, ...] = ()
        if paren is not None:
            parts = [p for p in params_text.split(",") if p.strip()]
            params = tuple(_eval_angle(p, line, col) for p in parts)
        if len(params) != kind.num_params:
            raise InvalidQubitCountError(
                f"line {line}: {name} takes {kind.num_params} params, "
                f"got {len(params)}"
            )

        qubits: list[int] = []
        operand_parts = [o.strip() for o in operands_text.split(",")]
        if operand_parts == [""]:
            operand_parts = []
        for otext in operand_parts:
            qm = _QUBIT_RE.match(otext)
            if qm is None:
                raise QasmSyntaxError(f"bad operand {otext!r}", line, col)
            oname, idx_text = qm.group(1), qm.group(2)
            if oname != reg_name:
                raise QasmSyntaxError(
                    f"unknown register {oname!r}", line, col
                )
            idx = int(idx_text)
            if idx >= num_qubits:
                raise QubitOutOfRangeError(
                    f"line {line}: qubit {idx} outside [0, {num_qubits})"
                )
            qubits.append(idx)
        if len(qubits) != kind.arity:
            raise InvalidQubitCountError(
                f"line {line}: {name} takes {kind.arity} qubits, got {len(qubits)}"
            )
        if len(set(qubits)) != len(qubits):
            raise DuplicateQubitError(
                f"line {line}: repeated qubit in {name} {tuple(qubits)}"
            )
        ops.append(GateOp(kind, tuple(qubits), params))

    if reg_name is None:
        raise QasmSyntaxError("no qreg declaration", 1, 1)
    circuit = Circuit(num_qubits, tuple(ops))
    validate(circuit)
    return circuit


def to_qasm(circuit: Circuit) -> str:
    """Serialize to canonical text: one statement per line, register ``q``.

    Angles are printed as the repr of their float value, so
    parse(to_qasm(c)) == c holds exactly for any valid circuit.
    """
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.num_qubits}];",
    ]
    for op in circuit.ops:
        name = op.kind.value
        if op.params:
            name += "(" + ",".join(repr(float(p)) for p in op.params) + ")"
        operands = ",".join(f"q[{q}]" for q in op.qubits)
        lines.append(f"{name} {operands};")
    return "\n".join(lines) + "\n"
