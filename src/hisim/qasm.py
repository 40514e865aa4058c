"""OpenQASM 2.0 subset frontend.

Parses flat, measurement-free circuits into an immutable gate-list IR and
serializes them back to canonical text. The supported statements are the
header (``OPENQASM 2.0;``), ``include``, a single ``qreg``, ``barrier``
(ignored), comments, and applications of the fixed gate set below. Angle
expressions (``pi/2``, ``-3*pi/4`` ...) are evaluated at parse time by
Python's ``ast`` (``_eval_angle``), and each gate is held to ``validate``'s
per-gate rule (``_check_op``) as it is read.
"""

from __future__ import annotations

import ast
import enum
import math
import numbers
import operator
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
    """Supported gates, one row each: ``(mnemonic, arity, num_params)``.

    The value is the OpenQASM mnemonic, so ``GateKind("cx")`` is CX;
    ``arity`` is the number of qubits the gate takes and ``num_params``
    the number of angles, none unless the row gives one. A controlled
    kind takes its controls first and its target last.
    """

    H = "h", 1
    X = "x", 1
    Y = "y", 1
    Z = "z", 1
    S = "s", 1
    T = "t", 1
    SDG = "sdg", 1
    TDG = "tdg", 1
    RX = "rx", 1, 1
    RY = "ry", 1, 1
    RZ = "rz", 1, 1
    U1 = "u1", 1, 1
    U3 = "u3", 1, 3
    CX = "cx", 2
    CZ = "cz", 2
    CRZ = "crz", 2, 1
    CRY = "cry", 2, 1
    SWAP = "swap", 2
    CCX = "ccx", 3

    def __new__(cls, mnemonic: str, arity: int, num_params: int = 0):
        kind = object.__new__(cls)
        kind._value_ = mnemonic
        kind.arity = arity
        kind.num_params = num_params
        return kind


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
        _check_op(op, circuit.num_qubits, f"op {i}")


def _check_op(op: GateOp, num_qubits: int, where: str) -> None:
    """The per-gate rule: operand and param counts, each param an angle
    (``_is_angle``), distinct qubits in ``[0, num_qubits)``, checked in that
    order; the first failure raises, its message led by ``where``."""
    kind = op.kind
    if len(op.qubits) != kind.arity:
        raise InvalidQubitCountError(
            f"{where}: {kind.value} takes {kind.arity} qubits, "
            f"got {len(op.qubits)}"
        )
    if len(op.params) != kind.num_params:
        raise InvalidQubitCountError(
            f"{where}: {kind.value} takes {kind.num_params} params, "
            f"got {len(op.params)}"
        )
    for p in op.params:
        if not _is_angle(p):
            raise InvalidParamError(
                f"{where}: {kind.value} param {p!r} is not a finite "
                f"real that a float holds exactly"
            )
    if len(set(op.qubits)) != len(op.qubits):
        raise DuplicateQubitError(f"{where}: repeated qubit in {op.qubits}")
    for q in op.qubits:
        if not 0 <= q < num_qubits:
            raise QubitOutOfRangeError(
                f"{where}: qubit {q} outside [0, {num_qubits})"
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

_NUMBER = r"\d+\.\d*(?:[eE][+-]?\d+)?|\.?\d+(?:[eE][+-]?\d+)?"
_TOKEN_RE = re.compile(rf"\s*(?:({_NUMBER})|(pi)|([()+\-*/^]))")
#: a whole angle text that is one unsigned number literal
_LITERAL_RE = re.compile(rf"\s*(?:{_NUMBER})\s*")
_FOLD = {
    ast.UAdd: operator.pos, ast.USub: operator.neg,
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Pow: operator.pow,
}


def _eval_angle(text: str, line: int, col: int) -> float:
    """Evaluate an angle expression: numbers, pi, + - * / ^, parentheses.

    ``_TOKEN_RE`` lexes the text, and each token is respelled as Python:
    a number as its float's repr, ``^`` as ``**``. The tokens are joined
    by spaces, so a ``**`` typed in QASM stays two operators and an error.
    ``ast`` parses the result, and a fold over constants, ``pi``, unary
    ``+ -`` and binary ``+ - * / **`` evaluates it; every other node is
    refused. Every literal and every value must be a finite real; anything
    else is a QasmSyntaxError.

    A text that is one unsigned number literal and blanks (``_LITERAL_RE``,
    the number token of ``_TOKEN_RE``) is read by ``float`` alone: the
    fold would give the float of the same literal, through its repr, which
    reads back bit for bit, and refuse it when it is not finite, as here.
    """
    def bad(what: str = "bad angle expression") -> QasmSyntaxError:
        return QasmSyntaxError(f"{what} {text!r}", line, col)

    def finite(val: float | complex) -> float:
        if isinstance(val, complex) or not math.isfinite(val):
            raise QasmSyntaxError(
                f"angle {text!r} is not a finite real number", line, col
            )
        return val

    if _LITERAL_RE.fullmatch(text):
        return finite(float(text))

    def fold(node: ast.expr) -> float:
        if isinstance(node, ast.Constant) and type(node.value) is float:
            return finite(node.value)
        if isinstance(node, ast.Name) and node.id == "pi":
            return math.pi
        if isinstance(node, ast.UnaryOp) and type(node.op) in _FOLD:
            return finite(_FOLD[type(node.op)](fold(node.operand)))
        if isinstance(node, ast.BinOp) and type(node.op) in _FOLD:
            return finite(_FOLD[type(node.op)](fold(node.left), fold(node.right)))
        raise bad()

    words: list[str] = []
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:
            break
        num, pi, sym = m.groups()
        if num is not None:
            words.append(repr(finite(float(num))))
        else:
            words.append(pi or ("**" if sym == "^" else sym))
        pos = m.end()
    if text[pos:].strip():
        raise bad()
    try:
        return fold(ast.parse(" ".join(words), mode="eval").body)
    except (SyntaxError, RecursionError, MemoryError):
        # the parser refuses more than 200 nested parentheses and runs out
        # of stack (MemoryError) on thousands of nested operators; the fold
        # recurses once per level of the tree
        raise bad() from None
    except ZeroDivisionError:
        raise bad("division by zero in") from None
    except OverflowError:
        raise QasmSyntaxError(f"angle {text!r} overflows", line, col) from None


# --- parsing ----------------------------------------------------------------

_QREG_RE = re.compile(r"qreg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$")
_QUBIT_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$")
# the parameter list runs to the last ')', so it may nest parentheses;
# operands hold none
_GATE_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*(\((.*)\))?\s*([^()]*)$")
_COMMENT_RE = re.compile(r"//[^\n]*")
_STATEMENT_RE = re.compile(r"\s*([^;]*)(;?)")

_REJECTED = {
    "measure": "measurement is not supported (simulation is pure-state)",
    "reset": "reset is not supported",
    "creg": "classical registers are not supported",
    "if": "classical control is not supported",
    "gate": "custom gate definitions are not supported",
    "opaque": "opaque gates are not supported",
}


def _statements(text: str):
    """Split source into ';'-terminated statements, each with the line and
    column of its first non-blank character.

    A ``//`` comment runs to the end of its line, so deleting it moves no
    character after it. Inside a statement each line break reads as a
    space. A non-blank tail without its ';' is a QasmSyntaxError.
    """
    text = _COMMENT_RE.sub("", text)
    line, seen = 1, 0
    for m in _STATEMENT_RE.finditer(text):
        stmt = m.group(1).replace("\n", " ").strip()
        if not stmt:
            continue
        start = m.start(1)
        line += text.count("\n", seen, start)
        seen = start
        col = start - text.rfind("\n", 0, start)
        if not m.group(2):
            raise QasmSyntaxError("statement missing ';'", line, col)
        yield stmt, line, col


def parse_qasm(text: str) -> Circuit:
    """Parse OpenQASM 2.0 source into a Circuit.

    Raises QasmSyntaxError / UnsupportedGateError / QubitOutOfRangeError /
    DuplicateQubitError / InvalidQubitCountError. Exactly one qreg is
    required; barriers and comments are dropped. Each gate passes
    ``validate``'s per-gate rule as it is read.
    """
    reg_name: str | None = None
    num_qubits = 0
    ops: list[GateOp] = []

    for stmt, line, col in _statements(text):
        head = stmt.split(None, 1)[0]
        if head in ("OPENQASM", "include", "barrier"):
            continue
        if head in _REJECTED:
            raise UnsupportedGateError(f"line {line}: {_REJECTED[head]}")
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
        name, _, params_text, operands_text = m.groups()
        kind = _BY_NAME.get(name)
        if kind is None:
            raise UnsupportedGateError(f"line {line}: unsupported gate {name!r}")
        if reg_name is None:
            raise QasmSyntaxError("gate application before qreg", line, col)

        # "h()" has no parameters; an empty entry of a list is refused
        params = tuple(
            _eval_angle(p, line, col) for p in params_text.split(",")
        ) if params_text and params_text.strip() else ()
        qubits: list[int] = []
        operands = [o.strip() for o in operands_text.split(",")]
        for otext in operands if operands != [""] else []:
            qm = _QUBIT_RE.match(otext)
            if qm is None:
                raise QasmSyntaxError(f"bad operand {otext!r}", line, col)
            if qm.group(1) != reg_name:
                raise QasmSyntaxError(
                    f"unknown register {qm.group(1)!r}", line, col
                )
            qubits.append(int(qm.group(2)))
        op = GateOp(kind, tuple(qubits), params)
        _check_op(op, num_qubits, f"line {line}")
        ops.append(op)

    if reg_name is None:
        raise QasmSyntaxError("no qreg declaration", 1, 1)
    return Circuit(num_qubits, tuple(ops))


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
