"""Phase-encoding functions and the two-layer feature-map circuit.

A 2-d input x is encoded through three phases (phi1, phi2, phi12) into
the circuit U_phi H H U_phi H H acting on |00>, where U_phi is the
diagonal two-qubit phase gate.  phi1 = x1 and phi2 = x2 for every
encoding, so an encoding is its entangling phase: any function
phi12(x1, x2), such as the five built-ins (ids ``ef1`` .. ``ef5``) or a
compiled :func:`parse_phase_expression`.
"""

from __future__ import annotations

import ast
import math
from typing import Callable

import numpy as np

from .states import hadamard_layer, phase_layer

PhaseFunction = Callable[[float, float], float]


class EncodingError(ValueError):
    """An encoding function produced a non-finite phase."""


_BUILTIN_PHI12 = {
    "ef1": lambda x1, x2: math.pi * x1 * x2,
    "ef2": lambda x1, x2: (math.pi / 2.0) * (1.0 - x1) * (1.0 - x2),
    "ef3": lambda x1, x2: math.exp(abs(x1 - x2) ** 2 / (8.0 / math.log(math.pi))),
    "ef4": lambda x1, x2: math.pi / (3.0 * math.cos(x1) * math.cos(x2)),
    "ef5": lambda x1, x2: math.pi * math.cos(x1) * math.cos(x2),
}

BUILTIN_IDS = tuple(_BUILTIN_PHI12)


def builtin(encoding_id: str) -> PhaseFunction:
    """Return the phi12 function of one of the built-ins ``ef1`` .. ``ef5``."""
    key = encoding_id.lower()
    if key not in _BUILTIN_PHI12:
        raise ValueError(f"unknown encoding id {encoding_id!r}; expected one of {BUILTIN_IDS}")
    return _BUILTIN_PHI12[key]


def eval_encoding(phi12: PhaseFunction, x) -> tuple[float, float, float]:
    """The phases (phi1, phi2, phi12) = (x1, x2, phi12(x1, x2)), checking finiteness."""
    x1, x2 = float(x[0]), float(x[1])
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise EncodingError("input point is not finite")
    try:
        v = phi12(x1, x2)
        if isinstance(v, complex):
            raise ValueError(f"complex value {v}")
        v = float(v)
    except (ArithmeticError, ValueError) as exc:
        raise EncodingError(f"phi12 failed at x=({x1}, {x2}): {exc}") from exc
    if not math.isfinite(v):
        raise EncodingError(f"phi12 is not finite at x=({x1}, {x2}): {v}")
    return x1, x2, v


def encoding_phases(phi12: PhaseFunction, points) -> np.ndarray:
    """(N, 3) array of (phi1, phi2, phi12), one :func:`eval_encoding` per point.

    Phases stay scalar Python evaluations: ``math.exp`` and ``np.exp`` do
    not always agree to the last bit, and evaluating point by point makes
    the EncodingError name the first bad point.  Points must be (N, 2).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (N, 2), got {pts.shape}")
    return np.array([eval_encoding(phi12, x) for x in pts], dtype=float).reshape(-1, 3)


def phase_states(phases) -> np.ndarray:
    """(..., 4) amplitudes of the feature circuit for (..., 3) phase rows.

    |Phi> = U_phi (H x H) U_phi (H x H) |00>.  The diagonal layer U_phi
    follows the phase-gate (u1) sequence convention: basis state b picks
    up exp(-i/2 * (phi1 z1 + phi2 z2 + phi12 z1 z2)), which is the
    convention under which the closed-form coefficient table of
    :mod:`qkmap.pauli` holds exactly.
    """
    p = -0.5 * np.asarray(phases, dtype=float)
    amps = np.zeros(p.shape[:-1] + (4,), dtype=np.complex128)
    amps[..., 0] = 1.0
    for _ in range(2):
        amps = phase_layer(hadamard_layer(amps), [p[..., 0], p[..., 1]], {(1, 2): p[..., 2]})
    return amps


def feature_states(phi12: PhaseFunction, points) -> np.ndarray:
    """(N, 4) amplitudes of |Phi(x)> for every point x."""
    return phase_states(encoding_phases(phi12, points))


# --- expression mini-language --------------------------------------------
#
# Custom phase functions can be given as text expressions over x1 and x2.
# Grammar: numbers, x1, x2, pi, the functions sin, cos, exp, abs, ln, the
# operators + - * / and ^ (or **) for power, unary minus, parentheses.
# Whitespace-insensitive, standard precedence.

_EXPR_FUNCS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "abs": abs,
    "ln": math.log,
}

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def _validate_expr(node: ast.AST, text: str) -> None:
    if isinstance(node, ast.Expression):
        _validate_expr(node.body, text)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
        _validate_expr(node.left, text)
        _validate_expr(node.right, text)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        _validate_expr(node.operand, text)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _EXPR_FUNCS:
            raise ValueError(f"unknown function in expression {text!r}")
        if len(node.args) != 1 or node.keywords:
            raise ValueError(f"functions take exactly one argument: {text!r}")
        _validate_expr(node.args[0], text)
    elif isinstance(node, ast.Name):
        if node.id not in ("x1", "x2", "pi"):
            raise ValueError(f"unknown name {node.id!r} in expression {text!r}")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ValueError(f"non-numeric constant in expression {text!r}")
        # floats, not arbitrary-precision ints: 9^9^9 overflows instead of hanging
        try:
            node.value = float(node.value)
        except OverflowError as exc:
            raise ValueError(f"constant too large in expression {text!r}") from exc
    else:
        raise ValueError(f"unsupported syntax in expression {text!r}")


def parse_phase_expression(text: str) -> PhaseFunction:
    """Compile a mini-language expression to a phase function of (x1, x2)."""
    source = text.replace("^", "**").strip()
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression {text!r}: {exc}") from exc
    _validate_expr(tree, text)
    code = compile(tree, "<phase-expression>", "eval")
    env = {"__builtins__": {}, "pi": math.pi, **_EXPR_FUNCS}

    def fn(x1: float, x2: float) -> float:
        return eval(code, env, {"x1": x1, "x2": x2})

    return fn
