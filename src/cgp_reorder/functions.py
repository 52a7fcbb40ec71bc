"""Function sets for Boolean circuits and symbolic regression.

Every operation takes the evaluation walk's ``(a, b, context)`` arguments; a
unary one ignores ``b``.  The Boolean operators are written against integer
bitmasks, and ``context`` is the mask: with ``mask=1`` and arguments in
{0, 1} they reduce to the plain 4-row truth tables, while a wider mask lets a
caller evaluate every row of a truth table at once on packed column
bitmasks.  The regression operators take float64 numpy arrays of equal shape
and ignore ``context``.  They are protected so that any finite real input
yields a finite real output.  Each one writes only into the array it
allocates itself, never into ``a`` or ``b``, and returns that array
read-only, so that a node's value can be shared between a genome and its
mutants.  The guarded operations compute every element, then overwrite the
guarded ones, so they run with numpy's floating-point warnings off, as
``genome.evaluate_batch`` runs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

PROTECTED_EPS = 1e-9
EXP_CLAMP = 700.0
# overflow clamp: finite inputs always yield finite outputs
VALUE_LIMIT = np.finfo(np.float64).max


def _b_and(a: int, b: int, mask: int) -> int:
    return a & b


def _b_or(a: int, b: int, mask: int) -> int:
    return a | b


def _b_nand(a: int, b: int, mask: int) -> int:
    return mask ^ (a & b)


def _b_nor(a: int, b: int, mask: int) -> int:
    return mask ^ (a | b)


def read_only(value: np.ndarray) -> np.ndarray:
    value.setflags(write=False)
    return value


def _finite(value: np.ndarray) -> np.ndarray:
    """Clamp IEEE overflow (+-inf) in ``value`` back to the largest finite
    float, in place, and return ``value`` read-only.

    The same bytes as ``np.clip(value, -VALUE_LIMIT, VALUE_LIMIT)``, NaN and
    signed zeros included, without np.clip's dispatch overhead.
    """
    np.maximum(value, -VALUE_LIMIT, out=value)
    np.minimum(value, VALUE_LIMIT, out=value)
    return read_only(value)


def add(a: np.ndarray, b: np.ndarray, context: None) -> np.ndarray:
    return _finite(np.add(a, b))


def sub(a: np.ndarray, b: np.ndarray, context: None) -> np.ndarray:
    return _finite(np.subtract(a, b))


def mul(a: np.ndarray, b: np.ndarray, context: None) -> np.ndarray:
    return _finite(np.multiply(a, b))


def protected_div(a: np.ndarray, b: np.ndarray, context: None) -> np.ndarray:
    """a / b, returning 1.0 wherever |b| < 1e-9."""
    # not ``>= EPS``: a NaN divisor is not guarded, and its quotient stays NaN
    guarded = np.abs(b) < PROTECTED_EPS
    out = np.divide(a, b)
    np.copyto(out, 1.0, where=guarded)
    return _finite(out)


def sin(a: np.ndarray, b: np.ndarray, context: None) -> np.ndarray:
    return read_only(np.sin(a))


def cos(a: np.ndarray, b: np.ndarray, context: None) -> np.ndarray:
    return read_only(np.cos(a))


def protected_log(a: np.ndarray, b: np.ndarray, context: None) -> np.ndarray:
    """ln(|a|), returning 0.0 wherever |a| < 1e-9."""
    out = np.abs(a)
    guarded = out < PROTECTED_EPS
    np.log(out, out=out)
    np.copyto(out, 0.0, where=guarded)
    return read_only(out)


def clamped_exp(a: np.ndarray, b: np.ndarray, context: None) -> np.ndarray:
    """exp(min(a, 700)) so the result never overflows to infinity."""
    out = np.minimum(a, EXP_CLAMP)
    np.exp(out, out=out)
    return read_only(out)


@dataclass(frozen=True)
class FunctionSpec:
    name: str
    arity: int
    fn: Callable


@dataclass(frozen=True)
class FunctionSet:
    """Ordered collection of node functions addressed by function id."""

    id: str
    entries: tuple[FunctionSpec, ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def is_boolean(self) -> bool:
        return self.id == BOOLEAN_SET.id

    @cached_property
    def arities(self) -> tuple[int, ...]:
        return tuple(spec.arity for spec in self.entries)

    @cached_property
    def functions(self) -> tuple[Callable, ...]:
        return tuple(spec.fn for spec in self.entries)


BOOLEAN_SET = FunctionSet(
    id="boolean",
    entries=(
        FunctionSpec("AND", 2, _b_and),
        FunctionSpec("OR", 2, _b_or),
        FunctionSpec("NAND", 2, _b_nand),
        FunctionSpec("NOR", 2, _b_nor),
    ),
)

REGRESSION_SET = FunctionSet(
    id="regression",
    entries=(
        FunctionSpec("ADD", 2, add),
        FunctionSpec("SUB", 2, sub),
        FunctionSpec("MUL", 2, mul),
        FunctionSpec("PDIV", 2, protected_div),
        FunctionSpec("SIN", 1, sin),
        FunctionSpec("COS", 1, cos),
        FunctionSpec("LN", 1, protected_log),
        FunctionSpec("EXP", 1, clamped_exp),
    ),
)

FUNCTION_SETS = {fs.id: fs for fs in (BOOLEAN_SET, REGRESSION_SET)}

# Conventions embedded into every result file so reports are self-describing.
PROTECTED_CONVENTIONS = {
    "pdiv": f"1.0 when |denominator| < {PROTECTED_EPS:g}, else a/b",
    "ln": f"0.0 when |x| < {PROTECTED_EPS:g}, else ln(|x|)",
    "exp": f"exp(min(x, {EXP_CLAMP:g}))",
}
