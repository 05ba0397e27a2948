"""Runtime implementations of the supported intrinsics.

Every function receives float operands (the uniform runtime value type)
and returns a float; integer-resulting intrinsics truncate exactly the
way Fortran 77 requires (MOD/INT truncate toward zero).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Sequence

from repro.errors import InterpreterError


def _trunc(x: float) -> float:
    return float(int(x))


def _mod(a: float, b: float) -> float:
    if b == 0:
        raise InterpreterError("MOD with zero divisor")
    return float(math.fmod(a, b))


def _sign(a: float, b: float) -> float:
    return abs(a) if b >= 0 else -abs(a)


def _dim(a: float, b: float) -> float:
    return max(a - b, 0.0)


def _nint(x: float) -> float:
    return float(int(x + 0.5)) if x >= 0 else float(int(x - 0.5))


def power(a: float, b: float) -> float:
    """``a ** b`` for both backends: an integral exponent is repeated
    multiplication (Python's int power), any other needs a base >= 0;
    every domain fault is an :class:`InterpreterError`."""
    if not math.isfinite(b):
        raise InterpreterError("exponent is not finite")
    try:
        if b == int(b):
            return float(a ** int(b))
        if a < 0:
            raise InterpreterError("negative base with real exponent")
        return float(a ** b)
    except ZeroDivisionError:
        raise InterpreterError("zero raised to a negative power") from None
    except OverflowError:
        raise InterpreterError("result of ** out of range") from None


IMPLEMENTATIONS: Dict[str, Callable[..., float]] = {
    "INT": _trunc, "IFIX": _trunc, "IDINT": _trunc,
    "REAL": float, "FLOAT": float, "SNGL": float, "DBLE": float,
    "NINT": _nint, "IDNINT": _nint,
    "AINT": _trunc, "ANINT": _nint,
    "MOD": lambda a, b: float(math.fmod(a, b)),
    "AMOD": lambda a, b: float(math.fmod(a, b)),
    "DMOD": lambda a, b: float(math.fmod(a, b)),
    "ABS": abs, "IABS": lambda x: float(abs(int(x))), "DABS": abs,
    "SIGN": _sign, "ISIGN": _sign, "DSIGN": _sign,
    "DIM": _dim, "IDIM": _dim, "DDIM": _dim,
    "MAX": max, "MAX0": max, "AMAX1": max, "DMAX1": max, "AMAX0": max,
    "MAX1": max,
    "MIN": min, "MIN0": min, "AMIN1": min, "DMIN1": min, "AMIN0": min,
    "MIN1": min,
    "SQRT": math.sqrt, "DSQRT": math.sqrt,
    "EXP": math.exp, "DEXP": math.exp,
    "LOG": math.log, "ALOG": math.log, "DLOG": math.log,
    "LOG10": math.log10, "ALOG10": math.log10, "DLOG10": math.log10,
    "SIN": math.sin, "DSIN": math.sin,
    "COS": math.cos, "DCOS": math.cos,
    "TAN": math.tan, "DTAN": math.tan,
    "ASIN": math.asin, "DASIN": math.asin,
    "ACOS": math.acos, "DACOS": math.acos,
    "ATAN": math.atan, "DATAN": math.atan,
    "ATAN2": math.atan2, "DATAN2": math.atan2,
    "SINH": math.sinh, "DSINH": math.sinh,
    "COSH": math.cosh, "DCOSH": math.cosh,
    "TANH": math.tanh, "DTANH": math.tanh,
    "DPROD": lambda a, b: a * b,
    "LEN": lambda s: float(len(s)) if isinstance(s, str) else 1.0,
}


def call_intrinsic(name: str, args: Sequence[float]) -> float:
    impl = IMPLEMENTATIONS.get(name.upper())
    if impl is None:
        raise InterpreterError(f"intrinsic {name} is not executable")
    try:
        return float(impl(*args))
    except (ValueError, OverflowError) as exc:
        raise InterpreterError(f"{name}{tuple(args)}: {exc}") from exc
