"""Runtime value model: storage buffers, array views, scalar references.

All numeric data lives in 1-D ``numpy.float64`` buffers (exact for the
integer magnitudes Fortran 77 benchmarks use).  A COMMON block is one
buffer shared program-wide; each program unit sees it through its own
sequence-associated views — the mechanism behind the paper's Figure 2/3
aliasing (different subroutines viewing different regions/shapes of the
same storage).

Arrays are column-major: ``A(i1, i2, ...)`` with declared dims
``(l_k : u_k)`` maps to offset ``sum_k (i_k - l_k) * stride_k`` with
``stride_1 = 1`` and ``stride_{k+1} = stride_k * extent_k``.  Passing an
array *element* to a subroutine passes a view starting at that element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import InterpreterError


@dataclass
class ScalarRef:
    """A by-reference scalar cell: one slot of a buffer."""

    buffer: np.ndarray
    offset: int
    typename: str = "REAL"

    def get(self) -> float:
        v = float(self.buffer[self.offset])
        if self.typename == "INTEGER":
            return float(int(v))
        return v

    def set(self, value: float) -> None:
        if self.typename == "INTEGER":
            value = float(int(value))
        self.buffer[self.offset] = value


class ArrayView:
    """A column-major view into a buffer."""

    __slots__ = ("buffer", "offset", "lowers", "extents", "strides",
                 "typename", "name")

    def __init__(self, buffer: np.ndarray, offset: int,
                 lowers: Sequence[int], extents: Sequence[Optional[int]],
                 typename: str = "REAL", name: str = "?"):
        self.buffer = buffer
        self.offset = offset
        self.lowers = list(lowers)
        self.extents = list(extents)  # None = assumed size (last dim only)
        self.typename = typename
        self.name = name
        strides: List[int] = []
        stride = 1
        for ext in self.extents:
            strides.append(stride)
            if ext is not None:
                stride *= ext
        self.strides = strides

    @property
    def rank(self) -> int:
        return len(self.extents)

    def size(self) -> int:
        """Total elements (available buffer length for assumed size)."""
        if self.extents and self.extents[-1] is None:
            head = self.strides[-1]
            remaining = len(self.buffer) - self.offset
            return (remaining // head) * head if head else remaining
        total = 1
        for e in self.extents:
            total *= 1 if e is None else e
        return total

    def flat_offset(self, subs: Sequence[int]) -> int:
        if len(subs) != self.rank:
            raise InterpreterError(
                f"array {self.name}: {len(subs)} subscripts for rank "
                f"{self.rank}")
        off = self.offset
        for sub, lower, ext, stride in zip(subs, self.lowers, self.extents,
                                           self.strides):
            rel = int(sub) - lower
            if rel < 0 or (ext is not None and rel >= ext):
                raise InterpreterError(
                    f"subscript {int(sub)} out of bounds for dimension of "
                    f"{self.name} ({lower}:{lower + (ext or 0) - 1})")
            off += rel * stride
        if off < 0 or off >= len(self.buffer):
            raise InterpreterError(
                f"reference beyond storage of {self.name}")
        return off

    def get(self, subs: Sequence[int]) -> float:
        v = float(self.buffer[self.flat_offset(subs)])
        if self.typename == "INTEGER":
            return float(int(v))
        return v

    def set(self, subs: Sequence[int], value: float) -> None:
        if self.typename == "INTEGER":
            value = float(int(value))
        self.buffer[self.flat_offset(subs)] = value

    def element_ref(self, subs: Sequence[int]) -> ScalarRef:
        return ScalarRef(self.buffer, self.flat_offset(subs), self.typename)

    def subview(self, subs: Sequence[int], lowers: Sequence[int],
                extents: Sequence[Optional[int]], typename: str,
                name: str) -> "ArrayView":
        """A view starting at element ``subs`` with a new shape — how an
        array-element actual binds to an array formal."""
        return ArrayView(self.buffer, self.flat_offset(subs), lowers,
                         extents, typename, name)

    def fill(self, value: float) -> None:
        self.buffer[self.offset:self.offset + self.size()] = value
