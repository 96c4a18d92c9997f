"""Integer-endpoint interval arithmetic.

:class:`Interval` is a possibly unbounded integer interval ``[lo, hi]``
(``None`` is an unbounded end) with sound arithmetic for the operations that
appear in layout expressions: addition, multiplication, floor division and
modulo.  It is not an analysis of its own: :meth:`repro.symbolic.SymbolicEnv.
range_of` uses it wherever every operand of a node has literal constant
endpoints — exactly where negative factors and sign-straddling div/mod defeat
the symbolic rules.  All operations are conservative: the returned interval
always contains every value the operation can produce for operands inside
the input intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

__all__ = ["Interval"]


def _neg(value: Optional[int]) -> Optional[int]:
    return None if value is None else -value


def _min_opt(values: Iterable[Optional[int]]) -> Optional[int]:
    out: Optional[int] = None
    first = True
    for v in values:
        if v is None:
            return None
        if first or v < out:  # type: ignore[operator]
            out = v
            first = False
    return out


def _max_opt(values: Iterable[Optional[int]]) -> Optional[int]:
    out: Optional[int] = None
    first = True
    for v in values:
        if v is None:
            return None
        if first or v > out:  # type: ignore[operator]
            out = v
            first = False
    return out


@dataclass(frozen=True)
class Interval:
    """A closed integer interval ``[lo, hi]``; ``None`` means unbounded."""

    lo: Optional[int] = None
    hi: Optional[int] = None

    def __post_init__(self):
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def point(value: int) -> "Interval":
        return Interval(value, value)

    @staticmethod
    def top() -> "Interval":
        return Interval(None, None)

    # -- queries --------------------------------------------------------------

    def contains(self, value: int) -> bool:
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def is_nonnegative(self) -> bool:
        return self.lo is not None and self.lo >= 0

    # -- lattice --------------------------------------------------------------

    def union(self, other: "Interval") -> "Interval":
        return Interval(_min_opt([self.lo, other.lo]), _max_opt([self.hi, other.hi]))

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        lo = self.lo if other.lo is None else (other.lo if self.lo is None else max(self.lo, other.lo))
        hi = self.hi if other.hi is None else (other.hi if self.hi is None else min(self.hi, other.hi))
        if lo is not None and hi is not None and lo > hi:
            return None
        return Interval(lo, hi)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None else self.lo + other.lo
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return Interval(lo, hi)

    def __neg__(self) -> "Interval":
        return Interval(_neg(self.hi), _neg(self.lo))

    def __mul__(self, other: "Interval") -> "Interval":
        corners = []
        unbounded = False
        for a in (self.lo, self.hi):
            for b in (other.lo, other.hi):
                if a is None or b is None:
                    unbounded = True
                else:
                    corners.append(a * b)
        if unbounded:
            # A product involving an unbounded end is only bounded in special
            # cases (e.g. multiplication by the point 0); keep it simple and
            # sound by treating any unbounded operand as fully unbounded,
            # unless one operand is exactly the point 0.
            if self == Interval.point(0) or other == Interval.point(0):
                return Interval.point(0)
            # Non-negative times non-negative keeps a lower bound of 0.
            if self.is_nonnegative() and other.is_nonnegative():
                lo = 0
                if self.lo is not None and other.lo is not None:
                    lo = self.lo * other.lo
                return Interval(lo, None)
            return Interval.top()
        return Interval(min(corners), max(corners))

    def floordiv(self, other: "Interval") -> "Interval":
        """Sound interval for floor division.

        The divisor interval implicitly excludes 0 (division by zero is a
        runtime error, so the result range only needs to cover defined
        executions).  A divisor interval that straddles 0 is split into its
        negative and positive halves and the results are unioned.  Half-
        bounded operands stay as tight as floor-division monotonicity allows:
        ``x // d`` for ``d >= 1`` is monotone increasing in ``x`` and, for a
        fixed ``x``, moves monotonically toward ``0`` (``x >= 0``) or ``-1``
        (``x < 0``) as ``d`` grows without bound.
        """
        positive = other.intersect(Interval(1, None))
        negative = other.intersect(Interval(None, -1))
        if positive is None and negative is None:
            # the divisor can only be 0: no defined executions to cover
            return Interval.top()
        if positive is None:
            # x // d == (-x) // (-d) exactly (same rational, same floor)
            return (-self).floordiv(-negative)
        if negative is not None:
            return self.floordiv(positive).union((-self).floordiv(-negative))
        dlo, dhi = positive.lo, positive.hi  # dlo >= 1; dhi None or >= dlo
        # Upper bound: driven by the numerator's upper end.
        if self.hi is None:
            hi: Optional[int] = None
        elif self.hi >= 0:
            hi = self.hi // dlo  # largest quotient at the smallest divisor
        else:
            # negative numerator: quotient grows toward -1 as d grows
            hi = -1 if dhi is None else self.hi // dhi
        # Lower bound: driven by the numerator's lower end.
        if self.lo is None:
            lo: Optional[int] = None
        elif self.lo >= 0:
            lo = 0 if dhi is None else self.lo // dhi  # shrinks toward 0
        else:
            lo = self.lo // dlo  # most negative at the smallest divisor
        return Interval(lo, hi)

    def mod(self, other: "Interval") -> "Interval":
        """Sound interval for Python-semantics modulo.

        Like :meth:`floordiv`, the divisor interval implicitly excludes 0;
        a straddling divisor is split into its sign-definite halves and the
        results are unioned.  ``x % d`` lies in ``[0, d - 1]`` for ``d >= 1``
        and in ``[d + 1, 0]`` for ``d <= -1`` (Python/floor semantics), with
        the identity refinement when the value provably never wraps.
        """
        positive = other.intersect(Interval(1, None))
        negative = other.intersect(Interval(None, -1))
        results = []
        if positive is not None:
            if (
                self.is_nonnegative()
                and positive.lo is not None
                and self.hi is not None
                and self.hi < positive.lo
            ):
                # value already smaller than any possible modulus
                results.append(Interval(self.lo, self.hi))
            else:
                results.append(
                    Interval(0, None if positive.hi is None else positive.hi - 1)
                )
        if negative is not None:
            if (
                self.hi is not None
                and self.hi <= 0
                and negative.hi is not None
                and self.lo is not None
                and self.lo > negative.hi
            ):
                # nonpositive value strictly above every divisor: identity
                results.append(Interval(self.lo, self.hi))
            else:
                results.append(
                    Interval(None if negative.lo is None else negative.lo + 1, 0)
                )
        if not results:
            return Interval.top()
        out = results[0]
        for extra in results[1:]:
            out = out.union(extra)
        return out

    def __repr__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"
