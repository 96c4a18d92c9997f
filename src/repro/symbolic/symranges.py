"""Symbolic interval ranges and the assumption environment.

Layout lowering produces index expressions whose validity conditions involve
*symbolic* bounds: an index atom produced by ``tl.arange(0, BK)`` lies in
``[0, BK - 1]`` where ``BK`` is a compile-time-constant *symbol*, not a
number.  The paper propagates such ranges through the layout and discharges
the side conditions of its simplification rules (Table II) with Z3.  This
module provides the reproduction's equivalent machinery:

* :class:`SymInterval` — an interval whose bounds are symbolic expressions
  (or ``None`` for unbounded ends of a declaration),
* :class:`SymbolicEnv` — the assumption environment: per-variable ranges,
  divisibility facts (``BK`` divides ``K``) and helper constructors for the
  common "size symbol" (positive) and "index symbol" (``0 <= i < extent``)
  declarations,
* :meth:`SymbolicEnv.range_of` — the one range analysis: a sound symbolic
  interval for an arbitrary expression.  Where every operand has literal
  constant endpoints it combines them with
  :class:`~repro.symbolic.ranges.Interval` arithmetic (negative factors,
  sign-straddling div/mod); a constant times one factor scales that factor's
  range whatever its sign; a node it cannot bound is its own endpoint, so
  enclosing sums still cancel against it;
* :func:`affine_strides` / :func:`is_mixed_radix_bijection` — the
  environment-free stride decomposition behind static layout-bijectivity
  proofs.

The structural non-negativity / positivity checks that make symbolic bound
comparisons possible live in :mod:`repro.symbolic.prover`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import Callable, Iterable, Mapping, Optional, Sequence, Tuple

from .expr import (
    Add,
    Const,
    Expr,
    ExprLike,
    FloorDiv,
    Max,
    Min,
    Mod,
    Mul,
    Var,
    as_expr,
)
from .ranges import Interval
from .stats import CACHE_STATS

__all__ = [
    "EnvCaches",
    "SymInterval",
    "SymbolicEnv",
    "affine_strides",
    "is_mixed_radix_bijection",
]


def _opt_expr(value) -> Optional[Expr]:
    if value is None:
        return None
    return as_expr(value)


@dataclass(frozen=True)
class SymInterval:
    """An integer interval whose endpoints may be symbolic expressions."""

    lo: Optional[Expr] = None
    hi: Optional[Expr] = None

    def __post_init__(self):
        object.__setattr__(self, "lo", _opt_expr(self.lo))
        object.__setattr__(self, "hi", _opt_expr(self.hi))

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def point(value: ExprLike) -> "SymInterval":
        e = as_expr(value)
        return SymInterval(e, e)

    @staticmethod
    def index(extent: ExprLike) -> "SymInterval":
        """Range of an index into a dimension of symbolic size ``extent``."""
        return SymInterval(Const(0), as_expr(extent) - 1)

    @staticmethod
    def positive() -> "SymInterval":
        return SymInterval(Const(1), None)

    @staticmethod
    def nonneg() -> "SymInterval":
        return SymInterval(Const(0), None)

    # -- queries --------------------------------------------------------------

    def constant_bounds(self) -> tuple[Optional[int], Optional[int]]:
        """Return the bounds as plain ints where they are literal constants."""
        lo = self.lo.value if isinstance(self.lo, Const) else None
        hi = self.hi.value if isinstance(self.hi, Const) else None
        return lo, hi

    def __repr__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


def _interval_range(
    expr: Expr, ranges: Iterable[SymInterval], combine: Callable[..., Interval]
) -> SymInterval:
    """Combine the operand ``ranges`` of ``expr`` with integer
    :class:`Interval` arithmetic when every endpoint is a literal constant;
    otherwise ``expr`` is its own range."""
    intervals = []
    for r in ranges:
        if not (isinstance(r.lo, Const) and isinstance(r.hi, Const)):
            return SymInterval.point(expr)
        intervals.append(Interval(r.lo.value, r.hi.value))
    out = combine(*intervals)
    return SymInterval(out.lo, out.hi)


def _known(end: Expr, node: Expr) -> bool:
    """Does the endpoint ``end`` of ``node`` carry information?  A node that
    is its own endpoint does not — unless it is a constant."""
    return end is not node or isinstance(node, Const)


class EnvCaches:
    """Every env-scoped memo family behind **one** invalidation epoch.

    ``invalidate()`` bumps the single ``epoch`` (the number that feeds
    :attr:`SymbolicEnv.fingerprint`) and drops every family at once, so a
    cache entry in *any* family is always consistent with the facts in force
    when it was written.

    Families (all identity-keyed on ``Expr.expr_id``):

    * ``simplify`` — one-pass rewriter results (:mod:`.simplify`),
    * ``fixpoint`` — ``simplify_fixpoint`` chains,
    * ``proof`` — prover verdicts, keyed ``(kind tag, expr ids...)``,
    * ``range`` — :class:`SymInterval` results of :meth:`SymbolicEnv.range_of`.
    """

    __slots__ = ("epoch", "simplify", "fixpoint", "proof", "range")

    def __init__(self):
        self.epoch = 0
        self.simplify: dict[int, Expr] = {}
        self.fixpoint: dict[int, Expr] = {}
        self.proof: dict[tuple, bool] = {}
        self.range: dict[int, SymInterval] = {}

    def families(self) -> tuple[dict, ...]:
        return (self.simplify, self.fixpoint, self.proof, self.range)

    def invalidate(self) -> None:
        """A fact changed: bump the shared epoch, drop every family."""
        self.epoch += 1
        for family in self.families():
            family.clear()

    def copied(self) -> "EnvCaches":
        """A snapshot carrying the same epoch and entries (for env copies)."""
        new = EnvCaches()
        new.epoch = self.epoch
        new.simplify = dict(self.simplify)
        new.fixpoint = dict(self.fixpoint)
        new.proof = dict(self.proof)
        new.range = dict(self.range)
        return new


class SymbolicEnv:
    """Assumption environment for symbolic simplification.

    The environment records, for each variable name:

    * a :class:`SymInterval` range (possibly with symbolic bounds), and

    separately a set of divisibility facts ``divisor | dividend`` supplied by
    the user (the paper's "users can provide their own constraints" hook) —
    these license rewrites such as ``(K // BK) * BK -> K``.

    Environments are mutated in place by the ``declare_*`` helpers; the
    layout-lowering context builds one environment per kernel.

    **Thread confinement.**  Unlike the intern table (which is lock-striped
    and shared by every thread), an environment and its memo caches are NOT
    internally synchronised: an instance must only be used by one thread at
    a time.  This is by construction in the concurrent compilation service —
    every compile request builds its own :class:`~repro.codegen.context.
    CodegenContext` and therefore its own environment inside one worker
    thread — and is the documented contract for any other caller.  Use
    :meth:`copy` to hand independent snapshots to multiple threads.
    """

    def __init__(self):
        self._ranges: dict[str, SymInterval] = {}
        self._divisibility: set[tuple[Expr, Expr]] = set()
        self._positive_exprs: set[Expr] = set()
        self._le_facts: list[tuple[Expr, Expr]] = []
        self._max_depth = 16
        # -- memoisation state (identity-keyed on Expr.expr_id) ---------------
        # Every declared fact can change what simplifies/proves, so any
        # mutation bumps the shared cache epoch and drops every family at
        # once (see :class:`EnvCaches`); an entry is therefore always
        # consistent with the facts in force when it was written.
        self.caches = EnvCaches()
        self._range_cutoff_events = 0

    @property
    def fingerprint(self) -> tuple[int, int]:
        """Identity + cache-epoch pair distinguishing assumption states."""
        return (id(self), self.caches.epoch)

    def _invalidate(self) -> None:
        """A fact changed: bump the shared epoch and drop every memo table."""
        self.caches.invalidate()

    # -- declarations ---------------------------------------------------------

    def declare_size(self, *names_or_vars) -> None:
        """Declare positive "size" symbols (tile sizes, problem sizes, ...)."""
        for item in names_or_vars:
            name = item.name if isinstance(item, Var) else str(item)
            if self._ranges.get(name) != SymInterval.positive():
                self._ranges[name] = SymInterval.positive()
                self._invalidate()

    def declare_index(self, name_or_var, extent: ExprLike) -> Var:
        """Declare an index symbol with range ``[0, extent - 1]``.

        Declaring an index over ``extent`` implicitly asserts the index space
        is non-empty, so the extent itself is recorded as a positive fact
        (needed e.g. for ``K // BK`` extents, whose positivity cannot be
        derived from ``K >= 1`` and ``BK >= 1`` alone).
        """
        if isinstance(name_or_var, Var):
            var = name_or_var
        else:
            var = Var(str(name_or_var))
        interval = SymInterval.index(extent)
        if self._ranges.get(var.name) != interval:
            self._ranges[var.name] = interval
            self._invalidate()
        extent_expr = as_expr(extent)
        if not isinstance(extent_expr, (Const, Var)) and extent_expr not in self._positive_exprs:
            self._positive_exprs.add(extent_expr)
            self._invalidate()
        return var

    def declare_positive(self, *exprs: ExprLike) -> None:
        """Record that each (possibly compound) expression is ``>= 1``."""
        for expr in exprs:
            expr = as_expr(expr)
            if isinstance(expr, Var):
                if expr.name not in self._ranges:
                    self._ranges[expr.name] = SymInterval.positive()
                    self._invalidate()
            elif expr not in self._positive_exprs:
                self._positive_exprs.add(expr)
                self._invalidate()

    def declare_le(self, lhs: ExprLike, rhs: ExprLike) -> None:
        """Record the user constraint ``lhs <= rhs`` (a relational fact).

        This is the paper's "users can provide their own constraints" hook;
        the prover uses these facts to cancel terms that pure interval
        reasoning cannot bound (e.g. ``min(GM, nt_m) * max(1, nt_m // GM) <=
        nt_m`` for the grouped thread-block layout of Figure 1).
        """
        fact = (as_expr(lhs), as_expr(rhs))
        if fact not in self._le_facts:
            self._le_facts.append(fact)
            self._invalidate()

    def is_declared_positive(self, expr: ExprLike) -> bool:
        """Was ``expr`` declared positive (directly or as an index extent)?"""
        return as_expr(expr) in self._positive_exprs

    def le_facts(self) -> tuple[tuple[Expr, Expr], ...]:
        """The declared relational ``lhs <= rhs`` facts."""
        return tuple(self._le_facts)

    def declare_range(self, name_or_var, lo, hi) -> Var:
        """Declare an arbitrary (possibly symbolic) range for a variable."""
        if isinstance(name_or_var, Var):
            var = name_or_var
        else:
            var = Var(str(name_or_var))
        interval = SymInterval(_opt_expr(lo), _opt_expr(hi))
        if self._ranges.get(var.name) != interval:
            self._ranges[var.name] = interval
            self._invalidate()
        return var

    def declare_nonneg(self, *names_or_vars) -> None:
        for item in names_or_vars:
            name = item.name if isinstance(item, Var) else str(item)
            if self._ranges.get(name) != SymInterval.nonneg():
                self._ranges[name] = SymInterval.nonneg()
                self._invalidate()

    def declare_divisible(self, dividend: ExprLike, divisor: ExprLike) -> None:
        """Record the fact ``divisor | dividend`` (divisor divides dividend)."""
        fact = (as_expr(dividend), as_expr(divisor))
        if fact not in self._divisibility:
            self._divisibility.add(fact)
            self._invalidate()

    def copy(self) -> "SymbolicEnv":
        new = SymbolicEnv()
        new._ranges = dict(self._ranges)
        new._divisibility = set(self._divisibility)
        new._positive_exprs = set(self._positive_exprs)
        new._le_facts = list(self._le_facts)
        # The copy holds exactly the same facts, so the memoised results are
        # still valid and carry over (they are invalidated independently).
        new.caches = self.caches.copied()
        return new

    def merged_with(self, other: "SymbolicEnv | None") -> "SymbolicEnv":
        if other is None:
            return self
        new = self.copy()
        new._ranges.update(other._ranges)
        new._divisibility.update(other._divisibility)
        new._positive_exprs.update(other._positive_exprs)
        for fact in other._le_facts:
            if fact not in new._le_facts:
                new._le_facts.append(fact)
        new._invalidate()
        return new

    # -- lookups --------------------------------------------------------------

    def variables(self) -> Mapping[str, SymInterval]:
        return dict(self._ranges)

    def divisibility_facts(self) -> Iterable[tuple[Expr, Expr]]:
        return tuple(self._divisibility)

    def divides(self, divisor: Expr, dividend: Expr) -> bool:
        """Can we show that ``divisor`` evenly divides ``dividend``?"""
        divisor = as_expr(divisor)
        dividend = as_expr(dividend)
        if divisor == dividend:
            return True
        if isinstance(divisor, Const) and divisor.value in (1, -1):
            return True
        if isinstance(dividend, Const) and dividend.value == 0:
            return True
        if isinstance(divisor, Const) and isinstance(dividend, Const):
            return divisor.value != 0 and dividend.value % divisor.value == 0
        if (dividend, divisor) in self._divisibility:
            return True
        if isinstance(dividend, Mul):
            # d | (a * b * ...) when d divides one of the factors or d appears
            # literally among the factors.
            for factor in dividend.args:
                if factor == divisor or self.divides(divisor, factor):
                    return True
        if isinstance(dividend, Add):
            return all(self.divides(divisor, term) for term in dividend.args)
        return False

    # -- range analysis -------------------------------------------------------

    def range_of(self, expr: Expr, _depth: int = 0) -> SymInterval:
        """Compute a sound symbolic interval for ``expr`` (memoised).

        Both endpoints are always expressions: an end the analysis cannot
        bound is ``expr`` itself, which is exact, so an enclosing sum still
        cancels against it.  Results are cached per expression identity; a
        result computed under the depth cutoff is *not* cached, so a later
        shallow query is not poisoned by a deep one.
        """
        cached = self.caches.range.get(expr._id)
        if cached is not None:
            CACHE_STATS.range_hits += 1
            return cached
        cutoffs_before = self._range_cutoff_events
        result = self._range_of_dispatch(expr, _depth)
        lo = expr if result.lo is None else result.lo
        hi = expr if result.hi is None else result.hi
        if expr in self._positive_exprs and (
            lo.value < 1 if isinstance(lo, Const) else lo is expr
        ):
            lo = Const(1)
        result = SymInterval(lo, hi)
        if self._range_cutoff_events == cutoffs_before:
            CACHE_STATS.range_misses += 1
            self.caches.range[expr._id] = result
        return result

    def _range_of_dispatch(self, expr: Expr, _depth: int = 0) -> SymInterval:
        if _depth > self._max_depth:
            self._range_cutoff_events += 1
            return SymInterval.point(expr)
        depth = _depth + 1

        if isinstance(expr, Const):
            return SymInterval.point(expr)
        if isinstance(expr, Var):
            bound = self._ranges.get(expr.name)
            if bound is not None:
                return bound
            meta_range = expr.meta.get("range")
            if isinstance(meta_range, tuple) and len(meta_range) == 2:
                return SymInterval(_opt_expr(meta_range[0]), _opt_expr(meta_range[1]))
            return SymInterval.point(expr)
        if isinstance(expr, Add):
            ranges = [self.range_of(arg, depth) for arg in expr.args]
            return SymInterval(Add(*(r.lo for r in ranges)), Add(*(r.hi for r in ranges)))
        if isinstance(expr, Mul):
            return self._range_of_mul(expr, depth)
        if isinstance(expr, FloorDiv):
            return self._range_of_floordiv(expr, depth)
        if isinstance(expr, Mod):
            return self._range_of_mod(expr, depth)
        if isinstance(expr, Min):
            return self._range_of_min(expr, depth)
        if isinstance(expr, Max):
            return self._range_of_max(expr, depth)
        # comparisons / boolean nodes take values in {0, 1}
        return SymInterval(Const(0), Const(1))

    def _range_of_mul(self, expr: Mul, depth: int) -> SymInterval:
        from .prover import is_nonneg

        # Pull out a literal constant coefficient to handle negation cleanly.
        coeff = 1
        rest: list[Expr] = []
        for arg in expr.args:
            if isinstance(arg, Const):
                coeff *= arg.value
            else:
                rest.append(arg)
        if not rest:
            return SymInterval.point(Const(coeff))
        ranges = [self.range_of(a, depth) for a in rest]
        if len(rest) == 1:
            # a scaled factor: its own range, whatever its sign
            lo, hi = ranges[0].lo, ranges[0].hi
        elif all(is_nonneg(a, self) for a in rest):
            # All factors are non-negative, so the product is monotone in
            # each factor; an unknown lower end weakens to 0.
            hi = Mul(*(r.hi for r in ranges))
            if not all(_known(r.lo, a) for a, r in zip(rest, ranges)):
                lo = Const(0)
            else:
                lo = Mul(*(r.lo for r in ranges))
        else:
            return _interval_range(
                expr, ranges, lambda *factors: reduce(mul, factors, Interval(coeff, coeff))
            )
        if coeff >= 0:
            return SymInterval(Mul(coeff, lo), Mul(coeff, hi))
        # negative coefficient flips the interval
        return SymInterval(Mul(coeff, hi), Mul(coeff, lo))

    def _range_of_floordiv(self, expr: FloorDiv, depth: int) -> SymInterval:
        from .prover import is_nonneg, is_positive
        from .simplify import simplify

        num, den = expr.numerator, expr.denominator
        if not (is_nonneg(num, self) and is_positive(den, self)):
            ranges = (self.range_of(num, depth), self.range_of(den, depth))
            return _interval_range(expr, ranges, Interval.floordiv)
        num_range = self.range_of(num, depth)
        hi: Expr = expr
        if _known(num_range.hi, num):
            # x <= hi  and  d >= 1  imply  x // d <= hi // d
            hi = simplify(FloorDiv(num_range.hi, den), self, _depth=depth)
        lo: Expr = Const(0)
        if _known(num_range.lo, num):
            den_range = self.range_of(den, depth)
            if _known(den_range.hi, den):
                lo = simplify(FloorDiv(num_range.lo, den_range.hi), self, _depth=depth)
        return SymInterval(lo, hi)

    def _range_of_mod(self, expr: Mod, depth: int) -> SymInterval:
        from .prover import is_nonneg, is_positive, prove_le

        value, modulus = expr.value_expr, expr.modulus
        value_range = self.range_of(value, depth)
        if not is_positive(modulus, self):
            ranges = (value_range, self.range_of(modulus, depth))
            return _interval_range(expr, ranges, Interval.mod)
        if (
            _known(value_range.hi, value)
            and is_nonneg(value, self)
            and prove_le(value_range.hi, modulus - 1, self)
        ):
            # the value never wraps: the mod is the identity on its range
            lo = value_range.lo if _known(value_range.lo, value) else Const(0)
            return SymInterval(lo, value_range.hi)
        return SymInterval(Const(0), modulus - 1)

    def _range_of_min(self, expr: Min, depth: int) -> SymInterval:
        from .prover import is_nonneg

        ranges = [self.range_of(a, depth) for a in expr.args]
        # Min(args) <= Min of per-argument upper bounds; an argument without
        # a known bound is its own upper bound, so e.g. Min(GM, nt_m) with
        # unbounded size symbols stays bounded by the Min expression itself
        # — which the relational prover can then use.
        hi = Min(*(r.hi for r in ranges))
        lo: Expr = expr
        if all(isinstance(r.lo, Const) for r in ranges):
            lo = Const(min(r.lo.value for r in ranges))
        elif all(is_nonneg(a, self) for a in expr.args):
            lo = Const(0)
        return SymInterval(lo, hi)

    def _range_of_max(self, expr: Max, depth: int) -> SymInterval:
        ranges = [self.range_of(a, depth) for a in expr.args]
        # Max(args) >= every known per-argument lower bound.
        known = [r.lo for a, r in zip(expr.args, ranges) if _known(r.lo, a)]
        lo = Max(*known) if known else expr
        return SymInterval(lo, Max(*(r.hi for r in ranges)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{k}: {v}" for k, v in sorted(self._ranges.items())]
        divs = [f"{d} | {x}" for (x, d) in self._divisibility]
        return "SymbolicEnv(" + "; ".join(parts + divs) + ")"


# ---------------------------------------------------------------------------
# exact affine decomposition (env-independent)
# ---------------------------------------------------------------------------


def affine_strides(
    expr: ExprLike, variables: Sequence[str]
) -> Optional[Tuple[int, dict]]:
    """Decompose ``expr`` into ``const + Σ strides[v] · v`` exactly.

    Returns ``(const, {name: stride})`` when the expression is an affine
    combination of the given variables (and nothing else); ``None`` when any
    free variable is outside ``variables`` or the structure is non-affine
    (div/mod/min/max of a variable term).  Purely structural — no
    environment, no approximation — so a non-``None`` result is an identity.
    """
    expr = as_expr(expr)
    allowed = set(variables)

    def walk(node: Expr) -> Optional[Tuple[int, dict]]:
        if isinstance(node, Const):
            return node.value, {}
        if isinstance(node, Var):
            if node.name not in allowed:
                return None
            return 0, {node.name: 1}
        if isinstance(node, Add):
            const = 0
            strides: dict[str, int] = {}
            for arg in node.args:
                part = walk(arg)
                if part is None:
                    return None
                const += part[0]
                for name, coeff in part[1].items():
                    strides[name] = strides.get(name, 0) + coeff
            return const, strides
        if isinstance(node, Mul):
            coeff = 1
            linear: Optional[Tuple[int, dict]] = None
            for arg in node.args:
                if isinstance(arg, Const):
                    coeff *= arg.value
                    continue
                part = walk(arg)
                if part is None:
                    return None
                if part[1]:
                    if linear is not None:
                        return None  # variable × variable: not affine
                    linear = part
                else:
                    coeff *= part[0]
            if linear is None:
                return coeff, {}
            const = linear[0] * coeff
            return const, {name: c * coeff for name, c in linear[1].items()}
        return None

    result = walk(expr)
    if result is None:
        return None
    const, strides = result
    return const, {name: c for name, c in strides.items() if c != 0}


def is_mixed_radix_bijection(
    const: int, pairs: Iterable[Tuple[int, int]], total: int
) -> bool:
    """Is ``const + Σ stride_k · i_k`` (``0 <= i_k < extent_k``) a bijection
    onto ``[0, total)``?

    ``pairs`` is the ``(stride, extent)`` list of the affine offset.  The map
    is a bijection exactly when the constant term is zero and the strides,
    sorted increasingly (dimensions of extent 1 contribute nothing and are
    skipped), form a *permuted mixed-radix basis*: the smallest stride is 1
    and each subsequent stride is the previous stride times the previous
    extent, with the extents multiplying out to ``total``.  This is the
    static form of the LUD ``element_offset`` check that previously ran by
    enumerating every index combination at runtime.
    """
    if const != 0 or total <= 0:
        return False
    live: list[Tuple[int, int]] = []
    for stride, extent in pairs:
        if extent <= 0:
            return False
        if extent == 1:
            continue
        if stride <= 0:
            # with const == 0 a negative or zero stride cannot reach [0, total)
            return False
        live.append((stride, extent))
    live.sort()
    expected = 1
    for stride, extent in live:
        if stride != expected:
            return False
        expected *= extent
    return expected == total
