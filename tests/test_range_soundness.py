"""Enumeration oracle for the range analysis and the prover.

A proof deletes a runtime check: a proven guard is dropped from the kernel,
a proven bijection skips the enumeration.  So an unsound verdict is a silent
out-of-bounds access or an aliasing layout, not a failed test elsewhere.
These properties check the analysis against brute force over small boxes:

* every value of every sub-expression lies within the ``range_of``
  endpoints evaluated at the same point;
* every ``True`` from ``prove_nonneg``/``prove_positive``/``prove_le``/
  ``prove_in_bounds`` and from ``prove`` on guard predicates (the query
  ``prove_guard_redundant`` makes) holds at every point of the box;
* ``is_mixed_radix_bijection`` agrees with enumerating the offsets.

Expressions come from :func:`repro.check.fuzz.random_expr` under a fixed
seed, so a failure names a trial that replays exactly.
"""

import itertools
import random

from repro.check.fuzz import random_expr
from repro.symbolic import (
    BoolAnd,
    SymbolicEnv,
    Var,
    is_mixed_radix_bijection,
    prove,
    prove_in_bounds,
    prove_le,
    prove_nonneg,
    prove_positive,
)

SEED = 20261017
TRIALS = 200
MAX_VARS = 3


def _draw(rng):
    """An expression over at most :data:`MAX_VARS` variables."""
    while True:
        expr = random_expr(rng, depth=3)
        if len(expr.free_vars()) <= MAX_VARS:
            return expr


def _declare_box(rng, names):
    """Declare each name on a small box; ``i`` may instead index ``n``.

    Returns the environment, the enumeration domain of every variable that
    constrains the box, and the relational constraints the enumeration must
    respect (a symbolic upper bound ``i <= n - 1``).
    """
    env = SymbolicEnv()
    domains = {}
    constraints = []
    for name in sorted(names):
        lo = rng.randint(-3, 3)
        hi = lo + rng.randint(0, 3)
        env.declare_range(name, lo, hi)
        domains[name] = range(lo, hi + 1)
    if "i" in names and rng.random() < 0.4:
        env.declare_range("n", 1, 4)
        env.declare_index("i", Var("n"))
        domains["n"] = range(1, 5)
        domains["i"] = range(0, 4)
        constraints.append(lambda point: point["i"] <= point["n"] - 1)
    return env, domains, constraints


def _points(domains, constraints):
    names = sorted(domains)
    for combo in itertools.product(*(domains[name] for name in names)):
        point = dict(zip(names, combo))
        if all(holds(point) for holds in constraints):
            yield point


def _check_range(env, node, points, trial):
    bounds = env.range_of(node)
    for point in points:
        value = node.evaluate(point)
        if bounds.lo is not None:
            assert bounds.lo.evaluate(point) <= value, (trial, str(node), bounds, point)
        if bounds.hi is not None:
            assert value <= bounds.hi.evaluate(point), (trial, str(node), bounds, point)


def test_range_of_and_prover_verdicts_hold_on_every_point():
    rng = random.Random(SEED)
    proven = 0
    for trial in range(TRIALS):
        expr, other = _draw(rng), _draw(rng)
        names = expr.free_vars() | other.free_vars()
        env, domains, constraints = _declare_box(rng, names)
        points = list(_points(domains, constraints))
        assert points, trial
        for node in set(expr.walk()) | set(other.walk()):
            _check_range(env, node, points, trial)

        values = [expr.evaluate(p) for p in points]
        others = [other.evaluate(p) for p in points]
        low, high = min(values), max(values)
        claims = [
            (prove_nonneg(expr, env), low >= 0),
            (prove_nonneg(expr - low, env), True),
            (prove_nonneg(expr - (low + 1), env), False),
            (prove_positive(expr, env), low > 0),
            (prove_le(expr, high, env), True),
            (prove_le(expr, high - 1, env), False),
            (prove_le(expr, other, env), all(a <= b for a, b in zip(values, others))),
            (prove_le(other, expr, env), all(b <= a for a, b in zip(values, others))),
            (prove_in_bounds(expr, low, high, env), True),
            (prove_in_bounds(expr, low + 1, high, env), False),
            (prove_in_bounds(expr, low, high - 1, env), False),
            (prove(BoolAnd(expr.ge(low), expr.le(high)), env), True),
            (prove(BoolAnd(expr.ge(low), expr.lt(high)), env), False),
            (prove(expr.lt(other), env), all(a < b for a, b in zip(values, others))),
            (prove(expr.ne(other), env), all(a != b for a, b in zip(values, others))),
        ]
        for k, (verdict, truth) in enumerate(claims):
            assert not verdict or truth, (trial, k, str(expr), str(other))
            proven += verdict
    # the oracle is only meaningful if the prover proves things
    assert proven > TRIALS


def _offsets(const, pairs):
    extents = [range(extent) for _, extent in pairs]
    return [
        const + sum(stride * i for (stride, _), i in zip(pairs, idx))
        for idx in itertools.product(*extents)
    ]


def _random_chain(rng):
    """A (const, pairs, total) triple: a mixed-radix basis, often perturbed."""
    extents = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
    pairs, stride = [], 1
    for extent in extents:
        pairs.append((stride, extent))
        stride *= extent
    rng.shuffle(pairs)
    total = stride
    const = 0
    mutation = rng.randrange(5)
    if mutation == 1:
        k = rng.randrange(len(pairs))
        pairs[k] = (pairs[k][0] + rng.choice((-2, -1, 1, 2)), pairs[k][1])
    elif mutation == 2:
        const = rng.choice((-1, 1))
    elif mutation == 3:
        total += rng.choice((-1, 1))
    return const, pairs, total


def test_mixed_radix_bijection_agrees_with_enumeration():
    rng = random.Random(SEED)
    verdicts = set()
    for trial in range(400):
        const, pairs, total = _random_chain(rng)
        offsets = _offsets(const, pairs)
        truth = sorted(offsets) == list(range(total))
        verdict = is_mixed_radix_bijection(const, pairs, total)
        assert verdict == truth, (trial, const, pairs, total)
        verdicts.add(verdict)
    assert verdicts == {True, False}
