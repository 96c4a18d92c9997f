"""Range analysis: intervals, range_of, strides, unified caches, proofs."""

import pytest

from repro.symbolic import (
    Const,
    EnvCaches,
    Interval,
    Max,
    Min,
    SymbolicEnv,
    Var,
    affine_strides,
    as_expr,
    is_mixed_radix_bijection,
    prove_in_bounds,
    prove_le,
    prove_nonneg,
    record_proof_queries,
    simplify_fixpoint,
)


# -- Interval.floordiv / Interval.mod vs concrete enumeration -----------------------


_ENDPOINTS = (-6, -3, -1, 0, 1, 3, 6)


def _bounded_intervals():
    return [
        Interval(lo, hi)
        for lo in _ENDPOINTS
        for hi in _ENDPOINTS
        if lo <= hi
    ]


def _sample_values(interval, spread=25):
    lo = interval.lo if interval.lo is not None else -spread
    hi = interval.hi if interval.hi is not None else spread
    return range(lo, hi + 1)


def test_interval_floordiv_sound_on_bounded_intervals():
    # exhaustive over small bounded numerator/divisor intervals: every
    # concrete quotient must land inside the abstract result
    for num in _bounded_intervals():
        for den in _bounded_intervals():
            result = num.floordiv(den)
            for x in _sample_values(num):
                for d in _sample_values(den):
                    if d == 0:
                        continue
                    assert result.contains(x // d), (num, den, x, d, result)


def test_interval_mod_sound_on_bounded_intervals():
    for num in _bounded_intervals():
        for den in _bounded_intervals():
            result = num.mod(den)
            for x in _sample_values(num):
                for d in _sample_values(den):
                    if d == 0:
                        continue
                    assert result.contains(x % d), (num, den, x, d, result)


@pytest.mark.parametrize("num", [
    Interval(None, -1), Interval(None, 6), Interval(-3, None),
    Interval(0, None), Interval(None, None),
])
@pytest.mark.parametrize("den", [
    Interval(1, 4), Interval(-4, -1), Interval(-3, 5),
    Interval(2, None), Interval(None, -2), Interval(None, None),
])
def test_interval_divmod_sound_on_half_bounded_intervals(num, den):
    fdiv, fmod = num.floordiv(den), num.mod(den)
    for x in _sample_values(num):
        for d in _sample_values(den):
            if d == 0:
                continue
            assert fdiv.contains(x // d), (num, den, x, d, fdiv)
            assert fmod.contains(x % d), (num, den, x, d, fmod)


def test_interval_floordiv_precision():
    # tight, not just sound: the positive-divisor corners
    assert Interval(0, 7).floordiv(Interval(2, 2)) == Interval(0, 3)
    assert Interval(-7, -1).floordiv(Interval(2, 2)) == Interval(-4, -1)
    # negative numerator with an unbounded divisor stays strictly negative
    assert Interval(-7, -3).floordiv(Interval(1, None)) == Interval(-7, -1)
    # negative divisor through the x//d == (-x)//(-d) identity
    assert Interval(1, 7).floordiv(Interval(-2, -2)) == Interval(-4, -1)


def test_interval_mod_precision():
    assert Interval(0, 100).mod(Interval(8, 8)) == Interval(0, 7)
    # the nonneg identity: a value already below the divisor is unchanged
    assert Interval(2, 5).mod(Interval(8, 8)) == Interval(2, 5)
    # negative divisor: python mod lands in (d, 0]
    assert Interval(0, 100).mod(Interval(-8, -8)) == Interval(-7, 0)


# -- range_of: interval arithmetic, scaled factors, opaque nodes --------------------


def test_range_of_declared_index_is_constant():
    env = SymbolicEnv()
    i = env.declare_index("i", 16)
    assert env.range_of(i).constant_bounds() == (0, 15)
    assert env.range_of(i * 4 + 3).constant_bounds() == (3, 63)


def test_range_of_opaque_node_is_its_own_endpoint():
    env = SymbolicEnv()
    x, y = Var("x"), Var("y")  # undeclared: opaque
    assert env.range_of(as_expr(x) - x).constant_bounds() == (0, 0)
    i = env.declare_index("i", 16)
    product = x * y
    r = env.range_of(product + i)
    # the opaque product is exact as its own endpoint, so the enclosing
    # sum's endpoints cancel against it
    assert (r.lo - product, r.hi - product) == (as_expr(0), as_expr(15))


def test_range_of_keeps_unbounded_terms_symbolic():
    env = SymbolicEnv()
    i = env.declare_index("i", 4)
    x = Var("x")
    r = env.range_of(x * 16 + i)
    assert (r.lo, r.hi) == (16 * x, 16 * x + 3)


def test_range_of_mod_by_positive_constant_bounds():
    env = SymbolicEnv()
    x = Var("x")
    assert env.range_of(x % 8).constant_bounds() == (0, 7)


def test_range_of_scales_a_factor_of_either_sign():
    env = SymbolicEnv()
    x = env.declare_range("x", -5, 5)
    assert env.range_of(2 * as_expr(x)).constant_bounds() == (-10, 10)
    assert env.range_of(-3 * as_expr(x)).constant_bounds() == (-15, 15)
    n = Var("n")
    env.declare_range("k", 0, n)
    # a symbolic range flips under a negative coefficient
    r = env.range_of(-2 * Var("k"))
    assert (r.lo, r.hi) == (-2 * n, as_expr(0))


def test_range_of_uses_interval_arithmetic_on_constant_operands():
    env = SymbolicEnv()
    x = as_expr(env.declare_range("x", -5, 5))
    y = as_expr(env.declare_range("y", -2, 3))
    assert env.range_of(x * y).constant_bounds() == (-15, 15)
    # straddling numerator and divisor: floor semantics on both signs
    assert env.range_of(x // y).constant_bounds() == (-5, 5)
    assert env.range_of(x % 4).constant_bounds() == (0, 3)
    assert env.range_of(x % y).constant_bounds() == (-1, 2)
    assert env.range_of(Min(x, y)).constant_bounds() == (-5, 3)
    assert env.range_of(Max(x, y)).constant_bounds() == (-2, 5)


# -- affine_strides / is_mixed_radix_bijection --------------------------------------


def test_affine_strides_exact_decomposition():
    tx, ty, r_j, r_i = Var("tx"), Var("ty"), Var("r_j"), Var("r_i")
    expr = tx + 16 * (ty + 16 * (r_j + 4 * r_i))
    assert affine_strides(expr, ("tx", "ty", "r_j", "r_i")) == (
        0,
        {"tx": 1, "ty": 16, "r_j": 256, "r_i": 1024},
    )


def test_affine_strides_rejects_foreign_vars_and_nonaffine():
    tx, other = Var("tx"), Var("other")
    assert affine_strides(tx + other, ("tx",)) is None
    assert affine_strides((tx * 5) % 7, ("tx",)) is None
    assert affine_strides(tx * tx, ("tx",)) is None


def test_mixed_radix_bijection_verdicts():
    # the LUD golden shape: strides (1, 16, 256, 1024), extents (16, 16, 4, 4)
    good = [(1, 16), (16, 16), (256, 4), (1024, 4)]
    assert is_mixed_radix_bijection(0, good, 4096)
    # permuted order is still a basis
    assert is_mixed_radix_bijection(0, list(reversed(good)), 4096)
    # extent-1 dimensions contribute nothing
    assert is_mixed_radix_bijection(0, good + [(7, 1)], 4096)
    # broken chains, offsets and wrong totals are all rejected
    assert not is_mixed_radix_bijection(1, good, 4096)
    assert not is_mixed_radix_bijection(0, [(1, 16), (8, 16)], 256)
    assert not is_mixed_radix_bijection(0, good, 2048)
    assert not is_mixed_radix_bijection(0, [(1, 4), (-4, 4)], 16)


# -- unified cache epoch ------------------------------------------------------------


def test_env_caches_share_one_invalidation_epoch():
    env = SymbolicEnv()
    caches = env.caches
    assert isinstance(caches, EnvCaches)
    i = env.declare_index("i", 8)
    # populate several families through their public entry points
    simplify_fixpoint((i + 8) % 8, env)
    prove_nonneg(i, env)
    env.range_of(i)
    populated = [fam for fam in caches.families() if fam]
    assert len(populated) >= 3
    epoch = caches.epoch
    fingerprint = env.fingerprint
    env.declare_index("j", 4)  # new fact: one bump clears every family
    assert caches.epoch == epoch + 1
    assert env.fingerprint != fingerprint
    assert all(not fam for fam in caches.families())


def test_env_copy_snapshots_caches():
    env = SymbolicEnv()
    i = env.declare_index("i", 8)
    env.range_of(i)
    clone = env.copy()
    clone.declare_index("j", 4)
    # the clone invalidated its own caches; the original kept its entries
    assert any(env.caches.families())
    assert env.fingerprint != clone.fingerprint


# -- simplify rules fed by range facts ----------------------------------------------


def test_div_interval_collapse_handles_negative_ranges():
    env = SymbolicEnv()
    j = env.declare_range("j", -3, -1)
    # [-3, -1] lies within [-4, 0), so j // 4 is the constant -1 — out of
    # reach of the nonneg-only div rules
    assert simplify_fixpoint(as_expr(j) // 4, env) == Const(-1)


def test_mod_interval_collapse_rewrites_to_offset():
    env = SymbolicEnv()
    j = env.declare_range("j", -3, -1)
    simplified = simplify_fixpoint(as_expr(j) % 4, env)
    for value in (-3, -2, -1):
        assert simplified.evaluate({"j": value}) == value % 4


# -- prover: the range_of rung and the in-bounds query ------------------------------


def test_prove_nonneg_through_possibly_negative_scaling():
    env = SymbolicEnv()
    x = env.declare_range("x", -5, 5)
    # the structural rung cannot sign a possibly-negative factor; range_of
    # scales x's range and bounds 2x + 10 to [0, 20] directly
    assert prove_nonneg(2 * as_expr(x) + 10, env)
    assert not prove_nonneg(2 * as_expr(x) + 9, env)


def test_prove_in_bounds_is_inclusive_two_sided():
    env = SymbolicEnv()
    i = env.declare_index("i", 16)
    expr = i * 4 + 3
    assert prove_in_bounds(expr, 0, 63, env)
    assert prove_in_bounds(expr, 3, 63, env)
    assert not prove_in_bounds(expr, 0, 62, env)
    assert not prove_in_bounds(expr, 4, 63, env)


def test_record_proof_queries_captures_all_kinds():
    env = SymbolicEnv()
    i = env.declare_index("i", 16)
    with record_proof_queries() as log:
        prove_le(i, 15, env)
        prove_le(i, 15, env)  # cache hit is still a query
        prove_nonneg(i, env)
        prove_in_bounds(i, 0, 15, env)
    kinds = [kind for kind, _, _ in log]
    assert kinds.count("le") >= 2
    assert "nonneg" in kinds and "in_bounds" in kinds
    assert all(proven for _, _, proven in log)
    # recording is scoped: nothing records outside the context
    with record_proof_queries() as log2:
        pass
    prove_le(i, 15, env)
    assert log2 == []
