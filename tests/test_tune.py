"""Search spaces, the result cache, and the layout autotuner."""

import json

import pytest

from repro.apps.registry import AppSpec, available_apps, get_app
from repro.tune import Choice, ResultCache, SearchSpace, autotune, sweep


# -- search spaces ------------------------------------------------------------------


def test_space_enumerates_cartesian_product_in_order():
    space = SearchSpace(Choice("a", (1, 2)), Choice("b", ("x", "y")))
    assert list(space) == [
        {"a": 1, "b": "x"}, {"a": 1, "b": "y"}, {"a": 2, "b": "x"}, {"a": 2, "b": "y"},
    ]
    assert len(space) == 4


def test_space_constraint_filters_candidates():
    space = SearchSpace(
        Choice("block", (16, 32)), Choice("cuda", (8, 16, 32)),
        constraint=lambda c: c["block"] % c["cuda"] == 0 and c["block"] >= c["cuda"],
    )
    assert all(c["block"] % c["cuda"] == 0 for c in space)
    assert len(space) == 5


def test_space_subspace_narrows_axes():
    space = SearchSpace(Choice("a", (1, 2, 3)), Choice("b", (4, 5)))
    narrowed = space.subspace(a=(2,))
    assert list(narrowed) == [{"a": 2, "b": 4}, {"a": 2, "b": 5}]
    with pytest.raises(ValueError):
        space.subspace(nope=(1,))


def test_space_rejects_duplicates_and_empty_choices():
    with pytest.raises(ValueError):
        SearchSpace(Choice("a", (1,)), Choice("a", (2,)))
    with pytest.raises(ValueError):
        Choice("a", ())


def test_space_from_dict():
    space = SearchSpace.from_dict({"a": (1, 2), "b": (3,)})
    assert len(space) == 2


# -- result cache -------------------------------------------------------------------


def test_cache_roundtrip_and_persistence(tmp_path):
    path = tmp_path / "cache.json"
    cache = ResultCache(path)
    key = ResultCache.key("app", {"a": 1}, {"offs": "N*row"})
    assert cache.get(key) is None
    cache.put(key, {"time_seconds": 1.5})
    assert cache.get(key) == {"time_seconds": 1.5}
    cache.save()

    reloaded = ResultCache(path)
    assert reloaded.get(key) == {"time_seconds": 1.5}
    assert json.loads(path.read_text())  # plain JSON on disk


def test_cache_key_depends_on_expressions_config_and_backend():
    base = ResultCache.key("app", {"a": 1}, {"offs": "N*row"})
    assert ResultCache.key("app", {"a": 2}, {"offs": "N*row"}) != base
    assert ResultCache.key("app", {"a": 1}, {"offs": "N*row + 1"}) != base
    assert ResultCache.key("other", {"a": 1}, {"offs": "N*row"}) != base
    # two backends lowering to identical expressions must not collide
    assert ResultCache.key("app", {"a": 1}, {"offs": "N*row"}, backend="triton") != base
    assert ResultCache.key("app", {"a": 1}, {"offs": "N*row"}, backend="triton") != \
        ResultCache.key("app", {"a": 1}, {"offs": "N*row"}, backend="cuda")
    # insertion order of the config must not matter
    assert ResultCache.key("app", {"b": 2, "a": 1}) == ResultCache.key("app", {"a": 1, "b": 2})


# -- the registry -------------------------------------------------------------------


def test_registry_knows_all_eight_apps():
    assert set(available_apps()) == {
        "matmul", "grouped_gemm", "softmax", "layernorm", "nw", "lud", "stencil", "transpose",
    }


def test_registry_resolves_specs_lazily_and_rejects_unknown():
    spec = get_app("lud")
    assert spec.backend == "cuda"
    assert len(spec.space) >= 20
    with pytest.raises(ValueError, match="unknown app"):
        get_app("fft")


# -- the autotuner ------------------------------------------------------------------


@pytest.fixture
def toy_spec():
    calls = []

    def evaluate(config):
        calls.append(dict(config))
        return {"time_seconds": abs(config["x"] - 3) + 1.0, "x": config["x"]}

    spec = AppSpec(
        name="toy",
        backend="triton",
        space=SearchSpace(Choice("x", (1, 2, 3, 4))),
        evaluate=evaluate,
    )
    return spec, calls


def test_autotune_ranks_by_estimated_time(toy_spec):
    spec, _ = toy_spec
    result = autotune(spec)
    assert result.best.config == {"x": 3}
    assert [c.config["x"] for c in result.evaluations] == [1, 2, 3, 4]
    assert result.best.metrics == {"x": 3}
    assert len(result.table()) == 4 and "time_ms" in result.table()[0]
    assert result.summary()["best_config"] == {"x": 3}


def test_autotune_uses_the_persistent_cache(toy_spec, tmp_path):
    spec, calls = toy_spec
    path = tmp_path / "tune.json"
    first = autotune(spec, cache_path=path)
    assert len(calls) == 4 and not any(c.cached for c in first.evaluations)

    second = autotune(spec, cache_path=path)
    assert len(calls) == 4  # nothing re-evaluated
    assert all(c.cached for c in second.evaluations)
    assert second.best.config == first.best.config


def test_autotune_tolerates_non_kernel_generate_results():
    # ad-hoc specs may generate arbitrary objects (plain source text here);
    # they rank with config-only cache keys instead of crashing
    spec = AppSpec(
        name="adhoc",
        backend="triton",
        space=SearchSpace(Choice("x", (1, 2))),
        evaluate=lambda config: float(config["x"]),
        generate=lambda config: f"// kernel for x={config['x']}\n",
    )
    result = autotune(spec)
    assert result.best.config == {"x": 1}
    assert all(c.has_kernel for c in result.evaluations)
    assert all(c.index_ops == 0 for c in result.evaluations)


def test_autotune_rejects_empty_spaces(toy_spec):
    spec, _ = toy_spec
    with pytest.raises(ValueError, match="empty"):
        autotune(spec, space=SearchSpace(Choice("x", (99,)),
                                         constraint=lambda c: False))


def test_autotune_parallel_evaluation_matches_serial():
    from repro.apps.registry import get_app

    # a narrowed slice of the (now 10^4+-point) stencil space: big enough to
    # exercise pool chunking, small enough to sweep twice in a test
    space = get_app("stencil").space.subspace(
        brick=(8,), brick_y=(8,), brick_z=(8,), vector=(1,), unroll=(1,)
    )
    serial = autotune("stencil", space=space)
    parallel = autotune("stencil", space=space, parallel=2)
    assert [c.config for c in serial.evaluations] == [c.config for c in parallel.evaluations]
    assert [c.time_seconds for c in serial.evaluations] == pytest.approx(
        [c.time_seconds for c in parallel.evaluations]
    )


# -- the paper's winners ------------------------------------------------------------


def test_autotuner_reproduces_lud_paper_winner():
    result = autotune("lud")
    assert len(result) >= 20
    best = result.best
    assert best.config["block"] == 64
    assert best.config["cuda_block"] == 16  # coarsening factor 4, Figure 12b
    assert best.has_kernel  # generated through the unified CUDA backend


def test_autotuner_reproduces_nw_skewed_layout():
    result = autotune("nw")
    assert len(result) >= 20
    best = result.best
    # the paper's fix is a skewed (conflict-free) shared-buffer layout; the
    # anti-diagonal layout and the unit row-cyclic skew are equivalent here
    assert best.config["layout"] not in ("row", "col")
    assert best.metrics["conflict_factor"] < 1.1
    # the row-major buffer at the paper's block sizes conflicts heavily
    row_factors = {c.config["block"]: c.metrics["conflict_factor"]
                   for c in result.evaluations if c.config["layout"] == "row"}
    assert row_factors[16] > 2.0 and row_factors[32] > 2.0


def test_nw_profiles_reuse_the_analytic_trace(monkeypatch):
    import repro.apps.nw as nw

    nw._nw_analytic_trace.cache_clear()
    nw.nw_buffer_layout.cache_clear()
    traced_sizes = []
    real = nw.run_nw_blocked

    def spy(reference, config, *args, **kwargs):
        traced_sizes.append((config.n, config.block))
        return real(reference, config, *args, **kwargs)

    monkeypatch.setattr(nw, "run_nw_blocked", spy)
    result = autotune("nw", measure_top_k=2)
    # the disagreement column re-uses each candidate's analytic evaluation
    by_config = {tuple(sorted(c.config.items())): c for c in result.evaluations}
    assert len(result.profiles) == 2
    for profile in result.profiles:
        candidate = by_config[tuple(sorted(profile.config.items()))]
        assert profile.analytic_seconds == candidate.time_seconds
    # one analytic trace (4*block) per candidate, one measured case (2*block)
    # per profile, and nothing simulated twice
    analytic = [(n, b) for n, b in traced_sizes if n == 4 * b]
    measured = [(n, b) for n, b in traced_sizes if n == 2 * b]
    assert len(analytic) == len(result) == 20
    assert len(measured) == 2
    assert len(traced_sizes) == 22


def test_nw_evaluate_memo_is_per_device():
    import repro.apps.nw as nw
    from repro.gpusim import A100_80GB, RTX4090

    spec = get_app("nw")
    config = {"layout": "row", "block": 16}
    cached = {device: spec.evaluate(config, device=device) for device in (A100_80GB, RTX4090)}
    assert cached[A100_80GB] != cached[RTX4090]
    for device in (A100_80GB, RTX4090):
        nw._nw_analytic_trace.cache_clear()
        assert spec.evaluate(config, device=device) == cached[device]


def test_autotuner_reproduces_transpose_smem_over_naive():
    result = autotune("transpose")
    assert len(result) >= 20
    best = result.best
    assert best.config["variant"] == "smem"
    assert best.config["generator"] == "lego"  # Table V's slight LEGO-MLIR edge
    best_naive = min(c.time_seconds for c in result.evaluations
                     if c.config["variant"] == "naive")
    assert best.time_seconds < best_naive / 3
    # at the paper's tile of 32 the skewed shared layout beats the row-major one
    tile32 = {(c.config["skew"]): c.time_seconds for c in result.evaluations
              if c.config["variant"] == "smem" and c.config["tile"] == 32
              and c.config["generator"] == "lego"}
    assert tile32[1] < tile32[0]


def test_autotuner_prefers_fused_softmax():
    result = autotune("softmax")
    assert result.best.config["implementation"] == "lego"
