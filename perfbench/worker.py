"""One repetition of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition so that every repetition
begins with cold process state: an empty intern table, no
``default_service()`` and empty proof caches.  It prints one JSON object as
its last line of output.

Modes:

* ``plain`` calls the program the way a user does (``autotune``,
  ``run_check``, ``CompileFarm.submit``) with the program's tracing off.
  The end-to-end metrics come from this mode.
* ``traced`` drives the same steps through each layer's public entry point
  and times every call with the benchmark's own :class:`Spans`.  The
  program's ``repro.obs`` tracer runs alongside and its trace is written
  next to the benchmark's spans.  The per-layer metrics come from this mode.

Usage (normally through ``run.py``)::

    PYTHONPATH=src python3 perfbench/worker.py --workload tune-lud --seed 1 \
        --mode plain --out perfbench/out
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import inspect
import json
import math
import os
import resource
import shutil
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())

#: autotune arguments of the tune workloads
MEASURE_TOP_K = 4
VERIFY_TOP_K = 1
#: every repetition runs one cold pass, then the same pass again this many
#: times on warm state (more warm samples: a warm pass is short and noisy)
WARM_PASSES = 2
PASSES = ("cold",) + tuple(f"warm{i}" for i in range(1, WARM_PASSES + 1))
#: verify-all: sampled configurations per app, and the seed of that draw
#: (fixed, see README.md: the --seed drives the check inputs and the fuzz)
VERIFY_SAMPLES = 4
VERIFY_CONFIG_SEED = 0
FUZZ_TRIALS = 300
#: serve-burst: 2 worker processes, open-loop phases (name, s, req/s, interactive share)
FARM_WORKERS = 2
PHASES = (("steady", 1.0, 160.0, 0.9), ("burst", 0.75, 640.0, 0.7), ("cooldown", 1.0, 160.0, 0.9))
#: arrivals kept from the trace (it draws ~800 +- 30): a fixed count, so the
#: bursts do the same amount of work whatever the seed
REQUESTS = 700
#: a warm pass is this many bursts in a row (~50 ms each)
WARM_BURST_REPEATS = 4
#: the cold burst (~0.3 s) is timed on this many fresh farms per repetition,
#: because one short sample per repetition is too noisy; the warm passes
#: follow the last cold burst on the same farm
COLD_FARMS = 3
#: Zipf working-set size: large enough that every app contributes its whole
#: pool of distinct kernels (7 apps x 27 = 189 covers all 85)
UNIQUE = 189
#: a flat Zipf head, so that ~80 of the 85 kernels are drawn whatever the seed
ZIPF_ALPHA = 0.7
#: distinct kernels of the trace's popular head that warm the farm
WARM_HEADS = 8
#: the supervisor's memory tier holds fewer kernels (4 shards x 8) than the
#: ~80 drawn, so the long tail is evicted and re-served by workers from their
#: own memory or from the shared store: store reads happen beside the writes
SUPERVISOR_SHARDS, SUPERVISOR_SHARD_CAPACITY = 4, 8
#: a generator this late (ms) at its 99th percentile has fallen behind
GENERATOR_BEHIND_MS = 25.0
#: the tail is the highest of these percentiles with >= 10 samples beyond it
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)
#: relative tolerance on the winner's trace-costed time against expected.json
WINNER_US_RTOL = 1e-6


class Spans:
    """The benchmark's own span recorder: name, start, end, parent.

    Spans are kept in memory and written out once the repetition ends;
    ``total(name)`` is the summed duration of every span of that name.
    """

    def __init__(self):
        self.records: list[dict] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.records)
        record = {"name": name, "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.records.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def total(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.records if r["name"] == name)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n


class _Off:
    """Stand-in recorder for plain mode: no spans, no counts."""

    @contextmanager
    def span(self, name: str):
        yield

    def count(self, name: str, n: int = 1) -> None:
        pass


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in 0..100)."""
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered) / 100.0 - 1e-9) - 1
    return ordered[max(0, min(len(ordered) - 1, rank))]


def tail(samples: list[float]) -> tuple[float, float]:
    """``(q, value)`` for the highest ladder percentile ``q`` with at least
    ten samples beyond it (the median when there are fewer)."""
    q = next(q for q in TAIL_LADDER if len(samples) * (1.0 - q / 100.0) >= 10 or q == 50.0)
    return q, percentile(samples, q)


def calibrate(samples: list) -> None:
    """Append three timings of a fixed pure-Python loop to ``samples``.

    The host's speed drifts by tens of percent from one minute to the next.
    ``run.py`` calls this in its own interpreter, which imports nothing from
    the program, right before and right after each repetition, and scales
    that repetition's times by the median of its own samples.
    """
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        samples.append(time.perf_counter() - started)


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def workers_peak_rss_mb(pids) -> float:
    """Summed peak resident set (VmHWM) of the processes ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


# -- tune-lud / tune-nw ------------------------------------------------------------


def ranking_fingerprint(ranked) -> dict:
    best = ranked[0]
    return {
        "candidates": len(ranked),
        "winner": best.config,
        "ranking_digest": digest([c.config for c in ranked]),
        "winner_us": (best.measured_time_seconds or best.time_seconds) * 1e6,
        "winner_index_ops": best.index_ops,
    }


def tune_failures(app: str, fingerprint: dict, profiles, reports) -> list[str]:
    """The tune oracle: expected candidate count, winner, ranking, winner's
    index ops and trace-costed time, no failed profile, and the top
    candidate passes differential verification.

    ``profiles`` holds one ``(config, status, reason)`` per measured candidate.
    """
    expected = EXPECTED[app]
    failures = []
    for key in ("candidates", "winner", "winner_index_ops"):
        if fingerprint[key] != expected[key]:
            failures.append(f"{key} {fingerprint[key]} != {expected[key]}")
    if not math.isclose(fingerprint["winner_us"], expected["winner_us"], rel_tol=WINNER_US_RTOL):
        failures.append(f"winner_us {fingerprint['winner_us']} != {expected['winner_us']}")
    if fingerprint["ranking_digest"] != expected["ranking_digest"]:
        failures.append("ranking digest differs from expected.json")
    failures += [f"profile failed: {config}: {reason}"
                 for config, status, reason in profiles if status == "failed"]
    failures += [f"verification {r.status}: {r.summary()}" for r in reports if not r.passed]
    if len(reports) != VERIFY_TOP_K:
        failures.append(f"{len(reports)} verification reports, wanted {VERIFY_TOP_K}")
    return failures


def tune_plain(app: str, seed: int) -> dict:
    from repro.cache import ResultCache
    from repro.check import CheckFailure
    from repro.tune import autotune

    cache = ResultCache()
    out = {"ready": time.time(), "passes": {}, "failures": [], "attempted": 0}
    for name in PASSES:
        started = time.perf_counter()
        try:
            result = autotune(app, cache=cache, measure_top_k=MEASURE_TOP_K,
                              verify_top_k=VERIFY_TOP_K, measure_seed=seed, verify_seed=seed)
        except CheckFailure as exc:
            out["failures"].append(f"{name}: {exc}")
            out["attempted"] += 1
            continue
        seconds = time.perf_counter() - started
        fingerprint = ranking_fingerprint(result.ranked)
        out["passes"][name] = {"seconds": seconds, **fingerprint}
        out["failures"] += [f"{name}: {f}" for f in tune_failures(
            app, fingerprint, [(p.config, p.status, p.reason) for p in result.profiles],
            result.verification)]
        out["attempted"] += 1 + len(result.profiles) + len(result.verification)
    return out


def _takes_device(fn) -> bool:
    try:
        parameters = inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False
    return "device" in parameters or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values())


def _measure(spec, config, seed, service, rec):
    """``repro.perf.profile`` decomposed: perf_case -> execute -> trace_to_cost.

    Returns ``(status, extrapolated seconds, reason)``.
    """
    from dataclasses import replace

    import numpy as np

    from repro.apps.registry import PerfCase
    from repro.check import resolve_case_kernel, stable_seed
    from repro.gpusim import A100_80GB, estimate_time
    from repro.perf import trace_metrics, trace_to_cost
    from repro.vm import engine_mode, use_engine

    device = A100_80GB
    builder = spec.perf_case or spec.check_case
    rng = np.random.default_rng(
        stable_seed(seed, "perf", spec.name, {k: config[k] for k in sorted(config)}))
    try:
        with rec.span("apps.perf_case"):
            if _takes_device(builder):
                case = builder(dict(config), rng, device=device)
            else:
                case = builder(dict(config), rng)
        if case is None:
            return "skipped", None, "configuration selects no executable kernel"
        with rec.span("serve.submit"):
            kernel = resolve_case_kernel(spec, case, config, service=service)
        with use_engine(engine_mode()), rec.span("vm.execute"):
            if _takes_device(case.execute):
                _, trace = case.execute(kernel, device=device)
            else:
                _, trace = case.execute(kernel)
        rec.count("vm.launches")
        if trace is None:
            return "skipped", None, "substrate records no trace"
        with rec.span("perf.adapt"):
            args = {"name": getattr(kernel, "name", "") or spec.name}
            if isinstance(case, PerfCase):
                args.update(dtype=case.dtype, tensor_core=case.tensor_core)
            cost = trace_to_cost(trace, device, **args)
            full = replace(cost.scaled(float(getattr(case, "scale", 1.0))),
                           launches=int(getattr(case, "launches", 1)))
            extrapolated = estimate_time(full, device)
            trace_metrics(trace, device)
        with rec.span("perf.analytic"):
            target = getattr(case, "target_config", None) or dict(case.config)
            if _takes_device(spec.evaluate):
                spec.evaluate(dict(target), device=device)
            else:
                spec.evaluate(dict(target))
        rec.count("perf.profiles")
        return "measured", extrapolated.total, ""
    except Exception as exc:  # a failed profile is an oracle failure, never a crash
        return "failed", None, f"{type(exc).__name__}: {exc}"


def tune_sweep_traced(spec, cache, service, seed, rec) -> tuple[list, list, list]:
    """One ``autotune(measure_top_k, verify_top_k)`` sweep, step by step.

    Returns ``(ranked candidates, profile statuses, check reports)``.
    """
    from repro.cache import ResultCache
    from repro.check import run_check
    from repro.serve import CompileRequest
    from repro.symbolic import CostWeights
    from repro.tune import Candidate

    weights = CostWeights.gpu_default()
    with rec.span("tune.enumerate"):
        configs = list(spec.space)
    rec.count("tune.candidates", len(configs))
    with rec.span("serve.submit"):
        if spec.generate is None:
            kernels = [None] * len(configs)
        else:
            kernels = service.submit_batch(
                [CompileRequest(app=spec.name, config=spec.generate_config(c)) for c in configs])
    rec.count("serve.requests", len(configs))
    rendered: dict[int, tuple] = {}
    keys, ops = [], []
    for config, kernel in zip(configs, kernels):
        expressions, index_ops = None, 0
        if kernel is not None:
            memo = rendered.get(id(kernel))
            if memo is None:
                with rec.span("codegen.render"):
                    text = kernel.rendered_expressions()
                    memo = (text, kernel.binding_ops(weights) if text else 0)
                rendered[id(kernel)] = memo
            if memo[0]:
                expressions, index_ops = memo
        with rec.span("cache.result_get"):
            keys.append(ResultCache.key(spec.name, config, expressions, backend=spec.backend))
        ops.append(index_ops)
    with rec.span("cache.result_get"):
        entries = [cache.get(key) for key in keys]
    missing = [i for i, entry in enumerate(entries) if entry is None]
    rec.count("cache.result_gets", len(keys))
    rec.count("cache.result_hits", len(keys) - len(missing))
    for i in missing:
        with rec.span("apps.evaluate"):
            result = spec.evaluate(configs[i])
        rec.count("apps.evaluate_calls")
        result = dict(result) if isinstance(result, dict) else {"time_seconds": float(result)}
        with rec.span("cache.result_put"):
            cache.put(keys[i], result)
        entries[i] = result
    candidates = [
        Candidate(config=config, time_seconds=entry["time_seconds"], index_ops=index_ops,
                  order=order, has_kernel=kernel is not None)
        for order, (config, entry, index_ops, kernel)
        in enumerate(zip(configs, entries, ops, kernels))
    ]
    ranked = sorted(candidates, key=Candidate.rank_key)
    statuses = []
    for candidate in ranked[:MEASURE_TOP_K]:
        status, seconds, reason = _measure(spec, candidate.config, seed, service, rec)
        statuses.append((candidate.config, status, reason))
        if status == "measured":
            candidate.measured_time_seconds = seconds
    ranked = sorted(candidates, key=Candidate.rank_key)
    reports = []
    for candidate in ranked[:VERIFY_TOP_K]:
        with rec.span("check.run"):
            reports.append(run_check(spec, candidate.config, seed=seed, service=service))
        rec.count("check.cases")
    return ranked, statuses, reports


def tune_traced(app: str, seed: int, rec: Spans) -> dict:
    from repro.apps.registry import get_app
    from repro.cache import ResultCache
    from repro.serve import default_service

    spec = get_app(app)
    cache = ResultCache()
    service = default_service()
    out = {"ready": time.time(), "passes": {}, "failures": [], "attempted": 0}
    before = service.stats()
    for name in PASSES:
        started = time.perf_counter()
        with rec.span(f"bench.{name}"):
            ranked, statuses, reports = tune_sweep_traced(spec, cache, service, seed, rec)
        seconds = time.perf_counter() - started
        fingerprint = ranking_fingerprint(ranked)
        out["passes"][name] = {"seconds": seconds, **fingerprint}
        out["failures"] += [f"{name}: {f}" for f in tune_failures(app, fingerprint, statuses, reports)]
        out["attempted"] += 1 + len(statuses) + len(reports)
    after = service.stats()
    rec.count("serve.compiled", after.compiled - before.compiled)
    return out


# -- verify-all -------------------------------------------------------------------


def verify_cases():
    from repro.apps.registry import available_apps, get_app
    from repro.check import sample_configs

    return [(get_app(name), config) for name in available_apps()
            for config in sample_configs(get_app(name), VERIFY_SAMPLES,
                                         VERIFY_CONFIG_SEED, "configs")]


def _check_traced(spec, config, seed, rec) -> str:
    """``repro.check.run_check`` decomposed: case -> compile -> execute -> reference."""
    import numpy as np

    from repro.check import resolve_case_kernel, stable_seed, tolerance_for

    if spec.check_case is None or spec.reference is None:
        return "skipped"
    rng = np.random.default_rng(stable_seed(seed, spec.name, {k: config[k] for k in sorted(config)}))
    try:
        case = spec.check_case(config, rng)
        if case is None:
            return "skipped"
        with rec.span("codegen.compile"):
            kernel = resolve_case_kernel(spec, case, config)
        if kernel is not None:
            rec.count("codegen.kernels")
        with rec.span("vm.execute"):
            output, trace = case.execute(kernel)
        rec.count("vm.launches")
        if trace is not None and getattr(trace, "sampled", False):
            return "failed"
        with rec.span("check.reference"):
            reference = spec.reference(case.config, case.inputs)
    except Exception:  # the runner reports these as failures too
        return "failed"
    actual, reference = np.asarray(output), np.asarray(reference)
    if actual.shape != reference.shape:
        return "failed"
    tolerance = tolerance_for(actual.dtype)
    if tolerance.exact:
        ok = np.array_equal(actual, reference)
    else:
        ok = np.allclose(actual.astype(np.float64), reference.astype(np.float64),
                         rtol=tolerance.rtol, atol=tolerance.atol)
    return "passed" if ok else "failed"


def verify(seed: int, traced: bool, rec) -> dict:
    from repro.check import fuzz_symbolic, run_check

    cases = verify_cases()
    out = {"ready": time.time(), "passes": {}, "failures": [], "attempted": 0}
    for name in PASSES:
        started = time.perf_counter()
        with rec.span(f"bench.{name}"):
            statuses = []
            for spec, config in cases:
                with rec.span("check.run"):
                    if traced:
                        statuses.append(_check_traced(spec, config, seed, rec))
                    else:
                        statuses.append(run_check(spec, config, seed=seed).status)
                rec.count("check.cases")
            with rec.span("check.fuzz"):
                fuzz = fuzz_symbolic(FUZZ_TRIALS, seed=seed)
        seconds = time.perf_counter() - started
        out["passes"][name] = {
            "seconds": seconds,
            "status_digest": digest([[s.name, c, st] for (s, c), st in zip(cases, statuses)]),
            "passed": statuses.count("passed"),
            "skipped": statuses.count("skipped"),
        }
        out["failures"] += [f"{name}: {spec.name} {config} failed"
                            for (spec, config), st in zip(cases, statuses) if st == "failed"]
        out["failures"] += [f"{name}: fuzz {f.property}: {f.detail}" for f in fuzz.failures]
        out["attempted"] += len(statuses) - statuses.count("skipped") + FUZZ_TRIALS
    return out


# -- serve-burst ------------------------------------------------------------------


@contextmanager
def fresh_farm(out_dir: Path, table, audit: list):
    """A 2-worker farm on a fresh store, warmed from ``table``.

    On exit the farm is closed, the store's ``verify_integrity()`` result is
    appended to ``audit`` together with the final ``FarmStats``, and the
    store is removed.
    """
    import tempfile

    from repro.cache import ShardedFileStore, ShardedLRUCache
    from repro.serve import CompileFarm

    store = Path(tempfile.mkdtemp(prefix="store-", dir=out_dir))
    farm = CompileFarm(workers=FARM_WORKERS, store=store, cache=ShardedLRUCache(
        shards=SUPERVISOR_SHARDS, capacity_per_shard=SUPERVISOR_SHARD_CAPACITY))
    try:
        started = time.perf_counter()
        warmed = farm.warm_from_table(table)
        yield farm, warmed, time.perf_counter() - started
        stats = farm.stats()
    finally:
        farm.close()
    audit.append((stats, ShardedFileStore(store / "kernels").verify_integrity()))
    shutil.rmtree(store, ignore_errors=True)


def check_outcomes(trace, outcomes, sources: dict, failures: list) -> None:
    """Shed requests fail; every request for one kernel must get one source."""
    from repro.serve import Rejected

    for timed, outcome in zip(trace, outcomes):
        if isinstance(outcome, Rejected):
            failures.append(f"shed: {timed.request.app} on {timed.lane}")
        else:  # None: the app's generator declines this (baseline) configuration
            sources[timed.request.local_key()].add(getattr(outcome, "source", None))


def serve(seed: int, rec, out_dir: Path) -> dict:
    """The open-loop replay on one fresh farm, then closed-loop bursts on
    ``COLD_FARMS`` others.

    The replay gives the latencies, timed from when each request was due.
    A burst submits the whole trace at once and is timed until every request
    has resolved.  Each burst farm takes one burst on its cold store
    (``cold_s``: ~80 compiles); the last one then takes ``WARM_BURST_REPEATS``
    bursts per warm pass (``warm_s``).
    """
    from repro.cache import ResultCache
    from repro.serve import BurstPhase, Rejected, trace_summary, traffic_trace
    from repro.tune.tables import TuningTable

    phases = tuple(BurstPhase(n, duration=d, rate=r, interactive_fraction=f)
                   for n, d, r, f in PHASES)
    trace = traffic_trace(phases=phases, unique=UNIQUE, zipf_alpha=ZIPF_ALPHA, seed=seed)
    trace = trace[:REQUESTS]
    popularity = collections.Counter(t.request.local_key() for t in trace)
    heads = {key for key, _ in popularity.most_common(WARM_HEADS)}
    table = TuningTable(ResultCache(None))
    for timed in trace:
        if timed.request.local_key() in heads:
            table.put(timed.request.app, "bench-device", timed.request.config)
    out = {"failures": [], "trace_summary": trace_summary(trace), "passes": {}}
    audit: list = []
    workers_rss: list[float] = []
    sources: dict[tuple, set] = collections.defaultdict(set)
    with fresh_farm(out_dir, table, audit) as (farm, warmed, warm_s):
        out.update(ready=time.time(), warmed=warmed, warm_s=warm_s)
        done: dict[int, float] = {}
        due, late, busy, futures, dispatched = [], [], 0.0, [], []
        origin = time.perf_counter()
        for index, timed in enumerate(trace):
            when = origin + timed.at
            wait = when - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            submitted = time.perf_counter()
            late.append(submitted - when)
            future = farm.submit(timed.request, lane=timed.lane)
            busy += time.perf_counter() - submitted
            dispatched.append(not future.done())
            future.add_done_callback(lambda _f, i=index: done.__setitem__(i, time.perf_counter()))
            due.append(when)
            futures.append(future)
        outcomes = [f.result(timeout=120.0) for f in futures]
        workers_rss.append(workers_peak_rss_mb(farm.worker_pids()))
    check_outcomes(trace, outcomes, sources, out["failures"])
    cold_names = ["cold"] + [f"cold{i}" for i in range(2, COLD_FARMS + 1)]
    for index, cold_name in enumerate(cold_names):
        names = [cold_name] + (list(PASSES[1:]) if index == len(cold_names) - 1 else [])
        with fresh_farm(out_dir, table, audit) as (farm, _, _):
            for name in names:
                started = time.perf_counter()
                with rec.span(f"bench.{name}"):
                    # bursts one after another: together they would overflow
                    # the sweep lane's admission cap
                    for _ in range(1 if name.startswith("cold") else WARM_BURST_REPEATS):
                        burst = [farm.submit(t.request, lane=t.lane) for t in trace]
                        burst = [f.result(timeout=120.0) for f in burst]
                        check_outcomes(trace, burst, sources, out["failures"])
                out["passes"][name] = {"seconds": time.perf_counter() - started}
            workers_rss.append(workers_peak_rss_mb(farm.worker_pids()))

    out["failures"] += [f"{len(s)} different kernels served for one request"
                        for s in sources.values() if len(s) > 1]
    for stats, integrity in audit:
        for name, value in (("lost", stats.lost), ("errors", stats.errors),
                            ("double_compiled", stats.double_compiled),
                            ("corrupt store entries", integrity["corrupt"])):
            if value:
                out["failures"].append(f"{value} {name}")
    if out["warmed"] < 1:
        out["failures"].append("the tuning table warmed nothing")
    out["attempted"] = (1 + COLD_FARMS + WARM_PASSES * WARM_BURST_REPEATS) * len(trace)
    # the supervisor runs in this process; its peak covers every farm
    out["peak_rss_mb"] = peak_rss_mb() + max(workers_rss)

    latency = {"interactive": [], "sweep": []}
    dispatched_latency = []
    for index, (timed, outcome) in enumerate(zip(trace, outcomes)):
        # a shed request misses any latency limit
        seconds = math.inf if isinstance(outcome, Rejected) else done[index] - due[index]
        latency[timed.lane].append(seconds)
        if dispatched[index]:
            dispatched_latency.append(seconds)
    stats = audit[0][0]
    lanes = stats.lanes
    resolved = sum(lane.resolved for lane in lanes)
    interactive_q, interactive_tail = tail(latency["interactive"])
    sweep_q, sweep_tail = tail(latency["sweep"])
    late_ms = [x * 1e3 for x in late]
    out.update({
        "requests": len(trace),
        "distinct": out["trace_summary"]["distinct"],
        "interactive_p50_s": percentile(latency["interactive"], 50.0),
        "interactive_tail_s": interactive_tail, "interactive_tail_pct": interactive_q,
        "sweep_tail_s": sweep_tail, "sweep_tail_pct": sweep_q,
        "drain_s": max(done.values()) - due[-1],
        "generator_late_ms": percentile(late_ms, 99.0),
        "generator_late_max_ms": max(late_ms),
        "submit_busy_s": busy,
        "dispatched": sum(dispatched),
        "dispatched_p50_ms": percentile(dispatched_latency, 50.0) * 1e3 if dispatched_latency else 0.0,
        "dispatched_p99_ms": percentile(dispatched_latency, 99.0) * 1e3 if dispatched_latency else 0.0,
        "compiled": stats.compiled,
        "store_hits": sum(lane.store_hits for lane in lanes),
        "dedup_waits": sum(lane.dedup_waits for lane in lanes),
        "worker_hits": sum(lane.worker_hits for lane in lanes),
        "memory_hit_ratio": sum(lane.memory_hits for lane in lanes) / resolved if resolved else 0.0,
    })
    out["generator_behind"] = out["generator_late_ms"] > GENERATOR_BEHIND_MS
    return out


# -- entry point ------------------------------------------------------------------


def symbolic_counters() -> dict:
    from repro.obs import REGISTRY
    from repro.symbolic import cache_statistics

    stats = cache_statistics()
    snapshot = REGISTRY.snapshot()
    return {
        **{k: v for k, v in stats.items() if isinstance(v, (int, float))},
        "proofs_static": snapshot.get("repro.symbolic.proofs_static", 0.0),
        "guards_eliminated": snapshot.get("repro.symbolic.guards_eliminated", 0.0),
        "vm_fallbacks": snapshot.get("repro.vm.fallbacks", 0.0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced"), required=True)
    parser.add_argument("--out", required=True, help="directory for spans and stores")
    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    traced = args.mode == "traced"
    rec = Spans() if traced else _Off()
    if traced:
        from repro.obs import set_tracing

        set_tracing(True)
    counters_before = symbolic_counters()
    if args.workload in ("tune-lud", "tune-nw"):
        app = args.workload.split("-", 1)[1]
        result = tune_traced(app, args.seed, rec) if traced else tune_plain(app, args.seed)
    elif args.workload == "verify-all":
        result = verify(args.seed, traced, rec)
    elif args.workload == "serve-burst":
        result = serve(args.seed, rec, out_dir)
    else:
        parser.error(f"unknown workload {args.workload!r}")
    result.setdefault("peak_rss_mb", peak_rss_mb())
    if traced:
        after = symbolic_counters()
        result["counters"] = {k: after.get(k, 0) - counters_before.get(k, 0) for k in after}
        result["spans"] = {name: rec.total(name) for name in {r["name"] for r in rec.records}}
        result["counts"] = dict(rec.counts)
        from repro.obs import export_trace, trace_events

        stem = f"{args.workload}-{args.seed}-{os.getpid()}"
        (out_dir / f"{stem}.spans.json").write_text(json.dumps(rec.records))
        result["program_spans"] = len(trace_events())
        export_trace(out_dir / f"{stem}.repro-trace.json")
    print(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
