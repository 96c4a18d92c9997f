"""The LEGO reproduction's benchmark: one command, every workload, every layer.

Run from the repository root::

    python3 perfbench/run.py --workload tune-lud --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each repetition of a workload runs in a fresh interpreter (``worker.py``)
with ``REPRO_VM``/``REPRO_TRACE`` cleared, so process-wide caches start
cold.  Repetitions continue until ``--seconds`` have passed (at least
``MIN_REPS``), and every metric is the median over repetitions.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates a plain and a traced repetition; it prints the
per-layer metrics, checks that the traced (decomposed) run reproduces the
plain run's fingerprints, and reports the difference in wall time as
``obs.overhead_ratio``.

The last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when any correctness check
failed.  See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = Path(worker.__file__)
OUT = HERE / "out"

WORKLOADS = ("tune-lud", "tune-nw", "verify-all", "serve-burst")
MIN_REPS = 3
#: no repetition starts after this many seconds, so a run ends well within 180 s
START_LIMIT_S = 120.0
CHILD_TIMEOUT_S = 150.0

#: the median time of one ``worker.calibrate`` loop at the reference speed;
#: each repetition's times are scaled by CAL_REF_S / (the median loop time
#: measured in this interpreter right before and right after it)
CAL_REF_S = 0.035

E2E_UNITS = {"setup_s": "s", "cold_s": "s", "warm_s": "s", "peak_rss_mb": "MB"}

#: per-layer metric -> (unit, how to read it from one traced repetition)
LAYER_METRICS = {
    "tune.enumerate_s": ("s", lambda r: span(r, "tune.enumerate")),
    "tune.candidates": ("count", lambda r: count(r, "tune.candidates")),
    "serve.submit_s": ("s", lambda r: span(r, "serve.submit")),
    "serve.requests": ("count", lambda r: count(r, "serve.requests")),
    "serve.compiled": ("count", lambda r: count(r, "serve.compiled")),
    "serve.dedup_ratio": ("ratio", lambda r: ratio(
        count(r, "serve.requests") - count(r, "serve.compiled"), count(r, "serve.requests"))),
    "apps.evaluate_s": ("s", lambda r: span(r, "apps.evaluate")),
    "apps.evaluate_calls": ("count", lambda r: count(r, "apps.evaluate_calls")),
    "cache.result_get_s": ("s", lambda r: span(r, "cache.result_get")),
    "cache.result_put_s": ("s", lambda r: span(r, "cache.result_put")),
    "cache.result_hit_rate": ("ratio", lambda r: ratio(
        count(r, "cache.result_hits"), count(r, "cache.result_gets"))),
    "vm.execute_s": ("s", lambda r: span(r, "vm.execute")),
    "vm.launches": ("count", lambda r: count(r, "vm.launches")),
    "vm.fallbacks": ("count", lambda r: counter(r, "vm_fallbacks")),
    "perf.adapt_s": ("s", lambda r: span(r, "perf.adapt")),
    "perf.analytic_s": ("s", lambda r: span(r, "perf.analytic")),
    "perf.profiles": ("count", lambda r: count(r, "perf.profiles")),
    "codegen.compile_s": ("s", lambda r: span(r, "codegen.compile")),
    "codegen.kernels": ("count", lambda r: count(r, "codegen.kernels")),
    "codegen.render_s": ("s", lambda r: span(r, "codegen.render")),
    "symbolic.simplify_hit_rate": ("ratio", lambda r: hit_rate(r, "simplify")),
    "symbolic.proof_hit_rate": ("ratio", lambda r: hit_rate(r, "proof")),
    "symbolic.range_hit_rate": ("ratio", lambda r: hit_rate(r, "range")),
    "symbolic.interned_nodes": ("count", lambda r: counter(r, "interned_nodes")),
    "symbolic.proofs_static": ("count", lambda r: counter(r, "proofs_static")),
    "symbolic.guards_eliminated": ("count", lambda r: counter(r, "guards_eliminated")),
    "check.run_s": ("s", lambda r: span(r, "check.run")),
    "check.reference_s": ("s", lambda r: span(r, "check.reference")),
    "check.cases": ("count", lambda r: count(r, "check.cases")),
    "check.fuzz_s": ("s", lambda r: span(r, "check.fuzz")),
    "serve.interactive_p50_ms": ("ms", lambda r: 1e3 * r.get("interactive_p50_s", 0.0)),
    "serve.interactive_tail_ms": ("ms", lambda r: 1e3 * r.get("interactive_tail_s", 0.0)),
    "serve.sweep_tail_ms": ("ms", lambda r: 1e3 * r.get("sweep_tail_s", 0.0)),
    "serve.drain_s": ("s", lambda r: r.get("drain_s", 0.0)),
    "farm.dispatched_p50_ms": ("ms", lambda r: r.get("dispatched_p50_ms", 0.0)),
    "farm.dispatched_p99_ms": ("ms", lambda r: r.get("dispatched_p99_ms", 0.0)),
    "farm.compiled": ("count", lambda r: r.get("compiled", 0)),
    "farm.store_hits": ("count", lambda r: r.get("store_hits", 0)),
    "farm.dedup_waits": ("count", lambda r: r.get("dedup_waits", 0)),
    "farm.memory_hit_ratio": ("ratio", lambda r: r.get("memory_hit_ratio", 0.0)),
    "farm.warm_s": ("s", lambda r: r.get("warm_s", 0.0)),
    "bench.generator_late_ms": ("ms", lambda r: r.get("generator_late_ms", 0.0)),
}


def span(rep: dict, name: str) -> float:
    return rep.get("spans", {}).get(name, 0.0)


def count(rep: dict, name: str) -> float:
    return rep.get("counts", {}).get(name, 0)


def counter(rep: dict, name: str) -> float:
    return rep.get("counters", {}).get(name, 0)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def hit_rate(rep: dict, family: str) -> float:
    hits, misses = counter(rep, f"{family}_hits"), counter(rep, f"{family}_misses")
    return ratio(hits, hits + misses)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("REPRO_VM", "REPRO_TRACE")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # one BLAS thread: on a small shared host a BLAS pool's second thread
    # contends with the farm's workers and with other tenants, and made
    # verify-all's pass times swing by a third from one minute to the next
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(workload: str, seed: int, mode: str) -> dict:
    """One repetition in a fresh interpreter; ``setup_s`` is measured from
    before the interpreter starts until the worker reports it is ready.

    The host's speed is sampled here, in an interpreter that imports nothing
    from the program, before the child starts and after it has exited; the
    repetition's ``speed`` factor comes from those samples alone.
    """
    calibration: list[float] = []
    worker.calibrate(calibration)
    started = time.time()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
         "--mode", mode, "--out", str(OUT)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"crashed": f"{workload} {mode} repetition timed out"}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"{workload} {mode} exited {proc.returncode}: {stderr.strip()[-2000:]}"}
    worker.calibrate(calibration)
    rep = json.loads(lines[-1])
    rep["setup_s"] = rep["ready"] - started
    rep["calibration"] = calibration
    rep["speed"] = CAL_REF_S / statistics.median(calibration)
    return rep


def times(plain: list[dict], scaled: bool) -> dict:
    """Every repetition's ``setup_s``, ``cold_s`` and ``warm_s`` samples,
    scaled to the reference host speed by the repetition's own ``speed``
    when ``scaled``.  ``warm_s`` pools every warm pass of every repetition."""
    values = {"setup_s": [], "cold_s": [], "warm_s": []}
    for rep in plain:
        speed = rep["speed"] if scaled else 1.0
        values["setup_s"].append(rep["setup_s"] * speed)
        for name, p in rep["passes"].items():
            values["cold_s" if name.startswith("cold") else "warm_s"].append(p["seconds"] * speed)
    return values


def e2e(plain: list[dict]) -> dict:
    """The end-to-end metrics: medians over the plain repetitions (see README.md)."""
    values = times(plain, scaled=True)
    values["peak_rss_mb"] = [rep["peak_rss_mb"] for rep in plain]
    return {name: {"value": statistics.median(values[name]), "unit": unit}
            for name, unit in E2E_UNITS.items()}


def complete(rep: dict) -> bool:
    """Did the repetition produce every figure (no pass aborted)?"""
    return set(worker.PASSES) <= set(rep["passes"])


def fingerprint(workload: str, rep: dict) -> dict:
    """The deterministic outputs every repetition of one seed must repeat."""
    if workload == "serve-burst":
        return {"trace_summary": rep["trace_summary"]}
    keep = ("candidates", "winner", "ranking_digest", "winner_us", "winner_index_ops",
            "status_digest", "passed", "skipped")
    return {name: {k: v for k, v in p.items() if k in keep} for name, p in rep["passes"].items()}


def wall(rep: dict) -> float:
    """The wall time compared between plain and traced repetitions, scaled
    by the repetition's speed factor."""
    return rep["speed"] * sum(p["seconds"] for p in rep["passes"].values())


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    begun = time.monotonic()
    plain, tracedreps, failures, attempted = [], [], [], 0
    while len(plain) < MIN_REPS or time.monotonic() - begun < seconds:
        if time.monotonic() - begun > START_LIMIT_S:
            break
        for mode in (("plain", "traced") if traced else ("plain",)):
            rep = run_child(workload, seed, mode)
            if "crashed" in rep:
                failures.append(rep["crashed"])
                attempted += 1
                continue
            failures += rep["failures"]
            attempted += rep["attempted"]
            (tracedreps if mode == "traced" else plain).append(rep)
        if len(failures) > 0 and not plain:
            break
    record = OUT / f"{workload}-seed{seed}-trace{int(traced)}.json"
    record.write_text(json.dumps({"plain": plain, "traced": tracedreps}, default=str))
    prints = [fingerprint(workload, rep) for rep in plain + tracedreps]
    if any(p != prints[0] for p in prints[1:]):
        failures.append("repetitions disagree on the deterministic fingerprint "
                        "(winner, ranking, verdicts or trace)")
    result = {"workload": workload, "seed": seed, "reps": len(plain), "failures": failures,
              "attempted": max(1, attempted), "fingerprint": prints[0] if prints else {}}
    if any(complete(rep) for rep in plain):
        whole = [rep for rep in plain if complete(rep)]
        result["metrics"] = e2e(whole)
        result["detail"] = detail(workload, whole)
    if traced and tracedreps and plain:
        layers = {
            name: {"value": statistics.median(read(rep) for rep in tracedreps), "unit": unit}
            for name, (unit, read) in LAYER_METRICS.items()
        }
        plain_wall = statistics.median(wall(rep) for rep in plain)
        traced_wall = statistics.median(wall(rep) for rep in tracedreps)
        layers["obs.overhead_ratio"] = {"value": traced_wall / plain_wall - 1.0, "unit": "ratio"}
        result["layers"] = layers
        result["program_spans"] = statistics.median(r["program_spans"] for r in tracedreps)
    return result


def detail(workload: str, plain: list[dict]) -> dict:
    """The workload-specific figures printed in the row (medians), with the
    unscaled times (``raw.*``) and the median speed factor next to them."""
    raw = {f"raw.{name}": statistics.median(v) for name, v in times(plain, scaled=False).items()}
    raw["speed"] = statistics.median(rep["speed"] for rep in plain)
    if workload == "serve-burst":
        def med(key, scale=1.0):
            return statistics.median(scale * rep[key] for rep in plain)

        first = plain[0]
        return {
            "serve.interactive_p50_ms": med("interactive_p50_s", 1e3),
            f"serve.interactive_tail_ms@p{first['interactive_tail_pct']:g}":
                med("interactive_tail_s", 1e3),
            f"serve.sweep_tail_ms@p{first['sweep_tail_pct']:g}": med("sweep_tail_s", 1e3),
            "serve.drain_s": med("drain_s"),
            "bench.generator_late_ms": med("generator_late_ms"),
            "generator_behind": any(rep["generator_behind"] for rep in plain),
            "requests": first["requests"],
            "distinct": first["distinct"],
            "warmed": first["warmed"],
            **raw,
        }
    if workload == "verify-all":
        return raw
    first = plain[0]["passes"]["cold"]
    return {"candidates": first["candidates"], "winner_us": first["winner_us"],
            "winner_index_ops": first["winner_index_ops"], **raw}


def print_row(result: dict, traced: bool) -> None:
    metrics = result.get("layers" if traced else "metrics", {})
    cells = [f"{name}={m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    rate = len(result["failures"]) / result["attempted"]
    print(f"[{result['workload']}] seed={result['seed']} reps={result['reps']} "
          f"error_rate={rate:.6g} " + "  ".join(cells))
    if not traced:
        print(f"[{result['workload']}] " + json.dumps(result.get("detail", {}), sort_keys=True))
    print(f"[{result['workload']}] fingerprint " + json.dumps(result["fingerprint"], sort_keys=True))
    for failure in result["failures"][:20]:
        print(f"[{result['workload']}] FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the LEGO reproduction benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    traced = bool(args.trace)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, traced) for w in workloads]
    for result in results:
        print_row(result, traced)
    key = "layers" if traced else "metrics"
    if len(results) == 1:
        metrics = results[0].get(key, {})
    else:
        metrics = {f"{r['workload']}/{name}": m for r in results for name, m in r.get(key, {}).items()}
    failed = sum(len(r["failures"]) for r in results)
    correct = failed == 0 and all(key in r for r in results)
    print(json.dumps({"correct": correct, "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
