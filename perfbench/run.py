#!/usr/bin/env python3
"""sentprob benchmark: cold-process workloads with digest-checked results.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper_check|extension|exact|all \
        [--seed N] [--seconds S] [--trace 0|1]

Each operation (one ``sentprob`` CLI command or one estimator call) runs in a
fresh interpreter started from ``src/``, one process at a time, with no
warm-up, so the module caches start empty as they do for a user. A
repetition runs the workload's operations once on one input; repetitions
cycle through ``INPUTS`` inputs derived from ``--seed`` until the next one
would overrun ``--seconds`` (at least one runs). Sizes, the default seed and
the pinned reference digests are in ``perfbench/spec.json``; metric names,
units and bounds in ``BENCHMARK.json``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(medians over repetitions). The benchmark and its children run on one CPU,
and the times are scaled to a reference machine speed: before every
repetition, and after the last, the benchmark times a fixed pure-Python
kernel (``calibrate``, which uses no ``sentprob`` code) on that CPU, and
``setup_s`` and ``wall_s`` are multiplied by the kernel's pinned reference
time over its mean time in the run. A shared host can change the speed of
a CPU by a factor of two over minutes; the kernel slows with it, so the
ratio cancels that drift, while a change to the program leaves the kernel's
time alone. The raw times are printed beside the scaled ones.

With ``--trace 1`` repetitions run in pairs, the same input untraced and
then traced, and it carries the per-layer metrics (unscaled) of the first
traced repetition. Every operation's result is hashed; a digest that
differs from the pinned reference (default seed) or from an earlier
repetition on the same input counts as a failed operation.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS  # the script's own directory

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STANDARD_INI = SRC / "sentprob" / "configs" / "standard.ini"
WORK = HERE / ".work"
SPEC = json.loads((HERE / "spec.json").read_text())
# A run cycles through this many inputs derived from its seed, so its
# medians average over inputs as well as over repetitions.
INPUTS = 8
# Kernel runs per calibration; see calibrate.
CALIBRATION_RUNS = 8
# Children still running this long after the workload started are killed,
# so one run ends well within three minutes.
HARD_LIMIT_S = 150


class SourcesMissing(Exception):
    pass


# --- workloads ----------------------------------------------------------------


def file_digest(exit_code: int, out: Path, names: list[str]) -> str:
    h = hashlib.sha256(f"exit {exit_code}\n".encode())
    for name in names:
        h.update(f"{name}\n".encode())
        h.update((out / name).read_bytes())
    return h.hexdigest()


def input_seed(seed: int, k: int) -> int:
    """Seed of input k of a run; disjoint for distinct benchmark seeds."""
    return seed * INPUTS + k


def build_ops(workload: str, seed: int, k: int, spec: dict, work: Path) -> tuple[list[dict], int]:
    """The operations of one repetition on input k, and the units of work
    they do."""
    if workload == "paper_check":
        # standard.ini with the input's seed, fewer samples and our output dir.
        samples = spec["samples"]
        out_rel = str((work / "out").relative_to(ROOT))
        parser = configparser.ConfigParser()
        parser.read(STANDARD_INI, encoding="utf-8")
        parser["suite"].update(samples=str(samples), seed=str(input_seed(seed, k)), out=out_rel)
        config = work / f"paper_check.{k}.ini"
        with open(config, "w", encoding="utf-8") as fh:
            parser.write(fh)
        cfg = str(config.relative_to(ROOT))
        ops = [
            {"name": "run", "kind": "cli", "argv": ["run", cfg, "--out", out_rel],
             "out": ROOT / out_rel, "artifacts": ["trajectories.csv", "trajectories.jsonl"]},
            {"name": "crosscheck", "kind": "cli", "argv": ["crosscheck", cfg, "--out", out_rel],
             "out": ROOT / out_rel, "artifacts": ["crosscheck.csv", "crosscheck.jsonl"]},
        ]
        stages = parser.getint("stages", "count")
        # run accumulates every stage once per sample; crosscheck the last.
        return ops, stages * samples + samples
    if workload == "extension":
        op = {"name": "extension", "kind": "extension", "seed": input_seed(seed, k),
              "samples": spec["samples"], "config": str(STANDARD_INI.relative_to(ROOT))}
        return [op], spec["samples"]
    if workload == "exact":
        op = {"name": "exact", "kind": "exact", "bits": spec["bits"], "battery": spec["battery"]}
        return [op], 1 << spec["bits"]
    raise ValueError(f"unknown workload {workload!r}")


def check_result(op: dict, result: dict) -> tuple[str | None, str | None]:
    """(digest, problem). A problem makes the operation fail whatever its
    digest; an assertion FAIL (CLI exit 1) is a result, not a problem."""
    if "error" in result:
        return None, result["error"].strip().splitlines()[-1]
    if "t_end" not in result:
        return None, "pipeline call never returned"
    if op["kind"] == "cli":
        code = result.get("exit")
        if code not in (0, 1):
            return None, f"exit code {code}"
        try:
            return file_digest(code, op["out"], op["artifacts"]), None
        except OSError as exc:
            return None, f"missing artifact: {exc}"
    if op["kind"] == "extension":
        # Invariants of the standard battery: falsum is never entailed, the
        # excluded middle always is, and no sample is counted twice.
        n = op["samples"]
        counts, undecided = result["counts"], result["undecided"]
        if counts[0] != 0 or counts[-1] != n:
            return result["digest"], "falsum or excluded middle miscounted"
        if any(c + u > n for c, u in zip(counts, undecided)):
            return result["digest"], "counts exceed samples"
    return result["digest"], None


# --- processes ----------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Bytecode is cached as for an installed package, but outside src/.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def run_op(op: dict, trace: bool, run_id: str, work: Path, env: dict, deadline: float) -> dict:
    """Run one operation in a fresh interpreter and return its measurements.
    A child still running at the deadline is killed; its operation fails."""
    if op["kind"] == "cli":
        shutil.rmtree(op["out"], ignore_errors=True)
    stem = work / op["name"]
    job = {k: v for k, v in op.items() if k not in ("out", "artifacts")}
    job.update(trace=trace, run_id=run_id, result=f"{stem}.result.json", spans=f"{stem}.spans")
    Path(job["result"]).unlink(missing_ok=True)
    Path(f"{stem}.job.json").write_text(json.dumps(job))
    with open(f"{stem}.log", "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), f"{stem}.job.json"],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    try:
        result = json.loads(Path(job["result"]).read_text())
    except (OSError, ValueError):
        tail = Path(f"{stem}.log").read_text(errors="replace").strip().splitlines()[-1:]
        result = {"error": f"child exited {proc.returncode}: {' '.join(tail)}"}
    digest, problem = check_result(op, result)
    m = {"name": op["name"], "digest": digest, "problem": problem,
         "cpu_s": result.get("cpu_s", 0.0), "rss_mb": result.get("rss_kb", 0) / 1024,
         "trace": result.get("trace")}
    if problem is None:
        m["setup_s"] = result["t_setup"] - t_spawn
        m["wall_s"] = result["t_end"] - result["t_setup"]
    return m


def run_rep(ops: list[dict], trace: bool, label: str, work: Path, env: dict, deadline: float) -> dict:
    t0 = time.monotonic()
    results = [run_op(op, trace, f"{label}:{op['name']}", work, env, deadline) for op in ops]
    ok = [r for r in results if r["problem"] is None]
    return {
        "ops": results,
        "trace": trace,
        "duration": time.monotonic() - t0,
        "complete": len(ok) == len(results),
        "setup_s": sum(r["setup_s"] for r in ok),
        "wall_s": sum(r["wall_s"] for r in ok),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "rss_mb": max(r["rss_mb"] for r in results),
    }


# --- machine speed ----------------------------------------------------------------


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so the calibration
    measures the CPU the operations run on (the load that neighbours put on
    each CPU of a shared host varies independently)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@functools.cache
def lookup_table() -> tuple[list, dict]:
    """Keys and an index of them, together larger than the CPU caches."""
    keys = [(i, str(i)) for i in range(SPEC["calibration"]["table_size"])]
    return keys, {key: i for i, key in enumerate(keys)}


def kernel(n: int) -> int:
    """Fixed interpreter work of the program's kind: small tuples and
    frozensets, dict updates and string formatting that stay in cache, then
    lookups scattered over a table that does not. On a shared 2-vCPU VM the
    first part alone followed the workloads' slowdowns only about halfway
    and the second part overshot them; their sum followed them about one to
    one."""
    counts: dict = {}
    total = 0
    for i in range(n):
        key = (i & 255, i % 7)
        counts[key] = counts.get(key, 0) + len(frozenset(key))
        total += len(f"{i}:{key[0]}")
    keys, index = lookup_table()
    j = 0
    for _ in range(n):
        j = (j + 104729) % len(keys)
        key = keys[j]
        total += index[key] + len(frozenset(key))
    return total


def calibrate() -> list[float]:
    """Seconds per kernel run, CALIBRATION_RUNS times."""
    lookup_table()
    times = []
    for _ in range(CALIBRATION_RUNS):
        t0 = time.perf_counter()
        kernel(SPEC["calibration"]["kernel_n"])
        times.append(time.perf_counter() - t0)
    return times


# --- metrics ------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))]


def merge_traces(summaries: list[dict]) -> dict:
    spans: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    samples: dict[str, list[float]] = {}
    root_s = 0.0
    for s in summaries:
        root_s += s["root_s"]
        for name, row in s["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
        for key, value in s["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for key, values in s["samples"].items():
            samples.setdefault(key, []).extend(values)
    return {"spans": spans, "counters": counters, "samples": samples, "root_s": root_s}


def layer_metrics(rep: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    t = merge_traces([op["trace"] for op in rep["ops"]])
    spans, counters, samples = t["spans"], t["counters"], t["samples"]

    def ratio(num, den):
        return num / den if den else 0.0

    c = counters.get
    out: dict[str, float] = {}
    for name, (calls, _, self_s) in spans.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(row[2] for n, row in spans.items() if n.split(".")[0] == layer)
    out["machine.steps"] = c("machine.steps", 0)
    out["machine.emit_ratio"] = ratio(c("machine.emitting", 0), spans["machine.run_prefix"][0])
    out["consistency.accept_ratio"] = ratio(c("consistency.accepted", 0), spans["consistency.consistent_enough"][0])
    hits, misses = c("consistency.cache_hits", 0), c("consistency.cache_misses", 0)
    out["consistency.cache_hit_ratio"] = ratio(hits, hits + misses)
    for key in ("refuted_at_setup", "refuted", "saturated", "budget_exhausted", "inferences"):
        out[f"prover.{key}"] = c(f"prover.{key}", 0)
    refute_ms = samples.get("prover.refute_ms", [])
    out["prover.refute_bounded.p50_ms"] = percentile(refute_ms, 0.50)
    out["prover.refute_bounded.p99_ms"] = percentile(refute_ms, 0.99)
    use = samples.get("prover.budget_use", [])
    out["prover.budget_use_p95"] = percentile(use, 0.95)
    out["prover.budget_use_max"] = max(use, default=0.0)
    stages = samples.get("estimator.accumulate_stage", [])
    final = max(stages, default=0)
    final_ms = [ms for n, ms in zip(stages, samples.get("estimator.accumulate_ms", [])) if n == final]
    out["estimator.accumulate_claims.p50_ms"] = percentile(final_ms, 0.50)
    out["estimator.accumulate_claims.p90_ms"] = percentile(final_ms, 0.90)
    sizes = samples.get("estimator.claims_size", [])
    out["estimator.claims_size_p50"] = percentile(sizes, 0.50)
    out["estimator.claims_size_max"] = max(sizes, default=0)
    out["harness.run_suite.wall_s"] = spans["harness.run_suite"][1]
    out["harness.run_crosscheck.wall_s"] = spans["harness.run_crosscheck"][1]
    out["harness.assertions_passed"] = c("harness.assertions_passed", 0)
    out["trace.wall_s"] = rep["wall_s"]
    out["trace.unattributed_s"] = rep["wall_s"] - t["root_s"]
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict | None = None) -> dict:
    spec = SPEC["workloads"][workload] if spec is None else spec
    if not STANDARD_INI.is_file():
        raise SourcesMissing(f"{STANDARD_INI.relative_to(ROOT)} not found; run from a sentprob checkout")
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    cycle = 1 if spec.get("seed_unused") else INPUTS
    inputs = [build_ops(workload, seed, k, spec, work) for k in range(cycle)]
    units = inputs[0][1]
    pinned = spec.get("reference", {}) if seed == SPEC["default_seed"] or spec.get("seed_unused") else {}
    reference = {(name, k): d for name, ds in pinned.items() for k, d in enumerate(ds)}
    is_pinned = set(reference)
    seen: set[tuple[str, int]] = set()
    reps: list[dict] = []
    calibration: list[float] = []
    start = time.monotonic()
    while True:
        calibration += calibrate()
        # Traced mode runs pairs: untraced, then traced, on the same input.
        k = (len(reps) // 2 if trace else len(reps)) % cycle
        traced = trace and len(reps) % 2 == 1
        rep = run_rep(inputs[k][0], traced, f"{workload}:{len(reps)}", work, env, start + HARD_LIMIT_S)
        reps.append(rep)
        for op in rep["ops"]:
            if op["digest"] is None:
                continue  # already failed
            seen.add((op["name"], k))
            expected = reference.setdefault((op["name"], k), op["digest"])
            if op["digest"] != expected:
                op["problem"] = f"input {k}: digest {op['digest'][:16]} != reference {str(expected)[:16]}"
        if trace and len(reps) % 2 == 1:
            continue  # finish the pair
        step = rep["duration"] + (reps[-2]["duration"] if trace else 0.0)
        if time.monotonic() - start + step > seconds:
            break
    calibration += calibrate()
    speed = SPEC["calibration"]["reference_s"] / statistics.mean(calibration)
    all_ops = [op for rep in reps for op in rep["ops"]]
    failed = [op for op in all_ops if op["problem"] is not None]
    plain = [r for r in reps if r["complete"] and not r["trace"]]
    result = {
        "workload": workload,
        "seed": seed,
        "reps": len(reps),
        "attempted": len(all_ops),
        "failed": len(failed),
        "problems": sorted({f"{op['name']}: {op['problem']}" for op in failed}),
        "digests": {f"{name}[{k}]": (reference[name, k], (name, k) in is_pinned) for name, k in sorted(seen)},
        "rep_walls": [r["wall_s"] for r in plain],
        "speed": speed,
    }
    metrics: dict[str, float] = {}
    if plain:
        raw_setup = statistics.median(r["setup_s"] for r in plain)
        raw_wall = statistics.median(r["wall_s"] for r in plain)
        wall = raw_wall * speed
        result["raw"] = {"setup_s": raw_setup, "wall_s": raw_wall}
        metrics.update(
            setup_s=raw_setup * speed,
            wall_s=wall,
            ops_per_s=units / wall,
            peak_rss_mb=max(r["rss_mb"] for r in plain),
        )
    # Per-layer metrics come from the first pair (input 0), so the counts
    # repeat exactly on every run with the same seed.
    if trace and reps[0]["complete"] and reps[1]["complete"]:
        metrics.update(layer_metrics(reps[1]))
        metrics["process.cpu_s"] = reps[0]["cpu_s"]
        metrics["trace.overhead_ratio"] = reps[1]["wall_s"] / reps[0]["wall_s"]
    result["metrics"] = metrics
    return result


# --- reporting ------------------------------------------------------------------


def declared(trace: bool) -> list[dict]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return bench["per_layer" if trace else "end_to_end"]


def report(result: dict, trace: bool) -> dict:
    """Print one workload's block and return its metric object."""
    print(f"workload {result['workload']} seed {result['seed']}: "
          f"{result['reps']} repetitions, {result['attempted']} operations")
    for name, (d, pinned) in result["digests"].items():
        note = "pinned reference" if pinned else "no pinned reference for this seed"
        print(f"  digest {name} {d} ({note})")
    print("  untraced repetition wall_s, raw: " + " ".join(f"{w:.3f}" for w in result["rep_walls"]))
    raw = ", ".join(f"{k} {v:.6g} s" for k, v in result.get("raw", {}).items())
    print(f"  machine speed {result['speed']:.4f} of reference; medians before scaling: {raw or 'none'}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    metrics = {}
    for m in declared(trace):
        value = result["metrics"].get(m["name"])
        if value is None:
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:40} {value:.6g} {m['unit']}")
    print(f"  {'failed_ratio':40} {result['failed'] / result['attempted']:.6g} ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*SPEC["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a natural number")
    names = list(SPEC["workloads"]) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    pin_to_one_cpu()
    try:
        results = [run_workload(w, args.seed, args.seconds, trace) for w in names]
    except SourcesMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    blocks = {r["workload"]: report(r, trace) for r in results}
    metrics = blocks[names[0]] if len(names) == 1 else {
        f"{w}.{k}": v for w, block in blocks.items() for k, v in block.items()
    }
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
