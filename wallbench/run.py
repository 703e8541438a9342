#!/usr/bin/env python3
"""Wall-clock serving benchmark of the mapsec socket stack.

Run from the repository root:

    python3 wallbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or ``all`` to run every
one of them in turn. ``bulk_3des`` (the paper's 3DES+SHA-1 record
workload) is in the program too but not in BENCHMARK.json, because its
figures are not steady enough to gate on; it runs by name. The first run configures and builds the benchmark
package (``wallbench/CMakeLists.txt``, Release) into
``$CARGO_TARGET_DIR/wallbench-<hash of this directory's path>``
(``CARGO_TARGET_DIR`` defaults to ``.bench_build``).
Every metric is printed as ``name = value unit`` on its own line; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
Spans of a traced run are written under ``.wallbench_out/``.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SPANS_DIR = ".wallbench_out"
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(BENCH_DIR, "layers.json")) as f:
        layers = json.load(f)
    return spec, layers


def build():
    """Configure and build the package; returns the binary path or None.

    The build directory is named after this package's absolute path, so
    checkouts that share one CARGO_TARGET_DIR never build each other's
    sources. Configuring runs every time; with a cache in place it only
    checks that the sources are where the cache says.
    """
    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    tree = hashlib.sha1(BENCH_DIR.encode()).hexdigest()[:12]
    build_dir = os.path.join(target_root, "wallbench-" + tree)
    binary = os.path.join(build_dir, "wallbench")
    for cmd in (["cmake", "-S", BENCH_DIR, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "--target", "wallbench",
                 "-j", "4"]):
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("wallbench: build step failed:", " ".join(cmd))
            return None
    return binary if os.path.exists(binary) else None


def run_one(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--spans-dir", SPANS_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        log("wallbench: run timed out:", workload)
        return None
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        log("wallbench: run failed with code", proc.returncode)
        return None
    return json.loads(lines[-1])


def fmt(value):
    return repr(float(value))


def check_metrics(names_units, got):
    """Every named metric present, with its declared unit and a finite value."""
    ok = True
    for name, unit in names_units:
        m = got.get(name)
        if m is None or m.get("unit") != unit or m.get("value") is None \
                or not math.isfinite(m["value"]):
            log("wallbench: metric missing or malformed:", name, m)
            ok = False
    if set(got) != {n for n, _ in names_units}:
        log("wallbench: unexpected metric set:",
            sorted(set(got) ^ {n for n, _ in names_units}))
        ok = False
    return ok


def report(spec, layers, result, trace):
    """Print the human-readable lines of one workload; returns its metrics."""
    w = result["workload"]
    ctx = result["context"]
    print(f"== {w}: seed {ctx['seed']}, nproc {ctx['nproc']}, "
          f"build {ctx['build_type']}, {ctx['shards']} shards, "
          f"{ctx['generator_threads']} generator threads, "
          f"{ctx['concurrent_sessions']} concurrent sessions, "
          f"RSA-{ctx['rsa_bits']}, window {ctx['window_s']:.3f} s "
          f"({int(ctx['window_sessions'])} sessions)")
    print(f"   crypto_dispatch: {ctx['crypto_dispatch']}")
    for name, ok in result["checks"].items():
        print(f"   check {name}: {'ok' if ok else 'FAILED'}")
    print(f"   failed_ratio = {fmt(result['failed_ratio'])} ratio "
          f"({int(result['failed'])} of {int(result['attempted'])} sessions)")
    print(f"   generator_busy_share = {fmt(result['generator_busy_share'])} "
          f"ratio (flagged above 0.9)")
    for name, m in result["end_to_end"].items():
        note = f"  [{m['note']}]" if m.get("note") else ""
        print(f"   {name} = {fmt(m['value'])} {m['unit']}{note}")
    if trace:
        for name, m in result["per_layer"].items():
            moves = layers.get(name, {}).get("moves", "")
            print(f"   {name} = {fmt(m['value'])} {m['unit']}"
                  + (f"  -> {moves}" if moves else ""))
        if result.get("spans_file"):
            print(f"   spans written to {result['spans_file']}")

    section = "per_layer" if trace else "end_to_end"
    names_units = [(m["name"], m["unit"]) for m in spec[section]]
    ok = check_metrics(names_units, result[section])
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in result[section].items()}
    return ok, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec, layers = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]

    binary = build()
    if binary is None:
        return 1

    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in workloads:
        result = run_one(binary, w, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        ok, got = report(spec, layers, result, args.trace)
        if not ok:
            return 1
        correct = correct and bool(result["correct"])
        attempted += int(result["attempted"])
        failed += int(result["failed"])
        if len(workloads) == 1:
            metrics = got
        else:
            metrics.update({f"{w}/{k}": v for k, v in got.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
