#!/usr/bin/env python3
"""Smoke test of the wallbench benchmark. Run from the repository root:

    python3 wallbench/smoke_test.py

It checks that
  * one command (run.py --workload all) prints every end-to-end metric of
    BENCHMARK.json, by name and with its unit, for every workload, and a
    traced run prints every per-layer metric and writes its spans file;
  * every run passes its own correctness checks;
  * for each workload of the program, bulk_3des included, the client
    chains run over the sockets refold into the same fleet digest as the
    sim LoadGenerator with the same seed;
  * run.py fails without printing a result when the sources are absent.
"""

import json
import os
import re
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402  (run.py, for its build step)

SEED = 4242
SMOKE_CHAINS = {"handshake_full": 8, "handshake_resume": 4, "bulk_3des": 4,
                "bulk_aes": 4}


def fail(msg):
    print("FAIL:", msg)
    sys.exit(1)


def run_all(trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
           "all", "--seed", str(SEED), "--seconds", "4", "--trace",
           str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}")
    return proc.stdout.splitlines()


def check_printed(lines, spec, section):
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if not result["correct"]:
        fail(f"a {section} run failed its correctness checks")
    for w in spec["workloads"]:
        blocks = "\n".join(lines).split("== ")
        block = next((b for b in blocks if b.startswith(w["name"] + ":")), None)
        if block is None:
            fail(f"no output block for {w['name']}")
        for m in spec[section]:
            pat = rf"^\s+{re.escape(m['name'])} = \S+ {re.escape(m['unit'])}\b"
            if not re.search(pat, block, re.M):
                fail(f"{w['name']}: {m['name']} not printed with unit "
                     f"{m['unit']}")
            got = result["metrics"].get(f"{w['name']}/{m['name']}")
            if got is None or got["unit"] != m["unit"]:
                fail(f"{w['name']}: {m['name']} missing from the result")
        if section == "per_layer":
            spans = re.search(r"spans written to (\S+)", block)
            if not spans or not os.path.getsize(spans.group(1)):
                fail(f"{w['name']}: no spans file")
    print(f"ok: every {section} metric printed with its unit "
          f"({len(spec['workloads'])} workloads)")


def check_digests(binary):
    for name in SMOKE_CHAINS:
        proc = subprocess.run(
            [binary, "--workload", name, "--seed", str(SEED), "--smoke",
             str(SMOKE_CHAINS[name])], stdout=subprocess.PIPE, text=True)
        res = json.loads(proc.stdout.splitlines()[-1])
        if proc.returncode != 0 or not res["digests_equal"]:
            fail(f"{name}: socket digest {res['socket_digest']} != sim "
                 f"digest {res['sim_digest']}")
        print(f"ok: {name} socket fleet digest == sim digest "
              f"({int(res['socket_sessions'])} sessions)")


def check_bare_dir(spec_path):
    bare = os.path.join(".bench_build", "smoke_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(spec_path, bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "wallbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "wallbench/run.py", "--workload", "handshake_full",
         "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("run.py without the sources must fail without a result")
    print("ok: run.py fails cleanly without the sources")


def main():
    spec_path = os.path.join(BENCH_DIR, "..", "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    binary = run.build()
    if binary is None:
        fail("build failed")
    check_printed(run_all(0), spec, "end_to_end")
    check_printed(run_all(1), spec, "per_layer")
    check_digests(binary)
    check_bare_dir(spec_path)
    print("smoke test passed")


if __name__ == "__main__":
    main()
