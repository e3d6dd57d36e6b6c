"""Self-test of the benchmark itself, at tiny sizes (about a minute).

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that every workload, untraced and traced, emits exactly the
metrics that BENCHMARK.json names, with their units; that a wrong output
and a raised exception are each counted as a failed op without stopping
the run; and that the benchmark refuses to run, printing no result, in
a directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

TINY = {
    # fig1c keeps the paper protocol (M=201): its windows hold only there.
    "closed-loop": {"variants": [["order-3", 51, 3], ["full-N_max", 31, 4]]},
    "kernel-synthesis": {"plants": 1, "n_max": 3, "assemblies_per_side": 1, "check_order": 2,
                         "check_points": 20},
    "certify": {"targets": 3, "target_mesh": 101, "states": 1, "state_mesh": 31},
}


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def check_emission(spec: dict) -> None:
    for workload in TINY:
        for trace in (False, True):
            result = run.execute(workload, 7, 0.01, trace, sizes=TINY)
            doc = run.report(result, trace)[1]
            wanted = {m["name"]: m["unit"]
                      for m in spec["per_layer" if trace else "end_to_end"]}
            got = {name: m["unit"] for name, m in doc["metrics"].items()}
            expect(got == wanted, f"{workload} trace={trace} metrics {sorted(set(got) ^ set(wanted))}")
            expect(all(math.isfinite(m["value"]) for m in doc["metrics"].values()),
                   f"{workload} trace={trace} non-finite metric")
            expect(doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1,
                   f"{workload} trace={trace} failures {result['failures']}")
            print(f"ok  {workload} trace={trace}: {len(got)} metrics, "
                  f"{doc['attempted']} ops")


def check_failures() -> None:
    def wrong_final_l2(workload, op, result):
        if op["kind"] == "op1" and "out" in result:
            result["out"]["final_l2"] = 0.5

    result = run.execute("closed-loop", 7, 0.01, False, sizes=TINY, tamper=wrong_final_l2)
    doc = run.report(result, False)[1]
    expect(doc["failed"] == 1 and not doc["correct"] and doc["attempted"] == 3,
           f"injected wrong output: {doc['attempted']} attempted, {doc['failed']} failed")
    expect(doc["metrics"]["ops_ok_frac"]["value"] < 1.0, "ops_ok_frac ignores the failure")
    print("ok  a wrong output is a failed op")

    raising = json.loads(json.dumps(TINY))
    raising["kernel-synthesis"]["n_max"] = 1  # cascade() rejects n_max < 2
    result = run.execute("kernel-synthesis", 7, 0.01, False, sizes=raising)
    doc = run.report(result, False)[1]
    expect(doc["attempted"] >= 3 and doc["failed"] == doc["attempted"],
           f"raised op: {doc['attempted']} attempted, {doc['failed']} failed")
    expect(any("FamilyConfigError" in f for f in result["failures"]),
           f"raised op not reported: {result['failures']}")
    print("ok  a raised exception is a failed op and the run goes on")


def check_bare_directory() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench" / path.name)
    shutil.copy(Path.cwd() / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok  refuses to run without the program")


def main() -> int:
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    run.OUT.mkdir(parents=True, exist_ok=True)
    check_emission(spec)
    check_failures()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
