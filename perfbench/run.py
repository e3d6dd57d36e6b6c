"""volback benchmark: closed-loop, kernel-synthesis and certify workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload closed-loop --seed 1 --seconds 44 --trace 0

The run writes its seeded inputs, starts one worker process at a time
(BLAS pinned to one thread) and repeats the workload's cycle of jobs
until the time is used up, then checks every op's outputs.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  The end-to-end times are
normalized to a fixed machine speed with a reference loop that the
workers time between ops (see ``CALIBRATE_REF_S``).  The lines above
the result give each metric's sample count, the machine and the wall
times before normalization.  Exit code 2 means the run could
not start (for instance no ``src/volback`` in the working directory).

Each workload runs three kinds of op, reported as op1, op2 and op3:

closed-loop (each op in a fresh worker, as the CLI pays it)
    op1 the fig1c paper protocol (order-3 controller, M=201, scale 1)
    through ``harness.run_experiment``; op2 order-3 at M=401; op3 the
    order-4 (full-N_max) controller at M=101; op2 and op3 draw
    ``initial_scale`` from the seed.
kernel-synthesis (each seeded plant in a fresh worker)
    op1 ``gapcascade.cascade(b, 4)``; op2 ``assemble_kernel_polynomial``
    for n = 2..4; op3 the recursion route to order 3 evaluated at 200
    random simplex points, compared against the assembled kernels.
certify (one warmed worker per cycle, set-up paid once for many ops)
    op1 Picard ``invert_with_info`` of a seeded target at M=801; op2
    ``neumann_norm_estimate`` at a seeded state, M=201; op3
    ``verification.run_all`` (the verify-all preset).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
# Whole-run limit, below the 180 s a run may take; a job that would
# outlast it is killed and its ops count as failed.
HARD_LIMIT_S = 170.0

SIZES = {
    # The order-4 variant runs at M=101: at M=201 each run takes about
    # 7 s, and the three samples that fit in a run left its median too
    # unsteady from run to run.
    "closed-loop": {"variants": [["order-3", 401, 3], ["full-N_max", 101, 4]]},
    "kernel-synthesis": {"plants": 2, "n_max": 4, "assemblies_per_side": 2, "check_order": 3,
                         "check_points": 200},
    "certify": {"targets": 50, "target_mesh": 801, "states": 4, "state_mesh": 201},
}

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "ratio"),
    ("op1_norm_s_tmean", "s"),
    ("op2_norm_s_tmean", "s"),
    ("op3_norm_s_tmean", "s"),
]

# The workers' reference loop takes about this long on average on the
# reference machine.  A normalized time is a wall time times
# CALIBRATE_REF_S over the mean reference time of the run: the time it
# would take at that fixed speed.  The shared host switches between a
# fast and a slow state several times a second, and the share of time
# spent in the slow one moves over minutes.  The program's work stays
# the same, so its time follows that share, and so does the mean of the
# reference times.  (Their median does not: it jumps between the two
# states.)  For the same reason the op times are averaged, not their
# median taken; the fastest and slowest TRIM of them are dropped first,
# so that a rare stall does not move the mean of many short ops.
CALIBRATE_REF_S = 0.02
TRIM = 0.1

CHECK_NAMES = (
    "coupling-bound", "lipschitz-gain", "transport-invariance", "dp-product-norm",
    "split-gap-integration-norm", "growth-envelope", "forcing-sup-bound",
    "cascade-support-sparsity", "dual-construction", "stability-constants",
)

PER_LAYER = [
    ("simulator.steps", "count"),
    ("simulator.simulate.self_s", "s"),
    ("simulator.feedback.calls", "count"),
    ("simulator.feedback.s", "s"),
    ("simulator.feedback.us_per_call", "us"),
    ("volterra.series_profile.calls", "count"),
    ("volterra.series_profile.s", "s"),
    ("volterra.linearized_profile.calls", "count"),
    ("volterra.linearized_profile.s", "s"),
    ("polynomial.kernel_monomials", "count"),
    ("gapcascade.cascade.s", "s"),
    ("gapcascade.gamma_table.calls", "count"),
    ("gapcascade.gamma_table.s", "s"),
    ("gapcascade.gamma_table.entries", "count"),
    ("gapcascade.gamma_used_frac", "ratio"),
    ("gapcascade.coupling_c.self_s", "s"),
    ("gapcascade.assemble_kernel_polynomial.s", "s"),
    ("gapcascade.a_entries", "count"),
    ("charkernels.kernel_eval.calls", "count"),
    ("charkernels.kernel_eval.rows", "count"),
    ("charkernels.kernel_eval.s", "s"),
    ("charkernels.memo_hit_frac", "ratio"),
    ("inversion.invert_with_info.calls", "count"),
    ("inversion.invert_with_info.self_s", "s"),
    ("inversion.picard_iters", "count"),
    ("inversion.picard_ratio_max", "ratio"),
    ("inversion.picard_ratio_bound", "ratio"),
    ("inversion.dk_matrix.s", "s"),
    ("inversion.neumann_norm_estimate.self_s", "s"),
    ("simplex.simplex_nodes.calls", "count"),
    ("simplex.simplex_nodes.points", "count"),
    ("simplex.simplex_nodes.s", "s"),
    *[(f"verification.check.{name}.s", "s") for name in CHECK_NAMES],
    ("harness.run_experiment.self_s", "s"),
    ("harness.build_kernel_table.s", "s"),
    ("setup.import_s", "s"),
    ("setup.import_scipy_s", "s"),
    ("trace.overhead_s", "s"),
]

# Layer values that are a maximum, not a sum, when jobs are combined.
MAX_KEYS = {"inversion.picard_ratio_max", "inversion.picard_ratio_bound"}


def cycle_jobs(workload: str, inputs: dict, sizes: dict) -> list[dict]:
    """The fixed, seeded list of worker jobs that one cycle runs."""
    if workload == "closed-loop":
        return [
            {"setup": {"config": j["config"], "n_max": j["n_max"]},
             "ops": [{"kind": f"op{i + 1}", "protocol": j["protocol"], "mesh": j["mesh"]}]}
            for i, j in enumerate(inputs["jobs"])
        ]
    if workload == "kernel-synthesis":
        # Assembly is short, so one run of it samples a single moment of
        # the machine's load; it runs several times per cascade, on both
        # sides of the cross-check, to give its median enough samples.
        assemble = [{"kind": "op2", "n_max": sizes["n_max"]}] * sizes["assemblies_per_side"]
        ops = ([{"kind": "op1", "n_max": sizes["n_max"]}] + assemble
               + [{"kind": "op3", "order": sizes["check_order"],
                   "points": sizes["check_points"]}] + assemble)
        return [{"setup": {"plant": p, "points_seed": inputs["points_seed"] + i}, "ops": ops}
                for i, p in enumerate(inputs["plants"])]
    ops = ([{"kind": "op1", "index": i} for i in range(sizes["targets"])]
           + [{"kind": "op2", "index": i} for i in range(sizes["states"])]
           + [{"kind": "op3"}])
    return [{"setup": {"targets": inputs["targets"], "states": inputs["states"]}, "ops": ops}]


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_job(workload: str, job: dict, traced: bool, timeout: float) -> dict:
    """Start one worker, feed it the job, wait for it to end."""
    cmd = [sys.executable] + (["-X", "importtime"] if traced else []) + [str(WORKER)]
    payload = json.dumps({**job, "workload": workload, "trace": traced,
                          "out_dir": str(OUT / workload / "artifacts")})
    spawn = time.monotonic()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=worker_env())
    try:
        out, err = proc.communicate(payload + "\n", timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"worker timed out after {timeout:.0f} s", "timed_out": True,
                "wall_s": time.monotonic() - spawn}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    rec = {"wall_s": time.monotonic() - spawn}
    try:
        doc = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        tail = " | ".join(err.strip().splitlines()[-3:])
        rec["error"] = f"worker exited with {proc.returncode} and no result: {tail}"
        return rec
    rec.update(setup_s=doc["ready_at"] - spawn, rss_mb=doc["rss_mb"], ops=doc["ops"],
               reference_s=doc["reference_s"])
    if traced:
        from tracer import parse_importtime

        rec.update(layers=doc["layers"], spans=doc["spans"], imports=parse_importtime(err))
    return rec


def check_op(workload: str, op: dict, result: dict, seen: dict, job: dict) -> str | None:
    """None if the op's outputs are right, else what is wrong."""
    if "error" in result:
        return result["error"]
    out = result["out"]
    kind = op["kind"]
    if workload == "closed-loop":
        if out["blow_up"] is not None:
            return f"blew up at t={out['blow_up']}"
        if out["steps"] != 4 * (op["mesh"] - 1):
            return f"{out['steps']} steps, expected {4 * (op['mesh'] - 1)}"
        final = out["final_l2"]
        if op["protocol"]:
            if not (0.15 <= final <= 0.25 and 20.0 <= out["max_abs"] <= 28.0):
                return f"final L2 {final} / max|u| {out['max_abs']} outside the fig1c windows"
        elif not (math.isfinite(final) and final < out["initial_l2"]):
            return f"final L2 {final} not below initial {out['initial_l2']}"
        return None
    if workload == "kernel-synthesis":
        if kind == "op1":
            first = seen.setdefault(job["setup"]["plant"], out["sha256"])
            if first != out["sha256"]:
                return "family_to_json differs from the earlier run of the same plant"
            return None if out["a_entries"] > 0 else "empty cascade family"
        if kind == "op2":
            return None if all(m > 0 for m in out["monomials"]) else "empty kernel"
        diff = out["max_abs_diff"]
        return None if diff < 1e-6 else f"recursion vs cascade differ by {diff:.3e}"
    if kind == "op1":
        if not (out["converged"] and out["residual"] < 1e-8):
            return f"round trip residual {out['residual']:.3e}, converged={out['converged']}"
        if not out["ratio_max"] <= out["bound"] + 0.05:
            return f"Picard ratio {out['ratio_max']:.4f} above sqrt(ell(s)) {out['bound']:.4f} + 0.05"
        return None
    if kind == "op2":
        est = out["estimate"]
        ok = math.isfinite(est) and 0.0 < est <= out["neumann_bound"]
        return None if ok else f"Neumann norm {est} outside (0, {out['neumann_bound']:.4f}]"
    if out["failed_checks"] or out["checks"] != len(CHECK_NAMES):
        return f"verify-all failed {out['failed_checks']} of {out['checks']} checks"
    return None


def execute(workload: str, seed: int, seconds: float, trace: bool,
            sizes: dict = SIZES, tamper=None) -> dict:
    """Run one workload; ``tamper(workload, op, result)`` may alter a
    result before it is checked (used by the self-test)."""
    from inputs import generate

    t0 = time.monotonic()
    inputs = generate(workload, seed, OUT / workload / "inputs", sizes[workload])
    cycle = cycle_jobs(workload, inputs, sizes[workload])
    # A trace run alternates traced and untraced cycles, for the overhead.
    min_jobs = len(cycle) * (2 if trace else 1)
    if workload == "kernel-synthesis":
        min_jobs = max(min_jobs, len(cycle) + 1)  # one repeated plant
    deadline = time.monotonic() + seconds
    jobs: list[dict] = []
    last_wall: dict[int, float] = {}
    while True:
        pos, cyc = len(jobs) % len(cycle), len(jobs) // len(cycle)
        now = time.monotonic()
        left = HARD_LIMIT_S - (now - t0)
        if len(jobs) >= min_jobs and now + last_wall.get(pos, 0.0) > deadline:
            break
        if left < 5.0:
            break
        traced = trace and cyc % 2 == 0
        rec = run_job(workload, cycle[pos], traced, left)
        rec.update(cycle=cyc, pos=pos, traced=traced)
        jobs.append(rec)
        last_wall[pos] = rec["wall_s"]
        if rec.get("timed_out"):
            break

    seen: dict = {}
    attempted = failed = 0
    failures: list[str] = []
    for rec in jobs:
        job = cycle[rec["pos"]]
        results = rec.get("ops") or [{"kind": op["kind"], "error": rec["error"]}
                                     for op in job["ops"]]
        for op, result in zip(job["ops"], results):
            if tamper is not None:
                tamper(workload, op, result)
            problem = check_op(workload, op, result, seen, job)
            result["ok"] = problem is None
            attempted += 1
            if problem is not None:
                failed += 1
                failures.append(f"{op['kind']}: {problem}")
    return {"workload": workload, "seed": seed, "jobs": jobs, "attempted": attempted,
            "failed": failed, "failures": failures, "cycle_len": len(cycle)}


def _median(values):
    return statistics.median(values) if values else 0.0


def _trimmed_mean(values):
    """Mean without the lowest and highest TRIM share of the values
    (none dropped below 10 values)."""
    values = sorted(values)
    k = int(len(values) * TRIM)
    return statistics.fmean(values[k:len(values) - k]) if values else 0.0


def reference_mean(run: dict) -> float:
    """Mean time of the workers' reference loop over the whole run."""
    times = [t for j in run["jobs"] for t in j.get("reference_s") or []]
    return statistics.fmean(times) if times else CALIBRATE_REF_S


def end_to_end_metrics(run: dict) -> tuple[dict, dict]:
    """Metric values and their sample counts."""
    jobs = run["jobs"]
    setups = [j["setup_s"] for j in jobs if "setup_s" in j]
    times = defaultdict(list)
    tried = defaultdict(list)
    for j in jobs:
        for r in j.get("ops") or []:
            if "s" in r:
                tried[r["kind"]].append(r["s"])
                if r.get("ok"):
                    times[r["kind"]].append(r["s"])
    scale = CALIBRATE_REF_S / reference_mean(run)
    values = {
        "setup_s": _median(setups) * scale,
        "peak_rss_mb": max((j["rss_mb"] for j in jobs if "rss_mb" in j), default=0.0),
        "ops_ok_frac": 1.0 - run["failed"] / max(run["attempted"], 1),
    }
    counts = {"setup_s": len(setups), "peak_rss_mb": len(setups),
              "ops_ok_frac": run["attempted"]}
    for kind in ("op1", "op2", "op3"):
        # A kind whose every op failed is timed over its failed attempts.
        sample = times[kind] or tried[kind]
        values[f"{kind}_norm_s_tmean"] = _trimmed_mean(sample) * scale
        counts[f"{kind}_norm_s_tmean"] = len(sample)
    return values, counts


def per_layer_metrics(run: dict) -> tuple[dict, dict]:
    """Counts from the first traced cycle (identical for a given seed);
    times as the median over complete traced cycles."""
    jobs = run["jobs"]
    size = run["cycle_len"]
    by_cycle = defaultdict(list)
    for j in jobs:
        by_cycle[(j["traced"], j["cycle"])].append(j)
    complete = {key: js for key, js in by_cycle.items() if len(js) == size}

    def combine(js):
        total = defaultdict(float)
        for j in js:
            for key, v in (j.get("layers") or {}).items():
                total[key] = max(total[key], v) if key in MAX_KEYS else total[key] + v
        return total

    traced = [combine(js) for (tr, _), js in sorted(complete.items()) if tr]
    first = traced[0] if traced else defaultdict(float)
    walls = {tr: [sum(j["wall_s"] for j in js) for (t, _), js in complete.items() if t == tr]
             for tr in (True, False)}
    imports = defaultdict(list)
    for j in jobs:
        for key, v in (j.get("imports") or {}).items():
            imports[key].append(v)

    def ratio(a, b):
        return a / b if b else 0.0

    values = {}
    for name, unit in PER_LAYER:
        if name.startswith("setup."):
            values[name] = _median(imports[name])
        elif unit == "s" and name != "trace.overhead_s":
            values[name] = _median([t.get(name, 0.0) for t in traced])
        else:
            values[name] = first.get(name, 0.0)
    values["simulator.feedback.us_per_call"] = 1e6 * ratio(
        values["simulator.feedback.s"], first.get("simulator.feedback.calls", 0.0))
    values["gapcascade.gamma_used_frac"] = ratio(
        first.get("gapcascade.gamma_useful", 0.0), first.get("gapcascade.gamma_table.entries", 0.0))
    values["charkernels.memo_hit_frac"] = ratio(
        first.get("charkernels.memo_hits", 0.0), first.get("charkernels.memo_rows", 0.0))
    values["trace.overhead_s"] = _median(walls[True]) - _median(walls[False])
    counts = {name: len(traced) for name, _ in PER_LAYER}
    for name in ("setup.import_s", "setup.import_scipy_s"):
        counts[name] = len(imports[name])
    counts["trace.overhead_s"] = len(walls[True]) + len(walls[False])
    return values, counts


def write_trace(run: dict, path: Path) -> None:
    """All spans of the traced jobs: one list per job, a span being
    [name, start, end, parent index]."""
    jobs = [{"cycle": j["cycle"], "job": j["pos"], "spans": j["spans"]}
            for j in run["jobs"] if j.get("spans") is not None]
    path.write_text(json.dumps({"workload": run["workload"], "seed": run["seed"],
                                "jobs": jobs}))


def machine() -> dict:
    from importlib.metadata import PackageNotFoundError, version

    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = version(package)
        except PackageNotFoundError:
            versions[package] = "missing"
    return {"nproc": os.cpu_count(), "arch": platform.machine(),
            "python": platform.python_version(), **versions, "blas_threads": 1}


def raw_lines(run: dict) -> list[str]:
    """Informational, not metrics: the mean reference-loop time, the
    median set-up and each op kind's median wall time before
    normalization, and, for each op kind with at least 20 samples, the
    highest percentile of its wall time that has at least ten samples
    beyond it (with fewer samples that percentile lies below the
    median)."""
    ops = [r for j in run["jobs"] for r in j.get("ops") or [] if "s" in r]
    setups = [j["setup_s"] for j in run["jobs"] if "setup_s" in j]
    lines = [f"reference loop {reference_mean(run):.6g} s mean, "
             f"{CALIBRATE_REF_S} s at the reference speed",
             f"setup_s {_median(setups):.6g} s wall, not normalized (n={len(setups)})"]
    for kind in ("op1", "op2", "op3"):
        sample = sorted(r["s"] for r in ops if r["kind"] == kind and r.get("ok"))
        lines.append(f"{kind}_s_p50 {_median(sample):.6g} s wall, not normalized "
                     f"(n={len(sample)})")
        if len(sample) >= 20:
            pct = math.floor(100 * (len(sample) - 10) / len(sample))
            value = sample[max(0, math.ceil(pct / 100 * len(sample)) - 1)]
            lines.append(f"{kind}_s_tail p{pct} = {value:.6g} s  (n={len(sample)})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "volback" / "__init__.py").is_file():
        print("error: run from the root of a volback checkout (no src/volback here)",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    run = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        write_trace(run, trace_path)
        print(f"spans written to {trace_path.relative_to(Path.cwd())}")
    lines, doc = report(run, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(doc))
    return 0


def report(run: dict, trace: bool) -> tuple[list[str], dict]:
    """Human-readable lines (failures, machine, sample counts) and the
    result object."""
    if trace:
        values, counts = per_layer_metrics(run)
        units = dict(PER_LAYER)
    else:
        values, counts = end_to_end_metrics(run)
        units = dict(END_TO_END)
    lines = [f"FAILED {problem}" for problem in run["failures"]]
    lines.append(f"machine {json.dumps(machine())}")
    lines += [f"{name:45s} {value:.6g} {units[name]}  (n={counts[name]})"
              for name, value in values.items()]
    if not trace:
        lines += raw_lines(run)
    doc = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    return lines, doc


if __name__ == "__main__":
    sys.exit(main())
