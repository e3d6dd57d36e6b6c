"""One benchmark worker: a fresh interpreter that imports volback, loads
its inputs, runs a list of ops and prints one JSON line with the results.

The job arrives as JSON on stdin.  Each op times only its calls into the
program; what the worker computes afterwards for the output checks runs
outside the timed region and outside the trace.  The parent does the
checking.  A raised exception fails that op only.  Anything the program
prints goes to stderr, so stdout carries nothing but the result line.

Between ops the worker times a fixed reference loop that does not call
the program (``calibrate``): before the first op, and after each op
that ends ``CALIBRATE_EVERY_S`` or more after the last one.  The parent
uses these times to tell how fast the machine ran during the run.

Started by ``run.py``, one process at a time.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np
from volback import gapcascade, harness, inversion, simulator, verification, volterra


# Short ops run back to back until this much time has passed.
CALIBRATE_EVERY_S = 0.25
# The machine switches between a fast and a slow state many times a
# second, so each point in time gets several reference times.
CALIBRATE_REPEATS = 3


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter, dict, rational and
    small-array work, about 20 ms on average on the reference machine.  It does not
    touch the program, so only the machine's speed moves it."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(40000):
        acc += i * i % 7
        table[(i * 2654435761) & 16383] = acc
    q = Fraction(0)
    for i in range(1, 300):
        q += Fraction(i % 7 + 1, i % 5 + 1) * Fraction(1, i % 3 + 1)
    a = np.linspace(0.0, 1.0, 401)
    for _ in range(1000):
        b = np.cumsum(a * 0.5 + 1.0)
        a = b / b[-1]
    return time.perf_counter() - start


class Ops:
    """Set-up shared by a job's ops; subclasses load one workload's inputs."""

    def __init__(self, job: dict, tracer) -> None:
        self.tracer = tracer
        self.setup = job["setup"]
        self.out_root = Path(job["out_dir"])

    def timed(self, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        return time.perf_counter() - start, result

    @contextlib.contextmanager
    def untraced(self):
        if self.tracer is None:
            yield
            return
        self.tracer.enabled = False
        try:
            yield
        finally:
            self.tracer.enabled = True


class ClosedLoop(Ops):
    def __init__(self, job: dict, tracer) -> None:
        super().__init__(job, tracer)
        self.spec = harness.parse_config(self.setup["config"])

    def run(self, op: dict):
        spec, n_max = self.spec, self.setup["n_max"]
        out_dir = self.out_root / (spec.output_dir or "simulate")

        def higher_order():
            # run_experiment caps full-N_max at max(plant order, 3); for a
            # higher cap, make the same public calls it makes.
            plant = harness.load_plant(spec.plant)
            kernels = harness.build_kernel_table(plant, n_max)
            record = simulator.simulate(spec.sim_config(), plant.series, kernels)
            out_dir.mkdir(parents=True, exist_ok=True)
            simulator.write_series_csv(record, str(out_dir / "series.csv"))
            simulator.write_snapshots_csv(record, str(out_dir / "snapshots.csv"))
            simulator.write_metadata_json(
                record, str(out_dir / "metadata.json"),
                {"plant": plant.source, "controller": spec.controller, "n_max": n_max},
            )

        if n_max <= 3:
            secs, _ = self.timed(harness.run_experiment, spec, out_dir)
        else:
            secs, _ = self.timed(higher_order)
        meta = json.loads((out_dir / "metadata.json").read_text())
        rows = (out_dir / "series.csv").read_text().splitlines()
        return secs, {
            "blow_up": meta["blow_up"],
            "final_l2": meta["final_l2"],
            "max_abs": meta["max_abs"],
            "initial_l2": float(rows[1].split(",")[1]),
            "steps": len(rows) - 2,
        }


class KernelSynthesis(Ops):
    def __init__(self, job: dict, tracer) -> None:
        super().__init__(job, tracer)
        self.plant = harness.parse_plant(self.setup["plant"])
        self.family = None
        self.kernels = None

    def run(self, op: dict):
        if op["kind"] == "op1":
            secs, self.family = self.timed(gapcascade.cascade, self.plant.family, op["n_max"])
            text = gapcascade.family_to_json(self.family)
            return secs, {"sha256": hashlib.sha256(text.encode()).hexdigest(),
                          "a_entries": len(self.family.entries)}
        if self.family is None:
            raise RuntimeError("the cascade op of this plant failed")
        if op["kind"] == "op2":
            secs, self.kernels = self.timed(lambda: {
                n: gapcascade.assemble_kernel_polynomial(self.family, n)
                for n in range(2, op["n_max"] + 1)
            })
            return secs, {"monomials": [len(k.monomials) for k in self.kernels.values()]}
        if self.kernels is None:
            raise RuntimeError("the assembly op of this plant failed")
        rng = np.random.default_rng(self.setup["points_seed"])
        orders = range(2, op["order"] + 1)
        points = {n: np.sort(rng.uniform(0.0, 1.0, (op["points"], n)), axis=1)[:, ::-1]
                  for n in orders}

        def recursion_values():
            table = harness.build_kernel_table(self.plant, op["order"], route="recursion")
            return {n: table[n](1.0, points[n]) for n in orders}

        secs, rec = self.timed(recursion_values)
        with self.untraced():
            worst = max(float(np.max(np.abs(rec[n] - self.kernels[n](1.0, points[n]))))
                        for n in orders)
        return secs, {"max_abs_diff": worst}


class Certify(Ops):
    def __init__(self, job: dict, tracer) -> None:
        super().__init__(job, tracer)
        plant = harness.load_plant("pdae")
        kernels = harness.build_kernel_table(plant, 3)
        self.series = volterra.VolterraKernelSeries(dict(kernels))
        gains = volterra.build_gains(self.series, harness.GAIN_RULE)
        self.icfg = inversion.choose_radius(gains)
        self.bound = math.sqrt(volterra.gain_ell(gains, self.icfg.s))
        self.profiles = {
            key: np.loadtxt(self.setup[key], delimiter=",", skiprows=1, ndmin=2)[:, 1:]
            for key in ("targets", "states")
        }
        if tracer is not None:
            tracer.counts["inversion.picard_ratio_bound"] = self.bound

    def run(self, op: dict):
        if op["kind"] == "op1":
            w = volterra.GridFunction(self.profiles["targets"][:, op["index"]])
            secs, res = self.timed(inversion.invert_with_info, w, self.series, self.icfg)
            with self.untraced():
                back = res.u - volterra.series_profile(self.series, res.u)
                residual = (back - w).l2_norm()
            return secs, {"converged": res.converged, "residual": residual,
                          "ratio_max": max(res.contraction_ratios, default=0.0),
                          "bound": self.bound}
        if op["kind"] == "op2":
            u = volterra.GridFunction(self.profiles["states"][:, op["index"]])
            secs, est = self.timed(inversion.neumann_norm_estimate, self.series, u)
            return secs, {"estimate": est, "neumann_bound": 1.0 / (1.0 - self.bound)}
        secs, results = self.timed(verification.run_all, 0)
        return secs, {"failed_checks": [r.name for r in results if not r.passed],
                      "checks": len(results)}


WORKLOADS = {"closed-loop": ClosedLoop, "kernel-synthesis": KernelSynthesis,
             "certify": Certify}


def main() -> int:
    job = json.loads(sys.stdin.readline())
    result_out = sys.stdout
    tracer = None
    # The volback import at the top of this file is part of the set-up
    # time: the parent times from process start to ready_at.
    with contextlib.redirect_stdout(sys.stderr):
        if job["trace"]:
            from tracer import Tracer, install_volback

            tracer = Tracer()
            install_volback(tracer)
        ops = WORKLOADS[job["workload"]](job, tracer)
        ready_at = time.monotonic()
        calibrate()  # warm-up, not used
        reference = [calibrate() for _ in range(CALIBRATE_REPEATS)]
        since = time.perf_counter()
        results = []
        for i, op in enumerate(job["ops"]):
            try:
                secs, out = ops.run(op)
                results.append({"kind": op["kind"], "s": secs, "out": out})
            except Exception as exc:  # a raised op is a failed op
                traceback.print_exc()
                results.append({"kind": op["kind"], "error": repr(exc)})
            if time.perf_counter() - since >= CALIBRATE_EVERY_S or i == len(job["ops"]) - 1:
                reference += [calibrate() for _ in range(CALIBRATE_REPEATS)]
                since = time.perf_counter()
    doc = {
        "ready_at": ready_at,
        "ops": results,
        "reference_s": reference,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        doc["layers"] = tracer.layer_totals()
        doc["spans"] = tracer.spans
    result_out.write(json.dumps(doc) + "\n")
    result_out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
