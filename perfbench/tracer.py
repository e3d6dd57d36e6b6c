"""Span recorder that wraps the program's public functions from outside.

Each wrapper records a span ``[name, start, end, parent]`` (``parent``
is the index of the enclosing span, -1 at top level) and may update
counters from the call's arguments and result.  Spans are kept in
memory and handed back when the worker ends.

A function bound elsewhere with ``from module import name`` is a
separate reference, so :meth:`Tracer.install` replaces every reference
to the original object in every loaded ``volback`` module (and in the
verification check registry), not only the one in the defining module.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.enabled = True
        self._open: list[int] = []

    def _begin(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _end(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._open.pop()

    def wrap(self, name, fn, before=None, after=None):
        """Wrap ``fn`` in a span; ``before(args, kwargs)`` returns a state
        that ``after(args, kwargs, result, state)`` receives."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before else None
            rec = tracer._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(rec)
            if after:
                after(args, kwargs, result, state)
            return result

        return traced

    def install(self, module, attr: str, wrapped) -> None:
        """Rebind every reference to ``module.attr`` in loaded volback
        modules and in their module-level dicts (such as the verification
        check registry)."""
        original = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "volback" or mod_name.startswith("volback.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                elif isinstance(value, dict):
                    for dkey, dval in list(value.items()):
                        if dval is original:
                            value[dkey] = wrapped

    def layer_totals(self) -> dict[str, float]:
        """Per span name: outermost calls, outermost seconds and self
        seconds, plus the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            out[f"{name}.self_s"] += dur - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out[f"{name}.calls"] += 1
                out[f"{name}.s"] += dur
        out.update(self.counts)
        return dict(out)


def install_volback(tracer: Tracer) -> None:
    """Wrap the layer entry points named in the benchmark's per-layer
    metrics.  Must run after ``volback`` and its submodules are imported."""
    from volback import (
        charkernels, gapcascade, harness, inversion, simplex, simulator,
        verification, volterra,
    )

    c = tracer.counts

    def wrap(module, attr, before=None, after=None, name=None):
        fn = getattr(module, attr)
        span = name or f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        tracer.install(module, attr, tracer.wrap(span, fn, before, after))

    def simulate_after(args, kwargs, record, state):
        if record.blow_up is None:
            c["simulator.steps"] += len(record.times) - 1

    def gamma_before(args, kwargs):
        return tuple(args) in gapcascade._GAMMA_CACHE

    def gamma_after(args, kwargs, table, cached):
        if not cached:
            c["gapcascade.gamma_table.entries"] += len(table)
            built.append((args[0], args[1], table))

    built: list = []

    def coupling_before(args, kwargs):
        return len(built)

    def coupling_after(args, kwargs, result, first):
        n, a_family, b_family = args[:3]
        for tn, m, table in built[first:]:
            supp_a = set(a_family.at_order(tn - m + 1))
            supp_b = set(b_family.at_order(m))
            c["gapcascade.gamma_useful"] += sum(
                1 for k in table if k.q in supp_a and k.qp in supp_b
            )
        del built[first:]

    def cascade_after(args, kwargs, family, state):
        c["gapcascade.a_entries"] += len(family.entries)

    def assemble_after(args, kwargs, kernel, state):
        c["polynomial.kernel_monomials"] += len(kernel.monomials)

    def invert_after(args, kwargs, result, state):
        c["inversion.picard_iters"] += result.iterations
        ratios = result.contraction_ratios
        if ratios:
            c["inversion.picard_ratio_max"] = max(c["inversion.picard_ratio_max"], max(ratios))

    def nodes_after(args, kwargs, result, state):
        c["simplex.simplex_nodes.points"] += len(result[1])

    wrap(simulator, "simulate", after=simulate_after)
    wrap(simulator, "feedback")
    wrap(volterra, "series_profile")
    wrap(volterra, "linearized_profile")
    wrap(gapcascade, "cascade", after=cascade_after)
    wrap(gapcascade, "gamma_table", before=gamma_before, after=gamma_after)
    wrap(gapcascade, "coupling_c", before=coupling_before, after=coupling_after)
    wrap(gapcascade, "assemble_kernel_polynomial", after=assemble_after)
    wrap(inversion, "invert_with_info", after=invert_after)
    wrap(inversion, "dk_matrix")
    wrap(inversion, "neumann_norm_estimate")
    wrap(simplex, "simplex_nodes", after=nodes_after)
    wrap(harness, "run_experiment")
    wrap(harness, "build_kernel_table")
    wrap(verification, "run_all")
    for check_name, fn in list(verification.ALL_CHECKS.items()):
        wrap(verification, fn.__name__, name=f"verification.check.{check_name}")
    _wrap_kernel_eval(tracer, charkernels)


def _wrap_kernel_eval(tracer: Tracer, charkernels) -> None:
    """Span recursion-backed ``KernelNode.__call__`` and account its memo.

    A call goes through the memo when the node has no polynomial form and
    the batch has at most ``_MEMO_BATCH_LIMIT`` rows; rows it had to
    compute are added to ``node.cache``, so hits are the rows the cache
    did not grow by (exact while the cache is below its cap and a batch
    holds no repeated point)."""
    original = charkernels.KernelNode.__call__
    limit = charkernels._MEMO_BATCH_LIMIT
    c = tracer.counts

    @functools.wraps(original)
    def call(node, x, xi):
        if not tracer.enabled or node.polynomial is not None:
            return original(node, x, xi)
        rows = len(xi) if getattr(xi, "ndim", 1) > 1 else 1
        outermost = "charkernels.kernel_eval" not in {
            tracer.spans[i][0] for i in tracer._open
        }
        before = len(node.cache)
        rec = tracer._begin("charkernels.kernel_eval")
        try:
            result = original(node, x, xi)
        finally:
            tracer._end(rec)
        if outermost:
            c["charkernels.kernel_eval.rows"] += rows
        if rows <= limit:
            c["charkernels.memo_rows"] += rows
            c["charkernels.memo_hits"] += rows - (len(node.cache) - before)
        return result

    charkernels.KernelNode.__call__ = call


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds for ``import volback`` and for the scipy imports it pulls
    in, from ``python -X importtime`` output (printed children first)."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|", 2)
        if not cum.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, name.strip(), int(cum) / 1e6))
    volback = sum(s for d, n, s in rows if n == "volback")
    scipy_s = 0.0
    stack: list[tuple[int, str]] = []
    for depth, name, secs in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy_s += secs
        stack.append((depth, name))
    return {"setup.import_s": volback, "setup.import_scipy_s": scipy_s}
