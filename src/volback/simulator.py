"""Closed-loop simulation of the controlled transport equation.

The plant is u_t = u_x + F[u] on x in [0, 1) with the boundary value
u(1, t) carrying the control.  Space is discretized on the uniform mesh
with the one-sided difference toward x = 1 (the transport runs leftward,
so that is the upwind side), time stepping is Heun's two-stage method
with dt = CFL * dx, and the boundary node is refreshed with the feedback
value at every stage so the scheme stays consistent with the
time-varying boundary condition.

The controller, and any plant other than the builtin quadratic one, is
evaluated by one :class:`~volback.volterra.MeshCascade` of all its
orders, which takes the state once for every slot: the plant by its
series' own cascade
(:meth:`~volback.volterra.VolterraKernelSeries.cascade`), the
controller, which reads orders 2 up to its cap, by one built per run.
Both come as a :class:`~volback.volterra.VolterraKernelSeries`, so
every kernel was checked when its series was built.  The builtin plant
keeps its closed form (int_0^x u)^2 / 2, its running integral one
cumulative trapezoid sum.

Also here: the target semigroup (pure left transport with zero inflow,
which annihilates any profile in finite time 1), the closed-loop
stability constants, and the mild-solution residual that measures how
well the transformed state w = u - K[u] follows the target flow.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, Sequence

import numpy as np

from .charkernels import is_pdae_plant
from .polynomial import SimplexPolyKernel
from .volterra import (
    GridFunction,
    MeshCascade,
    VolterraKernelSeries,
    trie_nodes,
)

CONTROLLERS = ("open-loop", "order-2", "order-3", "full-N_max")

# Largest cost one run may ask for, in grid updates weighted by the work
# each one does: n_steps * (STEP_COST + mesh_points * (1 + the
# suffix-trie nodes of each kernel order alone)).  The controller's one
# cascade shares suffixes between orders, so that count bounds its nodes
# from above, and the boundary feedback does not integrate the deepest
# level at all (see MeshCascade.endpoint).  STEP_COST is the fixed work
# of a time step in the same units: on a 2-core x86-64 VM an open-loop
# step takes 41 us at M = 201 and 57 us at M = 801, and a charged trie
# node 0.007 us (order 5) to 0.025-0.030 us (order 3) per mesh point
# (whole runs at t_end = 2, best of three, in three runs; the VM's speed
# swings about 2x).
# The builtin plant's order-3 controller is charged 16 nodes (it has 14;
# order 4: 88 for 72, order 5: 569 for 481) and the plant itself 1, so
# the order-3 run at M = 1601, t_end = 2, CFL 0.5 (6400 steps) costs 2.0e8,
# a tenth of the budget.  `simulate` refuses a costlier run before it
# builds its mesh, so a mistyped cfl, t_end or mesh_points, or a
# high-order controller on a fine mesh, fails at once instead of
# running for hours or running out of memory.
STEP_COST = 2500
MAX_GRID_UPDATES = 2 * 10**9

DECAY_RATE = 1.0  # lambda of the closed-loop decay estimate


class SimConfigError(ValueError):
    """A simulation configuration failed validation."""


class MissingKernelError(ValueError):
    """The controller needs a kernel order that was not supplied."""


class NotApplicableError(ValueError):
    """The requested diagnostic is undefined for this record."""


def cubic_pulse(x: np.ndarray) -> np.ndarray:
    """The reference initial condition 140 x^3 (1 - x)."""
    return 140.0 * x**3 * (1.0 - x)


@dataclass
class SimConfig:
    """Protocol knobs of one simulation run.

    The initial state is the cubic pulse times ``initial_scale``.
    ``controller`` selects how many kernel orders feed the boundary
    value.
    """

    mesh_points: int = 201
    cfl: float = 0.5
    t_end: float = 2.0
    controller: str = "open-loop"
    blow_up_threshold: float = 1e6
    initial_scale: float = 1.0
    snapshot_count: int = 50

    def __post_init__(self) -> None:
        if not (self.mesh_points >= 3):  # the negated checks also refuse NaN
            raise SimConfigError(f"need at least 3 mesh points, got {self.mesh_points}")
        if not (0.0 < self.cfl <= 1.0):
            raise SimConfigError(f"CFL must lie in (0, 1], got {self.cfl}")
        if not (self.blow_up_threshold > 0):
            raise SimConfigError("blow-up threshold must be positive")
        if not (self.t_end > 0):
            raise SimConfigError("horizon must be positive")
        if self.controller not in CONTROLLERS:
            raise SimConfigError(
                f"unknown controller {self.controller!r}; expected one of {CONTROLLERS}"
            )
        if not (self.snapshot_count >= 2):
            raise SimConfigError("need at least 2 snapshot frames")

    def initial_values(self, mesh: np.ndarray) -> np.ndarray:
        return self.initial_scale * cubic_pulse(mesh)

    def describe(self) -> Dict:
        return {
            "mesh_points": self.mesh_points,
            "cfl": self.cfl,
            "t_end": self.t_end,
            "controller": self.controller,
            "blow_up_threshold": self.blow_up_threshold,
            "initial": "cubic-pulse",
            "initial_scale": self.initial_scale,
            "snapshot_count": self.snapshot_count,
        }


@dataclass
class SimulationRecord:
    """Everything a run produced, decimated where bulky."""

    times: np.ndarray
    l2_norms: np.ndarray
    sup_norms: np.ndarray
    controls: np.ndarray
    snapshot_times: np.ndarray
    snapshots: np.ndarray
    blow_up: float | None
    final_l2: float | None
    max_abs: float
    config: Dict

    def __post_init__(self) -> None:
        if np.any(self.l2_norms < 0):
            raise SimConfigError("norm series must be nonnegative")
        if self.blow_up is not None and self.blow_up > self.config["t_end"] + 1e-12:
            raise SimConfigError("blow-up time cannot exceed the horizon")

    @property
    def mesh(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.snapshots.shape[1])

    def snapshot_at(self, t: float) -> tuple[float, GridFunction]:
        """The stored frame closest to time t."""
        i = int(np.argmin(np.abs(self.snapshot_times - t)))
        return float(self.snapshot_times[i]), GridFunction(self.snapshots[i])


def _advection(values: np.ndarray, dx: float) -> np.ndarray:
    """One-sided difference toward x = 1 (backward fill at the last node)."""
    out = np.empty_like(values)
    out[:-1] = (values[1:] - values[:-1]) / dx
    out[-1] = out[-2]
    return out


def _controller_kernels(
    kernels: VolterraKernelSeries, order_cap: int
) -> Dict[int, SimplexPolyKernel]:
    """The controller's kernels of orders 2..order_cap.  Every order up
    to the cap must be present in ``kernels`` (pass the zero kernel
    explicitly if an order genuinely vanishes)."""
    for n in range(2, order_cap + 1):
        if n not in kernels:
            raise MissingKernelError(f"feedback needs the order-{n} kernel")
    return {n: kernels[n] for n in range(2, order_cap + 1)}


def feedback(values: np.ndarray, controller: MeshCascade) -> float:
    """Boundary value K[u](1) of the state sampled at ``values``, from
    the prebuilt controller cascade (``simulate`` builds one per run):
    each order's x = 1 value, added in increasing order.  A lower
    order reads the last column of its own trie level; only the highest
    order's outermost integral is folded into one weighted sum (see
    :meth:`~volback.volterra.MeshCascade.endpoint`).  It agrees with the
    last value of K[u]'s profile to within rounding."""
    return float(controller.endpoint(values))


def controller_cap(controller: str, n_max: int) -> int | None:
    """The highest kernel order the named controller feeds back when
    kernels up to order ``n_max`` are at hand: None for the open loop,
    2 or 3 for ``order-2`` and ``order-3``, else ``n_max``."""
    if controller == "open-loop":
        return None
    if controller == "order-2":
        return 2
    if controller == "order-3":
        return 3
    return n_max


def simulate(
    cfg: SimConfig,
    plant: VolterraKernelSeries | None,
    kernels: VolterraKernelSeries | None = None,
) -> SimulationRecord:
    """Run the closed loop and record the trajectory.

    ``plant`` may be None (pure transport, the target system) or a
    kernel series; the quadratic integral example is recognised and uses
    its closed-form nonlinearity.  ``kernels`` is the controller's kernel
    series for the non-open-loop controllers.  A controller order missing
    from it is a :class:`MissingKernelError`, and a run whose cost
    estimate (see ``MAX_GRID_UPDATES``) exceeds that budget a
    :class:`SimConfigError`, both raised before the first step.  Halts
    early when the sup norm passes the blow-up threshold or any value
    goes non-finite, and records that time; an initial state that does so
    is a blow-up at t = 0, and no step is taken.
    """
    m = cfg.mesh_points
    control = None
    if cfg.controller != "open-loop":
        if not kernels:
            raise MissingKernelError(f"controller {cfg.controller!r} needs kernels")
        control = _controller_kernels(kernels, controller_cap(cfg.controller, max(kernels)))
    nodes = _plant_trie_nodes(plant)
    if control is not None:
        nodes += sum(map(trie_nodes, control.values()))
    try:
        dx = 1.0 / (m - 1)
        steps = max(1.0, cfg.t_end / (cfg.cfl * dx))  # the loop takes at least one
        cost = steps * (STEP_COST + m * (1 + nodes))
    except (OverflowError, ZeroDivisionError):  # a mesh or a step beyond the float range
        steps = cost = math.inf
    if not cost <= MAX_GRID_UPDATES:  # also refuses a NaN or infinite estimate
        raise SimConfigError(
            f"the run needs about {steps:.1e} steps x ({STEP_COST} + {m} mesh points x "
            f"(1 + {nodes} suffix-trie nodes)) = {cost:.1e} grid updates, above "
            f"MAX_GRID_UPDATES = {MAX_GRID_UPDATES:.0e}; raise cfl or lower t_end, "
            "mesh_points or the controller order"
        )

    dt = cfg.cfl * dx
    mesh = np.linspace(0.0, 1.0, m)
    nonlinearity = _plant_nonlinearity(plant, mesh)
    controller = None if control is None else MeshCascade(control, mesh)

    def rhs(values: np.ndarray) -> np.ndarray:
        out = _advection(values, dx)
        if nonlinearity is not None:
            out += nonlinearity(values)
        return out

    def boundary(values: np.ndarray) -> float:
        return 0.0 if controller is None else feedback(values, controller)

    n_steps = max(1, int(math.ceil(cfg.t_end / dt - 1e-12)))
    frame_ids = _frame_ids(n_steps, cfg.snapshot_count)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is recorded as blow-up
        u = cfg.initial_values(mesh).astype(float)
        u[-1] = boundary(u)

        def diverged(peak: float) -> bool:
            # The sup norm is nan or inf exactly when some value is not finite.
            return not math.isfinite(peak) or peak > cfg.blow_up_threshold

        times = [0.0]
        l2 = [_l2(u, dx)]
        sup = [_sup(u)]
        controls = [u[-1]]
        snap_times = [0.0]
        snaps = [u.copy()]
        # An initial state past the threshold is a blow-up at t = 0: no step is taken.
        blow_up: float | None = 0.0 if diverged(sup[0]) else None

        t = 0.0
        for k in range(1, n_steps + 1 if blow_up is None else 1):
            step = min(dt, cfg.t_end - t)
            f1 = rhs(u)
            pred = u + step * f1
            pred[-1] = boundary(pred)
            f2 = rhs(pred)
            nxt = u + 0.5 * step * (f1 + f2)
            nxt[-1] = boundary(nxt)
            t += step
            u = nxt
            peak = _sup(u)
            if diverged(peak):
                blow_up = t
                break
            times.append(t)
            l2.append(_l2(u, dx))
            sup.append(peak)
            controls.append(u[-1])
            if k in frame_ids:
                snap_times.append(t)
                snaps.append(u.copy())

        return SimulationRecord(
            times=np.asarray(times),
            l2_norms=np.asarray(l2),
            sup_norms=np.asarray(sup),
            controls=np.asarray(controls),
            snapshot_times=np.asarray(snap_times),
            snapshots=np.asarray(snaps),
            blow_up=blow_up,
            final_l2=l2[-1] if blow_up is None else None,
            max_abs=float(np.max(sup)),
            config=cfg.describe(),
        )


def _frame_ids(n_steps: int, count: int) -> set[int]:
    """The steps nearest to ``count`` evenly spaced times in 0..n_steps.

    Past n_steps + 1 points every step is already nearest to one, so the
    set is built from at most that many points.
    """
    points = np.linspace(0, n_steps, min(count, n_steps + 1))
    return set(int(i) for i in np.round(points))


def _l2(values: np.ndarray, dx: float) -> float:
    """sqrt(np.trapezoid(values**2, dx=dx)), the same operations inline."""
    sq = values**2
    return float(np.sqrt((dx * (sq[1:] + sq[:-1]) / 2.0).sum(-1)))


def _sup(values: np.ndarray) -> float:
    return float(np.max(np.abs(values)))


def _plant_trie_nodes(plant: VolterraKernelSeries | None) -> int:
    """Suffix-trie nodes of the plant's mesh cascade (the builtin plant's
    running integral is charged one)."""
    if not plant:
        return 0
    if is_pdae_plant(plant):
        return 1
    return sum(map(trie_nodes, plant.values()))


def _plant_nonlinearity(
    plant: VolterraKernelSeries | None, mesh: np.ndarray
) -> Callable[[np.ndarray], np.ndarray] | None:
    if not plant:
        return None
    if is_pdae_plant(plant):
        dx = mesh[1] - mesh[0]

        def quadratic(values: np.ndarray) -> np.ndarray:
            # v(x) = int_0^x u by the cumulative trapezoid rule, rounded
            # as the mesh cascade rounds it: dx * (u[i+1] + u[i]) * 0.5.
            running = np.empty_like(values)
            running[0] = 0.0
            np.cumsum((values[1:] + values[:-1]) * dx * 0.5, out=running[1:])
            return 0.5 * running**2

        return quadratic

    return plant.cascade(mesh.size).profile


def target_semigroup(w0: GridFunction, t: float) -> GridFunction:
    """Left transport with zero inflow: (S(t) w0)(x) = w0(x + t) or 0.

    Exactly the zero function for t >= 1.
    """
    if t < 0:
        raise SimConfigError(f"semigroup time must be nonnegative, got {t}")
    if t == 0.0:
        return GridFunction(w0.values.copy())
    mesh = w0.mesh
    shifted = mesh + t
    vals = np.where(shifted < 1.0, np.interp(shifted, mesh, w0.values), 0.0)
    return GridFunction(vals)


def stability_constants(s: float, ell_s: float, rho_l: float) -> tuple[float, float]:
    """Closed-loop decay constants (C1, C2) from the gain data.

    C1 bounds the admissible initial norm, C2 the overshoot:
    ||u(t)|| <= C2 exp(-lambda t) ||u0|| whenever ||u0|| < C1, with
    lambda = ``DECAY_RATE``.
    """
    if not (0.0 <= ell_s < 1.0):
        raise SimConfigError(f"ell_s must lie in [0, 1), got {ell_s}")
    if s < 0 or rho_l < 0:
        raise SimConfigError("radii cannot be negative")
    root = math.sqrt(ell_s)
    c1 = min(math.sqrt(s), math.sqrt(rho_l) / (1.0 + root))
    c2 = math.exp(DECAY_RATE) * (1.0 + root) / (1.0 - root)
    return c1, c2


def mild_solution_residual(
    record: SimulationRecord,
    kernels: VolterraKernelSeries,
    sample_times: Sequence[float],
) -> float:
    """Max L2 distance between w = u - K[u] and the target flow of w0.

    Uses the stored snapshots nearest to the requested times.  Undefined
    (raises) for blow-up records.
    """
    if record.blow_up is not None:
        raise NotApplicableError(
            "mild-solution residual is undefined for a blow-up record"
        )
    terms = kernels.cascade(record.mesh.size)
    u0 = GridFunction(record.snapshots[0])
    w0 = u0 - GridFunction(terms.profile(u0.values))
    worst = 0.0
    for t in sample_times:
        t_snap, u_t = record.snapshot_at(t)
        w_t = u_t - GridFunction(terms.profile(u_t.values))
        target = target_semigroup(w0, t_snap)
        worst = max(worst, (w_t - target).l2_norm())
    return worst


def write_series_csv(record: SimulationRecord, path: str) -> None:
    """Per-step series: time, L2 norm, control value, sup norm."""
    columns = (record.times, record.l2_norms, record.controls, record.sup_norms)
    row = _csv_row("%.12g", 3)
    with open(path, "w", newline="") as fh:
        fh.write("t,l2_norm,control,sup_norm\r\n")
        fh.writelines(row % values for values in zip(*(c.tolist() for c in columns)))


def write_snapshots_csv(record: SimulationRecord, path: str) -> None:
    """Decimated state frames; first column is time, then one per node."""
    m = record.snapshots.shape[1]
    row = _csv_row("%.12g", m)
    with open(path, "w", newline="") as fh:
        fh.write(_csv_row("t", m) % tuple(record.mesh.tolist()))
        fh.writelines(
            row % (t, *frame.tolist())
            for t, frame in zip(record.snapshot_times.tolist(), record.snapshots)
        )


def _csv_row(first: str, count: int) -> str:
    """The format of one CSV line: ``first``, then ``count`` numbers as
    ``%.12g``, comma-separated and ended by CRLF, the bytes ``csv.writer``
    writes for such a row (no number needs quoting)."""
    return first + ",%.12g" * count + "\r\n"


def write_metadata_json(record: SimulationRecord, path: str, extra: Dict | None = None) -> None:
    from . import __version__

    doc = {
        "config": record.config,
        "blow_up": record.blow_up,
        "final_l2": record.final_l2,
        "max_abs": record.max_abs,
        "version": __version__,
    }
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        json.dump(_finite_or_null(doc), fh, indent=2, allow_nan=False, default=float)


def _finite_or_null(value):
    """``value`` with every NaN or infinite number replaced by None (JSON
    has no such numbers) and numpy floats made Python floats."""
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(value) else None
    return value
