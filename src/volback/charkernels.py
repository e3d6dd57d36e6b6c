"""Controller kernels by characteristic-line integration.

The order-n transformation kernel satisfies a transport equation on the
ordered simplex whose forcing couples the plant kernel f_n with the
lower-order kernels through integral operators.  Integrating back along
the characteristic direction (1, ..., 1) from the inflow face xi_n = 0
yields

    k_n(x, xi) = - int_0^{xi_n} (f_n - sum_m B[n, m]) evaluated at
                 (x - xi_n + s, xi_1 - xi_n + s, ..., xi_{n-1} - xi_n + s, s) ds,

so kernels are built recursively: k_2 needs only f_2, k_3 needs k_2,
and so on.  The m = n coupling term always pairs with the first-order
kernel, which is identically zero, and is skipped.

The coupling operator B[n, m] pairs the lower kernel k_p, p = n - m + 1,
with f_m.  Writing xi_0 = x, its value at (x, xi_1, ..., xi_n) is

    sum_{j=1}^{p} int_{xi_j}^{xi_{j-1}}
        sum_{(A, B)} k_p(x, xi_1, ..., xi_{j-1}, s, A) f_m(s, B) ds,

where (A, B) runs over all order-preserving distributions of the
trailing coordinates (xi_j, ..., xi_n) into a k-block of size p - j and
an f-block of size m, enumerated by :func:`volback.simplex.ordered_splits`.

Every 1-D integral is one Gauss-Legendre rule on [0, 1] whose node
count is worked out from polynomial degrees, so the recursion
reproduces the polynomial kernels up to rounding.  The plant kernels
must be polynomial (:class:`~volback.polynomial.SimplexPolyKernel`).
B[n, m] has degree at most deg k_p + deg f_m + 1 and the characteristic
integral adds one degree, so the order-n kernel has degree at most

    D_n = 1 + max(deg f_n, max_m (1 + D_{n-m+1} + deg f_m)).

An integral whose value has degree D has an integrand of degree at most
D - 1 in the reference variable, and ceil(D / 2) Gauss-Legendre nodes
integrate degree 2 ceil(D / 2) - 1 >= D - 1 exactly (Golub & Welsch,
Math. Comp. 23 (1969) 221-230).
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Callable, Dict, Iterable, Mapping

import numpy as np

from .polynomial import SimplexPolyKernel, pdae_k2, pdae_k3
from .simplex import SimplexPoint, ordered_splits
from .volterra import VolterraKernelSeries, check_growth_assumption

PROVENANCES = ("closed-form", "characteristic-recursion", "gap-cascade")

# Rows per chunk in recursive evaluation, chosen so one chunk expanded by
# the per-row quadrature nodes stays comfortably in cache-friendly sizes.
_CHUNK_BUDGET = 1 << 18
# Batches larger than this skip the memo cache: quantizing and hashing
# hundreds of thousands of rows costs more than recomputing them.
_MEMO_BATCH_LIMIT = 1024
_CACHE_CAP = 1 << 20


class KernelConfigError(ValueError):
    """The kernel recursion was asked to run with missing ingredients."""


class PlantAssumptionError(ValueError):
    """The plant failed its growth-assumption sampling check."""


@lru_cache(maxsize=None)
def _gauss_grid(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1] for an integral whose value
    has degree ``degree``: ceil(degree / 2) nodes, at least one."""
    t, w = np.polynomial.legendre.leggauss(max(1, (degree + 1) // 2))
    return 0.5 * (t + 1.0), 0.5 * w


class KernelNode:
    """One kernel of the controller hierarchy, with provenance and memo.

    Nodes are callable in the package-wide array convention
    ``node(x, xi)`` and additionally offer :meth:`eval_point` for a
    single :class:`~volback.simplex.SimplexPoint`.  Point evaluations of
    recursion-backed nodes are memoized on a 1e-6 coordinate lattice;
    large batch evaluations bypass the memo, and polynomial-backed nodes
    never need it.  The cache is lock-protected, so concurrent
    evaluation is safe; nodes are immutable otherwise.

    ``degree`` bounds the kernel's total degree; a node without one
    cannot be a lower kernel of the recursion.
    """

    vectorized = True

    def __init__(
        self,
        order: int,
        evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray],
        provenance: str,
        polynomial: SimplexPolyKernel | None = None,
        degree: int | None = None,
    ) -> None:
        if provenance not in PROVENANCES:
            raise KernelConfigError(f"unknown provenance {provenance!r}")
        if order < 1:
            raise KernelConfigError(f"kernel order must be positive, got {order}")
        self.order = order
        self.provenance = provenance
        self.polynomial = polynomial
        self.degree = polynomial.max_degree() if polynomial is not None else degree
        self._evaluator = evaluator
        self.cache: Dict[tuple, float] = {}
        self._lock = threading.Lock()

    @staticmethod
    def from_polynomial(
        poly: SimplexPolyKernel, provenance: str = "closed-form"
    ) -> "KernelNode":
        return KernelNode(poly.order, poly.__call__, provenance, polynomial=poly)

    def __call__(self, x, xi) -> np.ndarray:
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        if xi.shape[1] != self.order:
            raise KernelConfigError(
                f"order-{self.order} kernel got points with {xi.shape[1]} coordinates"
            )
        x_arr = np.broadcast_to(np.asarray(x, dtype=float), (xi.shape[0],))
        if self.polynomial is not None or xi.shape[0] > _MEMO_BATCH_LIMIT:
            return np.asarray(self._evaluator(x_arr, xi), dtype=float)
        keys = [
            (int(round(xv * 1e6)),) + tuple(int(round(v * 1e6)) for v in row)
            for xv, row in zip(x_arr, xi)
        ]
        out = np.empty(xi.shape[0])
        with self._lock:
            missing = [i for i, k in enumerate(keys) if k not in self.cache]
            for i, k in enumerate(keys):
                if k in self.cache:
                    out[i] = self.cache[k]
        if missing:
            vals = np.asarray(
                self._evaluator(x_arr[missing], xi[missing]), dtype=float
            )
            with self._lock:
                for i, v in zip(missing, vals):
                    out[i] = v
                    if len(self.cache) < _CACHE_CAP:
                        self.cache[keys[i]] = float(v)
        return out

    def eval_point(self, point: SimplexPoint) -> float:
        return float(self(point.x, np.asarray(point.xi)[None, :])[0])

    def __repr__(self) -> str:
        return f"KernelNode(order={self.order}, provenance={self.provenance!r})"


def _as_node_map(lower: Iterable[KernelNode] | Mapping[int, KernelNode]) -> Dict[int, KernelNode]:
    if isinstance(lower, Mapping):
        return dict(lower)
    return {node.order: node for node in lower}


def _degree(kern: Callable, what: str) -> int:
    """Total degree bound of a polynomial kernel or a kernel node."""
    if isinstance(kern, SimplexPolyKernel):
        return kern.max_degree()
    if isinstance(kern, KernelNode) and kern.degree is not None:
        return kern.degree
    raise KernelConfigError(
        f"{what} has no monomials; the recursion works its quadrature out "
        "from polynomial degrees"
    )


def _coupling_degree(n: int, m: int, k_lower: Callable, f_m: Callable) -> int:
    """Degree bound of B[n, m]: deg k_p + deg f_m + 1."""
    return (
        _degree(k_lower, f"order-{n - m + 1} lower kernel")
        + _degree(f_m, f"order-{m} plant kernel")
        + 1
    )


def _recursion_degree(
    n: int, plant_kernels: Mapping[int, Callable], lower: Mapping[int, KernelNode]
) -> int:
    """The degree bound D_n of the module docstring; 0 when no plant order
    contributes.  Raises :class:`KernelConfigError` for a plant kernel
    without monomials or a missing lower kernel."""
    degrees = []
    f_n = plant_kernels.get(n)
    if f_n is not None:
        degrees.append(_degree(f_n, f"order-{n} plant kernel"))
    for m in range(2, n):
        f_m = plant_kernels.get(m)
        if f_m is None:
            continue
        p = n - m + 1
        node = lower.get(p)
        if node is None:
            raise KernelConfigError(
                f"order-{n} kernel needs the order-{p} kernel for its m={m} coupling"
            )
        degrees.append(_coupling_degree(n, m, node, f_m))
    return 1 + max(degrees) if degrees else 0


def _eval_B_rows(
    n: int,
    m: int,
    k_lower: Callable,
    f_m: Callable,
    x_arr: np.ndarray,
    xi_mat: np.ndarray,
) -> np.ndarray:
    """Vectorized coupling-operator values for a batch of points."""
    p = n - m + 1
    rows = xi_mat.shape[0]
    t_ref, w_ref = _gauss_grid(_coupling_degree(n, m, k_lower, f_m))
    s_count = len(t_ref)
    chain = np.concatenate([x_arr[:, None], xi_mat], axis=1)
    total = np.zeros(rows)
    for j in range(1, p + 1):
        lo = chain[:, j]
        hi = chain[:, j - 1]
        width = hi - lo
        s_nodes = lo[:, None] + width[:, None] * t_ref[None, :]
        s_weights = width[:, None] * w_ref[None, :]
        trailing = chain[:, j:]
        x_flat = np.repeat(x_arr, s_count)
        s_flat = s_nodes.ravel()
        leg = np.zeros(rows * s_count)
        for k_idx, f_idx in ordered_splits(n - j + 1, p - j):
            k_args = np.empty((rows, s_count, p))
            if j > 1:
                k_args[:, :, : j - 1] = xi_mat[:, None, : j - 1]
            k_args[:, :, j - 1] = s_nodes
            for t, src in enumerate(k_idx):
                k_args[:, :, j + t] = trailing[:, None, src]
            f_args = np.empty((rows, s_count, m))
            for t, src in enumerate(f_idx):
                f_args[:, :, t] = trailing[:, None, src]
            k_vals = np.asarray(
                k_lower(x_flat, k_args.reshape(-1, p)), dtype=float
            )
            f_vals = np.asarray(
                f_m(s_flat, f_args.reshape(-1, m)), dtype=float
            )
            leg += k_vals * f_vals
        total += (leg.reshape(rows, s_count) * s_weights).sum(axis=1)
    return total


def eval_B(
    n: int,
    m: int,
    k_lower: KernelNode | Callable | None,
    f_m: Callable,
    point: SimplexPoint,
) -> float:
    """Value of the coupling operator B[n, m] at one simplex point.

    Requires 2 <= m <= n and a lower kernel of order n - m + 1.  The
    m = n case pairs with the identically-zero first-order kernel and
    returns 0 without touching ``k_lower``.  Both kernels must carry a
    degree (a polynomial or a :class:`KernelNode` with ``degree``).
    """
    if not (2 <= m <= n):
        raise KernelConfigError(f"need 2 <= m <= n, got n={n}, m={m}")
    if point.order != n:
        raise KernelConfigError(
            f"point has {point.order} coordinates, expected {n}"
        )
    if m == n:
        return 0.0
    if k_lower is None:
        raise KernelConfigError("coupling needs the lower kernel for m < n")
    order = getattr(k_lower, "order", None)
    if order is not None and order != n - m + 1:
        raise KernelConfigError(
            f"lower kernel has order {order}, expected {n - m + 1}"
        )
    x_arr = np.array([point.x])
    xi_mat = np.asarray(point.xi, dtype=float)[None, :]
    return float(_eval_B_rows(n, m, k_lower, f_m, x_arr, xi_mat)[0])


def _characteristic_rows(
    n: int,
    plant_kernels: Mapping[int, Callable],
    lower: Mapping[int, KernelNode],
    x_arr: np.ndarray,
    xi_mat: np.ndarray,
    degree: int,
) -> np.ndarray:
    """Characteristic-integral kernel values for a batch of points.

    ``degree`` is :func:`_recursion_degree` of this order, which also
    checks that ``lower`` has every kernel the couplings need.
    """
    rows = xi_mat.shape[0]
    t_ref, w_ref = _gauss_grid(degree)
    s_count = len(t_ref)
    xi_n = xi_mat[:, -1]
    s_nodes = xi_n[:, None] * t_ref[None, :]
    s_weights = xi_n[:, None] * w_ref[None, :]
    shift = s_nodes - xi_n[:, None]
    x_sh = (x_arr[:, None] + shift).ravel()
    coords = np.empty((rows, s_count, n))
    for i in range(n - 1):
        coords[:, :, i] = xi_mat[:, i, None] + shift
    coords[:, :, n - 1] = s_nodes
    coords_flat = coords.reshape(-1, n)
    integrand = np.zeros(rows * s_count)
    f_n = plant_kernels.get(n)
    if f_n is not None:
        integrand += np.asarray(f_n(x_sh, coords_flat), dtype=float)
    for m in range(2, n):
        f_m = plant_kernels.get(m)
        if f_m is None:
            continue
        integrand -= _eval_B_rows(n, m, lower[n - m + 1], f_m, x_sh, coords_flat)
    return -(integrand.reshape(rows, s_count) * s_weights).sum(axis=1)


def kernel_characteristic(
    n: int,
    plant: VolterraKernelSeries,
    lower: Iterable[KernelNode] | Mapping[int, KernelNode],
    point: SimplexPoint,
) -> float:
    """Order-n kernel value from the characteristic integral at one point.

    ``lower`` must contain the kernels of orders 2..n-1 that the plant's
    coupling terms require (none for n = 2).  Returns exactly 0 when the
    innermost coordinate is 0.
    """
    if point.order != n:
        raise KernelConfigError(
            f"point has {point.order} coordinates, expected {n}"
        )
    if point.xi[-1] == 0.0:
        return 0.0
    lower_map = _as_node_map(lower)
    degree = _recursion_degree(n, plant.kernels, lower_map)
    x_arr = np.array([point.x])
    xi_mat = np.asarray(point.xi, dtype=float)[None, :]
    return float(
        _characteristic_rows(n, plant.kernels, lower_map, x_arr, xi_mat, degree)[0]
    )


def _recursion_evaluator(
    n: int,
    plant: VolterraKernelSeries,
    lower: Dict[int, KernelNode],
    degree: int,
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    chunk = max(1, _CHUNK_BUDGET // len(_gauss_grid(degree)[0]))

    def evaluate(x_arr: np.ndarray, xi_mat: np.ndarray) -> np.ndarray:
        out = np.empty(xi_mat.shape[0])
        for start in range(0, xi_mat.shape[0], chunk):
            stop = start + chunk
            out[start:stop] = _characteristic_rows(
                n, plant.kernels, lower, x_arr[start:stop], xi_mat[start:stop], degree
            )
        return out

    return evaluate


def build_controller_kernels(
    plant: VolterraKernelSeries,
    n_max: int,
    closed_forms: Mapping[int, SimplexPolyKernel] | None = None,
) -> list[KernelNode]:
    """Build the kernel hierarchy for orders 2..n_max.

    Each node is defined through the characteristic integral over the
    previously built nodes; registered closed forms are substituted
    instead (pass ``closed_forms={}`` to force the recursion for every
    order).  With no argument, the PDAE closed forms are substituted
    automatically when the plant is recognised as that example.

    If the plant carries growth metadata, it is sampled first and a
    failing check aborts the build.  A recursion order whose plant
    kernels have no monomials raises :class:`KernelConfigError`.
    """
    if n_max < 2:
        raise KernelConfigError(f"n_max must be at least 2, got {n_max}")
    if plant.growth is not None and plant.kernels:
        report = check_growth_assumption(plant)
        if not report.passed:
            raise PlantAssumptionError(
                f"plant growth check failed with worst ratio {report.worst_ratio:.3g}"
            )
    if closed_forms is None:
        closed_forms = pdae_closed_forms() if is_pdae_plant(plant) else {}
    nodes: Dict[int, KernelNode] = {}
    for n in range(2, n_max + 1):
        if n in closed_forms:
            nodes[n] = KernelNode.from_polynomial(closed_forms[n], "closed-form")
        else:
            lower = dict(nodes)
            degree = _recursion_degree(n, plant.kernels, lower)
            nodes[n] = KernelNode(
                n,
                _recursion_evaluator(n, plant, lower, degree),
                "characteristic-recursion",
                degree=degree,
            )
    return [nodes[n] for n in sorted(nodes)]


def pdae_plant() -> VolterraKernelSeries:
    """The quadratic integral plant: f_2 = 1, all higher kernels zero.

    Its nonlinearity is F[u](x) = (int_0^x u)^2 / 2; growth constants
    (D, rho) = (1, 1).
    """
    f2 = SimplexPolyKernel(2, {(0, (0, 0)): 1})
    return VolterraKernelSeries({2: f2}, growth=(1.0, 1.0))


def is_pdae_plant(plant: VolterraKernelSeries) -> bool:
    """Recognise the quadratic integral plant by its monomials."""
    if plant.orders != (2,):
        return False
    mono = getattr(plant.kernels[2], "monomials", None)
    return mono == {(0, (0, 0)): 1}


def pdae_closed_forms() -> Dict[int, SimplexPolyKernel]:
    """Known closed-form kernels for the quadratic integral plant."""
    return {2: pdae_k2(), 3: pdae_k3()}
