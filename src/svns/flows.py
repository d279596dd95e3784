"""Stochastic Lagrangian flows  dg_t(x) = v(t, g_t(x)) dt + sqrt(2 nu) dW_t.

Each replica carries one d-dimensional Brownian path shared by every initial
point, so the noise is spatially uniform and the flow Jacobian obeys the
noise-free linearization  d(grad g) = grad v(t, g_t) grad g dt.  Positions
march with a Heun predictor-corrector on the drift (noise added exactly) and
the Jacobian update uses the drift gradient at exactly the position-stage
points, which makes the stored Jacobian the exact derivative of the discrete
map. Positions are kept unwrapped; field evaluation is 2 pi periodic anyway.

Brownian increments come from a counter-based generator: increment
(seed, stream, step, branch, replica, component) is a pure function of its
key, so ensembles are bit-reproducible regardless of execution order, batch
shape, or thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import (TWO_PI, PhaseTable, PointEvaluator, SpectralField, TorusGrid,
                     _read_checkpoint, _row_texts, _scatter_rows, _write_checkpoint,
                     mean_value)
from .solver import DriftField, _check_step, _horizon_steps

__all__ = [
    "BrownianDriver",
    "FlowEnsemble",
    "make_flow_ensemble",
    "flow_step",
    "jacobian_step",
    "run_flow",
    "FlowObserver",
    "simpson_weights",
    "trapezoid_weights",
    "det_jacobian",
    "inverse_jacobian_divergence_check",
    "measure_preservation_defects",
    "BranchEstimate",
    "generalized_derivative",
    "IdentityObservable",
    "DriftVelocityObservable",
    "ConstantObservable",
    "save_ensemble",
    "load_ensemble",
]

# stream labels keep main-path and branch noise on disjoint counters
_STREAM_FLOW = 1
_STREAM_BRANCH = 2


# Cephes ndtri (Moshier, Methods and Programs for Mathematical Functions,
# 1989), the algorithm behind scipy.special.ndtri, with its coefficients and
# evaluation order. Rows are the 9 Horner terms, highest degree first;
# columns are the numerators, then the denominators, of branch 0 (the
# central rational in (y - 1/2)^2) and branches 1 and 2 (the tail rationals
# in z = 1/x, x = sqrt(-2 log y), for x < 8 and x >= 8). Leading zeros pad
# P0 to degree 8 and a leading 1 makes each denominator monic, so one
# Horner loop repeats Cephes' polevl and p1evl operation for operation
# (0 t + c and 1 t + c are exact).
_NDTRI_COEFFS = np.array([
    [[0.0, 0.0, 0.0, 0.0,
      -5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
      1.39312609387279679503E1, -1.23916583867381258016E0],
     [1.0,
      1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
      -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
      1.59056225126211695515E1, -1.18331621121330003142E0]],
    [[4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
      4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
      -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4],
     [1.0,
      1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
      1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
      -3.80806407691578277194E-2, -9.33259480895457427372E-4]],
    [[3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
      1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
      3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9],
     [1.0,
      6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
      2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
      2.89247864745380683936E-6, 6.79019408009981274425E-9]],
]).transpose(2, 1, 0).reshape(9, 6)
_EXP_M2 = 0.13533528323661269189  # e^-2, where the tails take over
_SQRT_2PI = 2.50662827463100050242E0
_U_MAX = float(np.nextafter(1.0, 0.0))  # the top of the driver's uniforms


def _ndtri(y0: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF of float64 values strictly inside (0, 1),
    bit for bit the Cephes ndtri that scipy.special.ndtri runs.

    Every value's numerator and denominator go through one Horner loop with
    its branch's coefficients, over one array holding both. The two tail
    logs call libm through math.log, as Cephes does: numpy's vectorised log
    differs from it in the last bit on a few draws per million.
    """
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    tail = np.flatnonzero(y <= _EXP_M2)
    yc = y - 0.5
    t = yc * yc
    branch = np.zeros(y.shape, np.intp)
    if tail.size:
        x = np.sqrt(-2.0 * np.fromiter(map(math.log, y[tail].tolist()), float, tail.size))
        x0 = x - np.fromiter(map(math.log, x.tolist()), float, tail.size) / x
        t[tail] = 1.0 / x
        branch[tail] = 1
        if x.max() >= 8.0:  # y < e^-32: about 3e-14 of the uniform draws
            branch[tail[x >= 8.0]] = 2
    coef = _NDTRI_COEFFS[:, np.concatenate((branch, branch + 3))]
    tt = np.concatenate((t, t))
    acc = coef[0].copy()
    for k in range(1, 9):
        acc *= tt
        acc += coef[k]
    r = t * acc[:y.size] / acc[y.size:]
    out = (yc + yc * r) * _SQRT_2PI
    if tail.size:
        xt = x0 - r[tail]
        out[tail] = np.where(upper[tail], xt, -xt)
    return out


def _normals_from_raw(raw: np.ndarray) -> np.ndarray:
    """Standard normals of raw uint64 values, as BrownianDriver describes.
    Without the clamp, k = 2^53 - 1 would give the uniform 1.0 and +inf."""
    return _ndtri(np.minimum(((raw >> np.uint64(11)) + 0.5) * 2.0**-53, _U_MAX))


class BrownianDriver:
    """Counter-based Gaussian increments keyed on (seed, stream, step, branch).

    Philox provides the raw counter-indexed uint64 stream; one raw value maps
    to one normal through the inverse CDF, so every increment is a pure
    function of its key and replica slot. No generator state is carried
    between calls. The top 53 bits k of a raw value give the uniform
    (k + 1/2) 2^-53, clamped to the largest float64 below 1 (only k = 2^53 - 1
    would round up to 1.0); the inverse CDF is a numpy port of Cephes ndtri,
    bit for bit the normals of scipy.special.ndtri.
    """

    def __init__(self, seed: int, replicas: int, dim: int = 2):
        if replicas < 1:
            raise ValueError(f"need at least one replica, got {replicas}")
        if not 0 <= int(seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")
        self.seed = int(seed)
        self.replicas = int(replicas)
        self.dim = int(dim)

    def unit_normals(self, stream: int, index: int, subindex: int = 0,
                     start: int = 0, count: int | None = None) -> np.ndarray:
        """(count, dim) standard normals of replicas start..start+count (all
        replicas by default) for one counter position.

        Replica r reads raw values r dim.. of the position's stream; Philox
        yields them in blocks of four, so the draw skips whole blocks with
        advance and discards the remainder. A range is therefore bit for bit
        the same rows of the full draw.
        """
        count = self.replicas - start if count is None else count
        if not (0 <= start and 0 <= count and start + count <= self.replicas):
            raise ValueError(f"replicas {start}..{start + count} are outside "
                             f"the driver's [0, {self.replicas})")
        bg = np.random.Philox(key=np.array([self.seed, stream], dtype=np.uint64),
                              counter=np.array([0, 0, subindex, index], dtype=np.uint64))
        skip, first = divmod(start * self.dim, 4)
        bg.advance(skip)
        raw = bg.random_raw(first + count * self.dim)[first:]
        return _normals_from_raw(raw).reshape(count, self.dim)

    def increments(self, step: int, dt: float, start: int = 0,
                   count: int | None = None) -> np.ndarray:
        """Main-path increments, N(0, dt I_d) per replica at the given step,
        for replicas start..start+count (all by default)."""
        return self.unit_normals(_STREAM_FLOW, step, start=start, count=count) * np.sqrt(dt)

    def branch_increments(self, step: int, branch: int, dt: float) -> np.ndarray:
        """Fresh increments for branch continuations, independent of the main path."""
        return self.unit_normals(_STREAM_BRANCH, step, subindex=branch) * np.sqrt(dt)


@dataclass(eq=False)
class FlowEnsemble:
    """State of R replica flows over a common set of initial points.

    positions are unwrapped lifts in R^2, shaped (replicas, points, 2);
    jacobians (replicas, points, 2, 2) or None when tracking is disabled.
    """

    grid: TorusGrid
    initial_points: np.ndarray
    positions: np.ndarray
    jacobians: np.ndarray | None
    t: float
    step_index: int

    @property
    def replicas(self) -> int:
        return self.positions.shape[0]

    @property
    def npoints(self) -> int:
        return self.positions.shape[1]


def make_flow_ensemble(grid: TorusGrid, replicas: int, stride: int = 1,
                       initial_points: np.ndarray | None = None,
                       jacobians: bool = True) -> FlowEnsemble:
    """Fresh ensemble at t = 0: g_0(x) = x, grad g_0 = I.

    Initial points default to the grid lattice subsampled by `stride`
    (a uniform lattice again, so lattice quadrature stays spectral).
    """
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    if initial_points is None:
        if grid.n % stride != 0:
            raise ValueError(f"stride {stride} does not divide grid size {grid.n}")
        pts = grid.points[::stride, ::stride].reshape(-1, 2)
    else:
        pts = np.asarray(initial_points, dtype=np.float64).reshape(-1, 2)
    positions = np.broadcast_to(pts, (replicas,) + pts.shape).copy()
    jac = None
    if jacobians:
        jac = np.broadcast_to(np.eye(2), (replicas, pts.shape[0], 2, 2)).copy()
    return FlowEnsemble(grid, pts.copy(), positions, jac, 0.0, 0)


def jacobian_step(jacobians: np.ndarray, grad_start: np.ndarray,
                  grad_end: np.ndarray, dt: float) -> np.ndarray:
    """Heun update of the flow Jacobian given drift gradients at both stages.

    J_pred = J + dt H1 J;  J+ = J + dt/2 (H1 J + H2 J_pred). With the stage
    gradients taken at the position-stage points this is exactly the
    derivative of the discrete position map, and for traceless H the 2x2
    identity det(I + A) = 1 + tr A + det A cancels the O(dt^2) determinant
    drift.
    """
    h1j = grad_start @ jacobians
    return jacobians + (dt / 2.0) * (h1j + grad_end @ (jacobians + dt * h1j))


def _step_core(ens: FlowEnsemble, drift: DriftField, nu: float, dt: float,
               dw: np.ndarray, v1: np.ndarray, h1: np.ndarray | None) -> FlowEnsemble:
    """Advance one Heun step with Brownian increments dw (replicas, 2),
    reusing the start-stage drift v1 and, when Jacobians are tracked, its
    gradient h1."""
    shift = (np.sqrt(2.0 * nu) * dw)[:, None, :]
    pred = ens.positions + dt * v1 + shift
    t1 = ens.t + dt
    if ens.jacobians is not None:
        v2, h2 = drift.velocity_and_gradient(t1, pred)
        jac = jacobian_step(ens.jacobians, h1, h2, dt)
    else:
        v2 = drift.velocity(t1, pred)
        jac = None
    pos = ens.positions + (dt / 2.0) * (v1 + v2) + shift
    return FlowEnsemble(ens.grid, ens.initial_points, pos, jac, t1, ens.step_index + 1)


def flow_step(ens: FlowEnsemble, drift: DriftField, nu: float, dt: float,
              driver: BrownianDriver) -> FlowEnsemble:
    """One Heun step of positions (and Jacobians when tracked): a one-step run_flow.

    The Brownian increment for (replica, step) comes from the driver's
    counter, so stepping is deterministic in (seed, step_index).
    """
    return run_flow(ens, drift, nu, dt, 1, driver)


class FlowObserver:
    """Per-node hook for run_flow; accumulate is called at every node.

    `weight` carries the time-quadrature weight of the node (zero when the
    caller asked for no quadrature), drift_values/drift_grads the drift and
    its gradient already evaluated at the current positions.

    run_flow calls accumulate once per block of replicas at every node, so
    `ens` and the drift arrays hold that block only, and the observer writes
    its per-replica rows through `block`, the slice of the block's replicas.
    Meanwhile `table` holds the PhaseTable of the positions the drift was
    evaluated at and `dw` their increments for the step out of the node
    (None at the last); `node_table` returns the table, or builds one
    outside run_flow.
    """

    table: PhaseTable | None = None
    block = slice(None)
    dw: np.ndarray | None = None

    def node_table(self, ens: FlowEnsemble) -> PhaseTable:
        return self.table if self.table is not None else PhaseTable(ens.positions)

    def accumulate(self, node: int, t: float, ens: FlowEnsemble,
                   drift_values: np.ndarray, drift_grads: np.ndarray | None,
                   weight: float) -> None:
        raise NotImplementedError


def _lattice_quadrature(vals: np.ndarray) -> np.ndarray:
    """int f(g_t(x)) dx from values over a lattice of initial points on the
    last axis: (2 pi)^2 times the point mean."""
    return TWO_PI**2 * vals.mean(axis=-1)


def _material_rows(rows: np.ndarray, v: np.ndarray, nu: float, a, da) -> np.ndarray:
    """Particle-side L_t f = a' F + a ((v . grad) F + nu Lap F) for f = a(t) F(x).

    rows holds F's derivative stack (rows F, d1 F, d2 F, Lap F per component,
    on the first axis) evaluated at the particles, v the drift there with a
    trailing axis 2; returns one row per component.
    """
    r = rows.reshape((-1, 4) + rows.shape[1:])
    return da * r[:, 0] + a * (v[..., 0] * r[:, 1] + v[..., 1] * r[:, 2] + nu * r[:, 3])


def _replica_stderr(samples: np.ndarray, axis: int = -1) -> np.ndarray:
    """Standard error of the mean along the sample axis (replicas or
    branches): the sample standard deviation over sqrt(count), and zero for
    a single sample, which has no spread to estimate."""
    samples = np.asarray(samples)
    r = samples.shape[axis]
    if r < 2:
        return np.zeros_like(samples.mean(axis=axis))
    return samples.std(axis=axis, ddof=1) / np.sqrt(r)


def simpson_weights(steps: int, dt: float) -> np.ndarray:
    """Composite Simpson weights on steps+1 uniform nodes (steps must be even)."""
    if steps % 2 != 0:
        raise ValueError(f"Simpson weights need an even step count, got {steps}")
    w = np.ones(steps + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * dt / 3.0


def trapezoid_weights(steps: int, dt: float) -> np.ndarray:
    w = np.ones(steps + 1)
    w[0] = w[-1] = 0.5
    return w * dt


def _quadrature_weights(kind: str, steps: int, dt: float) -> np.ndarray:
    if kind == "simpson":
        return simpson_weights(steps, dt)
    if kind == "trapezoid":
        return trapezoid_weights(steps, dt)
    raise ValueError(f"unknown quadrature {kind!r}")


# points per block of whole replicas (at least one) in run_flow: bounds a pass's
# memory whatever the replica count; each replica's bits are the same in any block
_BLOCK_POINTS = 4096


def run_flow(ens: FlowEnsemble, drift: DriftField, nu: float, dt: float,
             steps: int, driver: BrownianDriver,
             observers: tuple[FlowObserver, ...] = (),
             weights: np.ndarray | None = None) -> FlowEnsemble:
    """March `steps` steps, calling observers at every node (including both ends).

    The drift and its gradient are evaluated once per node and shared between
    the observers and the step, so all observers see the same path: common
    random numbers across any functionals accumulated in one pass. With no
    observer the last node has no reader, and its drift is not evaluated.

    Replicas never interact, so each node runs in blocks of whole replicas
    of at most _BLOCK_POINTS points, and every observer is called once per
    block. One PhaseTable of a block's positions serves the drift (when it
    is a DriftField; other drift objects get the raw positions) and every
    observer, through `table`; it is released before the block's step, whose
    predictor stage builds one table of its own.
    """
    _check_step(nu, dt)
    if weights is not None and len(weights) != steps + 1:
        raise ValueError("weights must have steps+1 entries")
    if driver.replicas != ens.replicas:
        raise ValueError("driver and ensemble disagree on the replica count")
    size = max(1, _BLOCK_POINTS // max(1, ens.npoints))
    for i in range(steps + 1):
        if i == steps and not observers:  # nothing reads the last node's drift
            return ens
        w = 0.0 if weights is None else float(weights[i])
        stepped = []
        for s in range(0, ens.replicas, size):
            b = slice(s, min(s + size, ens.replicas))
            part = replace(ens, positions=ens.positions[b],
                           jacobians=None if ens.jacobians is None else ens.jacobians[b])
            table = PhaseTable(part.positions)
            points = table if isinstance(drift, DriftField) else part.positions
            if ens.jacobians is not None:
                v1, h1 = drift.velocity_and_gradient(ens.t, points)
            else:
                v1, h1 = drift.velocity(ens.t, points), None
            dw = (driver.increments(ens.step_index, dt, s, part.replicas) if i < steps
                  else None)
            for obs in observers:
                obs.table, obs.block, obs.dw = table, b, dw
                try:
                    obs.accumulate(i, ens.t, part, v1, h1, w)
                finally:
                    obs.table, obs.block, obs.dw = None, slice(None), None
            del table, points
            if dw is not None:
                stepped.append(_step_core(part, drift, nu, dt, dw, v1, h1))
        if stepped:
            ens = replace(stepped[0], positions=np.concatenate([e.positions for e in stepped]),
                          jacobians=None if ens.jacobians is None
                          else np.concatenate([e.jacobians for e in stepped]))
    return ens


def _observed_pass(drift: DriftField, make_observer, *, nu: float, dt: float, t_final: float,
                   driver: BrownianDriver, ensemble: FlowEnsemble | None = None,
                   stride: int = 1, jacobians: bool = True, quadrature: str | None = None):
    """One observed flow pass over [0, t_final], the pass behind the action,
    its pathwise form, the Euler-Lagrange pairing and the invariance check.

    Checks nu and the horizon by the solver's rule, defaults the ensemble to the drift grid's lattice
    at `stride` with the driver's replica count, requires Jacobian tracking
    when `jacobians` is set, and weights the nodes by the named time
    quadrature (none by default). Runs the flow with the observer
    make_observer(replicas, steps); returns the observer and the final
    ensemble.
    """
    steps = _horizon_steps(nu, dt, t_final)
    if ensemble is None:
        ensemble = make_flow_ensemble(drift.grid, driver.replicas, stride=stride,
                                      jacobians=jacobians)
    if jacobians and ensemble.jacobians is None:
        raise ValueError("this flow pass needs Jacobian tracking")
    weights = None if quadrature is None else _quadrature_weights(quadrature, steps, dt)
    obs = make_observer(ensemble.replicas, steps)
    final = run_flow(ensemble, drift, nu, dt, steps, driver, observers=(obs,), weights=weights)
    return obs, final


# ---------------------------------------------------------------------------
# Jacobian diagnostics
# ---------------------------------------------------------------------------

def det_jacobian(ens: FlowEnsemble) -> np.ndarray:
    """Determinant of the flow Jacobian per (replica, point)."""
    if ens.jacobians is None:
        raise ValueError("ensemble was built without Jacobian tracking")
    j = ens.jacobians
    return j[..., 0, 0] * j[..., 1, 1] - j[..., 0, 1] * j[..., 1, 0]


def inverse_jacobian_divergence_check(ens: FlowEnsemble) -> float:
    """Max over replicas/points of |sum_i d_i (grad g)^-1_ij|, spectral in labels.

    Needs the full initial lattice: the inverse-Jacobian entries are treated
    as periodic fields of the label x and differentiated spectrally on the
    lattice's own grid.
    """
    if ens.jacobians is None:
        raise ValueError("ensemble was built without Jacobian tracking")
    m = int(round(np.sqrt(ens.npoints)))
    if m * m != ens.npoints:
        raise ValueError("initial points do not form a square lattice")
    lattice = TorusGrid(m) if m >= 4 else None
    if lattice is None:
        raise ValueError("lattice too small for spectral differentiation")
    det = det_jacobian(ens)[..., None, None]
    j = ens.jacobians
    inv = np.empty_like(j)
    inv[..., 0, 0] = j[..., 1, 1]
    inv[..., 0, 1] = -j[..., 0, 1]
    inv[..., 1, 0] = -j[..., 1, 0]
    inv[..., 1, 1] = j[..., 0, 0]
    inv = inv / det
    worst = 0.0
    nn = (ens.replicas, m, m)
    for col in range(2):
        f0 = np.fft.fft2(inv[..., 0, col].reshape(nn)) / (m * m)
        f1 = np.fft.fft2(inv[..., 1, col].reshape(nn)) / (m * m)
        dsum = 1j * lattice.k1 * f0 + 1j * lattice.k2 * f1
        vals = np.fft.ifft2(dsum * (m * m)).real
        worst = np.maximum(worst, np.max(np.abs(vals)))  # keeps a NaN
    return float(worst)


def measure_preservation_defects(ens: FlowEnsemble, field: SpectralField) -> np.ndarray:
    """Per-replica |lattice mean of f(g_t(x)) - mean f| for a scalar field."""
    ev = PointEvaluator(field.grid, field.coeffs[None])
    vals = ev(ens.positions)[0]
    return np.abs(vals.mean(axis=1) - mean_value(field))


# ---------------------------------------------------------------------------
# branching estimator of the generalized time derivative
# ---------------------------------------------------------------------------

class IdentityObservable:
    """F(t, x) = x; the difference quotient estimates the drift at the particle."""

    def values(self, t: float, positions: np.ndarray) -> np.ndarray:
        return positions


class DriftVelocityObservable:
    """F(t, x) = v(t, x) for the given drift field."""

    def __init__(self, drift: DriftField):
        self.drift = drift

    def values(self, t: float, positions: np.ndarray) -> np.ndarray:
        return self.drift.velocity(t, positions)


class ConstantObservable:
    def __init__(self, value: float):
        self.value = float(value)

    def values(self, t: float, positions: np.ndarray) -> np.ndarray:
        return np.full(positions.shape[:-1], self.value)


@dataclass(eq=False)
class BranchEstimate:
    """Branch-averaged difference quotient with its Monte Carlo error.

    mean/stderr have the observable's shape; samples keeps the per-branch
    quotients (branch axis first) when requested, for convergence studies.
    """

    mean: np.ndarray
    stderr: np.ndarray
    eps: float
    branches: int
    samples: np.ndarray | None = None


def _check_branching(eps_steps: int, branches: int) -> None:
    """ValueError unless a branching probe spans at least one step and has
    at least two branches for its standard error."""
    if eps_steps < 1:
        raise ValueError(f"eps must span at least one step, got eps_steps = {eps_steps}")
    if branches < 2:
        raise ValueError(f"need at least 2 branches for a standard error, got {branches}")


def generalized_derivative(observable, ens: FlowEnsemble, drift: DriftField,
                           nu: float, dt: float, driver: BrownianDriver,
                           eps_steps: int = 8, branches: int = 16,
                           keep_samples: bool = True) -> BranchEstimate:
    """Estimate D_t F(t, g_t(x)) by branching Monte Carlo.

    From the current positions, `branches` independent continuations run over
    [t, t + eps], eps = eps_steps * dt, each with fresh counter-keyed noise
    conditioned on the present state. The estimate is the branch average of
    (F(t+eps, end) - F(t, now)) / eps; its standard error is the branch
    spread over sqrt(branches), so the statistical error shrinks like
    1/sqrt(branches) at fixed eps, on top of an O(eps) quotient bias.
    """
    _check_step(nu, dt)
    _check_branching(eps_steps, branches)
    eps = eps_steps * dt
    t0 = ens.t
    base = observable.values(t0, ens.positions)
    quot = np.empty((branches,) + base.shape)
    start = replace(ens, jacobians=None)
    for b in range(branches):
        br = start
        for j in range(eps_steps):
            # step j starts at t0 + j dt exactly, not at a sum of dt's
            br = replace(br, t=t0 + j * dt)
            dw = driver.branch_increments(ens.step_index + j, b, dt)
            br = _step_core(br, drift, nu, dt, dw, drift.velocity(br.t, br.positions), None)
        quot[b] = (observable.values(t0 + eps, br.positions) - base) / eps
    mean = quot.mean(axis=0)
    stderr = _replica_stderr(quot, axis=0)
    return BranchEstimate(mean, stderr, eps, branches,
                          samples=quot if keep_samples else None)


# ---------------------------------------------------------------------------
# ensemble checkpoints
# ---------------------------------------------------------------------------

def save_ensemble(ens: FlowEnsemble, path, seed: int = 0) -> None:
    """Text checkpoint: header (t, step, replicas, points, seed), label block,
    then one row per (point, replica) with position and Jacobian entries."""
    header = {"n": ens.grid.n, "t": f"{ens.t:.17g}", "step": ens.step_index,
              "replicas": ens.replicas, "points": ens.npoints, "seed": seed,
              "jacobians": int(ens.jacobians is not None)}
    labels = np.column_stack([np.arange(ens.npoints), ens.initial_points])
    vals = ens.positions if ens.jacobians is None else np.concatenate(
        [ens.positions, ens.jacobians.reshape(ens.replicas, ens.npoints, 4)], axis=2)
    # rows run over points, then replicas
    vals = vals.swapaxes(0, 1).reshape(-1, vals.shape[2])
    p, r = np.indices((ens.npoints, ens.replicas)).reshape(2, -1)
    _write_checkpoint(path, "flow ensemble checkpoint", header, [
        ("label rows: index x1 x2", _row_texts("L %d %.17g %.17g", labels)),
        ("data rows: index replica g1 g2 J00 J01 J10 J11",
         _row_texts("%d %d" + " %.17g" * vals.shape[1], np.column_stack([p, r, vals])))])


def load_ensemble(path) -> tuple[FlowEnsemble, int]:
    """Read a checkpoint written by save_ensemble; returns (ensemble, seed)."""
    keys = ("n", "t", "step", "replicas", "points", "seed", "jacobians")
    header, data, labels = _read_checkpoint(path, keys, "L ")
    meta = {key: float(header[key]) for key in keys}
    nrep, npts = int(meta["replicas"]), int(meta["points"])
    has_jac = bool(int(meta["jacobians"]))
    pts = _scatter_rows(path, labels, [(0, npts)], 2)
    vals = _scatter_rows(path, data, [(0, npts), (0, nrep)], 6 if has_jac else 2).swapaxes(0, 1)
    pos = np.ascontiguousarray(vals[..., :2])
    jac = np.ascontiguousarray(vals[..., 2:]).reshape(nrep, npts, 2, 2) if has_jac else None
    ens = FlowEnsemble(TorusGrid(int(meta["n"])), pts, pos, jac, meta["t"], int(meta["step"]))
    return ens, int(meta["seed"])
