"""Incompressible Navier-Stokes on the 2-torus, pseudo-spectral in space.

    dv/dt + (v . grad) v = nu Delta v - grad p,   div v = 0

The velocity marches in spectral space with an integrating-factor RK4 (the
viscous semigroup exp(-nu |k|^2 dt) applied exactly, classical RK4 on the
transformed nonlinearity). The advection product is formed on the grid and
dealiased by the 2/3 rule before Leray projection; pressure is recovered
diagnostically from -Delta p = div((v . grad) v) in the mean-zero gauge.
The march (ns_solve, ns_step, ns_rhs) runs on the band layout of the
fields module, the (2K+1) x (K+1) half-plane modes the 2/3 rule keeps,
with transforms by matmul against cached DFT matrices; a solve advects
each node once and shares that product between the CFL check, the stored
tendency and pressure, and the first RK4 stage. Fields with modes beyond
the band are refused rather than truncated. Stored trajectories keep the
full layout, written a block of nodes at a time, with velocity, pressure,
and the projected right-hand side at every node so that time interpolation
is cubic Hermite with exact nodal derivatives, never finite differences.
The momentum residual recomputes advection with the half-layout pocketfft
kernel, so it checks the march independently.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .fields import (
    TWO_PI,
    PointEvaluator,
    SpectralField,
    SpectralVectorField,
    TorusGrid,
    _advection_band,
    _advection_half,
    _fft,
    _ifft,
    _leray,
    _pressure,
    _read_checkpoint,
    _row_texts,
    _run,
    _scatter_rows,
    _to_band,
    _to_full,
    _to_half,
    _write_checkpoint,
    enforce_conjugate_symmetry,
    jacobian_matrix,
    load_field_snapshot,
    save_field_snapshot,
)

__all__ = [
    "CFLError",
    "NSConfig",
    "NSTrajectory",
    "ns_rhs",
    "ns_step",
    "ns_solve",
    "ns_residual",
    "energy_balance_defects",
    "taylor_green",
    "taylor_green_pressure",
    "random_divergence_free",
    "DriftField",
    "SampledDrift",
    "SteadyDrift",
    "ShiftedDrift",
    "ForcedDrift",
    "save_trajectory",
    "load_trajectory",
]


class CFLError(RuntimeError):
    """Raised when a step would move fluid further than the CFL budget allows."""


def _step_count(span: float, dt: float, message: str) -> int:
    """Number of dt steps in span; ValueError(message) unless span is an
    integer multiple of dt (to 1e-8 of a step)."""
    steps = span / dt
    if not np.isfinite(steps) or abs(steps - round(steps)) > 1e-8:
        raise ValueError(message)
    return int(round(steps))


def _check_step(nu: float, dt: float) -> None:
    """ValueError unless the viscosity nu is finite and nonnegative and the
    step dt finite and positive."""
    if not (np.isfinite(nu) and nu >= 0):
        raise ValueError(f"viscosity must be finite and nonnegative, got {nu}")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got dt = {dt}")


def _horizon_steps(nu: float, dt: float, t_final: float) -> int:
    """Step count of a run with viscosity nu and step dt to t_final;
    ValueError unless _check_step passes and t_final is positive and an
    integer multiple of dt."""
    _check_step(nu, dt)
    if not t_final > 0:
        raise ValueError(f"t_final must be positive, got t_final = {t_final}")
    return _step_count(t_final, dt,
                       f"t_final = {t_final} is not an integer multiple of dt = {dt}")


def _check_ladder(ladder, name: str) -> list[float]:
    """The ladder as floats; ValueError unless it has at least two entries,
    all positive and strictly decreasing."""
    ladder = [float(x) for x in ladder]
    if len(ladder) < 2:
        raise ValueError(f"{name} needs at least two entries")
    if any(x <= 0 for x in ladder) or any(a <= b for a, b in zip(ladder, ladder[1:])):
        raise ValueError(f"{name} must be strictly decreasing and positive")
    return ladder


@dataclass(frozen=True)
class NSConfig:
    """Solver parameters: viscosity, step size, horizon, CFL budget."""

    nu: float
    dt: float
    t_final: float
    cfl_limit: float = 0.5

    def __post_init__(self):
        _horizon_steps(self.nu, self.dt, self.t_final)
        _check_cfl_limit(self.cfl_limit)

    @property
    def steps(self) -> int:
        return _horizon_steps(self.nu, self.dt, self.t_final)


def _check_cfl_limit(limit: float) -> None:
    """ValueError unless the CFL budget is positive: a zero or NaN budget
    would fail every step's guard."""
    if not limit > 0:  # NaN fails too
        raise ValueError(f"cfl_limit must be positive, got {limit}")


# ---------------------------------------------------------------------------
# right-hand side and single step
# ---------------------------------------------------------------------------

def _ns_input(grid: TorusGrid, c: np.ndarray, what: str) -> np.ndarray:
    """The band layout of full-layout velocity or forcing coefficients c,
    made conjugate-symmetric. ValueError unless c is divergence-free (to
    1e-10 of its largest coefficient) and carries no modes beyond the 2/3
    band (to 1e-12): the band march cannot hold them."""
    scale = max(1.0, float(np.max(np.abs(c))))
    if np.max(np.abs(grid.k1 * c[0] + grid.k2 * c[1])) > 1e-10 * scale:
        raise ValueError(f"{what} is not divergence-free")
    if np.max(np.abs(c[..., ~grid.dealias_mask]), initial=0.0) > 1e-12 * scale:
        raise ValueError(f"{what} carries modes beyond the dealiasing band")
    return _to_band(grid, enforce_conjugate_symmetry(c))


def _projected_band(grid: TorusGrid, adv: np.ndarray, forcing: np.ndarray | None) -> np.ndarray:
    """-P[adv] + f on the band layout, the Leray projection as one product
    with the band's precomputed -(I - k k^T / |k|^2) and a sum."""
    terms = grid.band.minus_leray * adv[..., None, :, :, :]
    out = terms[..., 0, :, :]
    out += terms[..., 1, :, :]
    if forcing is not None:
        out += forcing
    return out


def _node_band(grid: TorusGrid, cb: np.ndarray, nu: float, forcing: np.ndarray | None):
    """One node of the band march: the first RK4 stage -P[(v . grad) v] + f,
    the tendency nu Delta v - P[(v . grad) v] + f, the pressure, and the grid
    values of v for the CFL check."""
    adv, w = _advection_band(grid, cb)
    nonlinear = _projected_band(grid, adv, forcing)
    return nonlinear, nonlinear - nu * grid.band.k_squared * cb, _pressure(grid, adv), w


def _viscous_factors(grid: TorusGrid, nu: float, dt: float):
    """The band-layout factors of an IF-RK4 step: exp(-nu |k|^2 dt/2),
    exp(-nu |k|^2 dt) and their multiples the step combines, complex so
    that no product with the state casts them per call."""
    e_half = np.exp(-nu * grid.band.k_squared * (dt / 2.0))
    e_full = e_half * e_half
    return tuple(f.astype(np.complex128) for f in (e_half, e_full, dt * e_half, 2.0 * e_half))


def _rk4_band(grid: TorusGrid, cb: np.ndarray, k1: np.ndarray, dt: float,
              factors, forcing: np.ndarray | None) -> np.ndarray:
    """One integrating-factor RK4 step of band-layout cb whose first stage
    (the projected nonlinearity plus forcing at cb) is k1."""
    e_half, e_full, dt_e_half, two_e_half = factors

    def stage(c):
        return _projected_band(grid, _advection_band(grid, c)[0], forcing)

    k2 = stage(e_half * (cb + (dt / 2.0) * k1))
    k3 = stage(e_half * cb + (dt / 2.0) * k2)
    k4 = stage(e_full * cb + dt_e_half * k3)
    return e_full * cb + (dt / 6.0) * (e_full * k1 + two_e_half * (k2 + k3) + k4)


def ns_rhs(v: SpectralVectorField, nu: float) -> tuple[SpectralVectorField, SpectralField]:
    """Projected tendency nu Delta v - P[(v . grad) v] and the diagnostic pressure.

    v takes ns_solve's checks: ValueError unless divergence-free and on the 2/3 band.
    """
    g = v.grid
    _, rhs, p, _ = _node_band(g, _ns_input(g, v.coeffs, "velocity"), nu, None)
    return SpectralVectorField(g, _to_full(g, rhs)), SpectralField(g, _to_full(g, p))


def ns_step(v: SpectralVectorField, nu: float, dt: float,
            forcing: np.ndarray | None = None) -> SpectralVectorField:
    """One integrating-factor RK4 step: node 1 of a one-step ns_solve.

    The viscous factor exp(-nu |k|^2 dt) is applied exactly, so a step with
    zero nonlinearity reproduces the heat semigroup to roundoff. A constant
    forcing enters every stage like the nonlinearity. ns_solve's checks
    apply: ValueError unless v and the forcing are divergence-free and on
    the 2/3 band, CFLError past NSConfig's default CFL budget.
    """
    f = None if forcing is None else SpectralVectorField(v.grid, forcing)
    return ns_solve(v, NSConfig(nu=nu, dt=dt, t_final=dt), f).velocity(1)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

# nodes per block of the march's full-layout writes and of the trajectory
# diagnostics, whose blocks run as tasks on the worker pool: bounds their
# temporaries to a few MB per worker whatever the trajectory length (32-node
# blocks on 2 workers raised the bench ns-verify peak RSS 6%, 16 about 3%)
_NODE_CHUNK = 16


def _node_parseval(c: np.ndarray, weight: np.ndarray | None = None) -> np.ndarray:
    """(2 pi)^2 sum_k w_k |c_k|^2 for each node of a (nodes, 2, n, n) stack
    (w = 1 by default). The sums run in einsum over the real and imaginary
    views, so no temporary the size of the stack is made."""
    total = 0.0
    for part in (c.real, c.imag):
        if weight is None:
            total = total + np.einsum("mcij,mcij->m", part, part)
        else:
            total = total + np.einsum("mcij,ij,mcij->m", part, weight, part)
    return TWO_PI**2 * total


@dataclass(eq=False)
class NSTrajectory:
    """Dense record of a solve: velocity, pressure, and tendency at every node."""

    grid: TorusGrid
    nu: float
    times: np.ndarray                  # (M+1,)
    velocity_coeffs: np.ndarray        # (M+1, 2, n, n)
    pressure_coeffs: np.ndarray        # (M+1, n, n)
    rhs_coeffs: np.ndarray             # (M+1, 2, n, n)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    def velocity(self, i: int) -> SpectralVectorField:
        return SpectralVectorField(self.grid, self.velocity_coeffs[i])

    def pressure(self, i: int) -> SpectralField:
        return SpectralField(self.grid, self.pressure_coeffs[i])

    def node_index(self, t: float) -> int:
        """Index of the stored node at time t; t must sit on the grid."""
        i = int(round((t - self.times[0]) / self.dt))
        if i < 0 or i >= len(self.times) or abs(self.times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"time {t} is not a stored node")
        return i

    def energy_series(self) -> np.ndarray:
        return 0.5 * _node_parseval(self.velocity_coeffs)


def ns_solve(v0: SpectralVectorField, config: NSConfig,
             forcing: SpectralVectorField | None = None) -> NSTrajectory:
    """March v0 over [0, t_final] storing every node.

    The initial field must be divergence-free and dealiased; the solve aborts
    with CFLError if dt * max|v| * n / (2 pi) exceeds the configured budget
    at any node. An optional time-independent forcing (divergence-free,
    dealiased) is added to the tendency; the stored per-node tendency then
    includes it, so interpolants built on the trajectory follow the forced
    dynamics. ValueError if v0 or the forcing carries modes beyond the 2/3
    band.
    """
    g = v0.grid
    cb = _ns_input(g, v0.coeffs, "initial velocity")
    fb = None if forcing is None else _ns_input(g, forcing.coeffs, "forcing")

    m = config.steps
    times = np.arange(m + 1) * config.dt
    vel = np.empty((m + 1, 2, g.n, g.n), dtype=np.complex128)
    prs = np.empty((m + 1, g.n, g.n), dtype=np.complex128)
    rhs = np.empty((m + 1, 2, g.n, g.n), dtype=np.complex128)

    # the state lives on the band layout; nodes collect in band buffers of
    # _NODE_CHUNK nodes that are scattered to the full-layout arrays a block
    # at a time, so no band copy of the trajectory exists
    blocks = [np.empty((min(_NODE_CHUNK, m + 1),) + a.shape[1:-2] + cb.shape[-2:],
                       dtype=np.complex128) for a in (vel, prs, rhs)]
    factors = _viscous_factors(g, config.nu, config.dt)
    for i in range(m + 1):
        nonlinear, r, p, w = _node_band(g, cb, config.nu, fb)
        maxv = float(np.max(np.abs(w)))
        cfl = config.dt * maxv * g.n / (2.0 * np.pi)
        if not cfl <= config.cfl_limit:  # NaN trips it too
            raise CFLError(
                f"CFL number {cfl:.3f} exceeds limit {config.cfl_limit} at "
                f"t = {times[i]:.6g} (max|v| = {maxv:.3g}, dt = {config.dt})"
            )
        j = i % _NODE_CHUNK
        for block, node in zip(blocks, (cb, p, r)):
            block[j] = node
        if j == _NODE_CHUNK - 1 or i == m:
            for block, full in zip(blocks, (vel, prs, rhs)):
                _to_full(g, block[:j + 1], out=full[i - j:i + 1])
        if i < m:
            cb = _rk4_band(g, cb, nonlinear, config.dt, factors, fb)
    return NSTrajectory(g, config.nu, times, vel, prs, rhs)


def ns_residual(traj: NSTrajectory) -> float:
    """Sup over stored nodes of || d_t v + (v . grad) v - nu Delta v + grad p ||_L2.

    The time derivative is the stored spectral tendency, never a finite
    difference; advection and the pressure gradient are recomputed from the
    stored fields. Blocks of _NODE_CHUNK nodes run as tasks on the worker
    pool, each writing its block's largest squared norm to its own slot;
    the maximum over the slots is exact, so the result has the same bits for
    any worker count, and a NaN at any node shows.
    """
    starts = range(0, len(traj.times), _NODE_CHUNK)
    worst = np.empty(len(starts))

    def block(k, lo):
        nodes = slice(lo, lo + _NODE_CHUNK)
        res = _momentum_residual(traj.grid, traj.velocity_coeffs[nodes], traj.rhs_coeffs[nodes],
                                 traj.pressure_coeffs[nodes], traj.nu)
        worst[k] = np.max(_node_parseval(res))

    _run([partial(block, k, lo) for k, lo in enumerate(starts)])
    return float(np.sqrt(np.maximum.reduce(worst, initial=0.0)))  # keeps a NaN


def _momentum_residual(grid: TorusGrid, c: np.ndarray, c_dt: np.ndarray, p: np.ndarray,
                       nu: float) -> np.ndarray:
    """d_t v + (v . grad) v - nu Delta v + grad p, spectrally, for velocity
    coefficients c (..., 2, n, n), their time derivative c_dt and the
    pressure p (..., n, n)."""
    adv = _to_full(grid, _advection_half(grid, _to_half(grid, c)))
    gp = np.stack([1j * grid.k1 * p, 1j * grid.k2 * p], axis=-3)
    return c_dt + adv + nu * grid.k_squared * c + gp


def energy_balance_defects(traj: NSTrajectory) -> np.ndarray:
    """Per-step defect of E(t+dt) - E(t) = -nu int |grad v|^2 (trapezoid in t)."""
    g = traj.grid
    energy = traj.energy_series()
    dissipation = _node_parseval(traj.velocity_coeffs, g.k_squared)
    lhs = np.diff(energy)
    rhs = -traj.nu * traj.dt * 0.5 * (dissipation[:-1] + dissipation[1:])
    return np.abs(lhs - rhs)


# ---------------------------------------------------------------------------
# reference fields
# ---------------------------------------------------------------------------

def taylor_green(grid: TorusGrid, t: float = 0.0, nu: float = 0.0,
                 amplitude: float = 1.0) -> SpectralVectorField:
    """Taylor-Green vortex (A sin x1 cos x2, -A cos x1 sin x2) exp(-2 nu t)."""
    a = amplitude * np.exp(-2.0 * nu * t)
    vals = np.stack([
        a * np.sin(grid.x1) * np.cos(grid.x2),
        -a * np.cos(grid.x1) * np.sin(grid.x2),
    ])
    return SpectralVectorField(grid, _fft(vals))


def taylor_green_pressure(grid: TorusGrid, t: float = 0.0, nu: float = 0.0,
                          amplitude: float = 1.0) -> SpectralField:
    """Pressure (A^2/4)(cos 2x1 + cos 2x2) exp(-4 nu t) paired with taylor_green."""
    a2 = amplitude**2 * np.exp(-4.0 * nu * t)
    return SpectralField(grid, _fft(0.25 * a2 * (np.cos(2 * grid.x1) + np.cos(2 * grid.x2))))


def random_divergence_free(grid: TorusGrid, seed: int, kmax: int = 5,
                           amplitude: float = 1.0) -> SpectralVectorField:
    """Mean-zero, band-limited, divergence-free field scaled to max|v| = amplitude."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((2, grid.n, grid.n))
    keep = (np.abs(grid.k1) <= kmax) & (np.abs(grid.k2) <= kmax) & grid.dealias_mask
    c = _fft(raw) * keep
    c[:, 0, 0] = 0.0
    c = _leray(grid, enforce_conjugate_symmetry(c))
    scale = amplitude / max(float(np.max(np.abs(_ifft(c)))), 1e-300)
    return SpectralVectorField(grid, c * scale)


# ---------------------------------------------------------------------------
# drift paths: spectral-in-space, Hermite-in-time velocity fields
# ---------------------------------------------------------------------------

class DriftField:
    """Time-dependent velocity usable both spectrally and along particles.

    Subclasses provide coefficient arrays of v and of its exact time
    derivative at any t. Point evaluation goes through trimmed direct
    summation, with a small per-time cache because flow stepping hits each
    node time many times (all replicas share the field).
    """

    grid: TorusGrid

    def __init__(self, grid: TorusGrid):
        self.grid = grid
        self._cache: dict[tuple[float, bool], PointEvaluator] = {}

    def coeffs_at(self, t: float) -> np.ndarray:
        raise NotImplementedError

    def velocity_dt_coeffs_at(self, t: float) -> np.ndarray:
        raise NotImplementedError

    def _evaluator(self, t: float, with_gradient: bool) -> PointEvaluator:
        """The evaluator of rows v1, v2 at time t, followed, with the
        gradient, by d1 v1, d2 v1, d1 v2, d2 v2."""
        ev = self._cache.get((t, with_gradient))
        if ev is None:
            g = self.grid
            c = self.coeffs_at(t)
            if with_gradient:
                grad = jacobian_matrix(SpectralVectorField(g, c))
                c = np.concatenate([c, grad.reshape(4, g.n, g.n)])
            ev = PointEvaluator(g, c)
            if len(self._cache) > 8:  # drop the oldest: a node's blocks share its entry
                del self._cache[next(iter(self._cache))]
            self._cache[(t, with_gradient)] = ev
        return ev

    def velocity(self, t: float, points) -> np.ndarray:
        """v(t, .) at arbitrary points, given raw or as a PhaseTable of the
        points; returns points.shape[:-1] + (2,)."""
        vals = self._evaluator(t, False)(points)
        return np.moveaxis(vals, 0, -1)

    def velocity_and_gradient(self, t: float, points):
        """v and grad v at arbitrary points, given raw or as a PhaseTable:
        shapes (..., 2) and (..., 2, 2)."""
        vals = self._evaluator(t, True)(points)
        v = np.moveaxis(vals[:2], 0, -1)
        h = np.moveaxis(vals[2:].reshape((2, 2) + vals.shape[1:]), (0, 1), (-2, -1))
        return v, h


class SampledDrift(DriftField):
    """Drift read off a stored trajectory, cubic Hermite between nodes.

    Nodal values and nodal derivatives (the stored tendencies) are matched
    exactly, so sampling at a stored time returns the stored field.
    """

    def __init__(self, traj: NSTrajectory):
        super().__init__(traj.grid)
        self.traj = traj

    def _bracket(self, t: float):
        traj = self.traj
        dt = traj.dt
        i = int(round((t - traj.times[0]) / dt))
        if 0 <= i < len(traj.times) and abs(traj.times[i] - t) <= 1e-9 * max(1.0, abs(t)):
            return i, None
        if t < traj.times[0] - 1e-9 or t > traj.times[-1] + 1e-9:
            raise ValueError(f"time {t} outside stored range [0, {traj.times[-1]}]")
        i = min(int((t - traj.times[0]) / dt), len(traj.times) - 2)
        s = (t - traj.times[i]) / dt
        return i, s

    def _hermite(self, t: float, derivative: bool):
        """Bracket node i and the weights of v_i, v_i+1, r_i, r_i+1 (velocity
        and tendency) in the cubic Hermite interpolant at t (its r weights
        take a further factor dt) or in its time derivative; None at a node."""
        i, s = self._bracket(t)
        if s is None:
            return i, None
        if derivative:
            dt = self.traj.dt
            return i, ((6 * s**2 - 6 * s) / dt, (-6 * s**2 + 6 * s) / dt,
                       3 * s**2 - 4 * s + 1, 3 * s**2 - 2 * s)
        return i, (2 * s**3 - 3 * s**2 + 1, -2 * s**3 + 3 * s**2,
                   s**3 - 2 * s**2 + s, s**3 - s**2)

    def coeffs_at(self, t: float) -> np.ndarray:
        i, w = self._hermite(t, False)
        v, r = self.traj.velocity_coeffs, self.traj.rhs_coeffs
        return v[i] if w is None else (w[0] * v[i] + w[1] * v[i + 1]
                                       + self.traj.dt * (w[2] * r[i] + w[3] * r[i + 1]))

    def velocity_dt_coeffs_at(self, t: float) -> np.ndarray:
        i, w = self._hermite(t, True)
        v, r = self.traj.velocity_coeffs, self.traj.rhs_coeffs
        return r[i] if w is None else w[0] * v[i] + w[1] * v[i + 1] + w[2] * r[i] + w[3] * r[i + 1]


class SteadyDrift(DriftField):
    """Time-independent velocity field."""

    def __init__(self, v: SpectralVectorField):
        super().__init__(v.grid)
        self._c = v.coeffs

    def coeffs_at(self, t: float) -> np.ndarray:
        return self._c

    def velocity_dt_coeffs_at(self, t: float) -> np.ndarray:
        return np.zeros_like(self._c)


class ShiftedDrift(DriftField):
    """Base drift plus a static offset field (not a solution in general)."""

    def __init__(self, base: DriftField, offset: SpectralVectorField):
        if base.grid != offset.grid:
            raise ValueError("offset lives on a different grid")
        super().__init__(base.grid)
        self.base = base
        self._off = offset.coeffs

    def coeffs_at(self, t: float) -> np.ndarray:
        return self.base.coeffs_at(t) + self._off

    def velocity_dt_coeffs_at(self, t: float) -> np.ndarray:
        return self.base.velocity_dt_coeffs_at(t)


class ForcedDrift(DriftField):
    """Base drift plus t * F for a static field F, so d_t v gains the term F."""

    def __init__(self, base: DriftField, force: SpectralVectorField):
        if base.grid != force.grid:
            raise ValueError("force lives on a different grid")
        super().__init__(base.grid)
        self.base = base
        self._f = force.coeffs

    def coeffs_at(self, t: float) -> np.ndarray:
        return self.base.coeffs_at(t) + t * self._f

    def velocity_dt_coeffs_at(self, t: float) -> np.ndarray:
        return self.base.velocity_dt_coeffs_at(t) + self._f


# ---------------------------------------------------------------------------
# trajectory checkpoints: snapshot sequence plus a plain-text index
# ---------------------------------------------------------------------------

def save_trajectory(traj: NSTrajectory, directory, stride: int = 1) -> None:
    """Write every stride-th node as field snapshots plus an index file."""
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    os.makedirs(directory, exist_ok=True)
    # keeps the last node even off the stride: uneven spacing, a known limitation
    idx = np.union1d(np.arange(0, len(traj.times), stride), [len(traj.times) - 1])
    _write_checkpoint(os.path.join(directory, "index.txt"), "trajectory checkpoint index",
                      {"n": traj.grid.n, "nu": f"{traj.nu:.17g}", "dt": f"{traj.dt:.17g}"},
                      [("row: slot time", _row_texts(
                          "%d %.17g", np.column_stack([np.arange(len(idx)), traj.times[idx]])))])
    for slot, i in enumerate(idx):
        for kind, snap in (("velocity", traj.velocity(i)), ("pressure", traj.pressure(i)),
                           ("tendency", SpectralVectorField(traj.grid, traj.rhs_coeffs[i]))):
            save_field_snapshot(snap, os.path.join(directory, f"{kind}_{slot:05d}.txt"))


def load_trajectory(directory) -> NSTrajectory:
    """Read a checkpoint written by save_trajectory."""
    path = os.path.join(directory, "index.txt")
    header, table = _read_checkpoint(path, ("n", "nu"))
    if not len(table):
        raise ValueError(f"checkpoint index {path} lists no nodes")
    times = _scatter_rows(path, table, [(0, len(table))], 1)[:, 0]
    n = int(header["n"])
    stacks = []
    for kind, shape in (("velocity", (2, n, n)), ("pressure", (n, n)),
                        ("tendency", (2, n, n))):
        stack = np.empty((len(times),) + shape, dtype=complex)
        for slot in range(len(times)):
            snap = os.path.join(directory, f"{kind}_{slot:05d}.txt")
            coeffs = load_field_snapshot(snap).coeffs
            if coeffs.shape != shape:
                raise ValueError(f"checkpoint snapshot {snap} holds coefficients of shape "
                                 f"{coeffs.shape}; a {kind} snapshot of the index's n = {n} "
                                 f"has {shape}")
            stack[slot] = coeffs
        stacks.append(stack)
    return NSTrajectory(TorusGrid(n), float(header["nu"]), times, *stacks)
