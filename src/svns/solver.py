"""Incompressible Navier-Stokes on the 2-torus, pseudo-spectral in space.

    dv/dt + (v . grad) v = nu Delta v - grad p,   div v = 0

The velocity marches in spectral space with an integrating-factor RK4 (the
viscous semigroup exp(-nu |k|^2 dt) applied exactly, classical RK4 on the
transformed nonlinearity). The advection product is formed on the grid and
dealiased by the 2/3 rule before Leray projection; pressure is recovered
diagnostically from -Delta p = div((v . grad) v) in the mean-zero gauge.
All of this runs on the real-transform half layout of the fields module;
a solve advects each node once and shares that product between the CFL
check, the stored tendency and pressure, and the first RK4 stage.
Stored trajectories keep velocity, pressure, and the projected right-hand
side at every node so that time interpolation is cubic Hermite with exact
nodal derivatives, never finite differences.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .fields import (
    TWO_PI,
    SpectralField,
    SpectralVectorField,
    TorusGrid,
    _advection_half,
    _fft,
    _ifft,
    _leray,
    _pressure,
    _read_checkpoint,
    _scatter_rows,
    _to_full,
    _to_half,
    _values_half,
    _write_checkpoint,
    enforce_conjugate_symmetry,
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
    if abs(steps - round(steps)) > 1e-8:
        raise ValueError(message)
    return int(round(steps))


@dataclass(frozen=True)
class NSConfig:
    """Solver parameters: viscosity, step size, horizon, CFL budget."""

    nu: float
    dt: float
    t_final: float
    cfl_limit: float = 0.5

    def __post_init__(self):
        if self.nu < 0:
            raise ValueError(f"viscosity must be nonnegative, got {self.nu}")
        if self.dt <= 0 or self.t_final <= 0:
            raise ValueError("dt and t_final must be positive")
        _step_count(self.t_final, self.dt,
                    f"t_final = {self.t_final} is not an integer multiple of dt = {self.dt}")

    @property
    def steps(self) -> int:
        return int(round(self.t_final / self.dt))


# ---------------------------------------------------------------------------
# right-hand side and single step
# ---------------------------------------------------------------------------

def _node_half(grid: TorusGrid, ch: np.ndarray, nu: float,
               values: np.ndarray | None = None):
    """The advection-derived parts of one node on the half layout:
    (-P[(v . grad) v], the tendency nu Delta v - P[(v . grad) v], pressure)."""
    adv = _advection_half(grid, ch, values)
    nonlinear = -_leray(grid, adv)
    return nonlinear, nonlinear - nu * grid.half.k_squared * ch, _pressure(grid, adv)


def _viscous_factors(grid: TorusGrid, nu: float, dt: float):
    """exp(-nu |k|^2 dt/2) and exp(-nu |k|^2 dt) on the half layout."""
    e_half = np.exp(-nu * grid.half.k_squared * (dt / 2.0))
    return e_half, e_half * e_half


def _stage(grid: TorusGrid, ch: np.ndarray, forcing: np.ndarray | None) -> np.ndarray:
    """An RK4 stage: -P[(v . grad) v] plus the forcing, half layout."""
    out = -_leray(grid, _advection_half(grid, ch))
    return out if forcing is None else out + forcing


def _rk4_half(grid: TorusGrid, ch: np.ndarray, k1: np.ndarray, dt: float,
              factors, forcing: np.ndarray | None) -> np.ndarray:
    """One integrating-factor RK4 step of half-layout ch whose first stage
    (the projected nonlinearity plus forcing at ch) is k1."""
    e_half, e_full = factors
    k2 = _stage(grid, e_half * (ch + (dt / 2.0) * k1), forcing)
    k3 = _stage(grid, e_half * ch + (dt / 2.0) * k2, forcing)
    k4 = _stage(grid, e_full * ch + dt * e_half * k3, forcing)
    return e_full * ch + (dt / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)


def ns_rhs(v: SpectralVectorField, nu: float) -> tuple[SpectralVectorField, SpectralField]:
    """Projected tendency nu Delta v - P[(v . grad) v] and the diagnostic pressure."""
    g = v.grid
    _, rhs, p = _node_half(g, _to_half(g, v.coeffs), nu)
    return SpectralVectorField(g, _to_full(g, rhs)), SpectralField(g, _to_full(g, p))


def ns_step(v: SpectralVectorField, nu: float, dt: float,
            forcing: np.ndarray | None = None) -> SpectralVectorField:
    """One integrating-factor RK4 step.

    The viscous factor exp(-nu |k|^2 dt) is applied exactly, so a step with
    zero nonlinearity reproduces the heat semigroup to roundoff. A constant
    forcing enters every stage like the nonlinearity.
    """
    g = v.grid
    ch = _to_half(g, v.coeffs)
    fh = None if forcing is None else _to_half(g, forcing)
    out = _rk4_half(g, ch, _stage(g, ch, fh), dt, _viscous_factors(g, nu, dt), fh)
    return SpectralVectorField(g, _to_full(g, out))


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

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
    dynamics.
    """
    g = v0.grid
    scale = max(1.0, float(np.max(np.abs(v0.coeffs))))
    div0 = np.max(np.abs(g.k1 * v0.coeffs[0] + g.k2 * v0.coeffs[1]))
    if div0 > 1e-10 * scale:
        raise ValueError("initial velocity is not divergence-free")
    if np.max(np.abs(v0.coeffs[:, ~g.dealias_mask]), initial=0.0) > 1e-12 * scale:
        raise ValueError("initial velocity carries modes beyond the dealiasing band")
    fc = None
    if forcing is not None:
        fc = enforce_conjugate_symmetry(forcing.coeffs * g.dealias_mask)
        fscale = max(1.0, float(np.max(np.abs(fc))))
        if np.max(np.abs(g.k1 * fc[0] + g.k2 * fc[1])) > 1e-10 * fscale:
            raise ValueError("forcing is not divergence-free")

    m = config.steps
    times = np.arange(m + 1) * config.dt
    vel = np.empty((m + 1, 2, g.n, g.n), dtype=np.complex128)
    prs = np.empty((m + 1, g.n, g.n), dtype=np.complex128)
    rhs = np.empty((m + 1, 2, g.n, g.n), dtype=np.complex128)

    # the state lives on the half layout; each node is written straight into
    # the full-layout arrays, so no half-layout copy of the trajectory exists
    ch = _to_half(g, enforce_conjugate_symmetry(v0.coeffs * g.dealias_mask))
    fh = None if fc is None else _to_half(g, fc)
    factors = _viscous_factors(g, config.nu, config.dt)
    for i in range(m + 1):
        w = _values_half(g, ch)
        maxv = float(np.max(np.abs(w)))
        cfl = config.dt * maxv * g.n / (2.0 * np.pi)
        if cfl > config.cfl_limit:
            raise CFLError(
                f"CFL number {cfl:.3f} exceeds limit {config.cfl_limit} at "
                f"t = {times[i]:.6g} (max|v| = {maxv:.3g}, dt = {config.dt})"
            )
        nonlinear, r, p = _node_half(g, ch, config.nu, w)
        if fh is not None:
            nonlinear = nonlinear + fh
            r = r + fh
        _to_full(g, ch, out=vel[i])
        _to_full(g, p, out=prs[i])
        _to_full(g, r, out=rhs[i])
        if i < m:
            ch = _rk4_half(g, ch, nonlinear, config.dt, factors, fh)
    return NSTrajectory(g, config.nu, times, vel, prs, rhs)


# nodes per batch of the trajectory diagnostics: bounds their temporaries
# to a few MB whatever the trajectory length
_NODE_CHUNK = 32


def ns_residual(traj: NSTrajectory) -> float:
    """Sup over stored nodes of || d_t v + (v . grad) v - nu Delta v + grad p ||_L2.

    The time derivative is the stored spectral tendency, never a finite
    difference; advection and the pressure gradient are recomputed from the
    stored fields.
    """
    g = traj.grid
    worst = 0.0
    for lo in range(0, len(traj.times), _NODE_CHUNK):
        nodes = slice(lo, lo + _NODE_CHUNK)
        c = traj.velocity_coeffs[nodes]
        adv = _to_full(g, _advection_half(g, _to_half(g, c)))
        p = traj.pressure_coeffs[nodes]
        gp = np.stack([1j * g.k1 * p, 1j * g.k2 * p], axis=1)
        res = traj.rhs_coeffs[nodes] + adv + traj.nu * g.k_squared * c + gp
        worst = max(worst, float(np.max(_node_parseval(res))))
    return float(np.sqrt(worst))


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
    summation, with small per-time caches because flow stepping hits each
    node time many times (all replicas share the field).
    """

    grid: TorusGrid

    def __init__(self, grid: TorusGrid):
        self.grid = grid
        self._vg_cache: dict[float, "PointEvaluatorPair"] = {}
        self._v_cache: dict[float, object] = {}

    def coeffs_at(self, t: float) -> np.ndarray:
        raise NotImplementedError

    def velocity_dt_coeffs_at(self, t: float) -> np.ndarray:
        raise NotImplementedError

    def _stack_vg(self, t: float):
        from .fields import PointEvaluator

        ev = self._vg_cache.get(t)
        if ev is None:
            c = self.coeffs_at(t)
            g = self.grid
            stack = np.stack([
                c[0], c[1],
                1j * g.k1 * c[0], 1j * g.k2 * c[0],
                1j * g.k1 * c[1], 1j * g.k2 * c[1],
            ])
            ev = PointEvaluator(g, stack)
            if len(self._vg_cache) > 8:
                self._vg_cache.clear()
            self._vg_cache[t] = ev
        return ev

    def _stack_v(self, t: float):
        from .fields import PointEvaluator

        ev = self._v_cache.get(t)
        if ev is None:
            ev = PointEvaluator(self.grid, self.coeffs_at(t))
            if len(self._v_cache) > 8:
                self._v_cache.clear()
            self._v_cache[t] = ev
        return ev

    def velocity(self, t: float, points) -> np.ndarray:
        """v(t, .) at arbitrary points, given raw or as a PhaseTable of the
        points; returns points.shape[:-1] + (2,)."""
        vals = self._stack_v(t)(points)
        return np.moveaxis(vals, 0, -1)

    def velocity_and_gradient(self, t: float, points):
        """v and grad v at arbitrary points, given raw or as a PhaseTable:
        shapes (..., 2) and (..., 2, 2)."""
        vals = self._stack_vg(t)(points)
        v = np.moveaxis(vals[:2], 0, -1)
        h = np.moveaxis(vals[2:].reshape((2, 2) + vals.shape[1:]), (0, 1), (-2, -1))
        return v, h

    def spectral_velocity(self, t: float) -> SpectralVectorField:
        return SpectralVectorField(self.grid, self.coeffs_at(t))


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

    def coeffs_at(self, t: float) -> np.ndarray:
        i, s = self._bracket(t)
        if s is None:
            return self.traj.velocity_coeffs[i]
        dt = self.traj.dt
        h00 = 2 * s**3 - 3 * s**2 + 1
        h10 = s**3 - 2 * s**2 + s
        h01 = -2 * s**3 + 3 * s**2
        h11 = s**3 - s**2
        tr = self.traj
        return (h00 * tr.velocity_coeffs[i] + h01 * tr.velocity_coeffs[i + 1]
                + dt * (h10 * tr.rhs_coeffs[i] + h11 * tr.rhs_coeffs[i + 1]))

    def velocity_dt_coeffs_at(self, t: float) -> np.ndarray:
        i, s = self._bracket(t)
        if s is None:
            return self.traj.rhs_coeffs[i]
        dt = self.traj.dt
        d00 = (6 * s**2 - 6 * s) / dt
        d10 = 3 * s**2 - 4 * s + 1
        d01 = (-6 * s**2 + 6 * s) / dt
        d11 = 3 * s**2 - 2 * s
        tr = self.traj
        return (d00 * tr.velocity_coeffs[i] + d01 * tr.velocity_coeffs[i + 1]
                + d10 * tr.rhs_coeffs[i] + d11 * tr.rhs_coeffs[i + 1])

    def pressure_coeffs_at(self, t: float) -> np.ndarray:
        """Pressure is stored at nodes only; t must sit on the node grid."""
        return self.traj.pressure_coeffs[self.traj.node_index(t)]


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
                      [("row: slot time", "%d %.17g",
                        np.column_stack([np.arange(len(idx)), traj.times[idx]]))])
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
