"""Incompressible Navier-Stokes on the 2-torus, pseudo-spectral in space.

    dv/dt + (v . grad) v = nu Delta v - grad p,   div v = 0

The velocity marches in spectral space with an integrating-factor RK4 (the
viscous semigroup exp(-nu |k|^2 dt) applied exactly, classical RK4 on the
transformed nonlinearity). The advection product is formed on the grid and
dealiased by the 2/3 rule before Leray projection; pressure is recovered
diagnostically from -Delta p = div((v . grad) v) in the mean-zero gauge.
Stored trajectories keep velocity, pressure, and the projected right-hand
side at every node so that time interpolation is cubic Hermite with exact
nodal derivatives, never finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import (
    SpectralField,
    SpectralVectorField,
    TorusGrid,
    _fft,
    _ifft,
    _leray_coeffs,
    enforce_conjugate_symmetry,
    leray_project,
    load_field_snapshot,
    parseval_integral,
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
        steps = self.t_final / self.dt
        if abs(steps - round(steps)) > 1e-8:
            raise ValueError(
                f"t_final = {self.t_final} is not an integer multiple of dt = {self.dt}"
            )

    @property
    def steps(self) -> int:
        return int(round(self.t_final / self.dt))


# ---------------------------------------------------------------------------
# right-hand side and single step
# ---------------------------------------------------------------------------

def _advection_coeffs(grid: TorusGrid, c: np.ndarray) -> np.ndarray:
    """Dealiased coefficients of (v . grad) v for dealiased input c (2, n, n)."""
    w = _ifft(c)
    out = np.empty_like(c)
    for i in range(2):
        gi1 = _ifft(1j * grid.k1 * c[i])
        gi2 = _ifft(1j * grid.k2 * c[i])
        out[i] = _fft(w[0] * gi1 + w[1] * gi2)
    return out * grid.dealias_mask


def _nonlinear_coeffs(grid: TorusGrid, c: np.ndarray) -> np.ndarray:
    """-P[(v . grad) v], the projected nonlinear part of the tendency."""
    return -_leray_coeffs(grid, _advection_coeffs(grid, c))


def _pressure_coeffs(grid: TorusGrid, adv: np.ndarray) -> np.ndarray:
    """Solve -Delta p = div((v . grad) v) in the mean-zero gauge."""
    ksq = grid.k_squared.copy()
    ksq[0, 0] = 1.0
    p = 1j * (grid.k1 * adv[0] + grid.k2 * adv[1]) / ksq
    p[0, 0] = 0.0
    return p


def ns_rhs(v: SpectralVectorField, nu: float) -> tuple[SpectralVectorField, SpectralField]:
    """Projected tendency nu Delta v - P[(v . grad) v] and the diagnostic pressure."""
    g = v.grid
    adv = _advection_coeffs(g, v.coeffs)
    rhs = -_leray_coeffs(g, adv) - nu * g.k_squared * v.coeffs
    return SpectralVectorField(g, rhs), SpectralField(g, _pressure_coeffs(g, adv))


def ns_step(v: SpectralVectorField, nu: float, dt: float,
            forcing: np.ndarray | None = None) -> SpectralVectorField:
    """One integrating-factor RK4 step.

    The viscous factor exp(-nu |k|^2 dt) is applied exactly, so a step with
    zero nonlinearity reproduces the heat semigroup to roundoff. A constant
    forcing enters every stage like the nonlinearity.
    """
    g = v.grid
    c = v.coeffs

    def tendency(cc: np.ndarray) -> np.ndarray:
        out = _nonlinear_coeffs(g, cc)
        return out if forcing is None else out + forcing

    e_half = np.exp(-nu * g.k_squared * (dt / 2.0))
    e_full = e_half * e_half
    k1 = tendency(c)
    k2 = tendency(e_half * (c + (dt / 2.0) * k1))
    k3 = tendency(e_half * c + (dt / 2.0) * k2)
    k4 = tendency(e_full * c + dt * e_half * k3)
    out = e_full * c + (dt / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)
    return SpectralVectorField(g, out)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

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
        return 0.5 * np.array([parseval_integral(c) for c in self.velocity_coeffs])


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

    c = enforce_conjugate_symmetry(v0.coeffs * g.dealias_mask)
    for i in range(m + 1):
        v = SpectralVectorField(g, c)
        maxv = float(np.max(np.abs(_ifft(c))))
        cfl = config.dt * maxv * g.n / (2.0 * np.pi)
        if cfl > config.cfl_limit:
            raise CFLError(
                f"CFL number {cfl:.3f} exceeds limit {config.cfl_limit} at "
                f"t = {times[i]:.6g} (max|v| = {maxv:.3g}, dt = {config.dt})"
            )
        r, p = ns_rhs(v, config.nu)
        vel[i] = c
        prs[i] = p.coeffs
        rhs[i] = r.coeffs if fc is None else r.coeffs + fc
        if i < m:
            c = enforce_conjugate_symmetry(ns_step(v, config.nu, config.dt, fc).coeffs)
    return NSTrajectory(g, config.nu, times, vel, prs, rhs)


def ns_residual(traj: NSTrajectory) -> float:
    """Sup over stored nodes of || d_t v + (v . grad) v - nu Delta v + grad p ||_L2.

    The time derivative is the stored spectral tendency, never a finite
    difference; advection and the pressure gradient are recomputed from the
    stored fields.
    """
    g = traj.grid
    worst = 0.0
    for i in range(len(traj.times)):
        c = traj.velocity_coeffs[i]
        adv = _advection_coeffs(g, c)
        gp = np.stack([1j * g.k1 * traj.pressure_coeffs[i], 1j * g.k2 * traj.pressure_coeffs[i]])
        res = traj.rhs_coeffs[i] + adv + traj.nu * g.k_squared * c + gp
        worst = max(worst, float(np.sqrt(parseval_integral(res))))
    return worst


def energy_balance_defects(traj: NSTrajectory) -> np.ndarray:
    """Per-step defect of E(t+dt) - E(t) = -nu int |grad v|^2 (trapezoid in t)."""
    g = traj.grid
    energy = traj.energy_series()
    dissipation = np.array(
        [parseval_integral(np.sqrt(g.k_squared) * c) for c in traj.velocity_coeffs]
    )
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
    c = _leray_coeffs(grid, enforce_conjugate_symmetry(c))
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
    import os

    os.makedirs(directory, exist_ok=True)
    idx = list(range(0, len(traj.times), stride))
    if idx[-1] != len(traj.times) - 1:
        idx.append(len(traj.times) - 1)
    with open(os.path.join(directory, "index.txt"), "w") as fh:
        fh.write("# trajectory checkpoint index\n")
        fh.write(f"# n = {traj.grid.n}\n")
        fh.write(f"# nu = {traj.nu:.17g}\n")
        fh.write(f"# dt = {traj.dt:.17g}\n")
        fh.write("# row: slot time\n")
        for slot, i in enumerate(idx):
            fh.write(f"{slot} {traj.times[i]:.17g}\n")
    g = traj.grid
    for slot, i in enumerate(idx):
        save_field_snapshot(SpectralVectorField(g, traj.velocity_coeffs[i]),
                            os.path.join(directory, f"velocity_{slot:05d}.txt"))
        save_field_snapshot(SpectralField(g, traj.pressure_coeffs[i]),
                            os.path.join(directory, f"pressure_{slot:05d}.txt"))
        save_field_snapshot(SpectralVectorField(g, traj.rhs_coeffs[i]),
                            os.path.join(directory, f"tendency_{slot:05d}.txt"))


def load_trajectory(directory) -> NSTrajectory:
    """Read a checkpoint written by save_trajectory."""
    import os

    nu = None
    rows = []
    with open(os.path.join(directory, "index.txt")) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                if "nu =" in line:
                    nu = float(line.split("=")[1])
                continue
            if line:
                slot, t = line.split()
                rows.append((int(slot), float(t)))
    if nu is None or not rows:
        raise ValueError(f"checkpoint index in {directory} is incomplete")
    rows.sort()
    vel, prs, rhs, times = [], [], [], []
    grid = None
    for slot, t in rows:
        v = load_field_snapshot(os.path.join(directory, f"velocity_{slot:05d}.txt"))
        p = load_field_snapshot(os.path.join(directory, f"pressure_{slot:05d}.txt"))
        r = load_field_snapshot(os.path.join(directory, f"tendency_{slot:05d}.txt"))
        grid = v.grid
        times.append(t)
        vel.append(v.coeffs)
        prs.append(p.coeffs)
        rhs.append(r.coeffs)
    return NSTrajectory(grid, nu, np.array(times), np.array(vel), np.array(prs),
                        np.array(rhs))
