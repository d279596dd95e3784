"""Transport-noise stochastic velocity dynamics and the pathwise action.

The stochastic perturbation of the particle paths lifts to the velocity
field itself: v is advected by the same spatially uniform Brownian motion
that drives the paths. Per replica, with one 2-dimensional W,

    Ito:           dv = [nu Lap v - P(v.grad)v] dt + sqrt(2 nu) (dW . grad) v
    Stratonovich:  dv = -P(v.grad)v dt + sqrt(2 nu) (o dW . grad) v

(P the divergence-free projection; pressure is diagnostic). The two forms
are the same equation: applying the transport operator twice gives the
Laplacian, so the Ito-Stratonovich correction of sqrt(2 nu)(dW.grad)v is
exactly nu Lap v and no explicit viscous term appears in Stratonovich
form - viscosity is the average shadow of the noise.

Spatially uniform noise makes an exact oracle available: for steady Euler
data u (P(u.grad)u = 0) the Stratonovich equation transports u rigidly,

    v(t, x) = u(x + sqrt(2 nu) W_t),    v_hat_k(t) = u_hat_k e^{i sqrt(2 nu) k . W_t},

pathwise. Averaging the random phase over replicas yields heat decay of
the ensemble mean, E v_hat_k(t) = u_hat_k e^{-nu |k|^2 t}: the viscous
equation re-emerges in the mean without any viscous term in the dynamics.

Both integrators keep the per-mode noise action diagonal (the transport
phase i sqrt(2 nu)(k . dW) multiplies each coefficient), so the noise adds
no aliasing and commutes with the curl. The steps therefore march the
scalar vorticity omega = d1 v2 - d2 v1, whose dealiased advection
(v . grad) omega is the curl of the velocity form's projected advection,
and rebuild the velocity from omega by Biot-Savart, divergence-free by
construction and with its mean mode carried unchanged; the velocity form's
projections drop out. Every ensemble is marched in replica blocks of a
fixed byte budget through one march shared by spde_solve and
strong_error. All randomness flows through the counter-based driver,
making every result a pure function of (seed, replica count,
parameters), whatever the block or chunk size.

The pathwise action functional of a flow run whose martingale part is the
scaled Brownian motion sqrt(2 nu) W is also evaluated here. Its pass is the
action pass of svns.action with no variation directions plus two
left-endpoint Ito sums: drift paired against dM, and sqrt(2 nu) times drift
paired against dW. The two sums cancel identically for such runs, which is
verified numerically, and the remainder is the action pass's own
per-replica kinetic-plus-constraint integrand.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .action import _action_pass, _ActionObserver
from .fields import (
    TWO_PI,
    SpectralVectorField,
    TorusGrid,
    _advection_half,
    _biot_savart,
    _leray,
    _pressure,
    _to_full,
    _to_half,
    _values_half,
    parseval_integral,
)
from .flows import BrownianDriver, _lattice_quadrature, _replica_stderr
from .solver import CFLError, DriftField, _step_count

__all__ = [
    "SPDEConfig",
    "SPDEState",
    "make_spde_state",
    "spde_step_ito",
    "spde_step_stratonovich",
    "spde_solve",
    "diagnostic_pressure",
    "shift_oracle",
    "StrongErrorRow",
    "StrongErrorReport",
    "strong_error",
    "ModeStat",
    "ensemble_mode_means",
    "SemimartingaleFlowRun",
    "run_semimartingale_flow",
    "TildeActionValue",
    "tilde_action_evaluate",
]

_SCHEMES = ("ito", "stratonovich-heun")
# bytes of velocity grid values per replica block of the march: small
# enough to stay in cache, large enough to amortise the per-call overhead
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class SPDEConfig:
    """Integration parameters for the transport-noise velocity equation.

    The CFL budget counts drift plus noise displacement per step against
    the grid spacing. Its default is looser than the deterministic
    solver's 0.5: the noise term is applied as an exact per-mode phase,
    so the guard protects only the accuracy of the advection products,
    and the maximal Gaussian increment over ~10^6 draws would trip a 0.5
    budget spuriously at desk-scale step sizes.
    """

    grid: TorusGrid
    nu: float
    dt: float
    t_final: float
    replicas: int
    scheme: str = "stratonovich-heun"
    cfl_limit: float = 1.0

    def __post_init__(self):
        if self.nu < 0:
            raise ValueError(f"viscosity must be nonnegative, got {self.nu}")
        if self.dt <= 0 or self.t_final <= 0:
            raise ValueError("dt and t_final must be positive")
        _step_count(self.t_final, self.dt,
                    f"t_final = {self.t_final} is not an integer multiple of dt = {self.dt}")
        if self.replicas < 1:
            raise ValueError(f"need at least one replica, got {self.replicas}")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {_SCHEMES}")

    @property
    def steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass(eq=False)
class SPDEState:
    """Per-replica spectral velocity plus its accumulated driving noise.

    coeffs is (replicas, 2, n, n); brownian is the running sum of the raw
    driver increments, so it is reproducible from the driver alone.
    """

    grid: TorusGrid
    coeffs: np.ndarray
    t: float
    step_index: int
    brownian: np.ndarray

    @property
    def replicas(self) -> int:
        return self.coeffs.shape[0]

    def field(self, replica: int) -> SpectralVectorField:
        return SpectralVectorField(self.grid, self.coeffs[replica])


def _transport_phase(modes, nu: float, dw: np.ndarray) -> np.ndarray:
    """sqrt(2 nu) (k . dW) per mode of a TorusGrid or of its half layout,
    for increments dw of shape (..., 2)."""
    return np.sqrt(2.0 * nu) * (dw[..., 0, None, None] * modes.k1
                                + dw[..., 1, None, None] * modes.k2)


def _initial_half(v0: SpectralVectorField, replicas: int) -> np.ndarray:
    """Half-layout coefficients of v0, projected and dealiased, broadcast
    read-only to (replicas, 2, n, h)."""
    g = v0.grid
    c = _to_half(g, _leray(g, v0.coeffs * g.dealias_mask))
    return np.broadcast_to(c, (replicas,) + c.shape)


def make_spde_state(v0: SpectralVectorField, replicas: int) -> SPDEState:
    """All replicas started from v0 (projected and dealiased) at t = 0."""
    if replicas < 1:
        raise ValueError(f"need at least one replica, got {replicas}")
    g = v0.grid
    c = _leray(g, v0.coeffs * g.dealias_mask)
    coeffs = np.broadcast_to(c, (replicas,) + c.shape).copy()
    return SPDEState(g, coeffs, 0.0, 0, np.zeros((replicas, 2)))


def _check_compat(grid: TorusGrid, replicas: int, config: SPDEConfig,
                  driver: BrownianDriver) -> None:
    if grid != config.grid:
        raise ValueError("state lives on a different grid than the config")
    if replicas != config.replicas:
        raise ValueError("state and config disagree on the replica count")
    if driver.replicas != replicas:
        raise ValueError("driver and state disagree on the replica count")


def _advance_half(grid: TorusGrid, config: SPDEConfig, c: np.ndarray,
                  dw: np.ndarray, stratonovich: bool) -> np.ndarray:
    """One step on half-layout velocity coefficients c of shape
    (replicas, 2, n, h), marched on the vorticity omega = d1 v2 - d2 v1.

    The uniform noise phase commutes with the curl, and under the 2/3 rule
    the curl of the projected advection is the dealiased (v . grad) omega,
    so the update is the velocity equation's with one scalar advected in
    place of two components and no projection. The velocity returned is
    the Biot-Savart velocity of the new vorticity, divergence-free by
    construction, with the mean mode carried over: advection, viscosity
    and the phase all leave it fixed.
    """
    hg = grid.half
    dt = config.dt
    nu = config.nu
    w = _values_half(grid, c)
    displacement = dt * float(np.max(np.abs(w))) + np.sqrt(2.0 * nu) * float(
        np.max(np.abs(dw)))
    budget = config.cfl_limit * (2.0 * np.pi / hg.n)
    if displacement > budget:
        raise CFLError(
            f"step displacement {displacement:.3g} exceeds the CFL budget "
            f"{budget:.3g} (limit {config.cfl_limit} cells)")
    mean = c[..., 0, 0]
    theta = _transport_phase(hg, nu, dw)
    om = hg.ik1 * c[..., 1, :, :] - hg.ik2 * c[..., 0, :, :]
    a0 = _advection_half(grid, None, w, om[..., None, :, :])[..., 0, :, :]
    if stratonovich:
        n0 = 1j * theta * om
        pred = om - dt * a0 + n0
        vp = _biot_savart(grid, pred)
        vp[..., 0, 0] = mean
        a1 = _advection_half(grid, vp, None, pred[..., None, :, :])[..., 0, :, :]
        onew = om - 0.5 * dt * (a0 + a1) + 0.5 * (n0 + 1j * theta * pred)
    else:
        onew = om - dt * (a0 + nu * hg.k_squared * om) + 1j * theta * om
    out = _biot_savart(grid, onew * hg.dealias_mask)
    out[..., 0, 0] = mean
    return out


def _block_replicas(grid: TorusGrid) -> int:
    """Replicas per block of the march: a block's velocity grid values
    (2 n^2 float64 per replica) fill _BLOCK_BYTES, 64 replicas at 32^2."""
    return max(1, _BLOCK_BYTES // (16 * grid.n * grid.n))


def _march(grid: TorusGrid, config: SPDEConfig, c: np.ndarray,
           increments: np.ndarray, stratonovich: bool) -> np.ndarray:
    """Advance half-layout coefficients c (replicas, 2, n, h) through one
    step per row of increments (steps, replicas, 2), one replica block at a
    time. Replicas never interact, so the result does not depend on the
    block size; the CFL check sees one block at a time."""
    out = np.empty(c.shape, dtype=np.complex128)
    size = _block_replicas(grid)
    for s in range(0, c.shape[0], size):
        cb = c[s:s + size]
        for dw in increments[:, s:s + size]:
            cb = _advance_half(grid, config, cb, dw, stratonovich)
        out[s:s + size] = cb
    return out


def _advance(state: SPDEState, config: SPDEConfig, dw: np.ndarray,
             stratonovich: bool) -> SPDEState:
    """One step with explicit increments dw of shape (replicas, 2)."""
    g = state.grid
    cnew = _to_full(g, _march(g, config, _to_half(g, state.coeffs), dw[None],
                              stratonovich))
    return SPDEState(g, cnew, state.t + config.dt, state.step_index + 1,
                     state.brownian + dw)


def spde_step_ito(state: SPDEState, config: SPDEConfig,
                  driver: BrownianDriver) -> SPDEState:
    """Euler-Maruyama step of the Ito form (explicit viscosity, raw noise)."""
    _check_compat(state.grid, state.replicas, config, driver)
    dw = driver.increments(state.step_index, config.dt)
    return _advance(state, config, dw, stratonovich=False)


def spde_step_stratonovich(state: SPDEState, config: SPDEConfig,
                           driver: BrownianDriver) -> SPDEState:
    """Heun step of the Stratonovich form: predictor with the increment,
    corrector averaging drift and noise coefficients; no explicit viscous
    term - the Heun average supplies the Ito-Stratonovich correction."""
    _check_compat(state.grid, state.replicas, config, driver)
    dw = driver.increments(state.step_index, config.dt)
    return _advance(state, config, dw, stratonovich=True)


def spde_solve(v0, config: SPDEConfig, driver: BrownianDriver) -> SPDEState:
    """March a state (or a field, broadcast to all replicas) to t_final."""
    if isinstance(v0, SPDEState):
        g, c = v0.grid, _to_half(v0.grid, v0.coeffs)
        step, t, brownian = v0.step_index, v0.t, v0.brownian.copy()
    else:
        g, c = v0.grid, _initial_half(v0, config.replicas)
        step, t, brownian = 0, 0.0, np.zeros((config.replicas, 2))
    _check_compat(g, c.shape[0], config, driver)
    increments = np.stack([driver.increments(step + i, config.dt)
                           for i in range(config.steps)])
    c = _march(g, config, c, increments, config.scheme == "stratonovich-heun")
    for dw in increments:
        brownian += dw
        t += config.dt
    return SPDEState(g, _to_full(g, c), t, step + config.steps, brownian)


def diagnostic_pressure(state: SPDEState) -> np.ndarray:
    """Per-replica mean-zero pressure recovered from the current velocity,
    -Lap p = div((v.grad)v), shaped (replicas, n, n)."""
    g = state.grid
    return _to_full(g, _pressure(g, _advection_half(g, _to_half(g, state.coeffs))))


# ---------------------------------------------------------------------------
# exact oracle and strong-convergence measurement
# ---------------------------------------------------------------------------

def _steady_euler_defect(u: SpectralVectorField) -> float:
    g = u.grid
    resid = _leray(g, _advection_half(g, _to_half(g, u.coeffs)))
    return float(np.sqrt(parseval_integral(_to_full(g, resid))))


def shift_oracle(u: SpectralVectorField, w_values: np.ndarray,
                 nu: float) -> np.ndarray:
    """Exact solution for steady Euler data: u rigidly shifted by the noise.

    w_values holds accumulated Brownian values with trailing axis 2 (any
    leading axes: a path, a replica batch, or a single value); the result
    prepends those axes to (2, n, n) coefficient arrays realizing
    u(x + sqrt(2 nu) W) as the per-mode phase e^{i sqrt(2 nu) k . W}.
    """
    defect = _steady_euler_defect(u)
    if defect > 1e-8:
        raise ValueError(
            f"drift is not a steady Euler solution: projected advection has "
            f"L2 norm {defect:.3g}")
    w_values = np.asarray(w_values, dtype=np.float64)
    if w_values.shape[-1] != 2:
        raise ValueError("Brownian values must have a trailing axis of size 2")
    phase = np.exp(1j * _transport_phase(u.grid, nu, w_values))
    return phase[..., None, :, :] * u.coeffs


@dataclass(eq=False)
class StrongErrorRow:
    dt: float
    mean_error: float
    stderr: float


@dataclass(eq=False)
class StrongErrorReport:
    """Pathwise L2 errors against the exact oracle per step size, and the
    least-squares slope of log error vs log dt (None at roundoff level)."""

    scheme: str
    rows: list[StrongErrorRow]
    order: float | None


def strong_error(config: SPDEConfig, u: SpectralVectorField, dt_ladder,
                 driver: BrownianDriver) -> StrongErrorReport:
    """Integrate steady Euler data on every rung of the ladder with shared
    Brownian paths (coarse increments are sums of fine ones) and compare
    against the exact shifted field at t_final."""
    ladder = [float(d) for d in dt_ladder]
    if len(ladder) < 2:
        raise ValueError("the step ladder needs at least two entries")
    if any(d <= 0 for d in ladder) or any(a <= b for a, b in zip(ladder, ladder[1:])):
        raise ValueError("step ladder must be strictly decreasing and positive")
    fine = ladder[-1]
    for d in ladder:
        _step_count(d, fine, f"every ladder step must be an integer multiple of the "
                             f"finest; {d} / {fine} is not")
        _step_count(config.t_final, d,
                    f"t_final = {config.t_final} is not an integer multiple of dt = {d}")
    if config.grid != u.grid:
        raise ValueError("drift lives on a different grid than the config")
    if driver.replicas != config.replicas:
        raise ValueError("driver and config disagree on the replica count")
    steps_fine = int(round(config.t_final / fine))
    increments = np.stack([driver.increments(i, fine) for i in range(steps_fine)])
    oracle = shift_oracle(u, increments.sum(axis=0), config.nu)
    strat = config.scheme == "stratonovich-heun"
    c0 = _initial_half(u, config.replicas)
    rows = []
    for d in ladder:
        factor = int(round(d / fine))
        nsteps = steps_fine // factor
        coarse = increments[:nsteps * factor].reshape(nsteps, factor,
                                                     config.replicas, 2).sum(axis=1)
        c = _march(config.grid, replace(config, dt=d), c0, coarse, strat)
        diff = _to_full(config.grid, c) - oracle
        errors = np.sqrt(TWO_PI**2 * np.sum(np.abs(diff) ** 2, axis=(1, 2, 3)))
        rows.append(StrongErrorRow(d, float(errors.mean()), float(_replica_stderr(errors))))
    means = np.array([row.mean_error for row in rows])
    order = None
    if np.all(means > 1e-12):
        order = float(np.polyfit(np.log([row.dt for row in rows]), np.log(means), 1)[0])
    return StrongErrorReport(config.scheme, rows, order)


# ---------------------------------------------------------------------------
# ensemble-mean decay
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ModeStat:
    """Ensemble mean of one spectral coefficient with componentwise errors."""

    mode: tuple[int, int, int]
    mean: complex
    stderr_re: float
    stderr_im: float
    replicas: int


class _ReplicaRows:
    """Stands in for a driver of `count` replicas: rows start..start+count
    of every increment the full driver draws, drawn alone, so a replica's
    noise does not depend on which chunk it is marched in."""

    def __init__(self, driver: BrownianDriver, start: int, count: int):
        self.driver = driver
        self.start = start
        self.replicas = count

    def increments(self, step: int, dt: float) -> np.ndarray:
        return self.driver.increments(step, dt, self.start, self.replicas)


def ensemble_mode_means(v0: SpectralVectorField, config: SPDEConfig, seed: int,
                        modes, chunk_size: int = 1000) -> list[ModeStat]:
    """Mean of selected coefficients at t_final over config.replicas replicas.

    modes are (component, k1, k2) integer triples. All replicas draw from
    one driver of config.replicas replicas keyed on seed; they are marched
    in chunks of at most chunk_size, each chunk reading its own rows of
    that driver, and the selected values of every replica are reduced once
    at the end. chunk_size therefore bounds memory only: the result is a
    pure function of (seed, replica count, parameters), bit for bit. The
    standard errors need at least two replicas.
    """
    if config.replicas < 2:
        raise ValueError(
            f"mode means need at least 2 replicas for a standard error, got {config.replicas}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    g = v0.grid
    idx = {int(k): i for i, k in enumerate(g.k)}
    sel = []
    for comp, k1, k2 in modes:
        if comp not in (0, 1) or k1 not in idx or k2 not in idx:
            raise ValueError(f"mode {(comp, k1, k2)} not representable on the grid")
        sel.append((comp, idx[k1], idx[k2]))
    sel = np.array(sel, dtype=np.int64).reshape(-1, 3)
    total = config.replicas
    driver = BrownianDriver(seed=seed, replicas=total)
    vals = np.empty((total, len(sel)), dtype=complex)
    for start in range(0, total, chunk_size):
        r = min(chunk_size, total - start)
        state = spde_solve(v0, replace(config, replicas=r), _ReplicaRows(driver, start, r))
        vals[start:start + r] = state.coeffs[:, sel[:, 0], sel[:, 1], sel[:, 2]]
    means = vals.mean(axis=0)
    se_re = _replica_stderr(vals.real, axis=0)
    se_im = _replica_stderr(vals.imag, axis=0)
    return [ModeStat(tuple(mode), complex(means[j]), float(se_re[j]), float(se_im[j]), total)
            for j, mode in enumerate(modes)]


# ---------------------------------------------------------------------------
# the pathwise action of a scaled-Brownian flow run
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class SemimartingaleFlowRun:
    """Accumulated functionals of one flow pass dg = v dt + dM whose
    martingale part M is the scaled Brownian motion sqrt(2 nu) W.

    The pass is the action pass with no variation directions plus two Ito
    sums: kinetic and constraint are the action pass's per-replica
    time-quadratures of int |v(t, g_t)|^2 dx and
    int p(t, g_t)(det grad g_t - 1) dx, bit for bit; mart_pairing and
    wiener_pairing are left-endpoint Ito sums of int v(t, g_t) dx paired
    with the dM and dW increments respectively (the latter unscaled).
    """

    grid: TorusGrid
    nu: float
    dt: float
    t_final: float
    kinetic: np.ndarray
    constraint: np.ndarray
    mart_pairing: np.ndarray
    wiener_pairing: np.ndarray

    @property
    def replicas(self) -> int:
        return self.kinetic.shape[0]


class _TildeObserver(_ActionObserver):
    """The action observer with no directions, plus the dM and dW pairings."""

    def __init__(self, grid, pressure, nu, dt, steps, driver, replicas):
        super().__init__(grid, pressure, (), replicas, nu)
        self.dt = dt
        self.steps = steps
        self.driver = driver
        self.mart = np.zeros(replicas)
        self.wiener = np.zeros(replicas)

    def accumulate(self, node, t, ens, drift_values, drift_grads, weight):
        super().accumulate(node, t, ens, drift_values, drift_grads, weight)
        if node < self.steps:
            # left-endpoint Ito sums against the coming increment; the
            # driver is counter-based, so this reads the exact increment
            # the flow will consume for this step
            dw = self.driver.increments(node, self.dt)
            v1 = _lattice_quadrature(drift_values[..., 0])
            v2 = _lattice_quadrature(drift_values[..., 1])
            dm = np.sqrt(2.0 * self.nu) * dw
            self.mart += v1 * dm[:, 0] + v2 * dm[:, 1]
            self.wiener += v1 * dw[:, 0] + v2 * dw[:, 1]


def run_semimartingale_flow(drift: DriftField, pressure, *, nu: float, dt: float,
                            t_final: float, driver: BrownianDriver,
                            ensemble=None, stride: int = 1,
                            quadrature: str = "simpson") -> SemimartingaleFlowRun:
    """One flow pass accumulating everything the pathwise action needs."""
    obs, _ = _action_pass(
        drift, pressure,
        lambda replicas, steps: _TildeObserver(drift.grid, pressure, nu, dt, steps,
                                               driver, replicas),
        nu=nu, dt=dt, t_final=t_final, driver=driver, ensemble=ensemble,
        stride=stride, quadrature=quadrature)
    return SemimartingaleFlowRun(drift.grid, nu, dt, t_final, obs.k0, obs.b0,
                                 obs.mart, obs.wiener)


@dataclass(eq=False)
class TildeActionValue:
    """Per-replica pathwise action with the cancellation defect of its two
    stochastic-integral terms."""

    values: np.ndarray
    mean: float
    stderr: float
    cancellation_defect: float


def tilde_action_evaluate(run: SemimartingaleFlowRun) -> TildeActionValue:
    """All four terms of the pathwise action of a scaled-Brownian run.

    The dM pairing and the scaled dW pairing are identical sums computed in
    separate accumulators; their difference (the cancellation defect) is
    pure floating-point reassociation, and the value reduces to the
    kinetic-plus-constraint integrand, now pathwise rather than averaged.
    """
    term2 = run.mart_pairing
    term3 = np.sqrt(2.0 * run.nu) * run.wiener_pairing
    values = 0.5 * run.kinetic + run.constraint + term2 - term3
    defect = float(np.max(np.abs(term2 - term3)))
    return TildeActionValue(values, float(values.mean()), float(_replica_stderr(values)),
                            defect)
