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
scalar vorticity omega = d1 v2 - d2 v1 on the 2/3-rule band, advected
directly by the dealiased (v . grad) omega (five band transforms where the
curl of (v . grad) v takes eight), and rebuild the velocity from omega by
Biot-Savart, divergence-free by construction and with its mean mode
carried unchanged; the velocity form's projections drop out.
Every ensemble is marched in replica blocks of a fixed byte budget through
one march, as tasks on the package's pool of one thread per usable CPU
(svns.fields). Noise is drawn on the calling thread from the counter-based
driver and each block writes its own slice, so every result is a pure
function of (seed, replica count, parameters), whatever the block or chunk
size or the worker count.

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
from functools import partial

import numpy as np

from .action import _ActionObserver
from .fields import (
    TWO_PI,
    SpectralVectorField,
    TorusGrid,
    _advection_half,
    _biot_savart,
    _leray,
    _pressure,
    _run,
    _to_band,
    _to_full,
    _to_half,
    _vorticity_advection_band,
    parseval_integral,
)
from .flows import BrownianDriver, _lattice_quadrature, _observed_pass, _replica_stderr
from .solver import (CFLError, DriftField, _check_cfl_limit, _check_ladder, _horizon_steps,
                     _step_count)

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
# bytes of velocity grid values (and of each of their d1, d2 stacks) per
# replica block of the march: small enough to stay in cache, large enough
# to amortise the per-call overhead; each worker's malloc arena keeps one
# block's temporaries, and 1 MiB blocks on 2 workers raised peak RSS 19%
_BLOCK_BYTES = 1 << 19


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
        _horizon_steps(self.nu, self.dt, self.t_final)
        _check_cfl_limit(self.cfl_limit)
        if self.replicas < 1:
            raise ValueError(f"need at least one replica, got {self.replicas}")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {_SCHEMES}")

    @property
    def steps(self) -> int:
        return _horizon_steps(self.nu, self.dt, self.t_final)


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
    """sqrt(2 nu) (k . dW) per mode of a TorusGrid or of one of its layouts,
    for increments dw of shape (..., 2)."""
    return np.sqrt(2.0 * nu) * (dw[..., 0, None, None] * modes.k1
                                + dw[..., 1, None, None] * modes.k2)


def _initial_band(v0: SpectralVectorField, replicas: int) -> np.ndarray:
    """Band-layout coefficients of v0, projected and dealiased, broadcast
    read-only to (replicas, 2, 2K+1, K+1)."""
    g = v0.grid
    c = _leray(g, _to_band(g, v0.coeffs))
    return np.broadcast_to(c, (replicas,) + c.shape)


def make_spde_state(v0: SpectralVectorField, replicas: int) -> SPDEState:
    """All replicas started from v0 (projected and dealiased) at t = 0."""
    if replicas < 1:
        raise ValueError(f"need at least one replica, got {replicas}")
    coeffs = _to_full(v0.grid, _initial_band(v0, replicas))
    return SPDEState(v0.grid, coeffs, 0.0, 0, np.zeros((replicas, 2)))


def _check_compat(grid: TorusGrid, replicas: int, config: SPDEConfig,
                  driver: BrownianDriver) -> None:
    if grid != config.grid:
        raise ValueError("state lives on a different grid than the config")
    if replicas != config.replicas:
        raise ValueError("state and config disagree on the replica count")
    if driver.replicas != replicas:
        raise ValueError("driver and state disagree on the replica count")


def _advance_band(grid: TorusGrid, config: SPDEConfig, c: np.ndarray,
                  dw: np.ndarray, stratonovich: bool) -> np.ndarray:
    """One step on band-layout velocity coefficients c of shape
    (replicas, 2, 2K+1, K+1), marched on the vorticity omega = d1 v2 - d2 v1.

    The uniform noise phase commutes with the curl, and under the 2/3 rule
    the dealiased (v . grad) omega of a divergence-free v is the curl of
    the dealiased (v . grad) v, so the update is the velocity equation's
    with one scalar advected in place of two components and no projection.
    The velocity returned is the Biot-Savart velocity of the new vorticity,
    divergence-free by construction, with the mean mode carried over:
    advection, viscosity and the phase all leave it fixed.
    """
    b = grid.band
    dt = config.dt
    nu = config.nu
    om = b.ik1 * c[..., 1, :, :] - b.ik2 * c[..., 0, :, :]
    a0, w = _vorticity_advection_band(grid, c, om)
    displacement = dt * float(np.max(np.abs(w))) + np.sqrt(2.0 * nu) * float(
        np.max(np.abs(dw)))
    budget = config.cfl_limit * (2.0 * np.pi / grid.n)
    if not displacement <= budget:  # NaN trips it too
        raise CFLError(
            f"step displacement {displacement:.3g} exceeds the CFL budget "
            f"{budget:.3g} (limit {config.cfl_limit} cells)")
    mean = c[..., 0, 0]
    theta = _transport_phase(b, nu, dw)
    if stratonovich:
        n0 = 1j * theta * om
        pred = om - dt * a0 + n0
        vp = _biot_savart(grid, pred)
        vp[..., 0, 0] = mean
        a1 = _vorticity_advection_band(grid, vp, pred)[0]
        onew = om - 0.5 * dt * (a0 + a1) + 0.5 * (n0 + 1j * theta * pred)
    else:
        onew = om - dt * (a0 + nu * b.k_squared * om) + 1j * theta * om
    out = _biot_savart(grid, onew)
    out[..., 0, 0] = mean
    return out


def _block_replicas(grid: TorusGrid) -> int:
    """Replicas per block of the march: a block's velocity grid values
    (2 n^2 float64 per replica) fill _BLOCK_BYTES, 32 replicas at 32^2."""
    return max(1, _BLOCK_BYTES // (16 * grid.n * grid.n))


def _blocks(grid: TorusGrid, config: SPDEConfig, c: np.ndarray,
            increments: np.ndarray, stratonovich: bool, out: np.ndarray) -> list:
    """One task per replica block of c (replicas, 2, 2K+1, K+1), marching it
    through one step per row of increments (steps, replicas, 2) into out."""
    def block(s):
        cb = c[s:s + size]
        for dw in increments[:, s:s + size]:
            cb = _advance_band(grid, config, cb, dw, stratonovich)
        out[s:s + size] = cb
    size = _block_replicas(grid)
    return [partial(block, s) for s in range(0, c.shape[0], size)]


def _march(grid: TorusGrid, config: SPDEConfig, c: np.ndarray,
           increments: np.ndarray, stratonovich: bool) -> np.ndarray:
    """Advance band-layout coefficients c (replicas, 2, 2K+1, K+1) through one
    step per row of increments (steps, replicas, 2) in replica blocks on the
    pool. Replicas never interact, so neither block size nor worker count
    changes a bit; of the blocks failing the CFL check, the first raises."""
    out = np.empty(c.shape, dtype=np.complex128)
    _run(_blocks(grid, config, c, increments, stratonovich, out))
    return out


def spde_step_ito(state: SPDEState, config: SPDEConfig,
                  driver: BrownianDriver) -> SPDEState:
    """Euler-Maruyama step of the Ito form (explicit viscosity, raw noise)."""
    return spde_solve(state, replace(config, t_final=config.dt, scheme="ito"), driver)


def spde_step_stratonovich(state: SPDEState, config: SPDEConfig,
                           driver: BrownianDriver) -> SPDEState:
    """Heun step of the Stratonovich form: predictor with the increment,
    corrector averaging drift and noise coefficients; no explicit viscous
    term - the Heun average supplies the Ito-Stratonovich correction."""
    return spde_solve(state, replace(config, t_final=config.dt,
                                     scheme="stratonovich-heun"), driver)


def spde_solve(v0, config: SPDEConfig, driver: BrownianDriver) -> SPDEState:
    """March a state (or a field, broadcast to all replicas) to t_final."""
    if isinstance(v0, SPDEState):
        g, c = v0.grid, _to_band(v0.grid, v0.coeffs)
        step, t, brownian = v0.step_index, v0.t, v0.brownian.copy()
    else:
        g, c = v0.grid, _initial_band(v0, config.replicas)
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
    ladder = _check_ladder(dt_ladder, "the step ladder")
    fine = ladder[-1]
    for d in ladder:
        _step_count(d, fine, f"every ladder step must be an integer multiple of the "
                             f"finest; {d} / {fine} is not")
        _step_count(config.t_final, d,
                    f"t_final = {config.t_final} is not an integer multiple of dt = {d}")
    _check_compat(u.grid, config.replicas, config, driver)
    steps_fine = int(round(config.t_final / fine))
    increments = np.stack([driver.increments(i, fine) for i in range(steps_fine)])
    oracle = shift_oracle(u, increments.sum(axis=0), config.nu)
    strat = config.scheme == "stratonovich-heun"
    c0 = _initial_band(u, config.replicas)
    # the rungs are independent marches: their blocks share one task list
    finals, tasks = [], []
    for d in ladder:
        factor = int(round(d / fine))
        nsteps = steps_fine // factor
        coarse = increments[:nsteps * factor].reshape(nsteps, factor,
                                                     config.replicas, 2).sum(axis=1)
        finals.append(np.empty(c0.shape, dtype=np.complex128))
        tasks += _blocks(config.grid, replace(config, dt=d), c0, coarse, strat, finals[-1])
    _run(tasks)
    rows = []
    for d, c in zip(ladder, finals):
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


def ensemble_mode_means(v0: SpectralVectorField, config: SPDEConfig, seed: int,
                        modes, chunk_size: int = 1000) -> list[ModeStat]:
    """Mean of selected coefficients at t_final over config.replicas replicas.

    modes are (component, k1, k2) integer triples. All replicas draw from
    one driver of config.replicas replicas keyed on seed. They are marched
    from one shared initial band in chunks of at most chunk_size, each chunk
    drawing only its own rows of that driver and marching them in replica
    blocks like spde_solve; the selected values of every replica are reduced
    once at the end. chunk_size therefore bounds memory only: the result is
    a pure function of (seed, replica count, parameters), bit for bit. The
    standard errors need at least two replicas.
    """
    if config.replicas < 2:
        raise ValueError(
            f"mode means need at least 2 replicas for a standard error, got {config.replicas}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if len(modes) == 0:
        raise ValueError("need at least one mode")
    g = v0.grid
    ks = set(g.k.tolist())
    for comp, k1, k2 in modes:
        if comp not in (0, 1) or k1 not in ks or k2 not in ks:
            raise ValueError(f"mode {(comp, k1, k2)} not representable on the grid")
    comps, k1s, k2s = np.array(modes, dtype=np.int64).reshape(-1, 3).T
    # the march's band layout keeps k2 = 0..K: a k2 < 0 coefficient is the
    # conjugate of its mirror at (-k1, -k2), and one off the band is exactly 0
    mirror = k2s < 0
    rows, cols = np.where(mirror, -k1s, k1s), np.abs(k2s)
    on = np.maximum(np.abs(rows), cols) <= g.band.K
    total = config.replicas
    driver = BrownianDriver(seed=seed, replicas=total)
    _check_compat(g, total, config, driver)
    c0 = _initial_band(v0, min(chunk_size, total))
    strat = config.scheme == "stratonovich-heun"
    vals = np.zeros((total, len(comps)), dtype=complex)
    for start in range(0, total, chunk_size):
        r = min(chunk_size, total - start)
        increments = np.stack([driver.increments(i, config.dt, start, r)
                               for i in range(config.steps)])
        c = _march(g, config, c0[:r], increments, strat)
        vals[start:start + r, on] = c[:, comps[on], rows[on], cols[on]]
    vals[:, mirror] = vals[:, mirror].conj()
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

    def __init__(self, grid, pressure, nu, replicas):
        super().__init__(grid, pressure, (), replicas, nu)
        self.mart = np.zeros(replicas)
        self.wiener = np.zeros(replicas)

    def accumulate(self, node, t, ens, drift_values, drift_grads, weight, block):
        super().accumulate(node, t, ens, drift_values, drift_grads, weight, block)
        if block.dw is not None:
            # left-endpoint Ito sums against the increment the flow's
            # coming step consumes
            v1 = _lattice_quadrature(drift_values[..., 0])
            v2 = _lattice_quadrature(drift_values[..., 1])
            dm = np.sqrt(2.0 * self.nu) * block.dw
            self.mart[block.rows] += v1 * dm[:, 0] + v2 * dm[:, 1]
            self.wiener[block.rows] += v1 * block.dw[:, 0] + v2 * block.dw[:, 1]


def run_semimartingale_flow(drift: DriftField, pressure, *, nu: float, dt: float,
                            t_final: float, driver: BrownianDriver,
                            ensemble=None, stride: int = 1,
                            quadrature: str = "simpson") -> SemimartingaleFlowRun:
    """One flow pass accumulating everything the pathwise action needs."""
    obs, _ = _observed_pass(
        drift, lambda replicas, steps: _TildeObserver(drift.grid, pressure, nu, replicas),
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
