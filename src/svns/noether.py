"""Conserved-quantity diagnostics for stochastic Lagrangian flows.

The central object is the forward material-diffusion operator

    L_t f = d f/dt + (v . grad) f + nu Lap f,

the generator of the noisy particle motion composed with a field: for smooth
f, the generalized derivative of t -> f(t, g_t(x)) along the flow equals
(L_t f)(t, g_t(x)). Note the + nu Lap sign — this is the Ito/forward
generator, not the Navier-Stokes operator, and the two differ by exactly
2 nu Lap f.

A candidate symmetry is a pair (eta, G): a space shift direction eta(t, x)
and a compensator G(t, x). Invariance of the kinetic Lagrangian under the
shift means the pathwise identity int v(g) . (L_t eta)(g) dx =
int (L_t G)(g) dx per replica; when it holds, the Eulerian residual
int L_t(v . eta - G) dx vanishes for every t and the x-integrated charge
series is a martingale along the flow. Constant translations (eta = e_i,
G = 0) are the canonical pair on the periodic domain: every operation here
accepts them and generic user-supplied band-limited pairs alike.

All products are formed on the grid with the same 2/3-rule dealiasing as the
flow solver, so operator identities hold to roundoff, not just to truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .fields import (
    TWO_PI,
    PhaseTable,
    PointEvaluator,
    SpectralField,
    SpectralVectorField,
    TorusGrid,
    _advection_half,
    _derivative_stack,
    _run,
    _to_full,
    _to_half,
    _values_half,
)
from .flows import (
    BranchEstimate,
    BrownianDriver,
    FlowObserver,
    _lattice_quadrature,
    _material_rows,
    _observed_pass,
    _replica_stderr,
    det_jacobian,
    generalized_derivative,
    make_flow_ensemble,
    run_flow,
)
from .solver import _NODE_CHUNK, DriftField, NSTrajectory, _check_step, _step_count

__all__ = [
    "ConstantEnvelope",
    "SymmetryPair",
    "NoetherReport",
    "ProbePoint",
    "translation_pair",
    "material_operator",
    "invariance_check",
    "noether_residual",
    "momentum_series",
    "martingale_probe",
]


class ConstantEnvelope:
    """a(t) = 1: the time profile of a symmetry that never switches off."""

    def value(self, t: float) -> float:
        return 1.0

    def derivative(self, t: float) -> float:
        return 0.0


class SymmetryPair:
    """Candidate Lagrangian symmetry: shift direction eta and compensator G.

    eta(t, x) = a(t) H(x) with H a band-limited vector field; G(t, x) =
    a(t) Psi(x) scalar. Either part may be absent (taken as zero). Both are
    spectral, hence periodic by construction; the envelope defaults to the
    constant profile used for plain translations.
    """

    def __init__(self, grid: TorusGrid, eta_coeffs: np.ndarray | None = None,
                 g_coeffs: np.ndarray | None = None, envelope=None,
                 label: str = "pair"):
        self.grid = grid
        self.envelope = envelope if envelope is not None else ConstantEnvelope()
        self.label = label
        self.eta_coeffs = None if eta_coeffs is None else np.asarray(eta_coeffs, dtype=complex)
        self.g_coeffs = None if g_coeffs is None else np.asarray(g_coeffs, dtype=complex)
        if self.eta_coeffs is not None and self.eta_coeffs.shape != (2, grid.n, grid.n):
            raise ValueError("eta must have shape (2, n, n)")
        if self.g_coeffs is not None and self.g_coeffs.shape != (grid.n, grid.n):
            raise ValueError("G must have shape (n, n)")
        self._eta_eval = (None if self.eta_coeffs is None
                          else PointEvaluator(grid, _derivative_stack(grid, self.eta_coeffs)))
        self._g_eval = (None if self.g_coeffs is None
                        else PointEvaluator(grid, _derivative_stack(grid, self.g_coeffs)))


def translation_pair(grid: TorusGrid, axis: int, label: str | None = None) -> SymmetryPair:
    """Constant shift along a coordinate axis, compensator zero."""
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    eta = np.zeros((2, grid.n, grid.n), dtype=complex)
    eta[axis, 0, 0] = 1.0
    return SymmetryPair(grid, eta_coeffs=eta,
                        label=label or f"translation-{'xy'[axis]}")


@dataclass(eq=False)
class NoetherReport:
    """Time series attached to a symmetry pair on one trajectory or flow run.

    residual/charge come from the deterministic Eulerian check; defect/stderr
    from the Monte Carlo invariance check. Unused channels stay None.
    """

    times: np.ndarray
    residual: np.ndarray | None = None
    charge: np.ndarray | None = None
    defect: np.ndarray | None = None
    stderr: np.ndarray | None = None
    warning: str | None = None


# ---------------------------------------------------------------------------
# the material-diffusion operator on the grid
# ---------------------------------------------------------------------------

def material_operator(f: SpectralField, v: SpectralVectorField, nu: float,
                      f_dt: SpectralField | None = None) -> SpectralField:
    """(d/dt + (v . grad) + nu Lap) f on the grid.

    f_dt carries the time derivative of f (None for steady f); the advection
    product is dealiased exactly like the flow solver's, so substituting a
    stored trajectory node for f and its tendency for f_dt makes operator
    identities hold to roundoff.
    """
    if f.grid is not v.grid and f.grid.n != v.grid.n:
        raise ValueError("f and v live on different grids")
    g = f.grid
    w = _values_half(g, _to_half(g, v.coeffs))
    fth = None if f_dt is None else _to_half(g, f_dt.coeffs)
    return SpectralField(g, _to_full(g, _material_half(g, _to_half(g, f.coeffs), w, nu, fth)))


def _material_half(grid: TorusGrid, fh: np.ndarray, w: np.ndarray, nu: float,
                   fth: np.ndarray | None) -> np.ndarray:
    """L_t f on the half layout for scalar coefficients fh (..., n, h), the
    velocity's grid values w (..., 2, n, n) and the time derivative fth."""
    adv = _advection_half(grid, None, values=w, f=fh[..., None, :, :])[..., 0, :, :]
    out = adv - nu * grid.half.k_squared * fh
    return out if fth is None else out + fth


# ---------------------------------------------------------------------------
# Monte Carlo invariance check along the flow
# ---------------------------------------------------------------------------

class _InvarianceObserver(FlowObserver):
    def __init__(self, pair: SymmetryPair, nu: float, nnodes: int, replicas: int):
        self.pair = pair
        self.nu = nu
        self.times = np.zeros(nnodes)
        self.lhs = np.zeros((nnodes, replicas))
        self.rhs = np.zeros((nnodes, replicas))
        self.det_defect = np.zeros(replicas)  # per-replica running maxima

    def start_node(self, node, t):
        self.times[node] = t

    def accumulate(self, node, t, ens, drift_values, drift_grads, weight, block):
        table, r, pair = block.table, block.rows, self.pair
        a = pair.envelope.value(t)
        da = pair.envelope.derivative(t)
        v = drift_values
        if ens.jacobians is not None:
            self.det_defect[r] = np.maximum(self.det_defect[r],
                                            np.abs(det_jacobian(ens) - 1.0).max(axis=1))
        if pair._eta_eval is not None:
            # L_t eta at the particles, same chain-rule form as the operator
            le1, le2 = _material_rows(table.evaluate(pair._eta_eval), v, self.nu, a, da)
            self.lhs[node, r] = _lattice_quadrature(v[..., 0] * le1 + v[..., 1] * le2)
        if pair._g_eval is not None:
            lg = _material_rows(table.evaluate(pair._g_eval), v, self.nu, a, da)[0]
            self.rhs[node, r] = _lattice_quadrature(lg)


def invariance_check(pair: SymmetryPair, drift: DriftField, *, nu: float,
                     dt: float, t_final: float, driver: BrownianDriver,
                     stride: int = 1, det_tolerance: float = 1e-4) -> NoetherReport:
    """Per-time defect of the invariance identity along a noisy flow run.

    LHS(t) = int v(g) . (L_t eta)(g) dx and RHS(t) = int (L_t G)(g) dx are
    lattice-quadrature per replica; the defect is |mean(LHS - RHS)| over
    replicas with its standard error. The variation terms of the constrained
    Lagrangian vanish only on measure-preserving flows, so a Jacobian
    determinant defect beyond det_tolerance attaches a warning.
    """
    obs, _ = _observed_pass(
        drift, lambda replicas, steps: _InvarianceObserver(pair, nu, steps + 1, replicas),
        nu=nu, dt=dt, t_final=t_final, driver=driver,
        ensemble=make_flow_ensemble(pair.grid, driver.replicas, stride=stride))
    diff = obs.lhs - obs.rhs
    defect = np.abs(diff.mean(axis=1))
    stderr = _replica_stderr(diff, axis=1)
    warning, det_defect = None, float(obs.det_defect.max())
    if det_defect > det_tolerance:
        warning = (f"flow is not measure-preserving at tolerance {det_tolerance:g} "
                   f"(max |det - 1| = {det_defect:.3g}); dropped variation "
                   "terms are not negligible")
    return NoetherReport(times=obs.times, defect=defect, stderr=stderr, warning=warning)


# ---------------------------------------------------------------------------
# deterministic Eulerian residual and charge
# ---------------------------------------------------------------------------

def noether_residual(pair: SymmetryPair, traj: NSTrajectory) -> NoetherReport:
    """r(t) = int L_t(v . eta - G) dx and Q(t) = int (v . eta - G) dx per node.

    Everything is evaluated spectrally from the stored velocity and tendency;
    no sampling is involved. For a true symmetry of the dynamics r vanishes
    identically; the function reports r for any pair, symmetry or not.
    Blocks of _NODE_CHUNK nodes run as tasks on the worker pool, each
    writing only its own nodes, so the report has the same bits for any
    worker count.
    """
    g = traj.grid
    if pair.grid != g:
        raise ValueError(f"pair lives on an n = {pair.grid.n} grid, "
                         f"the trajectory on n = {g.n}")
    nnodes = len(traj.times)
    residual = np.zeros(nnodes)
    charge = np.zeros(nnodes)
    env = pair.envelope
    amp = np.array([env.value(float(t)) for t in traj.times])[:, None, None]
    damp = np.array([env.derivative(float(t)) for t in traj.times])[:, None, None]
    eta = None if pair.eta_coeffs is None else _values_half(g, _to_half(g, pair.eta_coeffs))
    psi = None if pair.g_coeffs is None else _to_half(g, pair.g_coeffs)

    def block(nodes):
        a = amp[nodes]
        da = damp[nodes]
        w = _values_half(g, _to_half(g, traj.velocity_coeffs[nodes]))
        fh = np.zeros((len(a), g.n, g.half.width), dtype=complex)
        fth = np.zeros_like(fh)
        if eta is not None:
            dw = _values_half(g, _to_half(g, traj.rhs_coeffs[nodes]))
            weta = w[:, 0] * eta[0] + w[:, 1] * eta[1]
            fh = np.fft.rfft2(a * weta, norm="forward")
            fth = np.fft.rfft2(a * (dw[:, 0] * eta[0] + dw[:, 1] * eta[1]) + da * weta,
                               norm="forward")
        if psi is not None:
            fh = fh - a * psi
            fth = fth - da * psi
        lf = _material_half(g, fh, w, traj.nu, fth)
        residual[nodes] = TWO_PI**2 * lf[:, 0, 0].real
        charge[nodes] = TWO_PI**2 * fh[:, 0, 0].real

    _run([partial(block, slice(lo, lo + _NODE_CHUNK)) for lo in range(0, nnodes, _NODE_CHUNK)])
    return NoetherReport(times=traj.times.copy(), residual=residual, charge=charge)


def momentum_series(traj: NSTrajectory) -> np.ndarray:
    """int v_i dx per stored node, shape (nodes, 2): the translation charges."""
    return TWO_PI**2 * traj.velocity_coeffs[:, :, 0, 0].real.copy()


# ---------------------------------------------------------------------------
# pathwise martingale probe
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ProbePoint:
    """Charge series and its drift estimate at one sampled time.

    drift/drift_stderr aggregate the per-replica branch means into one
    number: replicas are independent, so the spread of their branch means
    already accounts for the branching noise.
    """

    t: float
    series: np.ndarray          # per-replica charge value
    estimate: BranchEstimate    # branching derivative, per replica
    drift: float
    drift_stderr: float


class _ChargeObservable:
    """Per-replica lattice quadrature of v . eta - G composed with the flow."""

    def __init__(self, pair: SymmetryPair, drift: DriftField):
        self.pair = pair
        self.drift = drift

    def values(self, t: float, positions: np.ndarray) -> np.ndarray:
        pair = self.pair
        a = pair.envelope.value(t)
        out = np.zeros(positions.shape[:-1])
        table = PhaseTable(positions)
        if pair._eta_eval is not None:
            e = table.evaluate(pair._eta_eval)
            v = self.drift.velocity(t, table)
            out += a * (v[..., 0] * e[0] + v[..., 1] * e[4])
        if pair._g_eval is not None:
            out -= a * table.evaluate(pair._g_eval)[0]
        return _lattice_quadrature(out)


def _sample_steps(sample_times, dt: float) -> list[int]:
    """Steps from t = 0 to the first sample time and between each later pair;
    ValueError unless there is a sample time and the times are nonnegative,
    strictly increasing step multiples."""
    samples = [float(t) for t in sample_times]
    if not samples:
        raise ValueError("need at least one sample time")
    if any(b <= a for a, b in zip(samples, samples[1:])) or samples[0] < 0:
        raise ValueError("sample times must be nonnegative and strictly increasing")
    return [_step_count(t - s, dt, f"sample time {t} is not a step multiple")
            for s, t in zip([0.0] + samples, samples)]


def martingale_probe(pair: SymmetryPair, drift: DriftField, *, nu: float,
                     dt: float, driver: BrownianDriver,
                     sample_times: tuple[float, ...], stride: int = 1,
                     eps_steps: int = 8, branches: int = 16) -> list[ProbePoint]:
    """Drift of the charge series at each sampled time, by branching.

    The charge int (v . eta - G)(t, g_t(x)) dx is a martingale along the flow
    exactly when (eta, G) is a symmetry, so its branching difference quotient
    should vanish within error bars at every time. Sample times must be
    nonnegative ascending step multiples.
    """
    _check_step(nu, dt)
    segments = _sample_steps(sample_times, dt)
    obs = _ChargeObservable(pair, drift)
    ens = make_flow_ensemble(pair.grid, driver.replicas, stride=stride, jacobians=False)
    out = []
    for steps in segments:
        ens = run_flow(ens, drift, nu, dt, steps, driver)
        series = obs.values(ens.t, ens.positions)
        est = generalized_derivative(obs, ens, drift, nu, dt, driver,
                                     eps_steps=eps_steps, branches=branches,
                                     keep_samples=False)
        out.append(ProbePoint(t=ens.t, series=series, estimate=est,
                              drift=float(est.mean.mean()),
                              drift_stderr=float(_replica_stderr(est.mean))))
    return out
