"""Pressure-constrained action of stochastic flows and its variations.

    S(g, p) = 1/2 E int_0^T int |D_t g_t(x)|^2 dx dt
              + E int_0^T int p(t, g_t(x)) (det grad g_t(x) - 1) dx dt

with D_t g_t(x) = v(t, g_t(x)) for flows driven by the drift v. Variations
shift the flow by eps h(t, g_t) and the multiplier by eps phi(t, g_t). For
this class the perturbed action is an exact polynomial in eps per replica:

    D_t g^eps          = v + eps Lh,  Lh = d_t h + (v . grad) h + nu Lap h
    det grad g^eps     = det J (1 + eps tr H + eps^2 det H),  H = grad h
    p^eps along g^eps  = p + eps (grad p . h + phi) + eps^2 h^T Hess p h / 2
                         (second-order expansion; the determinant factors are
                         exact, and Richardson extrapolation removes the
                         remaining O(eps^2) from the derivative estimate)

One flow pass therefore serves every perturbation and every eps with common
random numbers by construction: the pass accumulates per-replica polynomial
coefficients, and evaluations at any eps are algebra after the fact.

Time quadrature defaults to composite Simpson. A trapezoid rule carries an
O(dt^2) Euler-Maclaurin boundary term from the time envelope (about 7e-5 at
T = 0.5, dt = 1e-3) that would bury the 1e-7-level criticality signal;
Simpson's O(dt^4) error sits far below the Monte Carlo bars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    TWO_PI,
    PointEvaluator,
    SpectralField,
    TorusGrid,
    _advection_half,
    _derivative_stack,
    _ifft,
    _to_full,
    _to_half,
)
from .flows import (
    BrownianDriver,
    FlowEnsemble,
    FlowObserver,
    _lattice_quadrature,
    _replica_stderr,
    det_jacobian,
    make_flow_ensemble,
    run_flow,
    simpson_weights,
    trapezoid_weights,
)
from .solver import DriftField, NSTrajectory, _step_count

__all__ = [
    "SineSquaredEnvelope",
    "PerturbationField",
    "trig_vector_mode",
    "trig_scalar_mode",
    "default_perturbation_basis",
    "default_multiplier_basis",
    "TrajectoryPressure",
    "StaticPressure",
    "ZeroPressure",
    "ActionBreakdown",
    "ActionRun",
    "prepare_action_run",
    "action_evaluate",
    "perturbed_action",
    "GateauxEstimate",
    "gateaux_derivative",
    "ELResidual",
    "euler_lagrange_residual",
    "MultiplierProbe",
    "multiplier_probe",
]

# ---------------------------------------------------------------------------
# time envelopes and perturbation fields
# ---------------------------------------------------------------------------

class SineSquaredEnvelope:
    """a(t) = sin^2(pi t / T): vanishes with its first derivative at 0 and T."""

    def __init__(self, t_final: float):
        if t_final <= 0:
            raise ValueError("envelope horizon must be positive")
        self.t_final = float(t_final)

    def value(self, t: float) -> float:
        return float(np.sin(np.pi * t / self.t_final) ** 2)

    def derivative(self, t: float) -> float:
        return float(np.pi / self.t_final * np.sin(2 * np.pi * t / self.t_final))


def _mode_coeffs(grid: TorusGrid, k: tuple[int, int], phase: str) -> np.ndarray:
    """Coefficients of cos(k.x) or sin(k.x) as a conjugate-symmetric pair."""
    c = np.zeros((grid.n, grid.n), dtype=complex)
    i1 = list(grid.k).index(k[0])
    i2 = list(grid.k).index(k[1])
    j1 = list(grid.k).index(-k[0])
    j2 = list(grid.k).index(-k[1])
    if phase == "cos":
        c[i1, i2] += 0.5
        c[j1, j2] += 0.5
    elif phase == "sin":
        c[i1, i2] += -0.5j
        c[j1, j2] += 0.5j
    else:
        raise ValueError(f"unknown phase {phase!r}")
    return c


def trig_vector_mode(grid: TorusGrid, k: tuple[int, int], phase: str,
                     component: int) -> np.ndarray:
    """(2, n, n) coefficients of trig(k.x) e_component."""
    w = np.zeros((2, grid.n, grid.n), dtype=complex)
    w[component] = _mode_coeffs(grid, k, phase)
    return w


def trig_scalar_mode(grid: TorusGrid, k: tuple[int, int], phase: str) -> np.ndarray:
    return _mode_coeffs(grid, k, phase)


class PerturbationField:
    """Variation direction (h, phi): band-limited in x, smooth envelope in t.

    h(t, x) = a(t) w(x) with w a fixed vector field, phi(t, x) = a(t) psi(x);
    either part may be absent. The envelope must vanish at both endpoints so
    that time boundary terms drop out of the first variation.
    """

    def __init__(self, grid: TorusGrid, w_coeffs: np.ndarray | None = None,
                 phi_coeffs: np.ndarray | None = None,
                 envelope: SineSquaredEnvelope | None = None,
                 label: str = "pert"):
        if envelope is None:
            raise ValueError("an envelope is required")
        for t in (0.0, envelope.t_final):
            if abs(envelope.value(t)) > 1e-14:
                raise ValueError("envelope must vanish at both time endpoints")
        self.grid = grid
        self.envelope = envelope
        self.label = label
        self.w_coeffs = None if w_coeffs is None else np.asarray(w_coeffs, dtype=complex)
        self.phi_coeffs = None if phi_coeffs is None else np.asarray(phi_coeffs, dtype=complex)
        if self.w_coeffs is not None and self.w_coeffs.shape != (2, grid.n, grid.n):
            raise ValueError("vector part must have shape (2, n, n)")
        if self.phi_coeffs is not None and self.phi_coeffs.shape != (grid.n, grid.n):
            raise ValueError("scalar part must have shape (n, n)")
        if self.w_coeffs is None:
            self._w_eval = None
            self._w_stack = None
        else:
            self._w_stack = _derivative_stack(grid, self.w_coeffs)
            self._w_eval = PointEvaluator(grid, self._w_stack)
        if self.phi_coeffs is None:
            self._phi_eval = None
            self._phi_stack = None
        else:
            self._phi_stack = _derivative_stack(grid, self.phi_coeffs)
            self._phi_eval = PointEvaluator(grid, self._phi_stack)

    def plus(self, other: "PerturbationField", label: str | None = None) -> "PerturbationField":
        """Sum of the vector/scalar parts (envelopes must match)."""
        if other.envelope.t_final != self.envelope.t_final:
            raise ValueError("cannot combine perturbations with different horizons")

        def add(a, b):
            if a is None:
                return None if b is None else b.copy()
            return a if b is None else a + b

        return PerturbationField(self.grid, add(self.w_coeffs, other.w_coeffs),
                                 add(self.phi_coeffs, other.phi_coeffs), self.envelope,
                                 label or f"{self.label}+{other.label}")

    # -- direct evaluation (tests and small diagnostics) --------------------

    def _w_parts(self, points: np.ndarray) -> np.ndarray:
        if self._w_eval is None:
            shape = (8,) + np.asarray(points).shape[:-1]
            return np.zeros(shape)
        return self._w_eval(points)

    def h(self, t: float, points: np.ndarray) -> np.ndarray:
        return self.envelope.value(t) * np.moveaxis(self._w_parts(points)[0::4], 0, -1)

    def h_dt(self, t: float, points: np.ndarray) -> np.ndarray:
        return self.envelope.derivative(t) * np.moveaxis(self._w_parts(points)[0::4], 0, -1)

    def h_gradient(self, t: float, points: np.ndarray) -> np.ndarray:
        parts = self._w_parts(points)
        grad = parts.reshape((2, 4) + parts.shape[1:])[:, 1:3]
        return self.envelope.value(t) * np.moveaxis(grad, (0, 1), (-2, -1))

    def h_laplacian(self, t: float, points: np.ndarray) -> np.ndarray:
        return self.envelope.value(t) * np.moveaxis(self._w_parts(points)[3::4], 0, -1)

    def phi(self, t: float, points: np.ndarray) -> np.ndarray:
        if self._phi_eval is None:
            return np.zeros(np.asarray(points).shape[:-1])
        return self.envelope.value(t) * self._phi_eval(points)[0]

    def phi_gradient(self, t: float, points: np.ndarray) -> np.ndarray:
        if self._phi_eval is None:
            return np.zeros(np.asarray(points).shape)
        return self.envelope.value(t) * np.moveaxis(self._phi_eval(points)[1:3], 0, -1)


def default_perturbation_basis(grid: TorusGrid, t_final: float) -> list[PerturbationField]:
    """Fifteen variation directions: low trig modes times e_1/e_2 paired with
    phi = 0, four pure-multiplier directions, and one mixed pair."""
    env = SineSquaredEnvelope(t_final)
    basis: list[PerturbationField] = []
    for k, kname in (((1, 0), "x1"), ((0, 1), "x2")):
        for phase in ("cos", "sin"):
            for comp in (0, 1):
                basis.append(PerturbationField(
                    grid, w_coeffs=trig_vector_mode(grid, k, phase, comp),
                    envelope=env, label=f"h:{phase}({kname})e{comp + 1}"))
    for comp in (0, 1):
        basis.append(PerturbationField(
            grid, w_coeffs=trig_vector_mode(grid, (1, 1), "cos", comp),
            envelope=env, label=f"h:cos(x1+x2)e{comp + 1}"))
    for k, phase, name in (((1, 0), "cos", "cos(x1)"), ((1, 0), "sin", "sin(x1)"),
                           ((0, 1), "cos", "cos(x2)"), ((1, 1), "cos", "cos(x1+x2)")):
        basis.append(PerturbationField(
            grid, phi_coeffs=trig_scalar_mode(grid, k, phase),
            envelope=env, label=f"phi:{name}"))
    basis.append(PerturbationField(
        grid, w_coeffs=trig_vector_mode(grid, (0, 1), "cos", 0),
        phi_coeffs=trig_scalar_mode(grid, (0, 1), "sin"),
        envelope=env, label="mixed:h-cos(x2)e1,phi-sin(x2)"))
    return basis


def default_multiplier_basis(grid: TorusGrid, t_final: float) -> list[PerturbationField]:
    """The multiplier (phi-only) directions of the default basis."""
    env = SineSquaredEnvelope(t_final)
    out = []
    for k, phase, name in (((1, 0), "cos", "cos(x1)"), ((1, 0), "sin", "sin(x1)"),
                           ((0, 1), "cos", "cos(x2)"), ((1, 1), "cos", "cos(x1+x2)"),
                           ((0, 1), "sin", "sin(x2)")):
        out.append(PerturbationField(grid, phi_coeffs=trig_scalar_mode(grid, k, phase),
                                     envelope=env, label=f"phi:{name}"))
    return out


# ---------------------------------------------------------------------------
# pressure paths
# ---------------------------------------------------------------------------

class TrajectoryPressure:
    """Pressure read off a stored trajectory at its node times."""

    def __init__(self, traj: NSTrajectory):
        self.grid = traj.grid
        self.traj = traj

    def coeffs_at(self, t: float) -> np.ndarray:
        return self.traj.pressure_coeffs[self.traj.node_index(t)]


class StaticPressure:
    """Time-independent multiplier field."""

    def __init__(self, p: SpectralField):
        self.grid = p.grid
        self._c = p.coeffs

    def coeffs_at(self, t: float) -> np.ndarray:
        return self._c


class ZeroPressure:
    def __init__(self, grid: TorusGrid):
        self.grid = grid
        self._c = np.zeros((grid.n, grid.n), dtype=complex)

    def coeffs_at(self, t: float) -> np.ndarray:
        return self._c


# ---------------------------------------------------------------------------
# the accumulating flow pass
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ActionBreakdown:
    """Replica means of the kinetic and constraint terms with their errors."""

    s1: float
    s2: float
    stderr1: float
    stderr2: float
    replicas: int

    @property
    def total(self) -> float:
        return self.s1 + self.s2


def _direction_sums(W, psi, mixed, v, nu, pstack, det, dm1):
    """Point-axis contractions of the vector directions at a block of replicas.

    W is the (component, derivative row, direction, replica, point) view of
    the direction rows, psi the phi rows, mixed the (direction, phi row)
    pairs of mixed directions, v the (2, replica, point) drift and pstack
    the pressure with its first and second derivatives. Returns the
    (9, direction, replica) sums <w.v>, <L.v>, <w.w>, <w.L>, <L.L>, then the
    c1..c4 sums without their envelope powers, and the largest |T| and |Dt|
    of each direction.
    """
    w = W[:, 0]
    L = np.einsum("ckdrp,krp->cdrp", W[:, 1:], np.stack([v[0], v[1], np.full_like(v[0], nu)]))
    T = W[0, 1] + W[1, 2]
    Dt = W[0, 1] * W[1, 2] - W[0, 2] * W[1, 1]
    p, p1, p2, p11, p12, p22 = pstack
    pdet = p * det
    G = np.einsum("cdrp,crp->drp", w, np.stack([p1, p2]))
    Gm = np.einsum("cdrp,edrp,cerp->drp", w, w, 0.5 * np.stack([[p11, p12], [p12, p22]]))
    sums = np.empty((9,) + T.shape[:2])
    sums[0] = np.einsum("cdrp,crp->dr", w, v)
    sums[1] = np.einsum("cdrp,crp->dr", L, v)
    sums[2] = np.einsum("cdrp,cdrp->dr", w, w)
    sums[3] = np.einsum("cdrp,cdrp->dr", w, L)
    sums[4] = np.einsum("cdrp,cdrp->dr", L, L)
    sums[5] = np.einsum("drp,rp->dr", G, dm1) + np.einsum("drp,rp->dr", T, pdet)
    if mixed.size:
        G[mixed[0]] += psi[mixed[1]]  # the phi part of c1 is summed with the phi rows
    sums[6] = (np.einsum("drp,rp->dr", Gm, dm1) + np.einsum("drp,drp,rp->dr", G, T, det)
               + np.einsum("drp,rp->dr", Dt, pdet))
    sums[7] = np.einsum("drp,drp,rp->dr", Gm, T, det) + np.einsum("drp,drp,rp->dr", G, Dt, det)
    sums[8] = np.einsum("drp,drp,rp->dr", Gm, Dt, det)
    # max |x| as max(max x, -min x): no |x| temporary, the same bits
    tr_max = np.maximum(T.max(axis=(1, 2)), -T.min(axis=(1, 2)))
    det_max = np.maximum(Dt.max(axis=(1, 2)), -Dt.min(axis=(1, 2)))
    return sums, tr_max, det_max


class _ActionObserver(FlowObserver):
    """Accumulates, per replica, the eps-polynomial coefficients of S.

    kinetic: S1(eps) = 1/2 (k0 + 2 eps k1 + eps^2 k2) per perturbation;
    constraint: S2(eps) = b0 + eps c1 + eps^2 c2 + eps^3 c3 + eps^4 c4.
    The eps-independent accumulators are shared by every perturbation, which
    is what makes eps = 0 bitwise identical to the unperturbed evaluation.

    Every direction field is evaluated by one union evaluator, so a node
    costs a single phase contraction for all of them. Its rows are row j of
    the derivative stack (w1, d1 w1, d2 w1, Lap w1, w2, d1 w2, d2 w2,
    Lap w2) of every vector direction, j-major, then the phi row psi of
    every multiplier direction; the vector rows are then the view W[c, k, d]
    of component c, derivative row k and direction d. With a(t) the envelope
    of a direction, h = a w, dm1 = det grad g - 1 and p1, p2, p11, p12, p22
    the pressure derivatives, every coefficient is a sum over the points of
    each replica, <...>, times a power of a applied to the summed values:

        L_t h = a' w + a L,   L = (v . grad) w + nu Lap w
        k1 = a' <w . v> + a <L . v>
        k2 = a'^2 <w . w> + 2 a' a <w . L> + a^2 <L . L>
        tr H = a T,   T = d1 w1 + d2 w2;   det H = a^2 Dt,   Dt = det grad w
        p along g + eps h = p + eps a G + eps^2 a^2 Gm,
            G = p1 w1 + p2 w2 + psi,  Gm = (p11 w1^2 + 2 p12 w1 w2 + p22 w2^2) / 2
        c1 = a (<G dm1> + <T p det>)
        c2 = a^2 (<Gm dm1> + <G T det> + <Dt p det>)
        c3 = a^3 (<Gm T det> + <G Dt det>)
        c4 = a^4 <Gm Dt det>

    The sums are einsums over the point axis: "drp,rp->dr" against per-node
    weights (v, dm1, p det) and "drp,drp,rp->dr" for the higher-order
    products. L, T, Dt, G and Gm are the only arrays of direction-point
    size, built per block of replicas (_direction_sums) to keep them small;
    each sum runs over the points of one replica, so the block size does
    not change a bit. psi enters c1 through its own sum (phi-only
    directions have no other terms).
    """

    # points per block of replicas in the direction sums (at least one
    # replica): bounds a block's temporaries to a few MB; of 1024 to 16384
    # points per block, 4096 and 8192 ran fastest at 16 x 1024 points
    _BLOCK_POINTS = 8192

    def __init__(self, grid: TorusGrid, pressure, perts: tuple[PerturbationField, ...],
                 replicas: int, nu: float):
        self.grid = grid
        self.pressure = pressure
        self.perts = perts
        self.nu = nu
        npert = len(perts)
        self.k0 = np.zeros(replicas)
        self.b0 = np.zeros(replicas)
        self.k1 = np.zeros((npert, replicas))
        self.k2 = np.zeros((npert, replicas))
        self.c = np.zeros((npert, 4, replicas))  # c1..c4
        self.htr_max = np.zeros(npert)
        self.hdet_max = np.zeros(npert)
        self.det_defect_max = 0.0
        w_ids = [i for i, p in enumerate(perts) if p._w_stack is not None]
        phi_ids = [i for i, p in enumerate(perts) if p._phi_stack is not None]
        rows = ([perts[i]._w_stack[j] for j in range(8) for i in w_ids]
                + [perts[i]._phi_stack[0] for i in phi_ids])
        self._union_eval = PointEvaluator(grid, np.stack(rows)) if rows else None
        self._w_ids = np.asarray(w_ids, dtype=int)
        self._phi_ids = np.asarray(phi_ids, dtype=int)
        self._mixed = np.array([(w_ids.index(i), f) for f, i in enumerate(phi_ids)
                                if i in w_ids], dtype=int).reshape(-1, 2).T

    def accumulate(self, node, t, ens, drift_values, drift_grads, weight):
        table = self.node_table(ens)
        g = self.grid
        wi = self._w_ids
        pc = self.pressure.coeffs_at(t)
        prows = [pc]
        if wi.size:
            # p along g + eps h expands through grad p and Hess p
            prows += [1j * g.k1 * pc, 1j * g.k2 * pc,
                      -g.k1 * g.k1 * pc, -g.k1 * g.k2 * pc, -g.k2 * g.k2 * pc]
        pstack = table.evaluate(PointEvaluator(g, np.stack(prows)))
        p_pts = pstack[0]
        det = det_jacobian(ens)
        dm1 = det - 1.0
        self.det_defect_max = max(self.det_defect_max, float(np.max(np.abs(dm1))))
        v = np.moveaxis(drift_values, -1, 0).copy()
        self.k0 += weight * _lattice_quadrature(v[0] ** 2 + v[1] ** 2)
        self.b0 += weight * _lattice_quadrature(p_pts * dm1)
        if self._union_eval is None:
            return
        allp = table.evaluate(self._union_eval)
        replicas, npts = dm1.shape
        q = weight * TWO_PI**2 / npts
        aval = np.array([p.envelope.value(t) for p in self.perts])
        nw = wi.size
        psi = allp[8 * nw:]
        if psi.size:
            fi = self._phi_ids
            self.c[fi, 0] += q * aval[fi, None] * np.einsum("frp,rp->fr", psi, dm1)
        if not nw:
            return
        W = allp[:8 * nw].reshape((2, 4, nw) + dm1.shape)
        sums = np.empty((9, nw, replicas))
        tr_max = np.zeros(nw)
        det_max = np.zeros(nw)
        step = max(1, self._BLOCK_POINTS // npts)
        for s in range(0, replicas, step):
            b = slice(s, s + step)
            sums[:, :, b], tmx, dmx = _direction_sums(
                W[..., b, :], psi[:, b], self._mixed, v[:, b], self.nu, pstack[:, b],
                det[b], dm1[b])
            tr_max = np.maximum(tr_max, tmx)
            det_max = np.maximum(det_max, dmx)
        a = aval[wi, None]
        da = np.array([self.perts[i].envelope.derivative(t) for i in wi])[:, None]
        a2 = a * a
        self.k1[wi] += q * (da * sums[0] + a * sums[1])
        self.k2[wi] += q * (da * da * sums[2] + 2.0 * da * a * sums[3] + a2 * sums[4])
        self.c[wi] += q * (np.stack([a, a2, a2 * a, a2 * a2], axis=1) * sums[5:].transpose(1, 0, 2))
        # a >= 0, so max |a T| = a max |T| bit for bit, and likewise for a^2 Dt
        self.htr_max[wi] = np.maximum(self.htr_max[wi], a[:, 0] * tr_max)
        self.hdet_max[wi] = np.maximum(self.hdet_max[wi], a2[:, 0] * det_max)


@dataclass(eq=False)
class ActionRun:
    """A completed accumulation pass: everything needed to evaluate S(eps)
    for every registered perturbation without touching the paths again."""

    grid: TorusGrid
    nu: float
    dt: float
    t_final: float
    perturbations: tuple[PerturbationField, ...]
    kinetic0: np.ndarray          # per-replica S1 eps^0 coefficient (times 2)
    constraint0: np.ndarray       # per-replica S2 at eps = 0
    kinetic1: np.ndarray          # (npert, R)
    kinetic2: np.ndarray
    constraint_poly: np.ndarray   # (npert, 4, R): eps^1..eps^4 coefficients
    htr_max: np.ndarray
    hdet_max: np.ndarray
    det_defect_max: float
    final_ensemble: FlowEnsemble

    @property
    def replicas(self) -> int:
        return self.kinetic0.shape[0]

    def pert_index(self, pert) -> int:
        if isinstance(pert, (int, np.integer)):
            npert = len(self.perturbations)
            if not 0 <= pert < npert:
                raise ValueError(f"perturbation index {int(pert)} is outside [0, {npert})")
            return int(pert)
        for i, q in enumerate(self.perturbations):
            if q is pert:
                return i
        raise ValueError("perturbation was not registered with this run")

    def replica_action(self, pert=None, epsilon: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """Per-replica (S1, S2) values at the given eps along a perturbation."""
        s1 = 0.5 * self.kinetic0
        s2 = self.constraint0.copy()
        if pert is not None and epsilon != 0.0:
            i = self.pert_index(pert)
            s1 = s1 + epsilon * self.kinetic1[i] + 0.5 * epsilon**2 * self.kinetic2[i]
            powers = epsilon ** np.arange(1, 5)
            s2 = s2 + powers @ self.constraint_poly[i]
        return s1, s2


def _quadrature_weights(kind: str, steps: int, dt: float) -> np.ndarray:
    if kind == "simpson":
        return simpson_weights(steps, dt)
    if kind == "trapezoid":
        return trapezoid_weights(steps, dt)
    raise ValueError(f"unknown quadrature {kind!r}")


def _action_pass(drift: DriftField, pressure, make_observer, *, nu: float, dt: float,
                 t_final: float, driver: BrownianDriver, ensemble: FlowEnsemble | None,
                 stride: int, quadrature: str):
    """The flow pass behind the action and its pathwise form.

    Checks the horizon, the lattice (defaulting to the full grid with the
    driver's replica count) and the pressure grid, then runs the flow with
    the observer make_observer(replicas, steps); returns the observer and
    the final ensemble.
    """
    steps = _step_count(t_final, dt, "t_final must be an integer multiple of dt")
    if ensemble is None:
        ensemble = make_flow_ensemble(drift.grid, driver.replicas, stride=stride)
    if ensemble.jacobians is None:
        raise ValueError("the action needs Jacobian tracking")
    if pressure.grid != drift.grid:
        raise ValueError("pressure lives on a different grid")
    weights = _quadrature_weights(quadrature, steps, dt)
    obs = make_observer(ensemble.replicas, steps)
    final = run_flow(ensemble, drift, nu, dt, steps, driver, observers=(obs,),
                     weights=weights)
    return obs, final


def prepare_action_run(drift: DriftField, pressure, *, nu: float, dt: float,
                       t_final: float, driver: BrownianDriver,
                       ensemble: FlowEnsemble | None = None, stride: int = 1,
                       perturbations=(), quadrature: str = "simpson") -> ActionRun:
    """Run the flow once, accumulating action polynomials for all perturbations.

    The ensemble defaults to the full grid lattice with the driver's replica
    count. All perturbation envelopes must live on [0, t_final].
    """
    perts = tuple(perturbations)
    for pert in perts:
        if abs(pert.envelope.t_final - t_final) > 1e-12:
            raise ValueError(
                f"perturbation {pert.label!r} lives on horizon "
                f"{pert.envelope.t_final}, run has {t_final}")
    obs, final = _action_pass(
        drift, pressure,
        lambda replicas, steps: _ActionObserver(drift.grid, pressure, perts, replicas, nu),
        nu=nu, dt=dt, t_final=t_final, driver=driver, ensemble=ensemble,
        stride=stride, quadrature=quadrature)
    return ActionRun(drift.grid, nu, dt, t_final, perts,
                     obs.k0, obs.b0, obs.k1, obs.k2, obs.c,
                     obs.htr_max, obs.hdet_max, obs.det_defect_max, final)


def _breakdown(s1: np.ndarray, s2: np.ndarray) -> ActionBreakdown:
    return ActionBreakdown(float(s1.mean()), float(s2.mean()),
                           float(_replica_stderr(s1)), float(_replica_stderr(s2)),
                           s1.shape[0])


def action_evaluate(run: ActionRun) -> ActionBreakdown:
    """S(g, p) itself: replica means of the kinetic and constraint terms."""
    return _breakdown(*run.replica_action())


def perturbed_action(run: ActionRun, pert, epsilon: float) -> ActionBreakdown:
    """S(g^eps, p^eps) along a registered perturbation, same paths as the base."""
    i = run.pert_index(pert)
    worst = abs(epsilon) * run.htr_max[i] + epsilon**2 * run.hdet_max[i]
    if worst > 0.8:
        raise ValueError(
            f"eps = {epsilon} may make I + eps grad h singular "
            f"(|eps tr H| + eps^2 |det H| up to {worst:.3f})")
    return _breakdown(*run.replica_action(i, epsilon))


# ---------------------------------------------------------------------------
# Gateaux derivative
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class GateauxEstimate:
    """Central-difference ladder and its Richardson limit.

    rungs holds (eps, value, stderr) per ladder entry; extrapolated removes
    the O(eps^2) term from the two smallest rungs. order_estimate reports the
    observed convergence order of the rung deviations (None when the rungs
    already agree to roundoff, e.g. multiplier-only perturbations).
    """

    label: str
    rungs: list[tuple[float, float, float]]
    extrapolated: float
    stderr: float
    order_estimate: float | None


def gateaux_derivative(run: ActionRun, pert, epsilon_ladder) -> GateauxEstimate:
    """delta S along a perturbation from the common-random-number ladder."""
    ladder = [float(e) for e in epsilon_ladder]
    if len(ladder) < 2:
        raise ValueError("the ladder needs at least two eps values")
    if any(e <= 0 for e in ladder) or any(a <= b for a, b in zip(ladder, ladder[1:])):
        raise ValueError("epsilon ladder must be strictly decreasing and positive")
    i = run.pert_index(pert)
    per_rung = []
    diffs = []
    for eps in ladder:
        plus = np.add(*run.replica_action(i, eps))
        minus = np.add(*run.replica_action(i, -eps))
        d = (plus - minus) / (2.0 * eps)
        diffs.append(d)
        per_rung.append((eps, float(d.mean()), float(_replica_stderr(d))))
    e1, e0 = ladder[-2], ladder[-1]
    extrap = (e1**2 * diffs[-1] - e0**2 * diffs[-2]) / (e1**2 - e0**2)
    mean = float(extrap.mean())
    se = float(_replica_stderr(extrap))
    order = None
    devs = [abs(v - mean) for _, v, _ in per_rung]
    if len(per_rung) >= 2 and min(devs) > 1e-13 * max(1.0, abs(mean)):
        fit = np.polyfit(np.log(ladder), np.log(devs), 1)
        order = float(fit[0])
    return GateauxEstimate(run.perturbations[i].label, per_rung, mean, se, order)


# ---------------------------------------------------------------------------
# Euler-Lagrange pairing and multiplier probes
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ELResidual:
    """Monte Carlo pairing of the momentum residual with h, plus the grid
    sup-norm of the residual field itself for reference."""

    pairing: float
    stderr: float
    residual_norm: float


class _PairingObserver(FlowObserver):
    def __init__(self, grid, drift, pressure, pert, nu, replicas):
        self.grid = grid
        self.drift = drift
        self.pressure = pressure
        self.pert = pert
        self.nu = nu
        self.acc = np.zeros(replicas)
        self.residual_norm = 0.0
        # only the value rows of w pair with the residual
        self.w_eval = None if pert.w_coeffs is None else PointEvaluator(grid, pert.w_coeffs)

    def _residual_coeffs(self, t: float) -> np.ndarray:
        """d_t v + (v . grad) v - nu Lap v + grad p, spectrally."""
        g = self.grid
        c = self.drift.coeffs_at(t)
        adv = _to_full(g, _advection_half(g, _to_half(g, c)))
        pc = self.pressure.coeffs_at(t)
        res = self.drift.velocity_dt_coeffs_at(t) + adv + self.nu * g.k_squared * c
        res = res + np.stack([1j * g.k1 * pc, 1j * g.k2 * pc])
        return res

    def accumulate(self, node, t, ens, drift_values, drift_grads, weight):
        res = self._residual_coeffs(t)
        self.residual_norm = max(
            self.residual_norm, float(np.max(np.abs(_ifft(res)))))
        if self.w_eval is None:
            return
        table = self.node_table(ens)
        rvals = table.evaluate(PointEvaluator(self.grid, res))
        a = self.pert.envelope.value(t)
        w = table.evaluate(self.w_eval)
        pair = a * (rvals[0] * w[0] + rvals[1] * w[1])
        self.acc += weight * _lattice_quadrature(pair)


def euler_lagrange_residual(drift: DriftField, pressure, pert: PerturbationField, *,
                            nu: float, dt: float, t_final: float,
                            driver: BrownianDriver,
                            ensemble: FlowEnsemble | None = None, stride: int = 1,
                            quadrature: str = "simpson") -> ELResidual:
    """E int int (d_t v + (v . grad) v - nu Lap v + grad p) . h (t, g_t) dx dt.

    Runs its own flow pass (positions only) with the same driver keys as an
    action pass, so the paths match an action run at identical parameters.
    """
    steps = _step_count(t_final, dt, "t_final must be an integer multiple of dt")
    if ensemble is None:
        ensemble = make_flow_ensemble(drift.grid, driver.replicas, stride=stride,
                                      jacobians=False)
    weights = _quadrature_weights(quadrature, steps, dt)
    obs = _PairingObserver(drift.grid, drift, pressure, pert, nu, ensemble.replicas)
    run_flow(ensemble, drift, nu, dt, steps, driver, observers=(obs,), weights=weights)
    return ELResidual(float(obs.acc.mean()), float(_replica_stderr(obs.acc)),
                      obs.residual_norm)


@dataclass(eq=False)
class MultiplierProbe:
    label: str
    value: float
    stderr: float


def multiplier_probe(drift: DriftField, *, nu: float, dt: float, t_final: float,
                     driver: BrownianDriver, phis=None,
                     ensemble: FlowEnsemble | None = None, stride: int = 1,
                     quadrature: str = "simpson") -> list[MultiplierProbe]:
    """E int int phi(t, g_t(x)) (det grad g_t(x) - 1) dx dt per multiplier phi.

    Vanishing for every phi in a separating family forces det grad g = 1:
    the probes are the incompressibility half of criticality. phi defaults to
    the multiplier part of the default basis.
    """
    if phis is None:
        phis = default_multiplier_basis(drift.grid, t_final)
    run = prepare_action_run(drift, ZeroPressure(drift.grid), nu=nu, dt=dt,
                             t_final=t_final, driver=driver, ensemble=ensemble,
                             stride=stride, perturbations=phis, quadrature=quadrature)
    out = []
    for i, phi in enumerate(phis):
        vals = run.constraint_poly[i, 0]  # eps^1 coefficient: int phi (det - 1)
        out.append(MultiplierProbe(phi.label, float(vals.mean()),
                                   float(_replica_stderr(vals))))
    return out
