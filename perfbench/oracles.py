"""Checks of svns outputs against computations made apart from the program.

The references are plain numpy written for the benchmark: closed forms,
transforms applied as explicit DFT matrices, and direct Fourier sums over all
n^2 modes. No reference calls into svns. Every check returns a list of
problems; an empty list means the output passed.

Coefficient layout (shared with svns, since its outputs are read in it):
u(x) = sum_k c[a, b] exp(i (k_a x1 + k_b x2)) with k in FFT order
0, 1, ..., n/2 - 1, -n/2, ..., -1 on both axes, grid x_j = 2 pi j / n.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def wavenumbers(n: int) -> np.ndarray:
    return np.concatenate([np.arange(n // 2), np.arange(-n // 2, 0)]).astype(np.float64)


def _dft_matrix(n: int) -> np.ndarray:
    """E[j, a] = exp(i k_a x_j): grid values = E c E^T."""
    x = TWO_PI * np.arange(n) / n
    return np.exp(1j * np.outer(x, wavenumbers(n)))


def grid_values(coeffs: np.ndarray) -> np.ndarray:
    """Real grid values of coefficient arrays (..., n, n), by DFT matrices."""
    e = _dft_matrix(coeffs.shape[-1])
    return (e @ coeffs @ e.T).real


def grid_coeffs(values: np.ndarray) -> np.ndarray:
    """Coefficients of real grid values (..., n, n): the inverse of grid_values."""
    n = values.shape[-1]
    e = _dft_matrix(n)
    return np.conj(e).T @ values @ np.conj(e) / (n * n)


def direct_sum(coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Sum over all n^2 modes at arbitrary points (P, 2); returns (..., P)."""
    k = wavenumbers(coeffs.shape[-1])
    e1 = np.exp(1j * np.outer(points[:, 0], k))          # (P, n)
    e2 = np.exp(1j * np.outer(points[:, 1], k))
    inner = coeffs @ e2.T                                # (..., n, P)
    return np.einsum("pa,...ap->...p", e1, inner).real


def _grad(coeffs: np.ndarray) -> np.ndarray:
    """i k_j c for j = 1, 2, stacked on a new axis before the last two."""
    k = wavenumbers(coeffs.shape[-1])
    return np.stack([1j * k[:, None] * coeffs, 1j * k[None, :] * coeffs], axis=-3)


def taylor_green_values(n: int, t: float, nu: float, amplitude: float) -> np.ndarray:
    """(2, n, n) closed form A e^{-2 nu t} (sin x1 cos x2, -cos x1 sin x2)."""
    x = TWO_PI * np.arange(n) / n
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    a = amplitude * np.exp(-2.0 * nu * t)
    return np.stack([a * np.sin(x1) * np.cos(x2), -a * np.cos(x1) * np.sin(x2)])


def bits_equal(a, b) -> bool:
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# ns-verify
# ---------------------------------------------------------------------------

def check_taylor_green(times, velocity, nu, amplitude, tol=1e-8, chunk=128) -> list[str]:
    """Sup-norm distance of every stored node from the closed form."""
    n = velocity.shape[-1]
    worst = 0.0
    for lo in range(0, len(times), chunk):
        vals = grid_values(velocity[lo:lo + chunk])
        for j, t in enumerate(times[lo:lo + chunk]):
            exact = taylor_green_values(n, float(t), nu, amplitude)
            worst = max(worst, float(np.max(np.abs(vals[j] - exact))))
    if not worst <= tol:
        return [f"Taylor-Green sup-norm error {worst:.3e} > {tol:g}"]
    return []


def _dealias_mask(n: int) -> np.ndarray:
    keep = np.abs(wavenumbers(n)) < n / 3.0
    return keep[:, None] & keep[None, :]


def momentum_residual(nu, velocity, pressure, tendency, chunk=128) -> float:
    """max over nodes of ||d_t v + (v.grad)v - nu Lap v + grad p||_L2,
    with the advection product formed on the grid by DFT matrices."""
    n = velocity.shape[-1]
    k = wavenumbers(n)
    ksq = k[:, None] ** 2 + k[None, :] ** 2
    mask = _dealias_mask(n)
    worst = 0.0
    for lo in range(0, velocity.shape[0], chunk):
        c = velocity[lo:lo + chunk]
        w = grid_values(c)                       # (m, 2, n, n)
        g = grid_values(_grad(c))                # (m, 2, 2, n, n): [i, j] = d_j v_i
        prod = w[:, None, 0] * g[:, :, 0] + w[:, None, 1] * g[:, :, 1]
        adv = grid_coeffs(prod) * mask
        p = pressure[lo:lo + chunk]
        gp = np.stack([1j * k[:, None] * p, 1j * k[None, :] * p], axis=1)
        res = tendency[lo:lo + chunk] + adv + nu * ksq * c + gp
        norms = np.sqrt(TWO_PI**2 * np.sum(np.abs(res) ** 2, axis=(1, 2, 3)))
        worst = max(worst, float(norms.max()))
    return worst


def check_residual(nu, velocity, pressure, tendency, program_residual,
                   tol=1e-10) -> list[str]:
    own = momentum_residual(nu, velocity, pressure, tendency)
    out = []
    if not own <= tol:
        out.append(f"momentum residual (own) {own:.3e} > {tol:g}")
    if not program_residual <= tol:
        out.append(f"ns_residual {program_residual:.3e} > {tol:g}")
    return out


def energy_defects(times, nu, velocity) -> np.ndarray:
    """|E(t+dt) - E(t) + nu dt (D(t) + D(t+dt)) / 2| per step, by Parseval."""
    n = velocity.shape[-1]
    k = wavenumbers(n)
    ksq = k[:, None] ** 2 + k[None, :] ** 2
    sq = np.abs(velocity) ** 2
    energy = 0.5 * TWO_PI**2 * sq.sum(axis=(1, 2, 3))
    dissipation = TWO_PI**2 * (ksq * sq).sum(axis=(1, 2, 3))
    dt = np.diff(times)
    return np.abs(np.diff(energy) + nu * dt * 0.5 * (dissipation[:-1] + dissipation[1:]))


def check_energy(times, nu, velocity, program_defects, tol=1e-10) -> list[str]:
    own = float(np.max(energy_defects(times, nu, velocity)))
    prog = float(np.max(program_defects))
    out = []
    if not own <= tol:
        out.append(f"energy-balance defect (own) {own:.3e} > {tol:g}")
    if not prog <= tol:
        out.append(f"energy_balance_defects {prog:.3e} > {tol:g}")
    return out


def check_translation_charges(velocity, program_charge, program_residual,
                              tol=1e-10, rel=1e-12, chunk=128) -> list[str]:
    """Both momentum components stay constant; the program's x-charge series
    matches the own quadrature and its residual vanishes."""
    charges, peak = [], 1.0
    for lo in range(0, velocity.shape[0], chunk):
        vals = grid_values(velocity[lo:lo + chunk])
        charges.append(TWO_PI**2 * vals.mean(axis=(-2, -1)))
        peak = max(peak, float(np.max(np.abs(vals))))
    charges = np.concatenate(charges)                    # (nodes, 2)
    scale = TWO_PI**2 * peak
    out = []
    drift = float(np.max(np.abs(charges - charges[0])))
    if not drift <= rel * scale:
        out.append(f"translation charges drift by {drift:.3e}")
    gap = float(np.max(np.abs(np.asarray(program_charge) - charges[:, 0])))
    if not gap <= rel * scale:
        out.append(f"noether_residual charge differs from own quadrature by {gap:.3e}")
    worst = float(np.max(np.abs(program_residual)))
    if not worst <= tol:
        out.append(f"translation Noether residual {worst:.3e} > {tol:g}")
    return out


def checkpoint_slots(nodes: int, stride: int) -> list[int]:
    """Node indices a strided trajectory checkpoint stores: every stride-th
    node and always the last one."""
    idx = list(range(0, nodes, stride))
    if idx[-1] != nodes - 1:
        idx.append(nodes - 1)
    return idx


def check_trajectory_reload(times, velocity, pressure, tendency, nu, stride,
                            loaded) -> list[str]:
    idx = checkpoint_slots(len(times), stride)
    out = []
    if not bits_equal(loaded.times, np.asarray(times)[idx]):
        out.append("reloaded checkpoint times differ from the stored nodes")
    for name, mem, got in (("velocity", velocity, loaded.velocity_coeffs),
                           ("pressure", pressure, loaded.pressure_coeffs),
                           ("tendency", tendency, loaded.rhs_coeffs)):
        if not bits_equal(got, mem[idx]):
            out.append(f"reloaded {name} is not bit-identical")
    if loaded.nu != nu:
        out.append(f"reloaded viscosity {loaded.nu!r} != {nu!r}")
    return out


def check_resampled_node(resampled, stored, rel=1e-12) -> list[str]:
    """Sampling a drift at one of its own stored times returns that node."""
    gap = float(np.max(np.abs(np.asarray(resampled) - stored)))
    scale = max(1.0, float(np.max(np.abs(stored))))
    if not gap <= rel * scale:
        return [f"resampling at the last stored time misses the node by {gap:.3e}"]
    return []


# ---------------------------------------------------------------------------
# criticality
# ---------------------------------------------------------------------------

def check_gateaux(kinetic1, constraint_eps1, estimate, dt, sigma=3.0,
                  agree=1e-10) -> list[str]:
    """One direction: the Richardson limit of the central ladder equals the
    eps^1 coefficient kinetic1 + c1 per replica, and it lies in the band."""
    own = np.asarray(kinetic1) + np.asarray(constraint_eps1)
    r = own.size
    mean = float(own.mean())
    se = float(own.std(ddof=1) / np.sqrt(r)) if r > 1 else 0.0
    band = sigma * se + dt * dt
    out = []
    if not abs(estimate.extrapolated - mean) <= agree:
        out.append(f"{estimate.label}: extrapolated {estimate.extrapolated:.6e} "
                   f"!= own {mean:.6e}")
    if not abs(mean) <= band:
        out.append(f"{estimate.label}: derivative {mean:.3e} outside {sigma:g} se + dt^2 "
                   f"= {band:.3e}")
    prog_band = sigma * estimate.stderr + dt * dt
    if not abs(estimate.extrapolated) <= prog_band:
        out.append(f"{estimate.label}: program derivative {estimate.extrapolated:.3e} "
                   f"outside {prog_band:.3e}")
    return out


def det_defect(jacobians: np.ndarray) -> float:
    j = jacobians
    det = j[..., 0, 0] * j[..., 1, 1] - j[..., 0, 1] * j[..., 1, 0]
    return float(np.max(np.abs(det - 1.0)))


def check_det(program_max, final_jacobians, tol=1e-4) -> list[str]:
    own = det_defect(final_jacobians)
    out = []
    if not program_max <= tol:
        out.append(f"det J defect {program_max:.3e} > {tol:g}")
    if not own <= tol:
        out.append(f"final det J defect (own) {own:.3e} > {tol:g}")
    return out


def check_point_eval(coeffs, points, v_prog, grad_prog, rel=1e-12) -> list[str]:
    """velocity_and_gradient at sample points against direct sums: v at
    (P, 2), grad v at (P, 2, 2) with [i, j] = d_j v_i."""
    v = direct_sum(coeffs, points).T                       # (P, 2)
    grad = np.moveaxis(direct_sum(_grad(coeffs), points), -1, 0)   # (P, 2, 2)
    out = []
    for name, got, ref in (("velocity", v_prog, v), ("gradient", grad_prog, grad)):
        gap = float(np.max(np.abs(np.asarray(got) - ref)))
        scale = float(np.max(np.abs(ref)))
        if not gap <= rel * scale:
            out.append(f"point {name} differs from the direct sum by {gap:.3e} "
                       f"(scale {scale:.3e})")
    return out


def check_tilde(mart, wiener, nu, kinetic, kinetic0, tol=1e-13, rel=1e-12) -> list[str]:
    """The dM and sqrt(2 nu) dW pairings cancel, and the pathwise kinetic
    term equals the action pass's on the same paths."""
    defect = float(np.max(np.abs(np.asarray(mart) - np.sqrt(2.0 * nu) * np.asarray(wiener))))
    out = []
    if not defect <= tol:
        out.append(f"stochastic-integral cancellation defect {defect:.3e} > {tol:g}")
    gap = float(np.max(np.abs(np.asarray(kinetic) - kinetic0)))
    if not gap <= rel * max(1.0, float(np.max(np.abs(kinetic0)))):
        out.append(f"tilde kinetic term differs from the action pass by {gap:.3e}")
    return out


def check_ensemble_reload(ens, seed, loaded, loaded_seed) -> list[str]:
    out = []
    for name in ("initial_points", "positions", "jacobians"):
        if not bits_equal(getattr(loaded, name), getattr(ens, name)):
            out.append(f"reloaded ensemble {name} is not bit-identical")
    if loaded.t != ens.t or loaded.step_index != ens.step_index:
        out.append("reloaded ensemble time or step differs")
    if loaded_seed != seed:
        out.append(f"reloaded seed {loaded_seed} != {seed}")
    return out


# ---------------------------------------------------------------------------
# noether
# ---------------------------------------------------------------------------

def check_invariance(defect, stderr, dt, warning=None, sigma=3.0) -> list[str]:
    band = sigma * np.asarray(stderr) + dt * dt
    excess = np.asarray(defect) - band
    out = []
    if warning:
        out.append(f"invariance check warned: {warning}")
    if not np.all(excess <= 0.0):
        i = int(np.argmax(excess))
        out.append(f"invariance defect {defect[i]:.3e} outside band {band[i]:.3e} at node {i}")
    return out


def check_charge_drift(t, drift, stderr, dt, sigma=3.0) -> list[str]:
    band = sigma * stderr + dt * dt
    if not abs(drift) <= band:
        return [f"charge drift {drift:.3e} at t={t:g} outside band {band:.3e}"]
    return []


def check_charge_series(series, velocity_coeffs, positions, eta, rel=1e-12) -> list[str]:
    """Per-replica (2 pi)^2 lattice mean of v . eta at the particles, with v
    from direct sums; eta is a constant translation vector."""
    r, p, _ = positions.shape
    vals = direct_sum(velocity_coeffs, positions.reshape(-1, 2)).reshape(2, r, p)
    own = TWO_PI**2 * (eta[0] * vals[0] + eta[1] * vals[1]).mean(axis=-1)
    gap = float(np.max(np.abs(np.asarray(series) - own)))
    scale = TWO_PI**2 * max(1.0, float(np.max(np.abs(vals))))
    if not gap <= rel * scale:
        return [f"probe charge series differs from the direct-sum quadrature by {gap:.3e}"]
    return []


# ---------------------------------------------------------------------------
# spde
# ---------------------------------------------------------------------------

def shifted_coeffs(u_coeffs, brownian, nu) -> np.ndarray:
    """Exact transport-noise solution for steady Euler data: per replica,
    c_k e^{i sqrt(2 nu) k . W}; brownian (R, 2) -> (R, 2, n, n)."""
    k = wavenumbers(u_coeffs.shape[-1])
    w = np.asarray(brownian)
    theta = np.sqrt(2.0 * nu) * (w[:, 0, None, None] * k[:, None]
                                 + w[:, 1, None, None] * k[None, :])
    return np.exp(1j * theta)[:, None] * u_coeffs


def l2_errors(coeffs, reference) -> np.ndarray:
    return np.sqrt(TWO_PI**2 * np.sum(np.abs(coeffs - reference) ** 2, axis=(1, 2, 3)))


def check_strong_errors(rows, own_errors, rel=1e-9) -> list[str]:
    """Every rung's mean error and standard error equal those of the own
    replay (per-replica errors against the exact shifted field), and the
    error at the coarsest step exceeds the error at the finest."""
    out = []
    for row, errs in zip(rows, own_errors):
        errs = np.asarray(errs)
        mean = float(errs.mean())
        se = float(errs.std(ddof=1) / np.sqrt(errs.size)) if errs.size > 1 else 0.0
        if not (abs(row.mean_error - mean) <= rel * mean
                and abs(row.stderr - se) <= rel * max(se, 1e-300)):
            out.append(f"dt={row.dt:g}: error {row.mean_error:.6e} +- {row.stderr:.3e} "
                       f"!= own {mean:.6e} +- {se:.3e}")
    if len(rows) != len(own_errors):
        out.append(f"{len(rows)} rungs reported, {len(own_errors)} expected")
    elif not rows[0].mean_error > rows[-1].mean_error:
        out.append(f"error at dt={rows[0].dt:g} ({rows[0].mean_error:.3e}) does not exceed "
                   f"the error at dt={rows[-1].dt:g} ({rows[-1].mean_error:.3e})")
    return out


def check_mode_means(stats, exact, nsigma=4.0) -> list[str]:
    """Each ensemble mean lies within nsigma standard errors of its exact
    heat-decayed value, real and imaginary parts apart."""
    out = []
    for stat, want in zip(stats, exact):
        for part, got, ref, se in (("re", stat.mean.real, want.real, stat.stderr_re),
                                   ("im", stat.mean.imag, want.imag, stat.stderr_im)):
            if not abs(got - ref) <= nsigma * se:
                out.append(f"mode {stat.mode} {part}: mean {got:.6e} vs exact {ref:.6e} "
                           f"outside {nsigma:g} se = {nsigma * se:.3e}")
    return out
