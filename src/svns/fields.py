"""Spectral fields on the periodic box [0, 2pi)^2.

Conventions used throughout the package:

    u(x) = sum_k u_hat(k) exp(i k . x),   k integer vectors, |k_i| <= n/2 - 1

so `transform` divides the forward FFT by n^2 and u_hat(0) is the spatial mean.
Real fields keep the full complex coefficient array with the conjugate symmetry
u_hat(-k) = conj(u_hat(k)) enforced explicitly. Products are formed on the grid
and dealiased by the 2/3 rule (modes with any |k_i| >= n/3 zeroed). The
spectral kernel behind the solvers (advection, Leray projection, pressure)
works on half-plane mode sets k2 >= 0 of a real field's coefficients, which
hold every independent mode once, so conjugate symmetry holds by
construction; one scatter rebuilds the full layout where arrays are stored
or returned. The half layout (columns k2 = 0..n/2, pocketfft transforms)
serves the diagnostics; the Navier-Stokes and SPDE marches run on the
smaller band layout, only the modes the 2/3 rule keeps, with transforms
done as matmuls by cached DFT matrices. Off-grid
evaluation is direct Fourier summation over the nonzero modes, which is exact
for band-limited fields. Since only real parts are returned, each stack is
folded once onto the half plane k2 >= 0 (d_k = c_k + conj(c_{-k})), which
halves the multiply-adds without assuming conjugate symmetry; the phases of
one point set live in a PhaseTable that a flow pass builds once per node and
shares between the drift and every observer, and the contraction runs in
fixed blocks of points. The module also holds the package's one worker
pool, which runs the SPDE march's replica blocks and the trajectory
diagnostics' node blocks.
"""

from __future__ import annotations

import functools
import os
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TorusGrid",
    "SpectralField",
    "SpectralVectorField",
    "transform",
    "vector_transform",
    "inverse_transform",
    "dealias",
    "enforce_conjugate_symmetry",
    "conjugate_defect",
    "gradient",
    "divergence",
    "laplacian",
    "jacobian_matrix",
    "leray_project",
    "poisson_solve",
    "multiply",
    "evaluate_at",
    "PointEvaluator",
    "PhaseTable",
    "l2_norm",
    "linf_norm",
    "kinetic_energy",
    "mean_value",
    "momentum",
    "parseval_integral",
    "save_field_snapshot",
    "load_field_snapshot",
]

TWO_PI = 2.0 * np.pi

# ---------------------------------------------------------------------------
# the worker pool: one thread per usable CPU, shared by the SPDE march and
# the trajectory diagnostics
# ---------------------------------------------------------------------------

_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_pools = {}  # worker count -> the one executor, built on first use
if hasattr(os, "register_at_fork"):  # a forked child has none of its threads
    os.register_at_fork(after_in_child=_pools.clear)


def _run(tasks) -> None:
    """Run zero-argument tasks, inline on one worker or for one task, else on
    the pool. The first failing task in list order raises once the later ones
    are cancelled or finished, so no task writes after the raise. A task must
    not call _run: nested waits on a fixed pool can deadlock."""
    if _WORKERS == 1 or len(tasks) == 1:
        for task in tasks:
            task()
        return
    from concurrent import futures  # here, not at import: it costs ~8 ms
    pool = _pools.get(_WORKERS)
    if pool is None:
        _pools.clear()
        pool = _pools[_WORKERS] = futures.ThreadPoolExecutor(_WORKERS, "svns")
    submitted = [pool.submit(task) for task in tasks]
    for i, future in enumerate(submitted):
        try:
            future.result()
        except BaseException:
            for later in submitted[i + 1:]:
                later.cancel()
            futures.wait(submitted)
            raise


class TorusGrid:
    """Uniform n x n collocation grid on [0, 2pi)^2 with its wavenumbers.

    Arrays are precomputed eagerly (n is small in practice) and marked
    read-only. Grids compare equal iff their resolutions match.
    """

    def __init__(self, n: int):
        if n < 4 or n % 2 != 0:
            raise ValueError(f"grid size must be an even integer >= 4, got {n}")
        self.n = int(n)
        self.dim = 2
        self.spacing = TWO_PI / n
        self.axis = np.arange(n) * self.spacing
        x1, x2 = np.meshgrid(self.axis, self.axis, indexing="ij")
        self.x1 = x1
        self.x2 = x2
        # integer wavenumbers in FFT layout: 0, 1, ..., n/2-1, -n/2, ..., -1
        k = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
        self.k = k
        self.k1 = k[:, None] * np.ones((1, n), dtype=np.int64)
        self.k2 = np.ones((n, 1), dtype=np.int64) * k[None, :]
        self.k_squared = (self.k1**2 + self.k2**2).astype(np.float64)
        # |k|^2 with the k = 0 entry set to 1, the divisor of mode-local solves
        self.k_squared_safe = self.k_squared.copy()
        self.k_squared_safe[0, 0] = 1.0
        # 2/3 rule: keep |k_i| < n/3 on every axis
        keep = np.abs(k) < n / 3.0
        self.dealias_mask = keep[:, None] & keep[None, :]
        for arr in (self.axis, self.x1, self.x2, self.k, self.k1, self.k2,
                    self.k_squared, self.k_squared_safe, self.dealias_mask):
            arr.setflags(write=False)
        self.half = _Modes(self, np.arange(n), n // 2 + 1)

    @functools.cached_property
    def band(self) -> _BandGrid:
        """The band layout and its transform matrices, built on first use:
        most grids (a loaded snapshot's, say) never march."""
        return _BandGrid(self)

    @property
    def points(self) -> np.ndarray:
        """Grid points as an (n, n, 2) array."""
        return np.stack([self.x1, self.x2], axis=-1)

    def __eq__(self, other) -> bool:
        return isinstance(other, TorusGrid) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("TorusGrid", self.n))

    def __repr__(self) -> str:
        return f"TorusGrid(n={self.n})"


class _Modes:
    """The grid's wavenumber arrays on a set of half-plane modes: the
    full-layout rows `rows` (FFT order, so row 0 is k1 = 0) and the columns
    k2 = 0..width - 1.

    A real field's coefficients at k2 >= 0 determine the rest
    (u_hat(-k) = conj(u_hat(k))), and every operator of the spectral kernel
    is mode-local, so the kernel runs on (len(rows), width) arrays. The half
    layout (every row, width n/2 + 1) holds every independent mode once and
    roughly halves both transform and elementwise cost; the band layout
    (_BandGrid) holds only the modes the 2/3 rule keeps. The attribute names
    match TorusGrid's, so mode-local functions accept any layout.
    """

    def __init__(self, grid: TorusGrid, rows: np.ndarray, width: int):
        self.rows = rows
        self.width = width
        self.k1 = grid.k1[rows, :width].astype(np.float64)
        self.k2 = grid.k2[rows, :width].astype(np.float64)
        self.ik1 = 1j * self.k1
        self.ik2 = 1j * self.k2
        self.k_squared = grid.k_squared[rows, :width]
        self.k_squared_safe = grid.k_squared_safe[rows, :width]
        self.dealias_mask = grid.dealias_mask[rows, :width]
        for arr in (self.rows, self.k1, self.k2, self.ik1, self.ik2, self.k_squared,
                    self.k_squared_safe, self.dealias_mask):
            arr.setflags(write=False)


# OpenBLAS runs a gemm of M N K up to 4 * 65536 multiply-adds on one thread
# whatever its thread setting (GEMM_MULTITHREAD_THRESHOLD)
_SERIAL_GEMM = 4 * 65536


def _phases(n: int, j: np.ndarray, k: np.ndarray) -> np.ndarray:
    """e^{2 pi i j k / n} for integer arrays j and k, from the exact phase
    index (j k) mod n into one table whose entries at m and n - m are exact
    conjugates, so no roundoff grows with |j k|. The quarter and half turns
    are exact, so the n/2 entry is real."""
    m = np.arange(n // 2 + 1)
    angle = TWO_PI / n * m
    table = np.empty(n, dtype=np.complex128)
    table[: n // 2 + 1] = (np.where(4 * m == n, 0.0, np.cos(angle))
                           + 1j * np.where(2 * m == n, 0.0, np.sin(angle)))
    table[n // 2 + 1:] = np.conj(table[n // 2 - 1:0:-1])
    return table[np.mod(np.multiply.outer(j, k), n)]


class _BandGrid(_Modes):
    """The band layout, the modes the 2/3 rule keeps, with the dense DFT
    matrices between that band and the grid.

    Rows hold k1 = 0..K, -K..-1 (FFT order, row 0 is k1 = 0), columns
    k2 = 0..K, with K = (n - 1) // 3, the largest |k| below n/3. These are
    the only half-layout modes a dealiased real field can carry, so a
    product formed on the grid is dealiased by transforming onto them
    alone. At small n a transform is cheaper as a matmul with a
    cached (2K+1) x n or n x (K+1) matrix than as an FFT, whose fixed cost
    per axis pass dominates (Canuto et al., Spectral Methods, 2006, sec. 3);
    grids too large for a single-threaded matmul transform by pocketfft.
    """

    def __init__(self, grid: TorusGrid):
        n = grid.n
        big_k = (n - 1) // 3
        super().__init__(grid, np.r_[0:big_k + 1, n - big_k:n], big_k + 1)
        self.K = big_k
        # -(I - k k^T / |k|^2) per mode as (2, 2, 2K+1, K+1), -I at k = 0:
        # the projected nonlinearity of the march in one product and a sum
        kk = np.stack([self.k1, self.k2])
        self.minus_leray = (kk[:, None] * kk[None, :] / self.k_squared_safe
                            - np.eye(2)[..., None, None])
        self.minus_leray.setflags(write=False)
        # _advection_band's inverse columns step, (2n x 4(K+1)) times (4(K+1) x n),
        # is the largest matmul of either march kernel (_vorticity_advection_band's
        # take n rows); above _SERIAL_GEMM OpenBLAS splits a gemm's output between
        # threads, and the entries at the edges of the split round differently, so
        # larger grids transform by pocketfft (single-threaded, and the cheaper
        # one there) to keep the marches independent of the thread count
        self.matmul = 2 * n * 4 * (big_k + 1) * n <= _SERIAL_GEMM
        if not self.matmul:
            return
        # The transforms are real matmuls on complex arrays viewed as float64,
        # whose last axis interleaves (Re, Im). With E = e^{i k1 x1} (n, 2K+1)
        # over [E; E ik1] and c = (2K+1, K+1) band coefficients, the rows
        # step forms Er c and Ei c, interleaved row by row so that each grid
        # row j holds [Er_j c | Ei_j c]; the columns step then takes
        # Re((Er c + i Ei c) T) for the column phases T = w e^{i k2 x2}, w = 1
        # at k2 = 0 and 2 above, with d2 as the columns step for ik2 T.
        j = np.arange(n)
        k1 = grid.k[self.rows]
        k2 = np.arange(big_k + 1)
        e1 = _phases(n, j, k1)
        e1 = np.concatenate([e1, e1 * (1j * k1)])
        self.inv_rows = np.stack([e1.real, e1.imag], axis=1).reshape(4 * n, -1)
        e2 = _phases(n, k2, j) * np.where(k2 == 0, 1.0, 2.0)[:, None]
        self.inv_cols = np.concatenate([_real_part_rows(e2), _real_part_rows(1j * e2)])
        e2 = 1j * k2[:, None] * e2
        self.inv_cols_d2 = np.concatenate([_real_part_rows(e2), _real_part_rows(1j * e2)])
        # forward: values times [T | i T] for T = e^{-i k2 x2} / n^2 gives,
        # per grid row, the interleaved B and i B; B's rows then meet
        # F = e^{-i k1 x1} as F.view(float64), whose columns pair (Fr, Fi)
        e3 = np.conj(_phases(n, j, k2)) / (n * n)
        self.fwd_cols = np.concatenate([e3, 1j * e3], axis=1).view(np.float64)
        self.fwd_rows = np.conj(_phases(n, k1, j)).view(np.float64)
        for arr in (self.inv_rows, self.inv_cols, self.inv_cols_d2, self.fwd_cols,
                    self.fwd_rows):
            arr.setflags(write=False)


def _real_part_rows(t: np.ndarray) -> np.ndarray:
    """The real (2p, q) matrix r with z.view(float64) @ r = Re(z @ t) for
    complex z (..., p) and t (p, q): rows Re t and -Im t, interleaved."""
    out = np.empty((2 * t.shape[0], t.shape[1]))
    out[0::2] = t.real
    out[1::2] = -t.imag
    return out


def _check_coeffs(grid: TorusGrid, coeffs: np.ndarray, ncomp: int | None) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    want = (grid.n, grid.n) if ncomp is None else (ncomp, grid.n, grid.n)
    if coeffs.shape != want:
        raise ValueError(f"coefficient array has shape {coeffs.shape}, expected {want}")
    return coeffs


@dataclass(eq=False)
class _Field:
    """The body shared by the scalar and vector fields: grid and coefficients,
    with `_ncomp` components (None for a scalar)."""

    grid: TorusGrid
    coeffs: np.ndarray
    _ncomp = None

    def __post_init__(self):
        self.coeffs = _check_coeffs(self.grid, self.coeffs, self._ncomp)

    def values(self) -> np.ndarray:
        """Grid values, shaped like the coefficients."""
        return _ifft(self.coeffs)

    def copy(self):
        return type(self)(self.grid, self.coeffs.copy())

    def __add__(self, other):
        _require_same_grid(self, other)
        return type(self)(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _require_same_grid(self, other)
        return type(self)(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float):
        return type(self)(self.grid, self.coeffs * float(scalar))

    __rmul__ = __mul__


class SpectralField(_Field):
    """Real scalar field stored as its full complex coefficient array."""


class SpectralVectorField(_Field):
    """Real 2-component vector field, coefficients shaped (2, n, n)."""

    _ncomp = 2

    def component(self, i: int) -> SpectralField:
        return SpectralField(self.grid, self.coeffs[i])


def _require_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


# ---------------------------------------------------------------------------
# transforms and raw-array helpers
# ---------------------------------------------------------------------------

def _fft(values: np.ndarray) -> np.ndarray:
    """Forward transform of grid values over the last two axes."""
    n = values.shape[-1]
    return np.fft.fft2(values) / (n * n)


def _ifft(coeffs: np.ndarray) -> np.ndarray:
    """Real grid values of a conjugate-symmetric coefficient array."""
    n = coeffs.shape[-1]
    return np.fft.ifft2(coeffs * (n * n)).real


def _to_half(grid: TorusGrid, c: np.ndarray) -> np.ndarray:
    """Keep columns k2 = 0..n/2 of a conjugate-symmetric full layout."""
    return np.ascontiguousarray(c[..., : grid.n // 2 + 1])


def _to_full(grid: TorusGrid, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rebuild the full layout from half- or band-layout coefficients of a
    real field (into `out` when given): zero off the layout's modes, and
    each missing column k2 < 0 holds conj values at the negated wavenumber."""
    n = grid.n
    rows, width = c.shape[-2:]
    # layout rows :lo (k1 >= 0) go to full rows :lo, rows lo: (k1 < 0) to hi:
    lo, hi = (rows + 1) // 2, n - rows // 2
    # columns k2 = 1..top lack their mirror: all k2 > 0 but the half
    # layout's last column, which is k2 = -n/2 itself
    top = min(width - 1, n // 2 - 1)
    if out is None:
        out = np.empty(c.shape[:-2] + (n, n), dtype=np.complex128)
    if rows < n:  # the band: zero the rows and columns it does not hold
        out[..., lo:hi, :] = 0.0
        out[..., width:n - top] = 0.0
    out[..., :lo, :width] = c[..., :lo, :]
    out[..., hi:, :width] = c[..., lo:, :]
    # the mirror of layout row i is row (rows - i) % rows: row 0 stays,
    # the other rows reverse
    neg = slice(top, 0, -1)
    mirror = out[..., n - top:]
    np.conj(c[..., :1, neg], out=mirror[..., :1, :])
    np.conj(c[..., :rows - lo:-1, neg], out=mirror[..., 1:lo, :])
    np.conj(c[..., rows - lo:0:-1, neg], out=mirror[..., hi:, :])
    return out


def _values_half(grid: TorusGrid, ch: np.ndarray) -> np.ndarray:
    """Grid values of half-layout coefficients (inverse real transform)."""
    return np.fft.irfft2(ch, s=(grid.n, grid.n), norm="forward")


def _advection_half(grid: TorusGrid, c: np.ndarray | None, values: np.ndarray | None = None,
                    f: np.ndarray | None = None) -> np.ndarray:
    """Dealiased (v . grad) f on the half layout.

    v is given by its coefficients c (..., 2, n, h), or by its grid values
    (..., 2, n, n) when these are at hand; f (..., m, n, h) defaults to v
    itself, the advection term of Navier-Stokes. v must be dealiased; f
    need not be.
    """
    hg = grid.half
    s = (grid.n, grid.n)
    w = _values_half(grid, c) if values is None else values
    f = c if f is None else f
    g1 = np.fft.irfft2(hg.ik1 * f, s=s, norm="forward")
    g2 = np.fft.irfft2(hg.ik2 * f, s=s, norm="forward")
    out = np.fft.rfft2(w[..., :1, :, :] * g1 + w[..., 1:, :, :] * g2, norm="forward")
    out *= hg.dealias_mask
    return out


def _to_band(grid: TorusGrid, c: np.ndarray) -> np.ndarray:
    """The band-layout modes of full- or half-layout coefficients."""
    return np.ascontiguousarray(c[..., grid.band.rows, : grid.band.K + 1])


def _band_irfft(grid: TorusGrid, cb: np.ndarray) -> np.ndarray:
    """Grid values (..., n, n) of band-layout coefficients (..., 2K+1, K+1):
    irfft2's passes on the K+1 band columns alone, padded implicitly."""
    b, n = grid.band, grid.n
    cols = np.zeros(cb.shape[:-2] + (n, b.K + 1), dtype=np.complex128)
    cols[..., b.rows, :] = cb
    return np.fft.irfft(np.fft.ifft(cols, axis=-2, norm="forward"), n, norm="forward")


def _band_rows(grid: TorusGrid, cb: np.ndarray, d1: bool = True) -> np.ndarray:
    """The matmul rows step of band coefficients (..., 2K+1, K+1), last axis
    contiguous: n rows (..., n, 4(K+1)) for the values, then n for d1 if set."""
    x = grid.band.inv_rows[:(4 if d1 else 2) * grid.n] @ cb.view(np.float64)
    return x.reshape(x.shape[:-2] + (-1, 4 * (grid.band.K + 1)))


def _band_values(grid: TorusGrid, cb: np.ndarray):
    """Grid values of band-layout coefficients (..., 2K+1, K+1), whose last
    axis must be contiguous, and of their d1 and d2 derivatives, each
    (..., n, n): one real matmul over the rows, then one over the columns
    for v and d1 v and one for d2 v (pocketfft on grids too large for a
    serial matmul)."""
    b, n = grid.band, grid.n
    if not b.matmul:
        vals = _band_irfft(grid, np.stack([cb, b.ik1 * cb, b.ik2 * cb], axis=-3))
        return tuple(np.moveaxis(vals, -3, 0))
    x = _band_rows(grid, cb)
    rows = x @ b.inv_cols
    return rows[..., :n, :], rows[..., n:, :], x[..., :n, :] @ b.inv_cols_d2


def _band_transform(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """Band-layout coefficients of real grid values (..., n, n): the forward
    transform restricted to the band, which is the 2/3-rule dealiasing."""
    b, n = grid.band, grid.n
    if not b.matmul:
        # rfft2's passes, the second on the K+1 band columns alone
        cols = np.fft.rfft(values, norm="forward")[..., : b.K + 1]
        return np.fft.fft(cols, axis=-2, norm="forward")[..., b.rows, :]
    y = values @ b.fwd_cols
    return (b.fwd_rows @ y.reshape(y.shape[:-2] + (2 * n, -1))).view(np.complex128)


def _advection_band(grid: TorusGrid, c: np.ndarray):
    """Dealiased (v . grad) v of band-layout coefficients c (..., 2, 2K+1, K+1),
    and the grid values of v (..., 2, n, n)."""
    w, d1, d2 = _band_values(grid, c)
    prod = w[..., :1, :, :] * d1
    d2 *= w[..., 1:, :, :]
    prod += d2
    return _band_transform(grid, prod), w


def _vorticity_advection_band(grid: TorusGrid, c: np.ndarray, om: np.ndarray):
    """Dealiased (v . grad) omega of band-layout velocity c (..., 2, 2K+1, K+1)
    with vorticity om (..., 2K+1, K+1), and the grid values of v (..., 2, n, n),
    by four inverse transforms (v1, v2, d1 omega, d2 omega) and one forward
    (Canuto et al., Spectral Methods, 2006, vorticity-streamfunction form)."""
    b, n = grid.band, grid.n
    if not b.matmul:
        vals = _band_irfft(grid, np.concatenate([c, np.stack([b.ik1 * om, b.ik2 * om], -3)], -3))
        w, g1, g2 = vals[..., :2, :, :], vals[..., 2, :, :], vals[..., 3, :, :]
    else:
        w = _band_rows(grid, c, d1=False) @ b.inv_cols
        x = _band_rows(grid, om)
        g1, g2 = x[..., n:, :] @ b.inv_cols, x[..., :n, :] @ b.inv_cols_d2
    return _band_transform(grid, w[..., 0, :, :] * g1 + w[..., 1, :, :] * g2), w


def transform(grid: TorusGrid, values: np.ndarray) -> SpectralField:
    """Scalar grid values -> spectral coefficients."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (grid.n, grid.n):
        raise ValueError(f"values have shape {values.shape}, expected {(grid.n, grid.n)}")
    return SpectralField(grid, _fft(values))


def vector_transform(grid: TorusGrid, values: np.ndarray) -> SpectralVectorField:
    """Vector grid values (2, n, n) -> spectral coefficients."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (2, grid.n, grid.n):
        raise ValueError(f"values have shape {values.shape}, expected {(2, grid.n, grid.n)}")
    return SpectralVectorField(grid, _fft(values))


def inverse_transform(field: SpectralField) -> np.ndarray:
    return _ifft(field.coeffs)


def _conjugate_flip(coeffs: np.ndarray) -> np.ndarray:
    """conj(u_hat(-k)) arranged on the same FFT layout."""
    flipped = np.flip(coeffs, axis=(-2, -1))
    return np.conj(np.roll(flipped, shift=(1, 1), axis=(-2, -1)))


def conjugate_defect(coeffs: np.ndarray) -> float:
    """Max deviation from the real-field symmetry u_hat(-k) = conj(u_hat(k))."""
    return float(np.max(np.abs(coeffs - _conjugate_flip(coeffs))))


def enforce_conjugate_symmetry(coeffs: np.ndarray) -> np.ndarray:
    """Project onto the conjugate-symmetric subspace (nearest real field)."""
    return 0.5 * (coeffs + _conjugate_flip(coeffs))


def dealias(field):
    """Zero all modes with any |k_i| >= n/3 (2/3 rule)."""
    mask = field.grid.dealias_mask
    return type(field)(field.grid, field.coeffs * mask)


# ---------------------------------------------------------------------------
# differential operators (exact in spectral space)
# ---------------------------------------------------------------------------

def _grad_coeffs(grid: TorusGrid, c: np.ndarray) -> np.ndarray:
    return np.stack([1j * grid.k1 * c, 1j * grid.k2 * c])


def _derivative_stack(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Rows f, d1 f, d2 f, Lap f of each component of (n, n) or (m, n, n)
    coefficients, stacked component by component as (4 m, n, n)."""
    c = np.asarray(coeffs, dtype=np.complex128).reshape(-1, grid.n, grid.n)
    rows = np.stack([c, 1j * grid.k1 * c, 1j * grid.k2 * c, -grid.k_squared * c], axis=1)
    return rows.reshape(-1, grid.n, grid.n)


def gradient(field: SpectralField) -> SpectralVectorField:
    """grad u, componentwise i k_j u_hat."""
    return SpectralVectorField(field.grid, _grad_coeffs(field.grid, field.coeffs))


def divergence(v: SpectralVectorField) -> SpectralField:
    g = v.grid
    return SpectralField(g, 1j * g.k1 * v.coeffs[0] + 1j * g.k2 * v.coeffs[1])


def laplacian(field):
    """Delta u = -|k|^2 u_hat, scalar or vector."""
    return type(field)(field.grid, -field.grid.k_squared * field.coeffs)


def jacobian_matrix(v: SpectralVectorField) -> np.ndarray:
    """Coefficients of grad v as a (2, 2, n, n) array, entry [i, j] = d v_i / d x_j."""
    g = v.grid
    return np.stack([1j * g.k1 * v.coeffs, 1j * g.k2 * v.coeffs], axis=1)


def _layout(grid: TorusGrid, c: np.ndarray):
    """The wavenumber arrays matching c's trailing axis: n for the full
    layout, n/2 + 1 for the half and K + 1 for the band, distinct for every
    even n >= 4."""
    width = c.shape[-1]
    if width == grid.n:
        return grid
    return grid.half if width == grid.half.width else grid.band


def _leray(grid: TorusGrid, c: np.ndarray) -> np.ndarray:
    """Apply I - k k^T / |k|^2 modewise to (..., 2, n, n) full, (..., 2, n, h)
    half or (..., 2, 2K+1, K+1) band-layout coefficients; the k = 0 mode
    passes through."""
    m = _layout(grid, c)
    c1 = c[..., 0, :, :]
    c2 = c[..., 1, :, :]
    kdot = (m.k1 * c1 + m.k2 * c2) / m.k_squared_safe  # zero at k = 0
    return np.stack([c1 - m.k1 * kdot, c2 - m.k2 * kdot], axis=-3)


def _inverse_laplacian(grid: TorusGrid, c: np.ndarray) -> np.ndarray:
    """phi with -Delta phi = c in the mean-zero gauge, any layout."""
    phi = c / _layout(grid, c).k_squared_safe
    phi[..., 0, 0] = 0.0
    return phi


def _pressure(grid: TorusGrid, adv: np.ndarray) -> np.ndarray:
    """Mean-zero p with -Delta p = div((v . grad) v), adv (..., 2, ...) in any
    layout."""
    m = _layout(grid, adv)
    return _inverse_laplacian(grid, 1j * (m.k1 * adv[..., 0, :, :] + m.k2 * adv[..., 1, :, :]))


def _biot_savart(grid: TorusGrid, omega: np.ndarray) -> np.ndarray:
    """Mean-zero divergence-free velocity (..., 2, rows, width) whose curl
    d1 v2 - d2 v1 is the half- or band-layout omega (..., rows, width):
    v = (d2 psi, -d1 psi) with -Delta psi = omega. The k = 0 entries are
    zero."""
    m = _layout(grid, omega)
    psi = omega / m.k_squared_safe
    return np.stack([m.ik2 * psi, -m.ik1 * psi], axis=-3)


def leray_project(v: SpectralVectorField) -> SpectralVectorField:
    """Project onto divergence-free fields, preserving the mean mode."""
    return SpectralVectorField(v.grid, _leray(v.grid, v.coeffs))


def poisson_solve(rhs: SpectralField, tol: float = 1e-10) -> SpectralField:
    """Solve -Delta phi = rhs with the mean-zero gauge phi_hat(0) = 0.

    The right-hand side must have (numerically) zero mean; otherwise no
    periodic solution exists and a ValueError is raised.
    """
    scale = max(1.0, float(np.max(np.abs(rhs.coeffs))))
    if abs(rhs.coeffs[0, 0]) > tol * scale:
        raise ValueError(
            f"Poisson right-hand side has nonzero mean {rhs.coeffs[0, 0]:.3e}"
        )
    return SpectralField(rhs.grid, _inverse_laplacian(rhs.grid, rhs.coeffs))


def multiply(a: SpectralField, b: SpectralField) -> SpectralField:
    """Pointwise product on the grid, transformed back and dealiased."""
    _require_same_grid(a, b)
    prod = _ifft(a.coeffs) * _ifft(b.coeffs)
    return SpectralField(a.grid, _fft(prod) * a.grid.dealias_mask)


# ---------------------------------------------------------------------------
# norms and integrals (Parseval)
# ---------------------------------------------------------------------------

def parseval_integral(coeffs: np.ndarray) -> float:
    """integral |u|^2 dx = (2 pi)^2 sum_k |u_hat(k)|^2, any leading axes summed."""
    return float(TWO_PI**2 * np.sum(np.abs(coeffs) ** 2))


def l2_norm(field) -> float:
    """L^2(dx) norm over the box (not normalized by volume)."""
    return float(np.sqrt(parseval_integral(field.coeffs)))


def linf_norm(field) -> float:
    """Sup norm of the grid values (componentwise max for vectors)."""
    return float(np.max(np.abs(_ifft(field.coeffs))))


def kinetic_energy(v: SpectralVectorField) -> float:
    """(1/2) integral |v|^2 dx."""
    return 0.5 * parseval_integral(v.coeffs)


def mean_value(field: SpectralField) -> float:
    return float(field.coeffs[0, 0].real)


def momentum(v: SpectralVectorField) -> np.ndarray:
    """integral v dx = (2 pi)^2 v_hat(0) componentwise."""
    return TWO_PI**2 * v.coeffs[:, 0, 0].real


# ---------------------------------------------------------------------------
# off-grid evaluation by direct Fourier summation
# ---------------------------------------------------------------------------

class PointEvaluator:
    """Direct-summation evaluator for a stack of coefficient arrays.

    The stack is trimmed to the rows/columns that carry nonzero coefficients
    (wavenumbers `kr`, `kc`, trimmed stack `sub`), which is exact and keeps
    the per-point cost proportional to the active band.

    Only real parts are returned, and for any stack

        Re sum_k c_k e^{ik.x} = Re sum_{k2 >= 0} d_k e^{ik.x},
        d_k = c_k + conj(c_{-k}) for k2 > 0,  d_k = c_k for k2 = 0,

    so the contraction runs over half the plane without assuming conjugate
    symmetry. The fold is computed once here. Its rows are the trimmed rows
    together with their negatives, so every folded term has a slot; a -n/2
    row yields a +n/2 row, which is off the grid but a valid phase. An
    unpaired -n/2 column has no +n/2 partner and enters as conj(c) at
    (-k1, n/2), the same term.
    """

    def __init__(self, grid: TorusGrid, coeffs_stack: np.ndarray):
        stack = np.asarray(coeffs_stack, dtype=np.complex128)
        if stack.ndim == 2:
            stack = stack[None]
        if stack.shape[-2:] != (grid.n, grid.n):
            raise ValueError("coefficient stack does not match the grid")
        self.grid = grid
        self.nfields = stack.shape[0]
        # modes below one ulp of the dominant coefficient contribute less than
        # the roundoff of the summation itself; dropping them keeps the active
        # band tight for fields that are sparse up to FFT noise
        mags = np.abs(stack)
        top = mags.max(initial=0.0)
        if not np.isfinite(top):
            raise ValueError(f"coefficient stack holds a non-finite value ({top})")
        nz = mags > 1e-15 * top
        rows = np.where(nz.any(axis=(0, 2)))[0]
        cols = np.where(nz.any(axis=(0, 1)))[0]
        if rows.size == 0:  # identically zero stack
            rows = np.array([0])
            cols = np.array([0])
        self.kr = grid.k[rows].astype(np.float64)
        self.kc = grid.k[cols].astype(np.float64)
        sub = stack[np.ix_(np.arange(self.nfields), rows, cols)]
        self.sub = np.ascontiguousarray(sub)
        # the fold onto k2 >= 0: a term at (k1, k2 < 0) moves to (-k1, -k2)
        k1, k2 = grid.k[rows], grid.k[cols]
        frows = np.union1d(k1, -k1)
        fcols = np.unique(np.abs(k2))
        neg = k2 < 0
        fold = np.zeros((self.nfields, frows.size, fcols.size), dtype=np.complex128)
        fold[:, np.searchsorted(frows, k1)[:, None],
             np.searchsorted(fcols, k2[~neg])] = sub[:, :, ~neg]
        fold[:, np.searchsorted(frows, -k1)[:, None],
             np.searchsorted(fcols, -k2[neg])] += np.conj(sub[:, :, neg])
        self.rows = tuple(int(k) for k in frows)
        self.cols = tuple(int(k) for k in fcols)
        # the contraction operand: real (nfields, 2 * rows * cols) holding
        # [Re d, -Im d] for the outer-product path, complex (nfields * cols,
        # rows) for the row matmul
        self.outer = frows.size * fcols.size <= PhaseTable._SMALL_BLOCK
        if self.outer:
            flat = fold.reshape(self.nfields, -1)
            self.coef = np.concatenate([flat.real, -flat.imag], axis=1)
        else:
            self.coef = np.ascontiguousarray(
                fold.transpose(0, 2, 1)).reshape(-1, frows.size)

    def __call__(self, points) -> np.ndarray:
        """Evaluate every field of the stack at raw points or at the points of
        a PhaseTable; returns (nfields,) + points.shape[:-1]."""
        table = points if isinstance(points, PhaseTable) else PhaseTable(points)
        return table.evaluate(self)


class PhaseTable:
    """Cached phase powers for evaluating many coefficient stacks at one
    point set.

    Only the base phases e^{i x_axis} are exponentiated; every other
    e^{i k x} row of an axis's ladder comes from in-place multiplication into
    one preallocated array. A run of consecutive nonnegative wavenumbers is a
    view of the ladder; other mode sets (the symmetric row sets of folded
    stacks) are assembled once and cached, so each additional stack
    evaluated at the same points costs only its half-plane contraction.
    A flow pass builds one table per replica block of a node's positions and
    shares it between the drift and every observer.
    """

    # a folded mode block up to this many entries is contracted through a
    # single matmul with a cached outer-product phase matrix; larger blocks
    # go through a matmul over the rows and a column sum
    _SMALL_BLOCK = 64
    # points per contraction block: bounds the complex temporaries to a few
    # hundred kB whatever the point count; a fixed constant, so results do
    # not depend on the machine
    POINT_BLOCK = 1024

    def __init__(self, points: np.ndarray):
        pts = np.asarray(points, dtype=np.float64)
        if pts.shape[-1] != 2:
            raise ValueError("points must have a trailing axis of size 2")
        self.lead = pts.shape[:-1]
        flat = pts.reshape(-1, 2)
        self.npts = flat.shape[0]
        # _ladder[axis][k] = e^{i k x_axis} for k = 0..top, grown on demand
        ones = np.ones(self.npts, dtype=np.complex128)
        self._ladder = [np.stack([ones, np.exp(1j * flat[:, axis])]) for axis in (0, 1)]
        self._matrices: dict = {}
        self._outers: dict = {}

    def _grow(self, axis: int, top: int) -> np.ndarray:
        ladder = self._ladder[axis]
        have = ladder.shape[0]
        if top >= have:
            grown = np.empty((top + 1, self.npts), dtype=np.complex128)
            grown[:have] = ladder
            for k in range(have, top + 1):
                np.multiply(grown[k - 1], grown[1], out=grown[k])
            self._ladder[axis] = ladder = grown
        return ladder

    def matrix(self, axis: int, ks: tuple[int, ...]) -> np.ndarray:
        """(len(ks), npts) phase matrix e^{i k x_axis} for ascending ks."""
        ladder = self._grow(axis, max(-ks[0], ks[-1]))
        if ks[0] >= 0 and ks[-1] - ks[0] + 1 == len(ks):
            return ladder[ks[0]:ks[-1] + 1]
        key = (axis, ks)
        mat = self._matrices.get(key)
        if mat is None:
            # ks ascend, so the k < 0 rows are a prefix: gather every |k| row
            # into one array, then conjugate that prefix in place
            arr = np.asarray(ks)
            mat = np.take(ladder, np.abs(arr), axis=0)
            neg = mat[:np.searchsorted(arr, 0)]
            np.conj(neg, out=neg)
            self._matrices[key] = mat
        return mat

    def _outer(self, kr: tuple[int, ...], kc: tuple[int, ...]) -> np.ndarray:
        """Real (2 * len(kr) * len(kc), npts) matrix stacking the real parts,
        then the imaginary parts, of the e^{i(k1 x1 + k2 x2)} products."""
        key = (kr, kc)
        mat = self._outers.get(key)
        if mat is None:
            e1 = self.matrix(0, kr)
            e2 = self.matrix(1, kc)
            prod = (e1[:, None, :] * e2[None, :, :]).reshape(-1, self.npts)
            mat = np.concatenate([prod.real, prod.imag])
            self._outers[key] = mat
        return mat

    def evaluate(self, ev: PointEvaluator) -> np.ndarray:
        """Evaluate a folded stack; returns (nfields,) + points.shape[:-1]."""
        out = np.empty((ev.nfields, self.npts))
        if ev.outer:
            # Re(d e) = Re d Re e - Im d Im e: one real matmul, no complex temporary
            np.matmul(ev.coef, self._outer(ev.rows, ev.cols), out=out)
        else:
            e1 = self.matrix(0, ev.rows)
            e2 = self.matrix(1, ev.cols)
            step = self.POINT_BLOCK
            for s in range(0, self.npts, step):
                t = ev.coef @ e1[:, s:s + step]
                t = t.reshape(ev.nfields, len(ev.cols), -1)
                t *= e2[:, s:s + step]
                out[:, s:s + step] = t.sum(axis=1).real
        return out.reshape((ev.nfields,) + self.lead)


def evaluate_at(field, points: np.ndarray) -> np.ndarray:
    """Evaluate a scalar or vector field at arbitrary points (exact summation).

    Returns points.shape[:-1] for scalars and points.shape[:-1] + (2,) for
    vectors.
    """
    if isinstance(field, SpectralField):
        return PointEvaluator(field.grid, field.coeffs[None])(points)[0]
    vals = PointEvaluator(field.grid, field.coeffs)(points)
    return np.moveaxis(vals, 0, -1)


# ---------------------------------------------------------------------------
# checkpoint text codec: `# key = value` header, then rows; %.17g is bit-exact.
# Rows are formatted a block at a time; a snapshot row of two +0.0 is its
# cached index text plus `0 0`, which is what %.17g makes of +0.0
# ---------------------------------------------------------------------------

# rows per `%` pass of the writer: each pass holds its rows as a tuple of
# Python floats (~40 B a value), so a block bounds that transient
_WRITE_ROWS = 1024


def _write_checkpoint(path, title: str, header: dict, blocks) -> None:
    """Write `# title`, `# key = value` per header entry, then per (caption,
    texts) block `# caption` and its row texts, an iterable of strings taken
    one at a time."""
    with open(path, "w") as fh:
        fh.write("".join([f"# {title}\n"] + [f"# {key} = {val}\n"
                                              for key, val in header.items()]))
        for caption, texts in blocks:
            fh.write(f"# {caption}\n")
            fh.writelines(texts)


def _row_texts(fmt: str, table: np.ndarray):
    """The rows of table, one line of the row format each, made by one `%`
    per _WRITE_ROWS rows."""
    for s in range(0, len(table), _WRITE_ROWS):
        rows = table[s:s + _WRITE_ROWS]
        yield (fmt + "\n") * len(rows) % tuple(rows.ravel().tolist())


def _read_checkpoint(path, keys, *tags):
    """Read the header (str values, `keys` required) and one float table of the
    untagged rows, then one per tag of the rows that begin with that tag."""
    with open(path) as fh:
        text = "\n" + fh.read()  # a literal "\n" anchor is far faster to search than ^
    header = dict(re.findall(r"\n# *(\S+) *= *([^\n]*)", text))
    for key in keys:
        if key not in header:
            raise ValueError(f"checkpoint {path} is missing header entry {key!r}")
    rows = [re.findall(rf"\n{tag}([-+.\d][^\n]*)", text) for tag in ("",) + tags]
    try:
        return header, *(np.loadtxt(r, ndmin=2) if r else np.empty((0, 0)) for r in rows)
    except ValueError as exc:
        raise ValueError(f"checkpoint {path} has a malformed row: {exc}") from None


def _scatter_rows(path, table: np.ndarray, extents, width: int) -> np.ndarray:
    """Place rows (index..., value...) in a (high_i - low_i, ...) + (width,) array.

    Index column i holds integers in [low_i, high_i) from `extents`, each
    combination exactly once; index mod (high_i - low_i) is the slot, so
    wavenumbers land in FFT order. An empty block may come as a (0, 0) table.
    """
    low, high = np.array(extents).T
    dims = tuple(int(d) for d in high - low)
    size, ncols = int(np.prod(dims)), len(dims) + width
    if len(table) != size or (size and table.shape[1] != ncols):
        raise ValueError(f"checkpoint {path} holds {len(table)} rows of {table.shape[1]} "
                         f"values where its header gives {size} of {ncols}")
    idx = table[:, :len(dims)].reshape(size, len(dims))
    if not np.all((idx >= low) & (idx < high) & (idx == np.trunc(idx))):
        raise ValueError(f"checkpoint {path} has an index outside its header's range")
    flat = np.ravel_multi_index((idx.astype(np.int64) % (high - low)).T, dims)
    if np.bincount(flat, minlength=size).max(initial=0) > 1:
        raise ValueError(f"checkpoint {path} repeats an index")
    out = np.empty((size, width))
    out[flat] = table[:, len(dims):].reshape(size, width)
    return out.reshape(dims + (width,))


@functools.lru_cache(maxsize=2)
def _snapshot_rows(n: int, ncomp: int) -> tuple[np.ndarray, np.ndarray]:
    """The row texts of an (ncomp, n, n) snapshot layout, as object arrays:
    each row's `k1 k2 component 0 0` line, the row of two +0.0, and its
    format with two %.17g slots. The cache keeps the two layouts a
    trajectory writes (velocity and tendency share one), 0.45 MB at 32^2
    and 7.3 MB at 128^2, so their index text is made once; a miss still
    costs less than formatting every row."""
    k = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64).tolist()
    index = [f"{k1} {k2} {c} " for c in range(ncomp) for k1 in k for k2 in k]
    return (np.array([t + "0 0\n" for t in index], dtype=object),
            np.array([t + "%.17g %.17g\n" for t in index], dtype=object))


def _snapshot_texts(n: int, stack: np.ndarray):
    """Row texts of a snapshot's (components, n, n) coefficients, one `%`
    per _WRITE_ROWS rows over the values of the rows that are not two +0.0;
    those rows are their cached text. The bytes are those of formatting
    every row with `%d %d %d %.17g %.17g`."""
    pairs = np.ascontiguousarray(stack).view(np.float64).reshape(-1, 2)
    zero = ~pairs.view(np.uint64).any(axis=1)
    zero_rows, value_rows = _snapshot_rows(n, stack.shape[0])
    for s in range(0, len(pairs), _WRITE_ROWS):
        block = slice(s, s + _WRITE_ROWS)
        fmt = "".join(np.where(zero[block], zero_rows[block], value_rows[block]).tolist())
        yield fmt % tuple(pairs[block][~zero[block]].ravel().tolist())


def save_field_snapshot(field, path) -> None:
    """Write coefficients as text rows (k1, k2, component, Re, Im) under a
    header with the grid size and component count, rows of two +0.0 from
    cached text (see _snapshot_texts)."""
    if not isinstance(field, (SpectralField, SpectralVectorField)):
        raise TypeError(f"cannot snapshot object of type {type(field).__name__}")
    n = field.grid.n
    stack = field.coeffs.reshape(-1, n, n)
    _write_checkpoint(path, "spectral field snapshot", {"n": n, "components": stack.shape[0]},
                      [("k1 k2 component re im", _snapshot_texts(n, stack))])


@functools.lru_cache(maxsize=2)
def _snapshot_grid(n: int) -> TorusGrid:
    """The grid of loaded n x n snapshots, one per n: grids compare by n and
    their arrays are read-only, so the fields of many snapshots share one."""
    return TorusGrid(n)


def load_field_snapshot(path):
    """Read a snapshot written by save_field_snapshot."""
    header, table = _read_checkpoint(path, ("n", "components"))
    grid, ncomp = _snapshot_grid(int(header["n"])), int(header["components"])
    vals = _scatter_rows(path, table, [(-grid.n // 2, grid.n // 2)] * 2 + [(0, ncomp)], 2)
    # view each (re, im) pair as one complex: re + 1j * im would turn -0.0 into +0.0
    stack = np.ascontiguousarray(vals.view(np.complex128)[..., 0].transpose(2, 0, 1))
    if ncomp == 1:
        return SpectralField(grid, stack[0])
    return SpectralVectorField(grid, stack)
