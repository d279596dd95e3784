"""Spectral fields on the periodic box [0, 2pi)^2.

Conventions used throughout the package:

    u(x) = sum_k u_hat(k) exp(i k . x),   k integer vectors, |k_i| <= n/2 - 1

so `transform` divides the forward FFT by n^2 and u_hat(0) is the spatial mean.
Real fields keep the full complex coefficient array with the conjugate symmetry
u_hat(-k) = conj(u_hat(k)) enforced explicitly. Products are formed on the grid
and dealiased by the 2/3 rule (modes with any |k_i| >= n/3 zeroed). The
spectral kernel behind the solvers (advection, Leray projection, pressure)
works on the real-transform half layout, columns k2 = 0..n/2 of a real
field's coefficients, which holds every independent mode once; conjugate
symmetry then holds by construction, and public arrays are rebuilt in the
full layout only where they are stored or returned. Off-grid
evaluation is direct Fourier summation over the nonzero modes, which is exact
for band-limited fields. Since only real parts are returned, each stack is
folded once onto the half plane k2 >= 0 (d_k = c_k + conj(c_{-k})), which
halves the multiply-adds without assuming conjugate symmetry; the phases of
one point set live in a PhaseTable that a flow pass builds once per node and
shares between the drift and every observer, and the contraction runs in
fixed blocks of points.
"""

from __future__ import annotations

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


class TorusGrid:
    """Uniform n x n collocation grid on [0, 2pi)^2 with its wavenumbers.

    Arrays are precomputed eagerly (n is small in practice) and marked
    read-only. Grids compare equal iff their resolutions match.
    """

    def __init__(self, n: int):
        if n < 4 or n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 4, got {n}")
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
        self.half = _HalfGrid(self)

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


class _HalfGrid:
    """The grid's wavenumber arrays restricted to the half layout.

    A real field's coefficients in columns k2 = 0..n/2 determine the rest
    (u_hat(-k) = conj(u_hat(k))), and every operator of the spectral kernel
    is mode-local, so the kernel runs on (n, n//2 + 1) arrays throughout,
    roughly halving both transform and elementwise cost. The attribute names
    match TorusGrid's, so mode-local functions accept either layout.
    """

    def __init__(self, grid: TorusGrid):
        h = grid.n // 2 + 1
        self.n = grid.n
        self.h = h
        self.k1 = np.ascontiguousarray(grid.k1[:, :h]).astype(np.float64)
        self.k2 = np.ascontiguousarray(grid.k2[:, :h]).astype(np.float64)
        self.ik1 = 1j * self.k1
        self.ik2 = 1j * self.k2
        self.k_squared = np.ascontiguousarray(grid.k_squared[:, :h])
        self.k_squared_safe = np.ascontiguousarray(grid.k_squared_safe[:, :h])
        self.dealias_mask = np.ascontiguousarray(grid.dealias_mask[:, :h])
        for arr in (self.k1, self.k2, self.ik1, self.ik2, self.k_squared,
                    self.k_squared_safe, self.dealias_mask):
            arr.setflags(write=False)


def _check_coeffs(grid: TorusGrid, coeffs: np.ndarray, ncomp: int | None) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    want = (grid.n, grid.n) if ncomp is None else (ncomp, grid.n, grid.n)
    if coeffs.shape != want:
        raise ValueError(f"coefficient array has shape {coeffs.shape}, expected {want}")
    return coeffs


@dataclass(eq=False)
class SpectralField:
    """Real scalar field stored as its full complex coefficient array."""

    grid: TorusGrid
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = _check_coeffs(self.grid, self.coeffs, None)

    def values(self) -> np.ndarray:
        return inverse_transform(self)

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _require_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _require_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * float(scalar))

    __rmul__ = __mul__


@dataclass(eq=False)
class SpectralVectorField:
    """Real 2-component vector field, coefficients shaped (2, n, n)."""

    grid: TorusGrid
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = _check_coeffs(self.grid, self.coeffs, 2)

    def component(self, i: int) -> SpectralField:
        return SpectralField(self.grid, self.coeffs[i])

    def values(self) -> np.ndarray:
        """Grid values shaped (2, n, n)."""
        return _ifft(self.coeffs)

    def copy(self) -> "SpectralVectorField":
        return SpectralVectorField(self.grid, self.coeffs.copy())

    def __add__(self, other: "SpectralVectorField") -> "SpectralVectorField":
        _require_same_grid(self, other)
        return SpectralVectorField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralVectorField") -> "SpectralVectorField":
        _require_same_grid(self, other)
        return SpectralVectorField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralVectorField":
        return SpectralVectorField(self.grid, self.coeffs * float(scalar))

    __rmul__ = __mul__


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


def _to_full(grid: TorusGrid, ch: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rebuild the full layout from half-layout coefficients of a real field
    (into `out` when given): the missing columns are conj values at the
    negated wavenumber."""
    n = grid.n
    h = n // 2 + 1
    if out is None:
        out = np.empty(ch.shape[:-1] + (n,), dtype=np.complex128)
    out[..., :h] = ch
    # column h + m holds k2 = -(n/2 - 1 - m); row i holds k1 whose negation
    # sits in row (n - i) % n: row 0 stays, rows 1..n-1 reverse
    neg = slice(h - 2, 0, -1)
    np.conj(ch[..., :1, neg], out=out[..., :1, h:])
    np.conj(ch[..., :0:-1, neg], out=out[..., 1:, h:])
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
    out = np.empty((2, 2, g.n, g.n), dtype=np.complex128)
    for i in range(2):
        out[i, 0] = 1j * g.k1 * v.coeffs[i]
        out[i, 1] = 1j * g.k2 * v.coeffs[i]
    return out


def _layout(grid: TorusGrid, c: np.ndarray):
    """The wavenumber arrays matching c's trailing axis: full or half layout."""
    return grid if c.shape[-1] == grid.n else grid.half


def _leray(grid: TorusGrid, c: np.ndarray) -> np.ndarray:
    """Apply I - k k^T / |k|^2 modewise to (..., 2, n, n) full or
    (..., 2, n, h) half-layout coefficients; the k = 0 mode passes through."""
    m = _layout(grid, c)
    c1 = c[..., 0, :, :]
    c2 = c[..., 1, :, :]
    kdot = (m.k1 * c1 + m.k2 * c2) / m.k_squared_safe  # zero at k = 0
    return np.stack([c1 - m.k1 * kdot, c2 - m.k2 * kdot], axis=-3)


def _inverse_laplacian(grid: TorusGrid, c: np.ndarray) -> np.ndarray:
    """phi with -Delta phi = c in the mean-zero gauge, either layout."""
    phi = c / _layout(grid, c).k_squared_safe
    phi[..., 0, 0] = 0.0
    return phi


def _pressure(grid: TorusGrid, adv: np.ndarray) -> np.ndarray:
    """Mean-zero p with -Delta p = div((v . grad) v), adv (..., 2, n, n|h)."""
    m = _layout(grid, adv)
    return _inverse_laplacian(grid, 1j * (m.k1 * adv[..., 0, :, :] + m.k2 * adv[..., 1, :, :]))


def _biot_savart(grid: TorusGrid, omega: np.ndarray) -> np.ndarray:
    """Mean-zero divergence-free velocity (..., 2, n, h) whose curl
    d1 v2 - d2 v1 is the half-layout omega (..., n, h): v = (d2 psi, -d1 psi)
    with -Delta psi = omega. The k = 0 entries are zero."""
    hg = grid.half
    psi = omega / hg.k_squared_safe
    return np.stack([hg.ik2 * psi, -hg.ik1 * psi], axis=-3)


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
        nz = mags > 1e-15 * mags.max(initial=0.0)
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
    A flow pass builds one table per node's positions and shares it between
    the drift and every observer.
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
# checkpoint text codec: `# key = value` header, then rows; %.17g is bit-exact
# ---------------------------------------------------------------------------

def _write_checkpoint(path, title: str, header: dict, blocks) -> None:
    """Write `# title`, `# key = value` per header entry, then per (caption,
    row format, table) block `# caption` and its rows, formatted by one `%`."""
    out = [f"# {title}\n"] + [f"# {key} = {val}\n" for key, val in header.items()]
    for caption, fmt, table in blocks:
        out.append(f"# {caption}\n")
        out.append((fmt + "\n") * len(table) % tuple(table.ravel().tolist()))
    with open(path, "w") as fh:
        fh.write("".join(out))


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


def save_field_snapshot(field, path) -> None:
    """Write coefficients as text rows (k1, k2, component, Re, Im) under a
    header with the grid size and component count."""
    if not isinstance(field, (SpectralField, SpectralVectorField)):
        raise TypeError(f"cannot snapshot object of type {type(field).__name__}")
    n, k = field.grid.n, field.grid.k
    stack = field.coeffs.reshape(-1, n, n)
    c, i, j = np.indices(stack.shape).reshape(3, -1)
    table = np.column_stack([k[i], k[j], c, stack.real.ravel(), stack.imag.ravel()])
    _write_checkpoint(path, "spectral field snapshot", {"n": n, "components": stack.shape[0]},
                      [("k1 k2 component re im", "%d %d %d %.17g %.17g", table)])


def load_field_snapshot(path):
    """Read a snapshot written by save_field_snapshot."""
    header, table = _read_checkpoint(path, ("n", "components"))
    grid, ncomp = TorusGrid(int(header["n"])), int(header["components"])
    vals = _scatter_rows(path, table, [(-grid.n // 2, grid.n // 2)] * 2 + [(0, ncomp)], 2)
    # view each (re, im) pair as one complex: re + 1j * im would turn -0.0 into +0.0
    stack = np.ascontiguousarray(vals.view(np.complex128)[..., 0].transpose(2, 0, 1))
    if ncomp == 1:
        return SpectralField(grid, stack[0])
    return SpectralVectorField(grid, stack)
