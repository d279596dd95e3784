"""The checkpoint text codec behind snapshots, ensembles and trajectories.

Each format is written by one vectorised `%` pass and read by one
`np.loadtxt` plus a scatter. The reference writers below are the plain
per-row loops the formats were defined by; the files must match them byte
for byte, and every reload must reproduce the saved arrays bit for bit
(compared as uint64, so -0.0 and subnormals count; NaN is not drawn).
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from svns import fields
from svns.fields import (
    SpectralField,
    SpectralVectorField,
    TorusGrid,
    load_field_snapshot,
    save_field_snapshot,
)
from svns.flows import FlowEnsemble, load_ensemble, save_ensemble
from svns.solver import NSTrajectory, load_trajectory, random_divergence_free, save_trajectory

EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1, 1 / 3]
FINITE = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))
VALUES = st.one_of(st.sampled_from(EDGES + [np.inf, -np.inf]), st.floats(allow_nan=False))


def reference_snapshot(grid, stack, path):
    with open(path, "w") as fh:
        fh.write(f"# spectral field snapshot\n# n = {grid.n}\n"
                 f"# components = {stack.shape[0]}\n# k1 k2 component re im\n")
        for c in range(stack.shape[0]):
            for i in range(grid.n):
                for j in range(grid.n):
                    z = stack[c, i, j]
                    fh.write(f"{grid.k[i]} {grid.k[j]} {c} {z.real:.17g} {z.imag:.17g}\n")


def reference_ensemble(ens, path, seed):
    with open(path, "w") as fh:
        fh.write(f"# flow ensemble checkpoint\n# n = {ens.grid.n}\n# t = {ens.t:.17g}\n"
                 f"# step = {ens.step_index}\n# replicas = {ens.replicas}\n"
                 f"# points = {ens.npoints}\n# seed = {seed}\n"
                 f"# jacobians = {int(ens.jacobians is not None)}\n"
                 "# label rows: index x1 x2\n")
        for p in range(ens.npoints):
            fh.write(f"L {p} {ens.initial_points[p, 0]:.17g} {ens.initial_points[p, 1]:.17g}\n")
        fh.write("# data rows: index replica g1 g2 J00 J01 J10 J11\n")
        for p in range(ens.npoints):
            for r in range(ens.replicas):
                row = [f"{p}", f"{r}"] + [f"{x:.17g}" for x in ens.positions[r, p]]
                if ens.jacobians is not None:
                    row += [f"{x:.17g}" for x in ens.jacobians[r, p].ravel()]
                fh.write(" ".join(row) + "\n")


def reference_index(traj, path, stride):
    idx = list(range(0, len(traj.times), stride))
    if idx[-1] != len(traj.times) - 1:
        idx.append(len(traj.times) - 1)
    with open(path, "w") as fh:
        fh.write(f"# trajectory checkpoint index\n# n = {traj.grid.n}\n"
                 f"# nu = {traj.nu:.17g}\n# dt = {traj.dt:.17g}\n# row: slot time\n")
        for slot, i in enumerate(idx):
            fh.write(f"{slot} {traj.times[i]:.17g}\n")
    return idx


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64))


def complex_stack(draw, shape):
    """Complex values built from drawn (re, im) pairs without arithmetic."""
    parts = draw(hnp.arrays(np.float64, shape + (2,), elements=VALUES))
    return parts.view(np.complex128)[..., 0]


@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.sampled_from([4, 6, 8]), ncomp=st.sampled_from([1, 2]))
def test_snapshot_bytes_and_bits(tmp_path_factory, data, n, ncomp):
    grid = TorusGrid(n)
    stack = complex_stack(data.draw, (ncomp, n, n))
    field = (SpectralField(grid, stack[0]) if ncomp == 1
             else SpectralVectorField(grid, stack))
    d = tmp_path_factory.mktemp("snap")
    save_field_snapshot(field, d / "new.txt")
    reference_snapshot(grid, stack, d / "ref.txt")
    assert (d / "new.txt").read_bytes() == (d / "ref.txt").read_bytes()
    back = load_field_snapshot(d / "new.txt")
    assert type(back) is type(field) and back.grid == grid
    assert same_bits(back.coeffs, field.coeffs)


def test_snapshot_written_in_row_blocks(tmp_path):
    """A 64^2 vector snapshot spans several `%` passes: the bytes are still
    the reference's, and the traced peak stays below the tuple of Python
    floats (24 B each plus an 8 B slot) that one pass over all rows held."""
    grid = TorusGrid(64)
    stack = np.random.default_rng(4).standard_normal((2, 64, 64, 2)).view(np.complex128)[..., 0]
    field = SpectralVectorField(grid, stack)
    save_field_snapshot(field, tmp_path / "new.txt")
    reference_snapshot(grid, stack, tmp_path / "ref.txt")
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()
    tracemalloc.start()
    try:
        save_field_snapshot(field, tmp_path / "new.txt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stack.size * 5 * 32


def test_snapshot_of_a_band_limited_field(tmp_path):
    """Most rows of a band-limited 32^2 vector field are two +0.0, which the
    writer takes from cached text; -0.0, NaN, +-inf and the smallest
    subnormal placed in otherwise-zero rows, across its row blocks, are
    written as values. The bytes are the reference's and the reload is
    bit-exact."""
    grid = TorusGrid(32)
    stack = random_divergence_free(grid, seed=9, kmax=10).coeffs.copy()
    pairs = stack.view(np.float64).reshape(-1, 2)
    zero = np.flatnonzero(~pairs.view(np.uint64).any(axis=1))
    assert len(zero) > len(pairs) // 2
    edges = [(-0.0, 0.0), (0.0, -0.0), (np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0),
             (0.0, -np.inf), (5e-324, 0.0), (0.0, -5e-324)]
    rows = zero[np.linspace(0, len(zero) - 1, len(edges)).astype(int)]
    pairs[rows] = edges
    field = SpectralVectorField(grid, stack)
    save_field_snapshot(field, tmp_path / "new.txt")
    reference_snapshot(grid, stack, tmp_path / "ref.txt")
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()
    assert same_bits(load_field_snapshot(tmp_path / "new.txt").coeffs, stack)


def test_trajectory_snapshots_reuse_row_text_and_grid(tmp_path):
    """Velocity, pressure and tendency snapshots written in a trajectory's
    order at 64^2 (20 row blocks a node) build each layout's row text once,
    and the snapshots read back share one grid."""
    grid = TorusGrid(64)
    vector = random_divergence_free(grid, seed=4, kmax=20)
    scalar = SpectralField(grid, vector.coeffs[0])
    fields._snapshot_rows.cache_clear()
    for node in range(3):
        for kind, snap in (("velocity", vector), ("pressure", scalar), ("tendency", vector)):
            save_field_snapshot(snap, tmp_path / f"{kind}_{node}.txt")
    assert fields._snapshot_rows.cache_info().misses == 2
    loaded = [load_field_snapshot(tmp_path / f"{kind}_{node}.txt")
              for node in range(3) for kind in ("velocity", "pressure")]
    assert all(f.grid is loaded[0].grid for f in loaded)
    assert same_bits(loaded[-1].coeffs, scalar.coeffs)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), replicas=st.integers(1, 3), npts=st.integers(1, 5),
       jacobians=st.booleans(), seed=st.integers(0, 2**53),
       step=st.integers(0, 10**6), t=FINITE)
def test_ensemble_bytes_and_bits(tmp_path_factory, data, replicas, npts, jacobians,
                                 seed, step, t):
    def arr(shape):
        return data.draw(hnp.arrays(np.float64, shape, elements=VALUES))

    ens = FlowEnsemble(TorusGrid(8), arr((npts, 2)), arr((replicas, npts, 2)),
                       arr((replicas, npts, 2, 2)) if jacobians else None, t, step)
    d = tmp_path_factory.mktemp("ens")
    save_ensemble(ens, d / "new.txt", seed=seed)
    reference_ensemble(ens, d / "ref.txt", seed)
    assert (d / "new.txt").read_bytes() == (d / "ref.txt").read_bytes()
    back, got_seed = load_ensemble(d / "new.txt")
    assert got_seed == seed and back.step_index == step and same_bits(back.t, t)
    assert same_bits(back.initial_points, ens.initial_points)
    assert same_bits(back.positions, ens.positions)
    if jacobians:
        assert same_bits(back.jacobians, ens.jacobians)
    else:
        assert back.jacobians is None


@settings(max_examples=15, deadline=None)
@given(data=st.data(), nodes=st.integers(2, 7), stride=st.integers(1, 4), nu=FINITE)
def test_trajectory_index_bytes_and_bits(tmp_path_factory, data, nodes, stride, nu):
    grid = TorusGrid(4)
    times = data.draw(hnp.arrays(np.float64, nodes, elements=FINITE))
    traj = NSTrajectory(grid, nu, times,
                        complex_stack(data.draw, (nodes, 2, 4, 4)),
                        complex_stack(data.draw, (nodes, 4, 4)),
                        complex_stack(data.draw, (nodes, 2, 4, 4)))
    d = tmp_path_factory.mktemp("traj")
    save_trajectory(traj, d / "new", stride=stride)
    (d / "ref").mkdir()
    kept = reference_index(traj, d / "ref" / "index.txt", stride)
    assert (d / "new" / "index.txt").read_bytes() == (d / "ref" / "index.txt").read_bytes()
    back = load_trajectory(d / "new")
    assert same_bits(back.nu, nu) and back.grid == grid
    assert same_bits(back.times, times[kept])
    assert same_bits(back.velocity_coeffs, traj.velocity_coeffs[kept])
    assert same_bits(back.pressure_coeffs, traj.pressure_coeffs[kept])
    assert same_bits(back.rhs_coeffs, traj.rhs_coeffs[kept])
