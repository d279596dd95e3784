"""Stochastic variational toolkit for incompressible Navier-Stokes on the 2-torus.

The package evolves stochastic Lagrangian flows driven by a Navier-Stokes
velocity field, evaluates the pressure-constrained action of such flows and
its Gateaux derivatives, checks conservation-law residuals along the flow,
and integrates the transport-noise stochastic momentum equation, all on a
pseudo-spectral periodic grid with reproducible counter-based noise.
"""

import ctypes

__version__ = "0.1.0"


def _reuse_large_blocks() -> None:
    """Serve blocks under 32 MiB from the heap and keep up to 64 MiB of freed
    heap, where the C library is glibc.

    glibc maps each block of 128 KiB or more afresh and unmaps it on free,
    raising that threshold (to at most 32 MiB, trimming above twice it) only
    after it frees such a block. Whether the 1-8 MiB point-evaluation and
    spectral temporaries reuse heap pages or fault in fresh ones on every
    call then depends on what the process happened to free first: an
    action pass over 16 x 1024 points faults in ~90 000 pages (about
    350 MB) in one process and ~4 000 in the next. Starting at the ceiling
    of glibc's own rule makes every process take the second path.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no glibc-style mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_reuse_large_blocks()
