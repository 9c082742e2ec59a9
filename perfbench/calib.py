"""Host-speed calibration: a fixed kernel timed between the measured operations.

On a shared host the speed of one core drifts by a factor of up to 1.8 over
a minute or two (neighbours contending for the core's caches, memory
bandwidth and clock), and every timing of the program drifts with it.  The
calibration kernel is a fixed piece of numpy/Python work, shaped like the SC
decoder's inner loop (f, g and xor on single columns of (2048, 1044) state
arrays), that never changes with the code under test.  Timed after each
set-up and after every operation of a run, it measures how fast the host is
during that run, and the run's times are rescaled to the reference speed:

    normalised seconds = measured seconds * REFERENCE_S[f_mode] / median calibration seconds

A single calibration call is as noisy as a single operation; the median over
a run follows the host's slow drift, which is what moves one run against the
next.  ``REFERENCE_S`` holds the kernel's median time on the reference host
(a 2-core Xeon, Python 3.11.7, numpy 2.4.6), so normalised times read as
seconds on that host at its median speed.
"""

from __future__ import annotations

import time

import numpy as np

# median seconds of one full-size kernel call on the reference host, by f rule
REFERENCE_S = {"exact": 0.2, "minsum": 0.185}
TINY_SCALE = 0.1    # tiny runs (the self-test) call a kernel a tenth the size


def _f_exact(la, lb):
    aa = np.abs(la)
    ab = np.abs(lb)
    mag = (np.minimum(aa, ab) + np.log1p(np.exp(-(aa + ab)))
           - np.log1p(np.exp(-np.abs(aa - ab))))
    return np.sign(la) * np.sign(lb) * mag


def _f_minsum(la, lb):
    return np.sign(la) * np.sign(lb) * np.minimum(np.abs(la), np.abs(lb))


_F_RULES = {"exact": _f_exact, "minsum": _f_minsum}


class Calibrator:
    """Calling it runs the kernel once and returns its seconds.

    The kernel uses the f rule of the workload it calibrates; its inputs are
    tiled from blocks drawn once from a fixed seed.  Its state arrays (about
    40 MB) live only during a call.
    """

    def __init__(self, f_mode, tiny=False, rows=2048, width=1044, n_ops=2400, seed=0,
                 block_rows=64):
        scale = TINY_SCALE if tiny else 1.0
        n_ops = int(n_ops * scale)
        rng = np.random.default_rng(seed)
        self.f_rule = _F_RULES[f_mode]
        self.reference_s = REFERENCE_S[f_mode] * scale
        self.tiles = (rows // block_rows, 1)
        self.blocks = (rng.standard_normal((block_rows, width)),
                       rng.standard_normal((block_rows, width)),
                       rng.integers(0, 2, (block_rows, width), dtype=np.uint8),
                       rng.integers(0, 2, (block_rows, width), dtype=np.uint8))
        self.ops = [(int(k), int(a), int(b)) for k, a, b in zip(
            rng.integers(0, 3, n_ops), rng.integers(0, width, n_ops),
            rng.integers(0, width, n_ops))]

    def __call__(self):
        la, lb, ua, ub = (np.tile(block, self.tiles) for block in self.blocks)
        f_rule = self.f_rule
        t0 = time.perf_counter()
        for kind, e, dst in self.ops:
            if kind == 0:
                la[:, dst] = np.clip(f_rule(la[:, e], lb[:, e]), -30.0, 30.0)
            elif kind == 1:
                lb[:, dst] = np.clip(np.where(ua[:, e] == 1, -la[:, e], la[:, e]) + lb[:, e],
                                     -30.0, 30.0)
            else:
                ua[:, dst] = ua[:, e] ^ ub[:, e]
        return time.perf_counter() - t0
