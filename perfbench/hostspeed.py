"""Host-speed probe: times a fixed numpy kernel to track how fast the machine runs now.

On the shared 2-vCPU VM this benchmark was built on, the same single-threaded
code runs 10-25% faster or slower for tens of seconds at a time (other tenants
share the host), and the drift moves every numpy kernel alike. Round
throughput divided by this probe's speed, sampled between the rounds, states
the throughput at a fixed reference speed. Over 150 s of rounds cut into 30 s
windows, the quartile spread of the window medians fell from 6.3% raw to 3.0%
normalized on eval_sweep, and from 6.5% to 4.8% on eval_se. The probe uses
numpy only, never longctx, so a change to longctx cannot move it.

``speed`` is REFERENCE_S over the probe's current median time: above 1 the host
runs faster than when REFERENCE_S was measured. Throughputs are divided by it
and durations multiplied by it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median probe time on the reference box (2-vCPU Xeon VM, OpenBLAS 1 thread)
REFERENCE_S = 0.0090
SAMPLES = 8


class HostSpeed:
    """Fixed operands at the encoder's toy shapes: projections, tanh, a
    layer-norm style centring and a softmax over attention-sized scores.

    The kernel writes only into buffers made here. A fresh allocation's cost
    depends on the allocator's state (glibc's mmap threshold moves once the
    workload frees large arrays), which would make the probe read the heap's
    history instead of the host's speed.
    """

    def __init__(self):
        rng = np.random.default_rng(20240411)
        self.x = rng.standard_normal((16 * 128, 64))
        self.w1 = rng.standard_normal((64, 128)) / 8.0
        self.w2 = rng.standard_normal((128, 64)) / 8.0
        self.scores = rng.standard_normal((16, 4, 128, 128))
        self.h1 = np.empty((16 * 128, 128))
        self.h2 = np.empty((16 * 128, 64))
        self.row = np.empty((16 * 128, 1))
        self.p = np.empty_like(self.scores)
        self.prow = np.empty((16, 4, 128, 1))
        self._kernel()  # touch every buffer once

    def _kernel(self) -> None:
        np.matmul(self.x, self.w1, out=self.h1)
        np.tanh(self.h1, out=self.h1)
        np.matmul(self.h1, self.w2, out=self.h2)
        np.mean(self.h2, axis=-1, keepdims=True, out=self.row)
        np.subtract(self.h2, self.row, out=self.h2)
        np.max(self.scores, axis=-1, keepdims=True, out=self.prow)
        np.subtract(self.scores, self.prow, out=self.p)
        np.exp(self.p, out=self.p)
        np.sum(self.p, axis=-1, keepdims=True, out=self.prow)
        np.divide(self.p, self.prow, out=self.p)

    def sample(self) -> list[float]:
        """SAMPLES timings of the kernel, in seconds."""
        out = []
        for _ in range(SAMPLES):
            t0 = time.perf_counter()
            self._kernel()
            out.append(time.perf_counter() - t0)
        return out


def speed(samples: list[float]) -> float:
    """Host speed over an interval, from probe timings spread through it."""
    return REFERENCE_S / statistics.median(samples)
