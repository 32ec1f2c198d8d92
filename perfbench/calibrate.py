"""Machine-speed calibration for the timed loop.

The host this benchmark was built on drifts by +-20 % over minutes (a fixed
single-threaded FFT loop alone ranges 616-905 ms per 5 s block), which is more
than any bound a regression gate can use. A calibration sample is a fixed mix
of the kinds of work hardylab ops do: FFTs, streaming arithmetic over a 16 MB
array, a small QR and ``%.17g`` float formatting. Samples run between ops,
outside their timing, in the same process (a second process would compete
with the op for the two cores), and free their arrays before
the next op starts. Each op's wall time is scaled by ``REFERENCE_S`` over the
mean of the two samples around it, i.e. reported in reference-machine units.
Every run prints the raw values and the median scale as well.
"""

from __future__ import annotations

import time

import numpy as np

#: median seconds of one sample on the reference machine (ENVIRONMENT.json)
REFERENCE_S = 0.040


class Calibrator:
    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        # built per sample and freed before the next op (about 34 MB at the
        # peak, under every workload's own headroom), so no calibration
        # memory is resident while an op runs
        fft_in = np.exp(1j * np.arange(2 ** 16) * 0.1)
        for _ in range(4):
            np.fft.fft(fft_in)
        stream = np.full(2 ** 21, 1.5)
        scratch = np.empty_like(stream)
        for _ in range(2):
            np.multiply(stream, 1.0001, out=scratch)
            scratch += stream
            scratch.sum()
        np.linalg.qr(np.cos(np.arange(192 * 192) * 0.3).reshape(192, 192))
        "".join(f"{v:.17g}," for v in np.sin(np.arange(6000) * 0.7).tolist())
        self.samples.append(time.perf_counter() - start)

    def scales(self) -> list[float]:
        """Reference seconds per wall second for each interval between samples.

        Interval i (an op, or a set-up probe) is bracketed by samples i and
        i + 1, so a drift that lasts seconds is tracked op by op.
        """
        return [2.0 * REFERENCE_S / (a + b) for a, b in zip(self.samples, self.samples[1:])]
