"""Machine-speed calibration for the end-to-end timings.

On a shared virtual machine the CPU speed one process sees drifts by tens
of percent over seconds to minutes, and every CPU-bound timing drifts with
it. The benchmark therefore times a fixed calibration kernel (pure Python
arithmetic plus small numpy matrix products, independent of shapdrift) in
the same process as the work it measures, and rescales each timing to the
speed at which the kernel takes ``K_REF_S``:

    reference seconds = measured seconds * K_REF_S / kernel seconds

During a seed the kernel runs twice from a SIGALRM handler every
``INTERVAL_S``, in the main thread, between bytecodes of the measured code;
only the second, warm call is kept, so the cache state the measured code
leaves behind does not count. This costs about 1% of the seed's time, the
same on every commit. A short process (a set-up probe) instead runs the
kernel a few times right after the part it times.
"""

from __future__ import annotations

import json
import signal
import statistics
import time

K_REF_S = 0.17e-3    # kernel time that defines one reference second
INTERVAL_S = 0.05


class Sampler:
    def __init__(self):
        import numpy as np

        self._np = np
        self._matrix = np.random.default_rng(0).normal(size=(48, 48))
        self.samples: list = []     # (perf_counter at the sample, kernel seconds)

    def kernel(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(750):
            total += i * i % 7
        product = self._matrix
        for _ in range(5):
            product = self._np.tanh(product @ self._matrix * 0.01)
        return time.perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        self.kernel()  # the first call refills caches the measured code evicted
        self.samples.append((time.perf_counter(), self.kernel()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def kernel_between(self, start: float, end: float) -> float:
        """Median kernel time of the samples taken in [start, end]."""
        inside = [k for t, k in self.samples if start <= t <= end]
        return statistics.median(inside) if inside else self.calibrate()

    def calibrate(self, repeats: int = 15) -> float:
        """Median kernel time measured now."""
        return statistics.median(self.kernel() for _ in range(repeats))

    def emit(self) -> None:
        """Print the median kernel time of the whole process as a JSON line."""
        kernel_s = statistics.median(k for _, k in self.samples) if self.samples \
            else self.calibrate()
        print(json.dumps({"kernel_s": kernel_s}), flush=True)


def to_reference(seconds: float, kernel_s: float) -> float:
    return seconds * K_REF_S / kernel_s
