"""Host-speed sampling, so that a time can be read at a fixed host speed.

On a shared host the speed of one vCPU changes by up to 1.8x within a
second, and the two vCPUs of one machine change independently, as the work
of other tenants comes and goes. A wall time alone then varies with the
host as much as with the program: IQR/median 0.10-0.23 from run to run for
the same work, and a median that moved by 20 % within half an hour.

SpeedSampler runs a fixed reference kernel, which shares no code with
rdmprop, every `period` seconds from a SIGALRM handler in the measured
process itself, so each sample is taken on the vCPU that runs the program,
while it runs. Each stretch of program time between two samples is divided
by the kernel time that ends it, and the sum,

    rel = sum_i (t_i - t_(i-1)) / kernel_i,

is the program's time in kernel runs: what it costs at a fixed host speed.
`ref_s` = rel * REF_KERNEL_S reads that in seconds at the reference speed,
the speed at which one kernel run takes REF_KERNEL_S. The kernel's own
time, `busy`, is left out. The handler runs between Python bytecodes, so it
never interrupts a numpy call; a long call only delays the next sample,
and the stretch it adds is scaled by the sample after it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# sampling periods: a pass lasts seconds; a set-up lasts under one second
PASS_PERIOD_S = 0.2
SETUP_PERIOD_S = 0.02
# reference speed: one kernel run takes 1 ms (its median on a 2-vCPU Xeon
# VM is 0.9-1.4 ms, depending on the load of other tenants)
REF_KERNEL_S = 1e-3

# Reference kernel: small dense complex products, the shape of the
# program's per-term sandwich products, then a pure-Python integer loop,
# its interpreter share.
KERNEL_DIM = 8
KERNEL_PRODUCTS = 60
KERNEL_LOOP = 3000
_PARTS = np.random.default_rng(20251102).standard_normal(
    (2, KERNEL_DIM, KERNEL_DIM))
_A = _PARTS[0] + 1j * _PARTS[1]
_AH = _A.conj().T


def kernel() -> None:
    x = _A
    for _ in range(KERNEL_PRODUCTS):
        x = _A @ x @ _AH - 0.5 * (_A @ x)
        x = x / np.abs(x).max()
    acc = 0
    for i in range(KERNEL_LOOP):
        acc += i * i % 7


class SpeedSampler:
    """Samples the host's speed while the program runs; see the notes above.

    `busy` is the time spent in the kernel, warm-up included, `rel` the
    program time in kernel runs, `samples` the number of samples taken.
    """

    def __init__(self, period: float):
        self.period = period
        self.busy = 0.0
        self.rel = 0.0
        self.samples = 0
        self._mark = 0.0
        self._sampled_from = 0.0
        self._busy_from = 0.0
        self._unsampled = 0.0
        self._sampling = False

    @property
    def ref_s(self) -> float:
        return self.rel * REF_KERNEL_S

    def start(self, since: float | None = None) -> None:
        """Start sampling. `since`, a time.monotonic() stamp, counts the
        stretch from then until now as program time too; it is scaled by
        the mean speed sampled after it."""
        begin = time.monotonic()
        kernel()   # warm-up, not a sample
        self._mark = self._sampled_from = time.monotonic()
        self.busy += self._mark - begin
        self._busy_from = self.busy
        self._unsampled = begin - since if since is not None else 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        """Stop the timer and close the last stretch with one more sample."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        if self._unsampled:
            sampled = (self._mark - self._sampled_from
                       - (self.busy - self._busy_from))
            self.rel += self._unsampled * self.rel / sampled

    def _sample(self, *_signal) -> None:
        if self._sampling:
            return
        self._sampling = True
        start = time.monotonic()
        kernel()
        end = time.monotonic()
        self.rel += (start - self._mark) / (end - start)
        self.busy += end - start
        self.samples += 1
        self._mark = end
        self._sampling = False
