"""CPU-speed adjustment of the benchmark's times.

On a virtual machine that shares its host, the CPU's speed drifts by tens
of percent within seconds with the neighbours' load, so raw wall times of
the same code spread widely from run to run.  A fixed reference kernel,
timed at the same moments as the measured work, slows in step.  The
benchmark divides a measured time by the kernel's mean time at that moment
and multiplies by REF_KERNEL_S: the result is the time the work would take
on a CPU where the kernel takes REF_KERNEL_S, and it is steady where the
raw time is not.  Set-up, which is mostly importing, has a reference of
its own: importing a fixed set of standard modules.
"""

from __future__ import annotations

import importlib
import signal
import time

# about the kernel's time on an uncontended vCPU of the Intel Xeon VM the
# benchmark was tuned on; it only sets the scale of adjusted times
REF_KERNEL_S = 1.0e-3
PROBE_INTERVAL_S = 0.05

# Set-up is mostly importing: finding, reading and unmarshalling .pyc files
# and running module bodies.  Its reference is importing these standard
# modules, which neither stopflow nor numpy and scipy import; a fresh
# interpreter times them right after its set-up.  REF_IMPORT_S, like
# REF_KERNEL_S, only sets the scale of the adjusted times.
REFERENCE_IMPORTS = (
    "http.client", "xml.dom.minidom", "email.parser", "xmlrpc.client", "mailbox",
    "pdb", "doctest", "tarfile", "ftplib", "imaplib", "smtplib", "plistlib",
    "wave", "configparser",
)
REF_IMPORT_S = 0.05


def reference_kernel() -> None:
    """About a millisecond of fixed work: interpreter-bound calls and numpy
    vector arithmetic, the two kinds of work the workloads do."""
    import numpy as np

    def payoff(x):
        return max(0.5, x * 1.5 + (1.0 - x) * 0.25)

    total = 0.0
    for i in range(2000):
        total += payoff(i * 1e-3)
    a = np.linspace(0.0, 1.0, 16001)
    for _ in range(4):
        a = np.sqrt(a * a + 1e-3) * 0.999


def reference_import_time() -> float:
    """Seconds to import REFERENCE_IMPORTS; call it once per interpreter."""
    start = time.perf_counter()
    for name in REFERENCE_IMPORTS:
        importlib.import_module(name)
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the CPU's speed while the program runs.

    `start` times the reference kernel once, then a SIGALRM timer times it
    again every PROBE_INTERVAL_S until `stop`.  Python runs the handler in
    the main thread between the program's own bytecodes, so the kernel sees
    the CPU at the speed the program sees.
    """

    def __init__(self):
        self.samples = []  # (start, duration) of each kernel run
        self._previous = None

    def start(self) -> None:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_signal) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.samples.append((start, time.perf_counter() - start))
