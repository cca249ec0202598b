"""Host speed probe: a fixed reference kernel timed between cases.

A shared 2-vCPU virtual machine can switch between speed states up to
1.8x apart within seconds, which no median within a 32 s run removes.  The probe is a frozen copy of the kind of work twistver does in
set-up and search: scalar log/exp table products in a Python loop and a
table-driven row echelon over a small prime field.  It imports nothing
from twistver, so a change to the program never changes it.

A time measured next to a probe is corrected to the host speed at which
the probe takes PROBE_REF_S:  corrected = wall * PROBE_REF_S / probe.
On a host in its fast state that is about the wall time itself.  A long
case is also probed while it runs, from a SIGALRM handler (Sampler), and
the time those probes take is subtracted from the case's times.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np

# probe() on a 2-vCPU x86_64 VM in its fast state (Python 3.11, numpy 2.4)
PROBE_REF_S = 0.00115

Q = 67  # GF(67); 2 generates its multiplicative group
_LOG = np.zeros(Q, dtype=np.int64)
_EXP = np.zeros(Q - 1, dtype=np.int64)
_x = 1
for _k in range(Q - 1):
    _EXP[_k] = _x
    _LOG[_x] = _k
    _x = _x * 2 % Q
_R = np.arange(Q)
_MUL = _R[:, None] * _R[None, :] % Q
_SUB = (_R[:, None] - _R[None, :]) % Q
_DIV = _R[:, None] * np.array([pow(int(b), Q - 2, Q) for b in _R]) % Q
_M = (np.arange(8 * 150, dtype=np.int64).reshape(8, 150) ** 3 + 5) % Q


def _kernel() -> int:
    n = Q - 1
    acc = 0
    for a in range(1, Q):
        for b in range(1, 40):
            acc ^= int(_EXP[(int(_LOG[a]) + int(_LOG[b])) % n])
    m = _M.copy()
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        piv = int(m[r, c])
        if piv != 1:
            m[r] = _DIV[m[r], piv]
        for i in np.nonzero(m[:, c])[0].tolist():
            if i != r:
                m[i] = _SUB[m[i], _MUL[int(m[i, c])][m[r]]]
        r += 1
    return acc + r


def probe(n: int = 1) -> float:
    """Seconds of one kernel run, the median of three.  With n > 1, the
    mean over n processes that probe at once, this one and n - 1 forked
    children: the speed of the CPUs a pool of n workers runs on."""
    kids = []
    for _ in range(n - 1):
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: probe, report, exit without cleanup
            os.close(r)
            os.write(w, repr(probe()).encode())
            os._exit(0)
        os.close(w)
        kids.append((pid, r))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    own = sorted(times)[1]
    probes = [own]
    for pid, r in kids:
        with os.fdopen(r) as f:
            probes.append(float(f.read()))
        os.waitpid(pid, 0)
    return sum(probes) / n


def speed(probes: list[float]) -> float:
    """Factor that corrects a time measured while probes were taken."""
    return PROBE_REF_S * len(probes) / sum(probes)


class Sampler:
    """Probe every `interval` seconds while the with-block runs.

    The probe runs in the main thread from a SIGALRM handler, between two
    bytecodes of the program.  Interval timers are not inherited by forked
    children, but a parent waiting for its pool would probe a CPU its
    workers share, so a multi-worker case is not sampled.  on_probe, if
    given, is called with the wall seconds of each probe.
    """

    def __init__(self, interval: float = 0.5, on_probe=None):
        self.interval = interval
        self.on_probe = on_probe
        # (start, wall seconds, probe seconds) of each probe
        self.samples: list[tuple[float, float, float]] = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        p = probe()
        wall = time.perf_counter() - t0
        self.samples.append((t0, wall, p))
        if self.on_probe is not None:
            self.on_probe(wall)

    def __enter__(self):
        self.samples = []
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def spent(self, start: float, end: float) -> float:
        """Wall seconds the probes took between start and end."""
        return sum(w for t, w, _ in self.samples if start <= t < end)

    def probes(self) -> list[float]:
        return [p for _, _, p in self.samples]
