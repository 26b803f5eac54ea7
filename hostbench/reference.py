"""Host-speed reference: a fixed chunk of interpreter work, timed often.

The benchmark's host shares its cores with other machines' work, and
its speed drifts by up to 1.5x over seconds to minutes.  Any statistic
of one run's raw times inherits that drift, so runs of the same code
minutes apart disagree by 15-30%.

:class:`HostSpeed` times :func:`chunk` - pure-Python work shaped like
the simulator's hot path (a register file, a table-driven dispatch, a
byte-array memory and a SHA-1) that never touches the program under
test - after every set-up and every timed step of a run, for a tenth
of the time the step took.  Both see the same drift, so the mean chunk
time over a run measures how slow the host was during it.
:meth:`HostSpeed.scale` turns raw host times into times on a *nominal*
host, one that runs the chunk in :data:`NOMINAL_S`; the program's own
speed is all that is left.
"""

from __future__ import annotations

import hashlib
import statistics
from time import perf_counter

#: Host seconds one :func:`chunk` takes on the nominal host.  Only a
#: unit: reported times scale with it, their spread does not.
NOMINAL_S = 0.010
#: Reference time spent after a measured interval, as a share of it.
SHARE = 0.1
#: Machine steps per chunk.
CHUNK_STEPS = 20_000


class _Machine:
    """A toy register machine: eight registers, 4 KiB of byte memory."""

    def __init__(self):
        self.memory = bytearray(4096)
        self.regs = [0] * 8
        self.table = {op: (op * 7) & 7 for op in range(64)}

    def step(self, pc):
        regs = self.regs
        source = self.table[pc & 63]
        value = (regs[source] + pc) & 0xFFFFFFFF
        regs[(source + 1) & 7] = value ^ (value >> 5)
        address = (value & 1023) << 2
        self.memory[address] = value & 255
        return pc + 1 + (self.memory[(address + 4) & 4095] & 1)


def chunk():
    """One fixed unit of reference work; returns its result."""
    machine = _Machine()
    pc = 0
    for _ in range(CHUNK_STEPS):
        pc = machine.step(pc)
    return pc, hashlib.sha1(bytes(machine.memory)).hexdigest()


class HostSpeed:
    """Samples of the reference chunk's host time over one run."""

    def __init__(self):
        #: Host seconds of every chunk timed.
        self.samples = []

    def sample(self, measured_s):
        """Time chunks for ``SHARE`` of ``measured_s`` (at least one)."""
        spent = 0.0
        while True:
            start = perf_counter()
            chunk()
            self.samples.append(perf_counter() - start)
            spent += self.samples[-1]
            if spent >= SHARE * measured_s:
                return

    def scale(self):
        """How many times slower than nominal the host ran (>1: slower)."""
        return statistics.fmean(self.samples) / NOMINAL_S
