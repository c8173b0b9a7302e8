"""The pace probe: how fast the machine runs at a given moment.

The benchmark host shares its cores with other tenants, and its speed
shifts by up to a factor of two between phases that last from seconds to
minutes.  Wall time alone then measures the phase more than the program.
So every timed job and every set-up sample is bracketed by a short, fixed
piece of pure-Python work, timed, and the sample is reported in paced
seconds: its wall time times ``REFERENCE_S`` over the mean of the two probe
times around it.  On a machine whose probe takes ``REFERENCE_S``, paced
seconds are wall seconds.

The probe shares no code with multifair, so a change to the program moves
paced time by the same share as wall time; only the machine's pace is
divided out.  On the baseline host this cut the run-to-run spread of the
median job time from 10-25% in wall time to 2-7% (README, "Paced time").
"""

from __future__ import annotations

import time

# The probe's time on the baseline host (shared 2-core x86, Python 3.11) in
# its fast phase.  A fixed unit, not a measurement of the current machine.
REFERENCE_S = 0.090

_CELLS = ",".join(repr(i * 0.37) for i in range(20_000)).split(",")


def probe() -> float:
    """Seconds taken by fixed interpreter work: integer arithmetic, float
    parsing and dict inserts, the mix the job's own Python code runs.  Three
    rounds, about 90 ms: a 30 ms probe tracked the pace about a fifth less
    well."""
    start = time.perf_counter()
    for _ in range(3):
        total = 0
        for i in range(300_000):
            total += i * i % 7
        table = {}
        for i, cell in enumerate(_CELLS):
            table[str(i)] = float(cell)
    return time.perf_counter() - start


def paced(wall_s: float, probe_before: float, probe_after: float) -> float:
    """``wall_s`` rescaled to the reference pace, by the probes around it."""
    return wall_s * REFERENCE_S * 2.0 / (probe_before + probe_after)
