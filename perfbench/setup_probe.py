"""Time one fresh-interpreter set-up: import rsumlab, then build the workload's tables.

    python3 perfbench/setup_probe.py <workload> <scale>

Prints the host seconds from before the import to after the last build, then
the same time at the reference host speed (see ``hostspeed.py``).
"""

import os
import sys
from time import perf_counter

start = perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import hostspeed  # noqa: E402  (imports numpy, as rsumlab would)

numpy_s = perf_counter() - start
sampler = hostspeed.SpeedSampler(period_s=0.005)  # a set-up lasts about 0.2 s
with sampler.sampling():
    t0 = perf_counter()
    import workloads  # noqa: E402  (imports rsumlab)

    workloads.setup(workloads.groups_for(sys.argv[1], sys.argv[2]))
    t1 = perf_counter()
    host_s = numpy_s + t1 - t0 - sampler.stolen_s
print(repr(host_s), repr(host_s * sampler.factor(t0, t1)))
