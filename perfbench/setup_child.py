"""Time one fresh-interpreter set-up of a workload (imports plus first use)
with the reference sampled alongside (clock.py), and print the scaled and the
wall seconds. ``run.py`` starts this several times per run:

    python3 perfbench/setup_child.py trace-sweep
"""

import sys

from clock import run_sampled


def set_up():
    import runner  # imports the library: part of what is timed

    runner.warm_up(sys.argv[1])


_, scaled, wall = run_sampled(set_up)
print(scaled, wall)
