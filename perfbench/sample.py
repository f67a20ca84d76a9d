"""Entry point of one sample process; `run.py` starts it.

The calibrated clock starts before motiondual is imported, so the sample's
set-up is timed on it as well.
"""

import sys
import time

if __name__ == "__main__":
    t_start = time.monotonic()
    from clock import CalibratedClock

    clock = CalibratedClock()
    clock.start()
    import workloads

    sys.exit(workloads.main(clock, t_start))
