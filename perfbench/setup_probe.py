"""Print the CPU seconds this process spends before its first simulated event.

    python3 perfbench/setup_probe.py <workload> <seed> <scratch dir>

Runs the workload's operation exactly as ``run.py`` does, from a fresh
interpreter, and stops it once the first ``System`` has primed its event
queue: that covers starting Python, importing ``repro``, building the
plan or workload and constructing ``System``.  Prints that CPU time and
the host-speed factor sampled beside it (``speed.py``); ``run.py``
starts several of these and reports the median of their products as
``setup_s``.
"""

import os
import sys
import time

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FirstEvent(BaseException):
    """Raised once the event queue is primed.

    A ``BaseException`` so that the campaign engine, which records any
    ``Exception`` of a point as a failed attempt, lets it through.
    """


def main(argv) -> int:
    name, seed, scratch = argv[1], int(argv[2]), argv[3]
    with speed.CpuClock() as clock:
        try:
            setup(name, seed, scratch)
        except FirstEvent as stop:
            # this thread's CPU time since the process started: leaves
            # out the sampler thread
            cpu_s = stop.args[0]
        else:
            print("the workload finished without starting a System",
                  file=sys.stderr)
            return 1
    print(repr(cpu_s), repr(clock.factor))
    return 0


def setup(name: str, seed: int, scratch: str) -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    from repro.sim.system import System

    start_run = System.start_run

    def start_run_then_stop(system):
        start_run(system)
        raise FirstEvent(time.thread_time())

    System.start_run = start_run_then_stop
    workloads.WORKLOADS[name](seed, scratch).op()


if __name__ == "__main__":
    sys.exit(main(sys.argv))
