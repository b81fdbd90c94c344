"""Run one command, measuring the machine's speed before, during and after.

    python bench/launch.py REPORT SLICE_S -- COMMAND [ARG ...]

The command inherits stdin, stdout and stderr. Give it regular files for
stdout and stderr, not pipes: a Python process stopped while writing
megabytes to a pipe can lose part of the output (stopped every 10 ms,
17 of 20 writes of 14 MB came out truncated), while a write to a file
completes. Calibration rounds
(calib.py) run just before it starts and just after it exits and, when
SLICE_S > 0, every SLICE_S seconds of its run, while it is stopped with
SIGSTOP, so that a long command's speed is sampled across its whole run.
REPORT receives a JSON object: "seconds", from spawn to exit less the
time the command was stopped; "exit", its exit code; "maxrss_kib", its
peak RSS; and "rounds", the calibration round times.

Linux folds the peak RSS of the address space a process replaces at exec
into that process's ru_maxrss, and a child spawned by the benchmark
starts from a copy of (or shares) the benchmark's own, larger address
space. A command started from this small launcher starts from the
launcher's instead, so the ru_maxrss that wait4 returns is the command's
own as long as it exceeds the launcher's (numpy imported: about 40 MB).
"""

import json
import os
import select
import signal
import sys
import time

from calib import calibrate

_CALIBRATE_S = 0.05


def main(argv: list[str]) -> int:
    report, slice_s, sep, command = argv[0], float(argv[1]), argv[2], argv[3:]
    if sep != "--" or not command:
        print(__doc__, file=sys.stderr)
        return 2
    rounds = calibrate(_CALIBRATE_S)
    stopped = 0.0
    t0 = time.perf_counter()
    pid = os.posix_spawn(command[0], command, os.environ)
    pidfd = os.pidfd_open(pid)
    exited = select.poll()
    exited.register(pidfd, select.POLLIN)
    while True:
        if exited.poll(slice_s * 1000 if slice_s > 0 else None):
            _, status, usage = os.wait4(pid, 0)
            break
        os.kill(pid, signal.SIGSTOP)
        _, status, usage = os.wait4(pid, os.WUNTRACED)
        if not os.WIFSTOPPED(status):
            break  # it exited before the signal arrived
        t_stop = time.perf_counter()
        try:
            rounds += calibrate(_CALIBRATE_S)
        finally:
            os.kill(pid, signal.SIGCONT)
        stopped += time.perf_counter() - t_stop
    os.close(pidfd)
    seconds = time.perf_counter() - t0 - stopped
    rounds += calibrate(_CALIBRATE_S)
    result = {
        "seconds": seconds,
        "exit": os.waitstatus_to_exitcode(status),
        "maxrss_kib": usage.ru_maxrss,
        "rounds": rounds,
    }
    with open(report, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
