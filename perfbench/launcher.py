"""Spawn benchmark jobs one at a time from a process that stays small.

A child's ``ru_maxrss`` starts from the memory of the process that spawned
it, so jobs are not spawned by ``run.py``, which parses large outputs,
but by this launcher.  The launcher never reads a job's output:
stdout and stderr go straight to files.  Its own resident size stays that
of a bare interpreter, below any job's, so each job's peak RSS is the
job's own figure.

The speed of a shared virtual CPU drifts by up to a factor of two over
seconds, and two virtual CPUs drift independently.  So the launcher and
its jobs run on the one CPU that ``run.py`` pins them to, and the launcher
times a fixed slice of interpreter work (``probe``) ten times before and
after each job and once every 0.1 s while it runs.  The mean probe time
is the CPU's speed over the job; ``run.py`` scales the job's times by it.
The CPU time of the probes that ran while the job was alive is taken off
its wall time.

Protocol: one JSON object per line on stdin, ``{"jobs": [...]}``, where a
job is ``{"argv", "env", "out", "err", "timeout"}``.  The jobs of one
line run back to back, one at a time; the reply is one JSON line with
one result per job.  The launcher exits at end of input.
"""

import json
import os
import select
import signal
import sys
import time

PROBE_ROUNDS = 10_000  # about 2 ms
PROBE_EVERY_S = 0.1
EDGE_PROBES = 10

current = None  # pid of the running job


def probe():
    """CPU seconds taken by a fixed loop of integer, tuple and dict work.

    CPU time, not wall time: a probe that runs while a job is alive shares
    the CPU with it, and how the scheduler interleaves the two varies.
    """
    start = time.thread_time()
    acc, table = 0, {}
    for i in range(PROBE_ROUNDS):
        acc += (i * i) % 7
        table[i & 1023] = (acc, i)
    return time.thread_time() - start


def stop(signum, frame):
    """On SIGTERM, kill and reap the running job before exiting."""
    if current is not None:
        os.kill(current, signal.SIGKILL)
        os.waitpid(current, 0)
    sys.exit(1)


def run_job(job):
    global current
    probes = [probe() for _ in range(EDGE_PROBES)]
    out = os.open(job["out"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    err = os.open(job["err"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, out, 1),
        (os.POSIX_SPAWN_DUP2, err, 2),
    ]
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(
            job["argv"][0], job["argv"], job["env"], file_actions=actions
        )
    finally:
        os.close(out)
        os.close(err)
    current = pid
    pidfd = os.pidfd_open(pid)
    during = []
    timed_out = False
    try:
        while True:
            left = start + job["timeout"] - time.perf_counter()
            if left <= 0:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            if select.select([pidfd], [], [], min(PROBE_EVERY_S, left))[0]:
                break
            during.append(probe())
        _, status, usage = os.wait4(pid, 0)
        end = time.perf_counter()
        current = None
    finally:
        os.close(pidfd)
    probes += during + [probe() for _ in range(EDGE_PROBES)]
    return {
        "wall_s": end - start - sum(during),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "probe_s": sum(probes) / len(probes),
        "exit": os.waitstatus_to_exitcode(status),
        "timed_out": timed_out,
    }


def main():
    signal.signal(signal.SIGTERM, stop)
    for line in sys.stdin:
        results = [run_job(job) for job in json.loads(line)["jobs"]]
        sys.stdout.write(json.dumps(results) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
