"""Benchmark of the ``cyclehull`` command line, end to end and per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hull-cycle --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --smoke

Untraced (``--trace 0``): each workload is a fixed list of
``python -m cyclehull`` jobs (see ``workloads.py``), run against the
checkout's own ``src/``.  Every job runs in a fresh process, because a user
of the command pays interpreter start-up and cold caches on every run.  The
loop is closed: one client, one job at a time, on one pinned CPU.  Passes
over the job list, each followed by its checks, repeat for ``--seconds``
and at least three times; each metric is the median over the passes:

    wall_s       time to the answer: the pass's jobs, spawn to exit
    max_job_s    the slowest job of the pass
    cpu_s        user + sys time of the pass's jobs (wait4 rusage)
    peak_rss_mb  largest ru_maxrss of any job of the pass
    setup_s      ``python -m cyclehull --help``; median of 11 per run

Times are in reference seconds.  The CPU of a shared virtual machine
changes speed by up to a factor of two within seconds, so the launcher
times a fixed probe loop around and during every job (``launcher.py``)
and each job's times are scaled by REF_PROBE_S over its mean probe time:
on a CPU where the probe takes REF_PROBE_S, reference seconds are seconds.
The unscaled pass times are printed as well.

A job fails on a non-zero exit, a timeout, or output that breaks the
identities in ``checks.py``; checks run after the pass, outside the timed
interval.  ``failed_ratio`` (failed / attempted) is printed beside the
metrics and is the ``failed`` and ``attempted`` of the result line.

Traced (``--trace 1``): one untraced pass of the workload, then an
in-process replay of the jobs of all four workloads, stage by stage with a
span around each (``spans.py``), then ``cli.main`` in-process for the
workload's own jobs.  Stage times are plain seconds.  ``cli.main.s``,
``cli.spawn.s`` (untraced pass minus ``cli.main.s``) and
``trace.overhead.s`` (traced replay of the workload's jobs minus its
untraced pass) are in reference seconds, like the pass they compare with.
Spans are written to ``perfbench/_work``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it records the seed, git
SHA, Python version, nproc and CPU model.  Without ``src/cyclehull`` the
benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

RUN_LIMIT_S = 170  # a run must end within 180 s
JOB_TIMEOUT_S = 60
SETUP_SAMPLES = 11
# Reference duration of launcher.probe(): reported times are measured
# times scaled by REF_PROBE_S over the job's mean probe time.
REF_PROBE_S = 0.002

END_TO_END = {
    "wall_s": "s",
    "max_job_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "partitions.enumerate_YN.s": "s",
    "partitions.yn.count": "count",
    "partitions.corners.s": "s",
    "moebius.enumerate_circ.s": "s",
    "moebius.band.scanned": "count",
    "moebius.band.kept": "count",
    "moebius.band.kept_ratio": "ratio",
    "moebius.enumerate_band_partitions.s": "s",
    "moebius.circ_inner_corners.s": "s",
    "moebius.outer_rim.s": "s",
    "moebius.fold.s": "s",
    "moebius.fold.calls": "count",
    "moebius.fold.flips": "count",
    "moebius.fold_fibre.s": "s",
    "moebius.fibre.scanned": "count",
    "moebius.fibre.members": "count",
    "moebius.fibre.kept_ratio": "ratio",
    "hull.f_vertex.s": "s",
    "hull.g_vertex.s": "s",
    "hull.build_hull.s": "s",
    "hull.vertices.count": "count",
    "hull.faces.count": "count",
    "hull.skeleton.s": "s",
    "hull.to_json.s": "s",
    "hull.to_dot.s": "s",
    "hull.max_cube_decomposition.s": "s",
    "hull.out.bytes": "bytes",
    "census.corner_enumerator.s": "s",
    "census.face_polynomial.s": "s",
    "census.face_count.s": "s",
    "census.count_band.s": "s",
    "oracle.tight_span_vertices.s": "s",
    "oracle.systems.tried": "count",
    "oracle.vertices.kept": "count",
    "oracle.kept_ratio": "ratio",
    "oracle.tight_span_edges.s": "s",
    "oracle.pairs.tried": "count",
    "oracle.edges.kept": "count",
    "cli.main.s": "s",
    "cli.spawn.s": "s",
    "trace.overhead.s": "s",
}


class Launcher:
    """The small process that spawns every job (see launcher.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, arg_lists, tag: str, deadline: float) -> dict:
        """Run the jobs back to back; outputs go to _work/<tag>-<i>.out."""
        jobs = [
            {
                "argv": [sys.executable, "-m", "cyclehull", *args],
                "env": self.env,
                "out": str(WORK / f"{tag}-{i}.out"),
                "err": str(WORK / f"{tag}-{i}.err"),
                "timeout": max(1.0, min(JOB_TIMEOUT_S, deadline - time.monotonic())),
            }
            for i, args in enumerate(arg_lists)
        ]
        self.proc.stdin.write(json.dumps({"jobs": jobs}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        results = json.loads(line)
        for job, res in zip(jobs, results):
            res["out"] = job["out"]
            res["scale"] = REF_PROBE_S / res["probe_s"]
        return results

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class Setup:
    """Samples of the no-work invocation, ``python -m cyclehull --help``."""

    def __init__(self, launcher: Launcher, deadline: float):
        self.launcher, self.deadline = launcher, deadline
        self.walls: list[float] = []
        self.rss_mb: list[float] = []
        self.failed = 0
        self.sample(warmup=True)

    def sample(self, count: int = 1, warmup: bool = False) -> None:
        for res in self.launcher.run([["--help"]] * count, "help", self.deadline):
            self.failed += res["exit"] != 0 or res["timed_out"]
            if not warmup:
                self.walls.append(res["wall_s"] * res["scale"])
                self.rss_mb.append(res["maxrss_kb"] / 1024)


def run_pass(launcher: Launcher, wl, deadline: float):
    """One timed pass, then its checks; returns (summary, errors)."""
    import checks

    results = launcher.run([job.args for job in wl.jobs], wl.name, deadline)
    texts = []
    for res in results:
        with open(res["out"], errors="replace") as f:
            texts.append(f.read())
    errors = checks.check_pass(wl.jobs, texts, results)
    walls = [r["wall_s"] * r["scale"] for r in results]
    summary = {
        "wall_s": sum(walls),
        "max_job_s": max(walls),
        "cpu_s": sum(r["cpu_s"] * r["scale"] for r in results),
        "peak_rss_mb": max(r["maxrss_kb"] for r in results) / 1024,
        "raw_wall_s": sum(r["wall_s"] for r in results),
    }
    return summary, [e for e in errors if e]


def measure(launcher, setup: Setup, wl, seconds: float, deadline: float, least: int = 3):
    """Passes, with their checks, for ``seconds``; at least ``least``."""
    setup.sample(SETUP_SAMPLES // 2)
    passes, errors = [], []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        summary, errs = run_pass(launcher, wl, deadline)
        passes.append(summary)
        errors += errs
        now = time.monotonic()
        took = now - t
        if deadline - now < 2 * took + 5:
            break
        if len(passes) >= least and now + took - start > seconds:
            break
    setup.sample(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    return passes, errors


def speed() -> float:
    """Scale factor to reference seconds for work in this process, now."""
    from launcher import EDGE_PROBES, probe

    return REF_PROBE_S / statistics.mean(probe() for _ in range(EDGE_PROBES))


def scaled(fn, *args):
    """fn(*args) and its wall time in reference seconds."""
    before = speed()
    start = time.perf_counter()
    out = fn(*args)
    secs = time.perf_counter() - start
    return out, secs * (before + speed()) / 2


def traced(launcher, setup, wl, seed: int, scale, deadline: float):
    """One untraced pass, the traced replay of every workload, cli.main."""
    import spans

    passes, errors = measure(launcher, setup, wl, 0, deadline, least=1)
    first = passes[0]
    tracer = spans.Tracer()
    rep = spans.Replay(tracer)
    for name in workloads.NAMES:
        other = workloads.build(name, seed, scale, WORK / "inputs")
        _, secs = scaled(rep.jobs, other)
        if name == wl.name:
            replay_s = secs
        rep.extras(other)
    cli_s, cli_failed = 0.0, 0
    for i, job in enumerate(wl.jobs):
        code, secs = scaled(spans.run_cli, tracer, job, f"{wl.name}/{i}")
        cli_s += secs
        cli_failed += code != 0
    attempted = len(wl.jobs) * (len(passes) + 1)
    failed = len(errors) + cli_failed
    if cli_failed:
        errors.append(f"{cli_failed} in-process cli.main calls did not exit 0")
    metrics = spans.layer_metrics(tracer)
    metrics["cli.main.s"] = cli_s
    metrics["cli.spawn.s"] = first["wall_s"] - cli_s
    metrics["trace.overhead.s"] = replay_s - first["wall_s"]
    out = WORK / f"spans-{wl.name}-{seed}.json"
    out.write_text(json.dumps(tracer.to_json()))
    missing = [name for name in PER_LAYER if name not in metrics]
    if missing:
        errors.append(f"traced run produced no {', '.join(missing)}")
    print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
    print(f"trace: replay of {wl.name} {replay_s:.4f} s, untraced pass"
          f" {first['wall_s']:.4f} s, cli.main {cli_s:.4f} s (reference seconds)")
    return {k: metrics.get(k, 0.0) for k in PER_LAYER}, PER_LAYER, attempted, failed, errors


def untraced(launcher, setup, wl, seconds: float, deadline: float):
    passes, errors = measure(launcher, setup, wl, seconds, deadline)
    metrics = {
        k: statistics.median(p[k] for p in passes)
        for k in ("wall_s", "max_job_s", "cpu_s", "peak_rss_mb")
    }
    metrics["setup_s"] = statistics.median(setup.walls)
    attempted = len(wl.jobs) * len(passes)
    failed = len(errors)
    print(f"passes: {len(passes)}; wall_s per pass: "
          + " ".join(f"{p['wall_s']:.3f}" for p in passes)
          + "; unscaled: " + " ".join(f"{p['raw_wall_s']:.3f}" for p in passes))
    return metrics, END_TO_END, attempted, failed, errors


def provenance(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "seed": seed,
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool, scale) -> dict:
    """One benchmark run; prints the report and returns the result object."""
    deadline = time.monotonic() + RUN_LIMIT_S - 10
    WORK.mkdir(parents=True, exist_ok=True)
    # One CPU for this process, the launcher and every job: the probes
    # then time the CPU the work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with Launcher() as launcher:
        setup = Setup(launcher, deadline)
        wl = workloads.build(workload, seed, scale, WORK / "inputs")
        if trace:
            metrics, units, attempted, failed, errors = traced(
                launcher, setup, wl, seed, scale, deadline)
        else:
            metrics, units, attempted, failed, errors = untraced(
                launcher, setup, wl, seconds, deadline)
    if setup.failed:
        errors.append(f"{setup.failed} --help runs failed")
    for err in errors:
        print(f"FAILED {err}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{workload:<11} {name:<36} {value:>16.6f} {units[name]}")
    print(f"{workload:<11} {'failed_ratio':<36} {failed / attempted:>16.6f} ratio"
          f" ({failed}/{attempted})")
    print(f"{workload:<11} {'help_rss_mb':<36} first {setup.rss_mb[0]:.2f}"
          f" last {setup.rss_mb[-1]:.2f} MB")
    prov = provenance(seed)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"workload": workload, "trace": trace, "provenance": prov,
              "errors": errors, "result": result}
    (WORK / f"result-{workload}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return {"result": result, "help_rss_mb": setup.rss_mb, "errors": errors}


def smoke() -> int:
    """Every workload once at small N, untraced and traced."""
    problems = []
    for name in workloads.NAMES:
        for trace in (False, True):
            got = run_one(name, 1, 0, trace, workloads.SMOKE)
            res = got["result"]
            want = PER_LAYER if trace else END_TO_END
            for metric, unit in want.items():
                if res["metrics"].get(metric, {}).get("unit") != unit:
                    problems.append(f"{name}: {metric} [{unit}] not reported")
            if res["failed"] or not res["correct"]:
                problems.append(f"{name} trace={int(trace)}: {got['errors']}")
            rss = got["help_rss_mb"]
            if max(rss) - min(rss) > 1.0:
                problems.append(f"{name}: --help peak RSS moved: {rss}")
    for p in problems:
        print(f"SMOKE FAILED {p}", file=sys.stderr)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


def _out_of_time(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at small N and check the report")
    args = parser.parse_args(argv)
    if not (SRC / "cyclehull" / "__init__.py").is_file():
        print(f"error: no cyclehull package under {SRC}", file=sys.stderr)
        return 2
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(RUN_LIMIT_S * (5 if args.smoke else 1))
    if args.smoke:
        return smoke()
    run_one(args.workload, args.seed, args.seconds, bool(args.trace), workloads.FULL)
    return 0


if __name__ == "__main__":
    sys.exit(main())
