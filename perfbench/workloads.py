"""The benchmark's workloads: fixed lists of ``python -m cyclehull`` jobs.

Every input a job receives (a partition, a metric file, a face dimension
``v``, the job order) is drawn from the workload seed here, with code that
does not import ``cyclehull``, so a change to the program cannot change
what it is given.

Why each workload exists:

* ``hull-cycle``: the C_N hull at N = 17 from the band filter over all of
  Y_17 (``moebius``) and face assembly and export (``hull``).  The
  vertices-only job sits beside the full-face JSON export so that a
  lazy-face change that speeds one and slows the other shows; N = 16
  covers the even, cube-shaped branch.  The seed sets only the job order.
* ``xn-fold``: all of Y_13 with corners and vertex functions
  (``partitions``), one fold fibre that folds all 2^14 partitions of Y_15,
  and eight single folds at N = 41 that are mostly interpreter start-up,
  so import cost weighs most here.
* ``oracle``: the brute-force tight span of three 7-point metrics, each
  C(21, 7) = 116,280 pair-subset solves; the hull builds at N = 7 are
  tiny, so only oracle changes move it.  The random metric keeps a solver
  from being tuned to the two model spaces.
* ``census``: pure Z[t] transfer-matrix arithmetic; no partition is
  enumerated, so changes to the other modules should not move it.

Excluded: ``counts --n 101 --m 20`` never returns, because
``enumerate_band_partitions`` filters all 2^100 partitions of Y_101.  It
stays out of the job lists until a budget check makes it exit 2;
``count_band(101, 20)`` is timed in the traced run instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

NAMES = ("hull-cycle", "xn-fold", "oracle", "census")


@dataclass(frozen=True)
class Scale:
    """Problem sizes; FULL is the benchmark, SMOKE the quick self-test."""

    cycle_n: int
    dot_n: int
    counts: tuple[int, int]
    xn_n: int
    fibre_n: int
    fold_n: int
    folds: int
    oracle_n: int
    census: tuple[int, int]
    band_extra: tuple[int, int]


FULL = Scale(17, 16, (17, 2), 13, 15, 41, 8, 7, (1001, 601), (101, 20))
SMOKE = Scale(7, 6, (7, 2), 5, 7, 7, 2, 5, (7, 5), (9, 2))


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``params`` are what the checks and replay need."""

    cmd: str
    params: dict = field(hash=False)

    @property
    def args(self) -> list[str]:
        p = self.params
        if self.cmd in ("skeleton", "vertices"):
            out = [self.cmd, "--n", str(p["n"]), "--space", p["space"]]
            return out + (["--format", p["format"]] if "format" in p else [])
        if self.cmd in ("fold", "fibre"):
            return [self.cmd, "--n", str(p["n"]), "--partition", p["partition"]]
        if self.cmd == "counts":
            return ["counts", "--n", str(p["n"]), "--m", str(p["m"])]
        if self.cmd == "oracle":
            out = ["oracle", "--metric", p["metric"]]
            return out + (["--compare", p["compare"]] if "compare" in p else [])
        if self.cmd == "census":
            out = ["census", "--n", str(p["n"])]
            return out + (["--v", str(p["v"])] if "v" in p else [])
        raise ValueError(f"unknown job command {self.cmd!r}")

    def __str__(self) -> str:
        return " ".join(self.args)


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[Job, ...]
    # calls timed only in the traced run, as (function name, args)
    extras: tuple[tuple[str, tuple[int, ...]], ...] = ()


def format_parts(lam: tuple[int, ...]) -> str:
    return ",".join(map(str, lam)) or "()"


def partition_from_bits(bits: list[int]) -> tuple[int, ...]:
    """The partition of Y_N whose outer rim is the given N - 1 free steps.

    A rim is N unit steps from (0, lam_1) to (lam_1, N), the last one a
    j-step; a 1 is an i-step (a box to the right), a 0 a j-step (one row
    up).  The i-steps before each j-step, read bottom row first, are the
    differences lam_r - lam_(r+1).  This is a bijection onto Y_N, so
    uniform bits give a uniform element.
    """
    diffs, run = [], 0
    for b in bits + [0]:
        if b:
            run += 1
        else:
            diffs.append(run)
            run = 0
    parts, acc = [], 0
    for d in diffs:
        acc += d
        parts.append(acc)
    return tuple(p for p in reversed(parts) if p)


def rim_deltas(lam: tuple[int, ...], n: int) -> list[int]:
    """delta = j - i at each of the N rim sites of lam in the Moebius strip."""
    width = lam[0] if lam else 0
    rows = n - width
    p = list(lam) + [0] * (rows + 1 - len(lam))
    delta, out = width, [width]
    for r in range(rows, 0, -1):
        for _ in range(p[r - 1] - p[r]):
            delta -= 1
            out.append(delta)
        delta += 1
        out.append(delta)
    return out[:n]


def in_band(lam: tuple[int, ...], n: int) -> bool:
    """Membership in Y_N°: every rim site has k - 1 <= delta <= N - k + 1."""
    k = n // 2
    return all(k - 1 <= d <= n - k + 1 for d in rim_deltas(lam, n))


def random_partition(rng: random.Random, n: int, band: bool) -> tuple[int, ...]:
    while True:
        lam = partition_from_bits([rng.randrange(2) for _ in range(n - 1)])
        if not band or in_band(lam, n):
            return lam


def model_matrix(kind: str, n: int) -> list[list[int]]:
    """Distance matrix of C_N (step 2 for odd N, 1 for even) or of X_N."""
    def dist(i: int, j: int) -> int:
        d = abs(i - j)
        if kind == "xn":
            return d * (n - d)
        return (2 if n % 2 else 1) * min(d, n - d)

    return [[dist(i, j) for j in range(n)] for i in range(n)]


def random_metric(rng: random.Random, n: int) -> list[list[int]]:
    """A generic random metric: distances uniform in 10..19.

    Any two distances sum to more than a third, so every triangle
    inequality holds strictly and the matrix is its own shortest-path
    metric.  Such metrics have rich tight spans (about 40 to 60 vertices
    at n = 7) at a steadier cost than sparse random graphs.
    """
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(10, 19)
    return d


def write_metric(path: Path, rows: list[list[int]]) -> str:
    text = "".join(" ".join(map(str, r)) + "\n" for r in rows)
    path.write_text(f"{len(rows)}\n{text}")
    return str(path)


def build(name: str, seed: int, scale: Scale, inputs: Path) -> Workload:
    """The job list of one workload; writes its metric files into inputs."""
    rng = random.Random(f"{name}:{seed}")
    s = scale
    if name == "hull-cycle":
        jobs = [
            Job("skeleton", {"n": s.cycle_n, "space": "cycle", "format": "json"}),
            Job("vertices", {"n": s.cycle_n, "space": "cycle"}),
            Job("skeleton", {"n": s.dot_n, "space": "cycle", "format": "dot"}),
            Job("counts", {"n": s.counts[0], "m": s.counts[1]}),
        ]
        rng.shuffle(jobs)
        extras = (("outer_rim", (s.cycle_n,)), ("max_cube_decomposition", (s.cycle_n,)))
        return Workload(name, tuple(jobs), extras)
    if name == "xn-fold":
        lam = random_partition(rng, s.fibre_n, band=True)
        jobs = [
            Job("skeleton", {"n": s.xn_n, "space": "xn", "format": "json"}),
            Job("fibre", {"n": s.fibre_n, "partition": format_parts(lam)}),
        ]
        for _ in range(s.folds):
            mu = random_partition(rng, s.fold_n, band=False)
            jobs.append(Job("fold", {"n": s.fold_n, "partition": format_parts(mu)}))
        return Workload(name, tuple(jobs))
    if name == "oracle":
        n = s.oracle_n
        inputs.mkdir(parents=True, exist_ok=True)
        jobs = []
        for kind in ("cycle", "xn"):
            path = write_metric(inputs / f"{kind}{n}.txt", model_matrix(kind, n))
            jobs.append(Job("oracle", {"metric": path, "compare": f"{kind}:{n}"}))
        path = write_metric(inputs / f"random{n}-{seed}.txt", random_metric(rng, n))
        jobs.append(Job("oracle", {"metric": path}))
        return Workload(name, tuple(jobs))
    if name == "census":
        big, small = s.census
        jobs = (
            Job("census", {"n": big}),
            Job("census", {"n": small}),
            Job("census", {"n": big, "v": rng.randint(0, (big - 1) // 2)}),
        )
        return Workload(name, jobs, (("count_band", s.band_extra),))
    raise ValueError(f"unknown workload {name!r}")
