"""In-process traced replay of workload jobs, one span per stage.

Spans are recorded from here, around calls into each module's public
functions; nothing inside the program is instrumented.  Before each job
every cache is cleared, and the stages are called in the order the CLI
needs them (``enumerate_YN`` -> ``enumerate_circ`` -> ``build_hull`` ->
``to_json``), so a stage finds the earlier stages' results cached and its
span holds only its own work.  Counts are derived from the stages' inputs
and results, since the program reports none itself yet.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from cyclehull import census, cli, hull, moebius, oracle, partitions
from workloads import Job, Workload

# Every lru_cache in the program; getattr keeps the replay running when a
# later version drops one.
CACHED = (
    (partitions, "enumerate_YN"),
    (moebius, "enumerate_band_partitions"),
    (moebius, "enumerate_circ"),
    (moebius, "_fold_map"),
    (moebius, "enumerate_circcirc"),
    (hull, "max_cube_decomposition"),
    (census, "corner_enumerator"),
    (census, "face_polynomial"),
)


def clear_caches() -> None:
    for mod, name in CACHED:
        fn = getattr(mod, name, None)
        if fn is not None and hasattr(fn, "cache_clear"):
            fn.cache_clear()


@dataclass
class Span:
    name: str
    job: str
    parent: int | None
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    """Spans and counters, kept in memory until the run writes them out."""

    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _open: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str, job: str):
        parent = self._open[-1] if self._open else None
        rec = Span(name, job, parent, time.perf_counter())
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Per span name, the summed duration not covered by child spans."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s.name] += s.end - s.start - covered[i]
        return dict(out)

    def to_json(self) -> list[dict]:
        return [
            {"id": i, "name": s.name, "job": s.job, "parent": s.parent,
             "start": s.start, "end": s.end}
            for i, s in enumerate(self.spans)
        ]


class _Sink(io.TextIOBase):
    """Write-only stream that discards what it is given."""

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        return len(s)


class Replay:
    """Replays jobs stage by stage into one Tracer."""

    def __init__(self, tracer: Tracer):
        self.t = tracer
        self.job = ""

    def stage(self, name: str, fn, *args):
        with self.t.span(name, self.job):
            return fn(*args)

    def yn(self, n: int):
        out = self.stage("partitions.enumerate_YN", partitions.enumerate_YN, n)
        self.t.counts["partitions.yn.count"] += len(out)
        return out

    def band(self, n: int, m: int):
        yn = self.yn(n)
        if m == 1:
            out = self.stage("moebius.enumerate_circ", moebius.enumerate_circ, n)
        else:
            out = self.stage(
                "moebius.enumerate_band_partitions",
                moebius.enumerate_band_partitions, n, m,
            )
        self.t.counts["moebius.band.scanned"] += len(yn)
        self.t.counts["moebius.band.kept"] += len(out)
        return out

    def build(self, space: str, n: int):
        if space == "cycle":
            pool = self.band(n, 1)
            self.stage("moebius.circ_inner_corners",
                       lambda: [moebius.circ_inner_corners(x, n) for x in pool])
            self.stage("hull.g_vertex", lambda: [hull.g_vertex(x, n) for x in pool])
        else:
            pool = self.yn(n)
            self.stage("partitions.corners",
                       lambda: [partitions.corners(x, n) for x in pool])
            self.stage("hull.f_vertex", lambda: [hull.f_vertex(x, n) for x in pool])
        h = self.stage("hull.build_hull", hull.build_hull, space, n)
        self.t.counts["hull.vertices.count"] += len(h.vertices)
        self.t.counts["hull.faces.count"] += len(h.faces)
        return h

    def fold_job(self, lam, n: int):
        out, trace = self.stage("moebius.fold", moebius.fold_trace, lam, n)
        self.t.counts["moebius.fold.calls"] += 1
        self.t.counts["moebius.fold.flips"] += len(trace)
        return out

    def oracle_job(self, path: str, compare: str | None):
        metric = oracle.FiniteMetric.from_file(path)
        verts = self.stage("oracle.tight_span_vertices",
                           oracle.tight_span_vertices, metric)
        edges = self.stage("oracle.tight_span_edges",
                           oracle.tight_span_edges, verts, metric)
        pairs = metric.n * (metric.n - 1) // 2
        self.t.counts["oracle.systems.tried"] += math.comb(pairs, metric.n)
        self.t.counts["oracle.vertices.kept"] += len(verts)
        self.t.counts["oracle.pairs.tried"] += math.comb(len(verts), 2)
        self.t.counts["oracle.edges.kept"] += len(edges)
        if compare:
            kind, _, n = compare.partition(":")
            self.build(kind, int(n)).edges()

    def run(self, job: Job, job_id: str) -> None:
        """The stages of one CLI job, with every cache cold at the start."""
        clear_caches()
        self.job = job_id
        p = job.params
        with self.t.span("job", job_id):
            if job.cmd in ("skeleton", "vertices"):
                h = self.build(p["space"], p["n"])
                if p.get("format") == "json":
                    text = self.stage("hull.to_json", hull.to_json, h)
                    self.t.counts["hull.out.bytes"] += len(text)
                elif p.get("format") == "dot":
                    if p["space"] == "cycle" and p["n"] % 2:
                        self.stage("hull.max_cube_decomposition",
                                   hull.max_cube_decomposition, p["n"])
                    g = self.stage("hull.skeleton", hull.skeleton, h)
                    text = self.stage("hull.to_dot", hull.to_dot, g)
                    self.t.counts["hull.out.bytes"] += len(text)
            elif job.cmd == "counts":
                self.stage("census.count_band", census.count_band, p["n"], p["m"])
                self.band(p["n"], p["m"])
            elif job.cmd == "fibre":
                self.fibre_job(partitions.parse_partition(p["partition"]), p["n"])
            elif job.cmd == "fold":
                self.fold_job(partitions.parse_partition(p["partition"]), p["n"])
            elif job.cmd == "oracle":
                self.oracle_job(p["metric"], p.get("compare"))
            elif job.cmd == "census":
                self.census_job(p["n"], p.get("v"))

    def fibre_job(self, lam, n: int) -> None:
        yn = self.yn(n)
        fold_map = getattr(moebius, "_fold_map", None)
        if fold_map is not None:
            self.stage("moebius.fold", fold_map, n)
            self.t.counts["moebius.fold.calls"] += len(yn)
        members = self.stage("moebius.fold_fibre", moebius.fold_fibre, lam, n)
        self.t.counts["moebius.fibre.scanned"] += len(yn)
        self.t.counts["moebius.fibre.members"] += len(members)

    def census_job(self, n: int, v: int | None) -> None:
        if v is not None:
            self.stage("census.face_count", census.face_count, n, v)
            return
        self.stage("census.corner_enumerator", census.corner_enumerator, n)
        p = self.stage("census.face_polynomial", census.face_polynomial, n)
        str(p)  # the CLI prints it

    def extra(self, name: str, args: tuple[int, ...], job_id: str) -> None:
        """A call that no job makes on its own, timed with its inputs cached."""
        self.job = job_id
        with self.t.span("job", job_id):
            if name == "outer_rim":
                n = args[0]
                yn = partitions.enumerate_YN(n)
                self.stage("moebius.outer_rim",
                           lambda: [moebius.outer_rim(x, n) for x in yn])
            elif name == "max_cube_decomposition":
                clear_caches()
                self.band(args[0], 1)
                self.stage("hull.max_cube_decomposition",
                           hull.max_cube_decomposition, args[0])
            elif name == "count_band":
                self.stage("census.count_band", census.count_band, *args)

    def jobs(self, wl: Workload) -> None:
        for i, job in enumerate(wl.jobs):
            self.run(job, f"{wl.name}/{i}")

    def extras(self, wl: Workload) -> None:
        for j, (name, args) in enumerate(wl.extras):
            self.extra(name, args, f"{wl.name}/extra{j}")


def run_cli(tracer: Tracer, job: Job, job_id: str) -> int:
    """cli.main for one job in-process, caches cold, stdout to a sink."""
    clear_caches()
    with tracer.span("cli.main", job_id), contextlib.redirect_stdout(_Sink()):
        return cli.main(job.args)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self time per stage (``<stage>.s``) plus every counter and ratio."""
    out: dict[str, float] = {
        f"{name}.s": secs for name, secs in tracer.self_times().items()
    }
    out.update(tracer.counts)
    c = tracer.counts
    out["moebius.band.kept_ratio"] = c["moebius.band.kept"] / max(1, c["moebius.band.scanned"])
    out["moebius.fibre.kept_ratio"] = c["moebius.fibre.members"] / max(1, c["moebius.fibre.scanned"])
    out["oracle.kept_ratio"] = c["oracle.vertices.kept"] / max(1, c["oracle.systems.tried"])
    return out
