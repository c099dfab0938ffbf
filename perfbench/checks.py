"""Identities each job's output must satisfy, checked after the job exits.

The expected values come from the paper's counting results and from code
written here, never from stored outputs, so a change to how the program
formats its output (the empty partition printed as "" or "()") is not a
failure.  Only the fold and fibre checks call back into the program, to
fold a printed partition again.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from fractions import Fraction

from workloads import Job, in_band, model_matrix


class CheckFailed(Exception):
    pass


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def lucas(n: int) -> int:
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def catalan(r: int) -> int:
    return math.comb(2 * r, r) // (r + 1)


def face_count(n: int, v: int) -> int:
    """v-faces of the odd cycle hull: sum_s N/(N-s) C(N-s, s) C(s, v)."""
    return sum(
        n * math.comb(n - s, s) // (n - s) * math.comb(s, v)
        for s in range(v, (n - 1) // 2 + 1)
    )


def cycle_f_vector(n: int) -> list[int]:
    """Faces of the C_N hull by dimension: odd N by face_count, even N a cube."""
    if n % 2:
        return [face_count(n, v) for v in range((n - 1) // 2 + 1)]
    k = n // 2
    return [math.comb(k, v) * 2 ** (k - v) for v in range(k + 1)]


def parse_partition(text: str) -> tuple[int, ...]:
    text = text.strip().strip("()")
    return tuple(int(p) for p in text.split(",")) if text else ()


def parse_poly(text: str) -> list[int]:
    """Coefficients of a printed Z[t] polynomial such as '3 + 2*t - t^2'."""
    coeffs: dict[int, int] = {}
    for sign, term in re.findall(r"([+-]?)\s*([^\s+-]+)", text):
        if "t" in term:
            head, _, power = term.partition("t")
            c, v = int(head.rstrip("*") or 1), int(power.lstrip("^") or 1)
        else:
            c, v = int(term), 0
        coeffs[v] = coeffs.get(v, 0) + (-c if sign == "-" else c)
    return [coeffs.get(v, 0) for v in range(max(coeffs) + 1)]


def feasible(f, d) -> bool:
    n = len(d)
    return all(f[i] >= 0 for i in range(n)) and all(
        f[i] + f[j] >= d[i][j] for i in range(n) for j in range(i + 1, n)
    )


def extremal(f, d) -> bool:
    """Feasible, and every positive coordinate is tight against another."""
    n = len(d)
    return feasible(f, d) and all(
        f[i] == 0 or any(f[i] + f[j] == d[i][j] for j in range(n) if j != i)
        for i in range(n)
    )


def read_metric(path: str) -> list[list[int]]:
    lines = [ln for ln in open(path).read().splitlines() if ln.strip()]
    return [[int(x) for x in ln.split()] for ln in lines[1:]]


def _fold(lam, n):
    from cyclehull.moebius import fold

    return fold(lam, n)


def vertex_count(space: str, n: int) -> int:
    if space == "xn":
        return 2 ** (n - 1)
    return lucas(n) if n % 2 else 2 ** (n // 2)


def check_skeleton(job: Job, text: str) -> None:
    n, space = job.params["n"], job.params["space"]
    if job.params["format"] == "dot":
        nodes = len(re.findall(r"^\s*\w+ \[", text, re.M))
        edges = text.count(" -- ")
        expect(nodes == vertex_count(space, n), f"{nodes} DOT nodes")
        if space == "cycle":
            want = cycle_f_vector(n)[1]
            expect(edges == want, f"{edges} DOT edges, want {want}")
        return
    doc = json.loads(text)
    verts = doc["vertices"]
    expect(len(verts) == vertex_count(space, n), f"{len(verts)} vertices")
    if space == "xn":
        d = model_matrix("xn", n)
        bad = [name for name, f in verts.items() if not feasible(f, d)]
        expect(not bad, f"{len(bad)} infeasible vertices, e.g. {bad[:1]}")
        return
    if n % 2:
        expect(len(doc["faces"]) == 2**n - 1, f"{len(doc['faces'])} faces")
    dims = Counter(len(f["removed"]) for f in doc["faces"])
    got = [dims.get(v, 0) for v in range(max(dims) + 1)]
    expect(got == cycle_f_vector(n), f"f-vector {got}")


def check_vertices(job: Job, text: str) -> None:
    n, space = job.params["n"], job.params["space"]
    lines = [ln for ln in text.splitlines() if ln.strip()]
    expect(len(lines) == vertex_count(space, n), f"{len(lines)} vertex lines")


def check_counts(job: Job, text: str) -> None:
    vals = dict(ln.split(":") for ln in text.splitlines() if ":" in ln)
    trace, enum = int(vals["trace"]), int(vals["enumeration"])
    expect(trace == enum, f"trace {trace} != enumeration {enum}")


def check_fibre(job: Job, text: str) -> None:
    n = job.params["n"]
    lam = parse_partition(job.params["partition"])
    *members, last = text.splitlines()
    word, _, size = last.partition(" = ")
    product = 1
    for factor in word.split("*"):
        r, _, e = factor[2:].partition("^")
        product *= catalan(int(r)) ** int(e or 1)
    expect(int(size) == product, f"{size} != Catalan product of {word}")
    expect(len(members) == product, f"{len(members)} members, want {product}")
    bad = [m for m in members if _fold(parse_partition(m), n) != lam]
    expect(not bad, f"{len(bad)} members do not fold to {lam}")


def check_fold(job: Job, text: str) -> None:
    n = job.params["n"]
    out = parse_partition(text.splitlines()[0])
    expect(in_band(out, n), f"fold output {out} is not in Y_N°")
    expect(_fold(out, n) == out, f"fold output {out} is not a fixed point")


def check_oracle(job: Job, text: str) -> None:
    if "compare" in job.params:
        expect(text.startswith("MATCH"), text.strip()[:80])
        return
    d = read_metric(job.params["metric"])
    lines = text.splitlines()
    k = int(lines[0].partition(":")[2])
    verts = {tuple(Fraction(x) for x in ln.split()) for ln in lines[1 : k + 1]}
    expect(len(verts) == k, f"{len(verts)} distinct of {k} vertices")
    bad = [f for f in verts if not extremal(f, d)]
    expect(not bad, f"{len(bad)} vertices are not extremal")
    rows = {tuple(Fraction(x) for x in r) for r in d}
    expect(rows <= verts, "a distance row is not a vertex")


def check_census(job: Job, text: str, polys: dict[int, list[int]]) -> None:
    n = job.params["n"]
    if "v" in job.params:
        v = job.params["v"]
        got = int(text)
        expect(got == face_count(n, v), f"not face_count({n}, {v})")
        if n in polys:
            expect(got == polys[n][v], f"not coefficient {v} of p_{n}")
        return
    p = polys[n]
    expect(sum(p) == 2**n - 1, "p(1) != 2^N - 1")
    expect(sum(c * (-1) ** v for v, c in enumerate(p)) == 1, "p(-1) != 1")


CHECKS = {
    "skeleton": check_skeleton,
    "vertices": check_vertices,
    "counts": check_counts,
    "fibre": check_fibre,
    "fold": check_fold,
    "oracle": check_oracle,
}


def check_pass(jobs, texts, results) -> list[str | None]:
    """One error message (or None) per job of a pass."""
    polys = {}
    for job, text in zip(jobs, texts):
        if job.cmd == "census" and "v" not in job.params and text:
            try:
                polys[job.params["n"]] = parse_poly(text)
            except ValueError:
                pass
    errors = []
    for job, text, res in zip(jobs, texts, results):
        if res["timed_out"] or res["exit"] != 0:
            how = "timed out" if res["timed_out"] else f"exit {res['exit']}"
            errors.append(f"{job}: {how}")
            continue
        try:
            if job.cmd == "census":
                check_census(job, text, polys)
            else:
                CHECKS[job.cmd](job, text)
        except Exception as exc:  # any malformed output is a failed job
            errors.append(f"{job}: {type(exc).__name__}: {exc}"[:300])
            continue
        errors.append(None)
    return errors
