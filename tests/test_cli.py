import gc
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

from cyclehull.census import count_band
from cyclehull.cli import main
from cyclehull import (
    export as export_module,
    hull as hull_module,
    hullwalk as hullwalk_module,
    moebius as moebius_module,
    partitions as partitions_module,
    walks as walks_module,
)
from cyclehull.hull import build_hull
from cyclehull.moebius import enumerate_circ, fold
from cyclehull.oracle import FiniteMetric, tight_span
from cyclehull.partitions import format_partition, parse_partition
from cyclehull.spaces import model_matrix
from reference import dot_text

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_metric(tmp_path, kind, n):
    rows = model_matrix(kind, n)
    path = tmp_path / f"{kind}{n}.txt"
    lines = [str(n)] + [" ".join(str(x) for x in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_census_polynomial(capsys):
    code, out, _ = run(capsys, "census", "--n", "7")
    assert code == 0
    assert out == "29 + 56*t + 35*t^2 + 7*t^3\n"


def test_census_bad_face_dimension(capsys):
    code, out, err = run(capsys, "census", "--n", "1001", "--v", "-1")
    assert code == 2 and out == ""
    assert "N = 1001" in err and "v = -1" in err


def test_census_single_count(capsys):
    code, out, _ = run(capsys, "census", "--n", "7", "--v", "2")
    assert code == 0
    assert out == "35\n"


def test_census_past_the_int_string_limit():
    # the top coefficients of C_15001's census have about 4,500 digits,
    # past the 4,300 that int and str convert by default; the command
    # lifts that limit for its own process, and so must the reader
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "cyclehull", "census", "--n", "15001"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        coeffs = [
            int(term.partition("t")[0].rstrip("*") or 1)
            for term in proc.stdout.split(" + ")
        ]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert sum(coeffs) == 2 ** 15001 - 1


def test_fold_wide_example(capsys):
    code, out, _ = run(
        capsys, "fold", "--n", "23",
        "--partition", "11,9,7,7,7,6,6,6,6,6,6,3",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "11,9,8,7,7,6,6,5,4,3,2,1"
    assert all(l.startswith(("upper ", "lower ")) for l in lines[1:])
    assert len(lines) > 1


def test_fibre_output(capsys):
    code, out, _ = run(capsys, "fibre", "--n", "5", "--partition", "2,1")
    assert code == 0
    assert out == "2,1\nC_0^5 = 1\n"


def test_fibre_lists_members_beyond_fifteen(capsys):
    lam = (7, 6, 5, 4, 3, 3, 1, 1)
    code, out, _ = run(
        capsys, "fibre", "--n", "17", "--partition", format_partition(lam)
    )
    assert code == 0
    *members, last = out.splitlines()
    assert last == "C_1*C_0*C_5*C_0^10 = 42"
    assert len(set(members)) == 42
    assert all(fold(parse_partition(m), 17) == lam for m in members)


def test_fibre_of_a_thousand_row_staircase(capsys):
    staircase = ",".join(map(str, range(1000, 0, -1)))
    code, out, _ = run(capsys, "fibre", "--n", "2001", "--partition", staircase)
    assert code == 0
    assert out.splitlines() == [staircase, "C_0^2001 = 1"]


def test_text_output_names_the_empty_partition(capsys):
    for argv, want in (
        (("fibre", "--n", "4", "--partition", "1"), "()\n1\nC_2*C_0^2 = 2\n"),
        (("fold", "--n", "3", "--partition", "()"), "()\n"),
        (("embed", "--n", "1", "--partition", "()"), "()\n"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == want, argv


def test_vertices_plain_and_json(capsys):
    code, out, _ = run(capsys, "vertices", "--n", "5", "--space", "cycle")
    assert code == 0
    assert out.splitlines()[0] == "1: 0 2 4 4 2"
    assert len(out.splitlines()) == 11
    code, out, _ = run(
        capsys, "vertices", "--n", "5", "--space", "cycle", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"]["2,1"] == [2, 2, 2, 2, 2]


def test_skeleton_dot_lint_and_roles(capsys):
    code, out, _ = run(
        capsys, "skeleton", "--n", "5", "--space", "cycle", "--format", "dot"
    )
    assert code == 0
    declared = set()
    for line in out.splitlines():
        body = line.strip()
        if body.startswith("n") and "[" in body:
            declared.add(body.split()[0])
        elif " -- " in body:
            a, _, b = body.rstrip(";").partition(" -- ")
            assert a in declared and b in declared
    assert out.count('role="cube-member"') == 11
    code2, out2, _ = run(
        capsys, "skeleton", "--n", "5", "--space", "cycle", "--format", "dot"
    )
    assert out2 == out


def test_odd_cycle_dot_walks_the_band_once(capsys, monkeypatch):
    # the cube roles come off the corner rows that the export's one name
    # walk yields with the vertices: no corner_walk and no built hull; the
    # text is the one that build_hull and max_cube_decomposition give apart
    walks = []
    for home, name in (
        (hullwalk_module, "name_walk"), (walks_module, "corner_walk")
    ):
        def counted(*args, walk=getattr(home, name), name=name):
            walks.append((name, *args))
            return walk(*args)

        for module in (home, hull_module, export_module):
            monkeypatch.setattr(module, name, counted)

    def built(*args):
        raise AssertionError("build_hull ran")

    monkeypatch.setattr(hull_module, "build_hull", built)
    code, out, _ = run(
        capsys, "skeleton", "--n", "11", "--space", "cycle", "--format", "dot"
    )
    assert (code, walks) == (0, [("name_walk", "cycle", 11)])
    monkeypatch.undo()
    assert out == dot_text(build_hull("cycle", 11))


def test_odd_cycle_dot_names_each_vertex_once(capsys, monkeypatch):
    # each node is labelled with the name string that the walk made for
    # it, in walk order, and no vertex is named through format_partition
    names, calls = [], Counter()
    walk = hullwalk_module.name_walk

    def recorded(*args):
        for vertex in walk(*args):
            names.append(vertex[1])
            yield vertex

    def counting_format(lam):
        calls["format_partition"] += 1
        return format_partition(lam)

    for module in (hullwalk_module, hull_module, export_module):
        monkeypatch.setattr(module, "name_walk", recorded)
        monkeypatch.setattr(module, "format_partition", counting_format, raising=False)
    monkeypatch.setattr(partitions_module, "format_partition", counting_format)
    code, out, _ = run(
        capsys, "skeleton", "--n", "11", "--space", "cycle", "--format", "dot"
    )
    assert code == 0 and out.count('role="extra"') == 22
    labels = re.findall(r'label="([^"]*)"', out)
    assert len(names) == 199 and labels == names
    assert calls == {}


def test_skeleton_json(capsys):
    code, out, _ = run(
        capsys, "skeleton", "--n", "6", "--space", "cycle", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["vertices"]) == 8


def test_counts(capsys):
    code, out, _ = run(capsys, "counts", "--n", "13", "--m", "1")
    assert code == 0
    assert out == "trace: 521\nenumeration: 521\n"


def test_counts_below_two_has_no_band(capsys):
    for n in ("1", "0", "-3"):
        code, out, err = run(capsys, "counts", "--n", n, "--m", "1")
        assert (code, out) == (2, "")
        assert err == f"error: N = {n} has no central band (needs N >= 2)\n"


def test_counts_far_past_any_walk_in_a_fresh_process():
    # the band (101, 20) has about 1.3·10^30 partitions and (41, 5) about
    # 6.4·10^11: no walk lists them, and each count takes milliseconds
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for n, m in ((101, 20), (41, 5)):
        proc = subprocess.run(
            [sys.executable, "-m", "cyclehull", "counts", "--n", str(n), "--m", str(m)],
            capture_output=True, text=True, env=env, timeout=2,
        )
        assert proc.returncode == 0, proc.stderr
        trace, enumeration = proc.stdout.splitlines()
        assert trace == f"trace: {count_band(n, m)}"
        assert enumeration == trace.replace("trace", "enumeration")


def test_embed(capsys):
    code, out, _ = run(capsys, "embed", "--n", "5", "--partition", "2,1")
    assert code == 0
    assert out == "4,4,2,2\n"


def test_oracle_match(capsys, tmp_path):
    path = write_metric(tmp_path, "cycle", 5)
    code, out, _ = run(capsys, "oracle", "--metric", path,
                       "--compare", "cycle:5")
    assert code == 0
    assert out == "MATCH: 11 vertices, 15 edges\n"


def test_oracle_match_beyond_seven_points(capsys, tmp_path):
    path = write_metric(tmp_path, "cycle", 9)
    code, out, _ = run(capsys, "oracle", "--metric", path,
                       "--compare", "cycle:9")
    assert code == 0
    assert out == "MATCH: 76 vertices, 189 edges\n"


def test_refused_walks_exit_two_with_one_error_line(capsys, tmp_path, monkeypatch):
    # each budget lowered in process to one below a job's count: the job
    # exits 2 with one error line and no text; at its count it answers
    metric = write_metric(tmp_path, "cycle", 7)
    partitions_module.band_rows.cache_clear()  # checked only as it is built
    c9 = ["--n", "9", "--space", "cycle"]
    for budget, count, unit, what, argv in (
        ("partitions.ROW_BUDGET", 41, "rows", "the row table at N = 41",
         ["fold", "--n", "41", "--partition", "1"]),
        ("census.CENSUS_BUDGET", 77, "digits", "the census of C_21",
         ["census", "--n", "21"]),
        ("census.CENSUS_BUDGET", 77, "digits", "the census of C_21",
         ["census", "--n", "21", "--v", "3"]),
        ("moebius.FOLD_BUDGET", 189, "flips", "the fold of (1,) at N = 41",
         ["fold", "--n", "41", "--partition", "1"]),
        ("walks.COUNT_BUDGET", 7225, "bit steps", "the row count at N = 17",
         ["counts", "--n", "17", "--m", "2"]),
        ("hullwalk.VERTEX_BUDGET", 76, "vertices", "the hull of C_9", ["vertices", *c9]),
        ("hullwalk.VERTEX_BUDGET", 76, "vertices", "the hull of C_9",
         ["vertices", *c9, "--json"]),
        ("hullwalk.EDGE_BUDGET", 189, "edges", "the hull of C_9",
         ["skeleton", *c9, "--format", "dot"]),
        ("hullwalk.FACE_BUDGET", 511, "faces", "the hull of C_9",
         ["skeleton", *c9, "--format", "json"]),
        ("oracle.WALK_BUDGET", 131, "tight-graph tests", "the tight-span walk of 7 points",
         ["oracle", "--metric", metric]),
        ("oracle.METRIC_BUDGET", 343, "triangle tests", "the metric of 7 points",
         ["oracle", "--metric", metric]),
        ("census.BAND_BUDGET", 360, "bit steps", "the band count at N = 9, m = 1",
         ["counts", "--n", "9", "--m", "1"]),
    ):
        monkeypatch.setattr("cyclehull." + budget, count - 1)
        err = f"error: {what} needs {count:,} {unit}, more than its budget of {count - 1:,}\n"
        assert run(capsys, *argv) == (2, "", err), argv
        monkeypatch.setattr("cyclehull." + budget, count)
        assert run(capsys, *argv)[0] == 0, argv
    # budgets above a job's count answer it
    monkeypatch.setattr("cyclehull.census.CENSUS_BUDGET", 76)
    monkeypatch.setattr("cyclehull.moebius.FOLD_BUDGET", 188)
    assert run(capsys, "census", "--n", "19")[0] == 0
    assert run(capsys, "fold", "--n", "39", "--partition", "1")[0] == 0


# a fresh interpreter under a 512 MB address space runs the command line
# as `python -m cyclehull` does, after an optional change to a budget
FRESH = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
{}
from cyclehull.cli import main
sys.exit(main())
"""


def test_unbounded_inputs_are_refused_fast(tmp_path):
    # every refusal, fresh, asserts stripped or not: exit 2 within 2 s,
    # nothing on stdout, and one error line that names the count and its
    # budget.  The oracle's walk is refused only once it passes its
    # budget, so its fresh run lowers the budget first
    metric = write_metric(tmp_path, "cycle", 13)
    uniform = tmp_path / "uniform1001.txt"
    uniform.write_text("1001\n" + "".join(
        " ".join("0" if j == i else "1" for j in range(1001)) + "\n"
        for i in range(1001)
    ))
    # 18 MB of rows, refused on its first line before a row is parsed
    uniform3000 = tmp_path / "uniform3000.txt"
    uniform3000.write_text("3000\n" + "".join(
        "1 " * i + "0" + " 1" * (2999 - i) + "\n" for i in range(3000)
    ))
    big = "19,18,17,16,15,14,13,12,11,10,9,8,7,7,6,6,5,4,3,2,1"
    rows = "the row table at N = {0} needs {0:,} rows, more than its budget of 10,001"
    c25 = "the hull of C_25 needs {}, more than its budget of {}"
    cases = (
        (["census", "--n", "99999999999999999999"], "",
         "the census of C_99999999999999999999 needs 1,505,150,000,000,000,000,"
         "000,000,000,000,000,000,000 digits, more than its budget of 40,000,000"),
        (["fold", "--n", "3001", "--partition", "1"], "",
         "the fold of (1,) at N = 3001 needs 1,124,249 flips,"
         " more than its budget of 250,000"),
        (["fibre", "--n", "41", "--partition", big], "",
         f"the fibre of {tuple(map(int, big.split(',')))} at N = 41"
         " (1,767,263,190 members) needs 164,355,476,670 characters,"
         " more than its budget of 160,000,000"),
        (["oracle", "--metric", metric, "--compare", "cycle:13"],
         "import cyclehull.oracle; cyclehull.oracle.WALK_BUDGET = 1000",
         "the tight-span walk of 13 points needs 1,001 tight-graph tests,"
         " more than its budget of 1,000"),
        (["counts", "--n", "601", "--m", "300"], "",
         "the row count at N = 601 needs 130,466,162,401 bit steps,"
         " more than its budget of 30,000,000,000"),
        (["counts", "--n", "10001", "--m", "26"], "",
         "the row count at N = 10001 needs 280,956,182,809 bit steps,"
         " more than its budget of 30,000,000,000"),
        (["counts", "--n", "15001", "--m", "7000"], "", rows.format(15001)),
        (["counts", "--n", "99999999999999999999", "--m", "2"], "",
         rows.format(99999999999999999999)),
        (["vertices", "--n", "60", "--space", "xn"], "",
         "the hull of X_60 needs 576,460,752,303,423,488 vertices,"
         " more than its budget of 1,200,000"),
        (["vertices", "--n", "10000000", "--space", "xn"], "", rows.format(10000000)),
        (["skeleton", "--n", "25", "--space", "cycle", "--format", "dot"], "",
         c25.format("1,159,200 edges", "500,000")),
        (["skeleton", "--n", "25", "--space", "cycle", "--format", "json"], "",
         c25.format("33,554,431 faces", "10,000,000")),
        (["fold", "--n", "10000000", "--partition", "1"], "", rows.format(10000000)),
        (["embed", "--n", "10000001", "--partition", "1"], "", rows.format(10000001)),
        (["fibre", "--n", "10000000", "--partition", "1"], "", rows.format(10000000)),
        (["oracle", "--metric", str(uniform)], "",
         "the metric of 1001 points needs 1,003,003,001 triangle tests,"
         " more than its budget of 15,625,000"),
        (["oracle", "--metric", str(uniform3000)], "",
         "the metric of 3000 points needs 27,000,000,000 triangle tests,"
         " more than its budget of 15,625,000"),
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv, patch, err in cases:
        for flags in ([], ["-O"]):
            proc = subprocess.run(
                [sys.executable, *flags, "-c", FRESH.format(patch), *argv],
                capture_output=True, text=True, env=env, timeout=2,
            )
            got = (proc.returncode, proc.stdout, proc.stderr)
            assert got == (2, "", f"error: {err}\n"), (argv, flags)


# the same address space for one library call, whose refusal is printed
LIBRARY = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
from cyclehull import TooLarge
from cyclehull.{} import {}
try:
    {}
except TooLarge as exc:
    print(exc)
"""


def test_unbounded_library_walks_are_refused_fast():
    # the walks of a hull's vertices take their rows from hull_pool, and
    # count_band sizes its sum: each refuses fresh, asserts stripped or
    # not, within 2 s, with the one refusal message
    hull = "the hull of {} needs {} vertices, more than its budget of 1,200,000"
    cases = (
        ("hull", "max_cube_decomposition", "max_cube_decomposition(41)",
         hull.format("C_41", "370,248,451")),
        ("moebius", "enumerate_circ", "enumerate_circ(41)",
         hull.format("C_41", "370,248,451")),
        ("partitions", "enumerate_YN", "enumerate_YN(40)",
         hull.format("X_40", "549,755,813,888")),
        ("census", "count_band", "count_band(10**20, 2)",
         "the band count at N = 100000000000000000000, m = 2 needs"
         " 670,000,000,000,000,000,013,400,000,000,000,000,000,000 bit steps,"
         " more than its budget of 150,000,000,000"),
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for module, name, call, err in cases:
        for flags in ([], ["-O"]):
            proc = subprocess.run(
                [sys.executable, *flags, "-c", LIBRARY.format(module, name, call)],
                capture_output=True, text=True, env=env, timeout=2,
            )
            got = (proc.returncode, proc.stdout, proc.stderr)
            assert got == (0, f"{err}\n", ""), (call, flags)


def test_oracle_mismatch_exit_one(capsys, tmp_path):
    # the line ends with how many vertices and edges the two sets share,
    # so equal counts, as for the uniform triangle against the hull of
    # C_3 (whose distances are doubled), do not read as a match
    path = write_metric(tmp_path, "cycle", 5)
    code, out, _ = run(capsys, "oracle", "--metric", path,
                       "--compare", "xn:5")
    assert code == 1
    assert out == (
        "MISMATCH: oracle 11 vertices / 15 edges,"
        " construction 16 vertices / 20 edges,"
        " shared 0 vertices / 0 edges\n"
    )
    triangle = tmp_path / "triangle.txt"
    triangle.write_text("3\n0 1 1\n1 0 1\n1 1 0\n")
    code, out, _ = run(capsys, "oracle", "--metric", str(triangle),
                       "--compare", "cycle:3")
    assert code == 1
    assert out == (
        "MISMATCH: oracle 4 vertices / 3 edges,"
        " construction 4 vertices / 3 edges,"
        " shared 0 vertices / 0 edges\n"
    )


def test_oracle_listing(capsys, tmp_path):
    path = write_metric(tmp_path, "cycle", 4)
    code, out, _ = run(capsys, "oracle", "--metric", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "vertices: 4"
    assert "edges: 4" in lines


def str_listing(metric):
    """The oracle listing as it was made from tight_span: sorted tuples of
    ints and Fractions, and str per coordinate."""
    verts, edges = tight_span(metric)
    lines = [f"vertices: {len(verts)}"]
    lines += [" ".join(str(x) for x in f) for f in sorted(verts)]
    lines.append(f"edges: {len(edges)}")
    for u, v in sorted(edges):
        lines.append(" ".join(str(x) for x in u) + " ; " + " ".join(str(x) for x in v))
    return "\n".join(lines) + "\n"


def test_oracle_listing_is_the_text_of_tight_span(capsys, tmp_path):
    # the command prints the walk's doubled integers as halves; distances
    # in 5..9 or 10..19 always make a metric, and many of their spans are
    # half-integral
    rng = random.Random(28)
    matrices = []
    for n in range(1, 9):
        for low in (5, 10):
            d = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    d[i][j] = d[j][i] = rng.randint(low, 2 * low - 1)
            matrices.append(d)
    matrices.append([[0 if i == j else 1 for j in range(3)] for i in range(3)])
    matrices += [model_matrix(kind, 7) for kind in ("cycle", "xn")]
    halves = 0
    for d in matrices:
        path = tmp_path / "metric.txt"
        path.write_text("\n".join([str(len(d)), *(" ".join(map(str, r)) for r in d)]))
        code, out, _ = run(capsys, "oracle", "--metric", str(path))
        assert (code, out) == (0, str_listing(FiniteMetric.from_rows(d))), d
        halves += "/2" in out
    assert halves >= 8, halves


def test_oracle_compare_reads_the_construction(capsys, tmp_path, monkeypatch):
    # one changed value in one vertex of the hull walk is a mismatch,
    # though the counts still agree
    path = write_metric(tmp_path, "cycle", 7)
    argv = ("oracle", "--metric", path, "--compare", "cycle:7")
    assert run(capsys, *argv)[:2] == (0, "MATCH: 29 vertices, 56 edges\n")
    walk, calls = hullwalk_module.name_walk, []

    def changed(kind, n):
        calls.append((kind, n))
        for i, (lam, name, f, corners) in enumerate(walk(kind, n)):
            yield lam, name, (f[0] + 2 * (i == 5), *f[1:]), corners

    monkeypatch.setattr(hullwalk_module, "name_walk", changed)
    code, out, _ = run(capsys, *argv)
    assert (code, calls) == (1, [("cycle", 7)])
    assert out == (
        "MISMATCH: oracle 29 vertices / 56 edges,"
        " construction 29 vertices / 56 edges,"
        " shared 28 vertices / 52 edges\n"
    )


def test_usage_error_exit_two(capsys):
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "census")[0] == 2


def test_domain_error_echoes_partition(capsys):
    code, _, err = run(capsys, "fold", "--n", "5", "--partition", "9")
    assert code == 2
    assert "(9,)" in err


def test_bad_compare_flag(capsys, tmp_path, monkeypatch):
    # a bad kind or a point count other than the metric's is refused
    # before the oracle's walk starts
    def walk(*args, **kwargs):
        raise AssertionError("doubled_span ran")

    monkeypatch.setattr("cyclehull.oracle.doubled_span", walk)
    path = write_metric(tmp_path, "cycle", 4)
    code, _, err = run(capsys, "oracle", "--metric", path,
                       "--compare", "weird:5")
    assert code == 2
    assert "weird" in err
    for kind, n in (("cycle", 5), ("xn", 41)):
        code, out, err = run(capsys, "oracle", "--metric", path,
                             "--compare", f"{kind}:{n}")
        assert (code, out) == (2, "")
        assert err == (
            f"error: --compare {kind}:{n} has N = {n} points,"
            " the metric has 4\n"
        )


def test_closed_stdout_exits_141_quietly():
    # the reader takes one line and closes the pipe, as `| head -1` does;
    # every output is far larger than a pipe's buffer; their 64 KiB
    # blocks go through a buffered stdout, or with PYTHONUNBUFFERED=1
    # straight to the file descriptor
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    jobs = (
        ["skeleton", "--n", "13", "--space", "cycle", "--format", "json"],
        ["vertices", "--n", "17", "--space", "cycle"],
        ["skeleton", "--n", "17", "--space", "cycle", "--format", "dot"],
        ["fibre", "--n", "21", "--partition", "9,8,7,6,5,4,3,2,1"],
    )
    modes = ({}, {"PYTHONUNBUFFERED": "1"})
    for unbuffered, argv in ((mode, job) for mode in modes for job in jobs):
        proc = subprocess.Popen(
            [sys.executable, "-m", "cyclehull", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**env, **unbuffered},
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141, (unbuffered, err)
        assert first and err == b"", (unbuffered, err)
    # the reader is gone before the first write, and the text is short:
    # buffered, it is all still in stdout's buffer when the handler
    # returns, so main's own flush meets the closed pipe, not shutdown's;
    # unbuffered, argparse swallows the error of its own --help write
    short = (
        (["census", "--n", "7"], {141}),
        (["counts", "--n", "9", "--m", "1"], {141}),
        (["vertices", "--n", "9", "--space", "cycle"], {141}),
        (["--help"], {0, 141}),
    )
    for unbuffered, (argv, codes) in (
        (mode, job) for mode in modes for job in short
    ):
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = subprocess.Popen(
            [sys.executable, "-m", "cyclehull", *argv],
            stdout=write_end, stderr=subprocess.PIPE,
            env={**env, **unbuffered},
        )
        os.close(write_end)
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) in codes, (unbuffered, argv, err)
        assert err == b"", (unbuffered, argv, err)


def test_started_without_stdout_keeps_its_exit_status():
    # fd 1 closed at start leaves sys.stdout None: the final flush is
    # skipped, and argparse's help and usage exits are kept
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv, code in ((["--help"], 0), (["census"], 2)):
        proc = subprocess.run(
            [sys.executable, "-m", "cyclehull", *argv],
            stderr=subprocess.PIPE, env=env, timeout=60,
            preexec_fn=lambda: os.close(1),
        )
        assert proc.returncode == code, (argv, proc.stderr)
        assert b"Traceback" not in proc.stderr, (argv, proc.stderr)


def test_main_in_process_leaves_the_collector_alone(capsys):
    # a caller's own argv: no freeze, whatever the exit path
    frozen = gc.get_freeze_count()
    for argv, code in (
        (["census", "--n", "7"], 0),
        (["census"], 2),
        (["--help"], 0),
        (["fold", "--n", "5", "--partition", "9"], 2),
    ):
        assert run(capsys, *argv)[0] == code
        assert gc.get_freeze_count() == frozen, argv


def test_program_exit_freezes_the_heap():
    # main() with no argv, as `python -m cyclehull` and the `cyclehull`
    # script call it, freezes the heap before it returns, on every path
    probe = (
        "import gc, sys\n"
        "from cyclehull import cli\n"
        "sys.argv[0] = 'cyclehull'\n"
        "code = cli.main()\n"
        "print(code, gc.get_freeze_count() > 0, file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv, code in (
        (["census", "--n", "7"], 0),
        (["census"], 2),
        (["--help"], 0),
    ):
        proc = subprocess.run(
            [sys.executable, "-c", probe, *argv],
            capture_output=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == f"{code} True".encode(), argv


def test_program_exit_keeps_atexit_and_status():
    # a frozen heap still ends in a normal shutdown: handlers registered
    # before the package runs as __main__ run, stdout is flushed, and the
    # exit status is main's (os._exit would skip the first two)
    probe = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: sys.stderr.write('atexit ran\\n'))\n"
        "sys.argv[0] = 'cyclehull'\n"
        "runpy.run_module('cyclehull', run_name='__main__')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    for argv, code, out in (
        (["census", "--n", "7"], 0, b"29 + 56*t + 35*t^2 + 7*t^3\n"),
        (["census"], 2, b""),
        (["fold", "--n", "5", "--partition", "9"], 2, b""),
    ):
        proc = subprocess.run(
            [sys.executable, "-c", probe, *argv],
            capture_output=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (code, out), proc.stderr
        assert proc.stderr.endswith(b"atexit ran\n"), proc.stderr


class CountingStdout(io.StringIO):
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_every_command_writes_in_few_blocks(monkeypatch, tmp_path):
    # an unbuffered stdout makes each write one system call, so a command's
    # text goes out in blocks of about 64 KiB, not one write per line: each
    # pinned job but --help, and a fibre of 58,786 members (1.0 MB), print
    # their pinned text in process in at most len // 64 KiB + 2 writes
    triangle = tmp_path / "triangle.txt"
    triangle.write_text("3\n0 1 1\n1 0 1\n1 1 0\n")
    files = {"{cycle7}": write_metric(tmp_path, "cycle", 7), "{triangle}": str(triangle)}
    pins = (ROOT / "tests" / "stdout_pins.txt").read_text().splitlines()
    jobs = [
        line.split(None, 1) for line in pins
        if line and not line.startswith("#") and "--help" not in line
    ]
    jobs.append((
        "d2134017faa1aa96f3880876c5ce6d61761fe93967aaa7e8ca60fdbf8f18093e",
        "fibre --n 23 --partition 10,9,8,7,6,5,4,3,2,1",
    ))
    assert len(jobs) == 33
    for want, job in jobs:
        out = CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        code = main([files.get(arg, arg) for arg in job.split()])
        monkeypatch.undo()
        text = out.getvalue()
        assert code == 0, job
        assert hashlib.sha256(text.encode()).hexdigest() == want, job
        assert out.writes <= len(text) // 65536 + 2, (job, out.writes)


class Sink(io.TextIOBase):
    """A stdout that counts the lines written to it and keeps none."""

    lines = 0

    def write(self, text):
        self.lines += text.count("\n")
        return len(text)


def test_vertices_export_memory_does_not_grow_with_the_hull(monkeypatch):
    # C_19 has L_19 = 9,349 vertices; the streamed export holds its path,
    # its row tables and a 64 KiB block, about 1.2 MB at any N, where a
    # built hull with its sorted names takes 6.8 MB at N = 19
    out = Sink()
    monkeypatch.setattr(sys, "stdout", out)
    tracemalloc.start()
    try:
        code = main(["vertices", "--n", "19", "--space", "cycle"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    assert (code, out.lines) == (0, 9349)
    assert peak < 3 << 20, peak


def test_json_export_memory_follows_its_output():
    # each job in a fresh interpreter, its modules loaded before the trace:
    # the faces keep one name and one shared corner-row tuple per top
    # (511 distinct ones for the 3,571 tops of C_17, 377 for the 4,096 of
    # X_13) and drop them before the vertices' walk, about 590 KiB each;
    # with a pair of tuples per top, held to the end, about 1,265 KiB
    code = (
        "import io, sys, tracemalloc\n"
        "from cyclehull import cli, export, hullwalk, walks\n"
        "class Null(io.TextIOBase):\n"
        "    def write(self, text):\n"
        "        return len(text)\n"
        "sys.stdout = Null()\n"
        "tracemalloc.start()\n"
        "code = cli.main(sys.argv[1:])\n"
        "peak = tracemalloc.get_traced_memory()[1]\n"
        "print(code, peak, file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for space, n, bound in (("cycle", 17, 1000 << 10), ("xn", 13, 800 << 10)):
        argv = ["skeleton", "--n", str(n), "--space", space, "--format", "json"]
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        status, peak = map(int, proc.stderr.split())
        assert status == 0 and peak < bound, (space, n, peak)


def test_fibre_memory_does_not_grow_with_the_fibre(monkeypatch):
    # N = 23's C_11*C_0^12 has 58,786 members (1.0 MB of text): printed as
    # walked, the command holds its path and a 64 KiB block, about 0.4 MB,
    # where the held fibre took 6.9 MB
    out = Sink()
    monkeypatch.setattr(sys, "stdout", out)
    tracemalloc.start()
    try:
        code = main(["fibre", "--n", "23", "--partition", "10,9,8,7,6,5,4,3,2,1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    assert (code, out.lines) == (0, 58787)
    assert peak < 1 << 20, peak


def test_fibre_count_mismatch_fails_after_its_text(capsys, monkeypatch):
    # the member count is known only at the walk's end: a fibre that
    # misses its Catalan size prints its members, then one error line,
    # and not the size line; the budget is checked before any member
    job = ("fibre", "--n", "9", "--partition", "3,2,1")
    _, full, _ = run(capsys, *job)
    size = moebius_module.fold_fibre_size
    monkeypatch.setattr(moebius_module, "fold_fibre_size",
                        lambda lam, n: size(lam, n) + 1)
    code, out, err = run(capsys, *job)
    assert code == 2
    assert out == full.removesuffix("C_4*C_0^5 = 14\n") != full
    assert err == (
        "error: (3, 2, 1) unfolds to 14 partitions,"
        " not the 15 its Catalan word gives\n"
    )
    # 14 members of at most 16 characters ("1,1,1,1,1,1,1,1\n") each
    monkeypatch.setattr(moebius_module, "fold_fibre_size", size)
    monkeypatch.setattr(moebius_module, "FIBRE_BUDGET", 14 * 16 - 1)
    code, out, err = run(capsys, *job)
    assert (code, out) == (2, "")
    assert err == (
        "error: the fibre of (3, 2, 1) at N = 9 (14 members) needs 224"
        " characters, more than its budget of 223\n"
    )
    monkeypatch.setattr(moebius_module, "FIBRE_BUDGET", 14 * 16)
    assert run(capsys, *job) == (0, full, "")


def test_each_command_imports_only_what_it_runs(tmp_path):
    # one fresh interpreter per command: the cyclehull modules it loads,
    # no dataclasses or its imports (inspect pulls in dis, ast, ...), and
    # no exact fractions, not even for an oracle whose span has a
    # half-integral coordinate: the uniform triangle's centre
    # (1/2, 1/2, 1/2); the hull walk only for the hull commands; the row
    # walks only for the commands that list or count a family, and the
    # shift and model spaces only for the odd cycle's DOT export; argparse
    # and its gettext only for --help, since well-formed commands are
    # read without it
    code = (
        "import contextlib, io, sys\n"
        "from cyclehull import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "print(code, *(m in sys.modules for m in"
        " ('dataclasses', 'inspect', 'fractions', 'decimal',"
        " 'argparse', 'gettext')),"
        " *sorted(m for m in sys.modules if m.startswith('cyclehull.')))"
    )
    metric = write_metric(tmp_path, "cycle", 5)
    triangle = tmp_path / "triangle.txt"
    triangle.write_text("3\n0 1 1\n1 0 1\n1 1 0\n")
    rows = (
        (["--help"], []),
        (["census", "--n", "7"], ["census"]),
        (["fold", "--n", "9", "--partition", "5,4,2,1"],
         ["moebius", "partitions"]),
        (["fibre", "--n", "9", "--partition", "3,2,1"],
         ["moebius", "partitions", "walks"]),
        (["embed", "--n", "9", "--partition", "3,2,1"],
         ["moebius", "partitions"]),
        (["counts", "--n", "9", "--m", "1"], ["census", "partitions", "walks"]),
        (["vertices", "--n", "9", "--space", "cycle"],
         ["export", "hullwalk", "partitions", "walks"]),
        (["vertices", "--n", "9", "--space", "xn"],
         ["export", "hullwalk", "partitions", "walks"]),
        (["vertices", "--n", "9", "--space", "xn", "--json"],
         ["export", "hullwalk", "partitions", "walks"]),
        (["skeleton", "--n", "9", "--space", "xn", "--format", "json"],
         ["export", "hullwalk", "partitions", "walks"]),
        (["skeleton", "--n", "9", "--space", "cycle", "--format", "dot"],
         ["export", "hull", "hullwalk", "partitions", "spaces", "walks"]),
        (["skeleton", "--n", "10", "--space", "cycle", "--format", "dot"],
         ["export", "hullwalk", "partitions", "walks"]),
        (["skeleton", "--n", "9", "--space", "xn", "--format", "dot"],
         ["export", "hullwalk", "partitions", "walks"]),
        (["oracle", "--metric", metric], ["oracle"]),
        (["oracle", "--metric", metric, "--compare", "cycle:5"],
         ["hullwalk", "oracle", "partitions", "walks"]),
        (["oracle", "--metric", str(triangle)], ["oracle"]),
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv, modules in rows:
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            capture_output=True, text=True, env=env,
        )
        parsed = str(argv == ["--help"])
        assert proc.stdout.split() == [
            "0", "False", "False", "False", "False", parsed, parsed,
            *(f"cyclehull.{m}" for m in sorted(["cli", *modules])),
        ], (argv, proc.stdout, proc.stderr)


def test_oracle_empty_metric_file_exits_two(capsys, tmp_path):
    for text in ("", "\n  \n", "3\n0 2 2\n"):
        path = tmp_path / "metric.txt"
        path.write_text(text)
        code, out, err = run(capsys, "oracle", "--metric", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


def test_oracle_metric_with_extra_rows_exits_two(capsys, tmp_path):
    path = tmp_path / "metric.txt"
    path.write_text("2\n0 1\n1 0\n7 7\n")
    code, out, err = run(capsys, "oracle", "--metric", str(path))
    assert (code, out) == (2, "")
    assert err == "error: expected 2 rows, got 3\n"


SPACES = [("cycle", n) for n in range(1, 18)] + [("xn", n) for n in range(1, 14)]


def test_skeleton_json_equals_dumps_of_the_faces(capsys):
    # xn 11 to 13 and cycle 13 to 17 print two-digit parts and values
    for kind, n in SPACES:
        hull = build_hull(kind, n)
        doc = {
            "faces": [
                {"removed": sorted(f.removed), "top": format_partition(f.top)}
                for f in hull.faces
            ],
            "n": n,
            "space": kind,
            "vertices": {
                format_partition(lam): list(vals)
                for lam, vals in hull.vertices.items()
            },
        }
        code, out, _ = run(
            capsys, "skeleton", "--n", str(n), "--space", kind,
            "--format", "json",
        )
        assert code == 0
        assert out == json.dumps(doc, sort_keys=True, indent=1) + "\n", (kind, n)


def test_vertices_json_is_the_vertex_half(capsys):
    for kind, n in SPACES:
        hull = build_hull(kind, n)
        doc = {
            "space": kind,
            "n": n,
            "vertices": {
                format_partition(lam): list(vals)
                for lam, vals in hull.vertices.items()
            },
        }
        code, out, _ = run(
            capsys, "vertices", "--n", str(n), "--space", kind, "--json"
        )
        assert code == 0
        assert out == json.dumps(doc, sort_keys=True, indent=1) + "\n", (kind, n)
        names = list(json.loads(out)["vertices"])
        assert all(a < b for a, b in zip(names, names[1:])), (kind, n)


def test_vertices_text_is_the_str_lines(capsys):
    # one line per vertex in the order of its format_partition name, its
    # values through str: parts up to 16 and values up to 42
    for kind, n in SPACES:
        hull = build_hull(kind, n)
        named = sorted(
            (format_partition(lam), vals) for lam, vals in hull.vertices.items()
        )
        want = "".join(
            f"{name or '()'}: {' '.join(map(str, vals))}\n" for name, vals in named
        )
        code, out, _ = run(capsys, "vertices", "--n", str(n), "--space", kind)
        assert (code, out) == (0, want), (kind, n)
        names = [line.partition(": ")[0] for line in out.splitlines()]
        names = ["" if name == "()" else name for name in names]
        assert all(a < b for a, b in zip(names, names[1:])), (kind, n)


def test_exports_list_vertices_in_name_order(capsys):
    for kind, n in (("cycle", 9), ("xn", 11)):
        hull = build_hull(kind, n)
        want = list(hull.names.values())
        if kind == "xn":  # "10,..." comes before "2,...": not tuple order
            assert want != [format_partition(lam) for lam in sorted(hull.vertices)]
        space = ("--n", str(n), "--space", kind)
        _, out, _ = run(capsys, "vertices", *space)
        assert [line.partition(": ")[0] for line in out.splitlines()] == [
            name or "()" for name in want
        ]
        _, out, _ = run(capsys, "vertices", *space, "--json")
        assert list(json.loads(out)["vertices"]) == want
        _, out, _ = run(capsys, "skeleton", *space, "--format", "dot")
        assert re.findall(r'label="([^"]*)"', out) == want


def test_vertices_text_names_the_empty_partition(capsys):
    code, out, _ = run(capsys, "vertices", "--n", "3", "--space", "cycle")
    assert code == 0
    assert out.splitlines()[0] == "(): 0 2 2"
    hull = build_hull("cycle", 3)
    for line in out.splitlines():
        name, _, vals = line.partition(": ")
        lam = parse_partition(name)
        assert hull.vertices[lam] == tuple(int(v) for v in vals.split())


def test_acceptance_and_typed_errors_under_optimize():
    # asserts vanish under -O; the acceptance suite and the even-N
    # rejection must not depend on them; tests/ holds the reference forms
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        str(ROOT / d) for d in ("src", "tests")))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_acceptance.py")],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    # each call below must raise its typed error with asserts stripped;
    # the internal identities are broken on purpose where no input can
    # an unchecked negative power squares its operand forever; the
    # address-space cap and the timeout make that a failure, not a hang
    code = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 ** 29, 2 ** 29))
import cyclehull.census as census
import cyclehull.hull as hull
import cyclehull.hullwalk as hullwalk
import cyclehull.moebius as moebius
import cyclehull.oracle as oracle
import cyclehull.spaces as spaces
import reference
from cyclehull.census import BadParity, IdentityFailure
from cyclehull.hull import max_cube_decomposition
from cyclehull.moebius import FoldFailure
from cyclehull.oracle import NotExtremal, TooLarge, _tight_graph
from cyclehull.partitions import BadBandIndex, OrbitLeavesPool, OrbitNotClosed

def expect(error, call, *args):
    try:
        call(*args)
    except error:
        print(error.__name__)

expect(BadParity, max_cube_decomposition, 4)
expect(ValueError, reference.T.__pow__, -1)
expect(ValueError, reference.matrix_S().power, -1)
expect(IdentityFailure, census._exact_div, 3, 2)
expect(NotExtremal, _tight_graph, (2, 2), [[0, 2], [2, 0]], 2)
expect(NotExtremal, _tight_graph, (0, 1), [[0, 2], [2, 0]], 2)
exact_div = census._exact_div
census._exact_div = lambda num, den: num // den + 1
expect(IdentityFailure, census.face_count, 7, 1)
expect(IdentityFailure, census.face_polynomial, 9)
census._exact_div = exact_div
expect(BadBandIndex, census.count_band, 5, 0)
reference.matrix_circcirc = lambda: (reference.matrix_S(), reference.matrix_S())
expect(IdentityFailure, reference.circcirc_trace, 3)
expect(OrbitLeavesPool, list, spaces.tau_orbits(((2,),), 3))
hull_pool = hullwalk.hull_pool
hullwalk.hull_pool = lambda kind, n, *units: ((range(0, 6), *hull_pool(kind, n)[0][1:]), 0)
expect(OrbitLeavesPool, hull.build_hull, "xn", 7)
hullwalk.hull_pool = hull_pool
spaces.tau = lambda lam, n: ()
expect(OrbitNotClosed, spaces.tau_orbit, (1,), 3)
fibre_size = moebius.fold_fibre_size
moebius.fold_fibre_size = lambda lam, n: fibre_size(lam, n) + 1
expect(FoldFailure, moebius.fold_fibre, (2, 1), 5)
expect(TooLarge, moebius.fold_trace, (1,), 3001)
moebius._clamp_rows = lambda lam, n: lam
expect(FoldFailure, moebius.fold, (4,), 5)
oracle.WALK_BUDGET = 1000
cycle13 = oracle.FiniteMetric.from_rows(spaces.model_matrix("cycle", 13))
expect(TooLarge, oracle.tight_span, cycle13)
moebius.fold_fibre_size = fibre_size
big = (19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 7, 6, 6, 5, 4, 3, 2, 1)
expect(TooLarge, moebius.fold_fibre, big, 41)
expect(TooLarge, census.face_polynomial, 10 ** 20)
expect(TooLarge, census.face_count, 10 ** 20 + 1, 3)
"""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.stdout.split() == [
        "BadParity", "ValueError", "ValueError",
        "IdentityFailure", "NotExtremal", "NotExtremal",
        "IdentityFailure", "IdentityFailure", "BadBandIndex",
        "IdentityFailure",
        "OrbitLeavesPool", "OrbitLeavesPool", "OrbitNotClosed",
        "FoldFailure", "TooLarge", "FoldFailure", "TooLarge",
        "TooLarge", "TooLarge", "TooLarge",
    ], proc.stderr
