import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cyclehull.cli import main
from cyclehull.hull import build_hull, to_json
from cyclehull.partitions import ModelSpace, format_partition, parse_partition

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_metric(tmp_path, kind, n):
    rows = ModelSpace(kind, n).matrix()
    path = tmp_path / f"{kind}{n}.txt"
    lines = [str(n)] + [" ".join(str(x) for x in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_census_polynomial(capsys):
    code, out, _ = run(capsys, "census", "--n", "7")
    assert code == 0
    assert out == "29 + 56*t + 35*t^2 + 7*t^3\n"


def test_census_single_count(capsys):
    code, out, _ = run(capsys, "census", "--n", "7", "--v", "2")
    assert code == 0
    assert out == "35\n"


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
                       "--compare", "cycle:9", "--cap", "9")
    assert code == 0
    assert out == "MATCH: 76 vertices, 189 edges\n"


def test_oracle_mismatch_exit_one(capsys, tmp_path):
    path = write_metric(tmp_path, "cycle", 5)
    code, out, _ = run(capsys, "oracle", "--metric", path,
                       "--compare", "xn:5")
    assert code == 1
    assert out.startswith("MISMATCH")


def test_oracle_listing(capsys, tmp_path):
    path = write_metric(tmp_path, "cycle", 4)
    code, out, _ = run(capsys, "oracle", "--metric", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "vertices: 4"
    assert "edges: 4" in lines


def test_usage_error_exit_two(capsys):
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "census")[0] == 2


def test_domain_error_echoes_partition(capsys):
    code, _, err = run(capsys, "fold", "--n", "5", "--partition", "9")
    assert code == 2
    assert "(9,)" in err


def test_bad_compare_flag(capsys, tmp_path):
    path = write_metric(tmp_path, "cycle", 4)
    code, _, err = run(capsys, "oracle", "--metric", path,
                       "--compare", "weird:5")
    assert code == 2
    assert "weird" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cyclehull", "census", "--n", "5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "11 + 15*t + 5*t^2\n"


def test_oracle_empty_metric_file_exits_two(capsys, tmp_path):
    for text in ("", "\n  \n", "3\n0 2 2\n"):
        path = tmp_path / "metric.txt"
        path.write_text(text)
        code, out, err = run(capsys, "oracle", "--metric", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


def test_skeleton_json_streams_to_json(capsys):
    for kind, n in (("cycle", 7), ("cycle", 8), ("xn", 5)):
        code, out, _ = run(
            capsys, "skeleton", "--n", str(n), "--space", kind,
            "--format", "json",
        )
        assert code == 0
        assert out == to_json(build_hull(kind, n)) + "\n"


def test_vertices_json_is_the_vertex_half(capsys):
    for kind, n in (("cycle", 3), ("cycle", 7), ("xn", 5)):
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
        assert out == json.dumps(doc, sort_keys=True, indent=1) + "\n"


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
    # rejection must not depend on them
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_acceptance.py")],
        capture_output=True, text=True, cwd=ROOT, env=env,
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    # each call below must raise its typed error with asserts stripped;
    # the internal identities are broken on purpose where no input can
    code = """
import cyclehull.census as census
import cyclehull.partitions as partitions
from cyclehull.census import BadParity, IdentityFailure
from cyclehull.hull import max_cube_decomposition
from cyclehull.oracle import NotExtremal, _tight_graph
from cyclehull.partitions import OrbitNotClosed

def expect(error, call, *args):
    try:
        call(*args)
    except error:
        print(error.__name__)

expect(BadParity, max_cube_decomposition, 4)
expect(IdentityFailure, census._exact_div, 3, 2)
expect(NotExtremal, _tight_graph, (2, 2), [[0, 2], [2, 0]], 2)
expect(NotExtremal, _tight_graph, (0, 1), [[0, 2], [2, 0]], 2)
exact_div = census._exact_div
census._exact_div = lambda num, den: num // den + 1
expect(IdentityFailure, census.face_count, 7, 1)
census._exact_div = exact_div
census.matrix_Sm = lambda m: census.matrix_S()
expect(IdentityFailure, census.count_band, 5, 1)
census.matrix_circcirc = lambda: (census.matrix_S(), census.matrix_S())
expect(IdentityFailure, census.circcirc_trace, 3)
partitions.tau = lambda lam, n: ()
expect(OrbitNotClosed, partitions.tau_orbit, (1,), 3)
"""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=env,
    )
    assert proc.stdout.split() == [
        "BadParity", "IdentityFailure", "NotExtremal", "NotExtremal",
        "IdentityFailure", "IdentityFailure", "IdentityFailure",
        "OrbitNotClosed",
    ], proc.stderr
