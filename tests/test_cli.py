import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hallforge
from hallforge import cli, counting, hall, quiver, verify

from conftest import run_cli


def test_indecomposables_listing(tmp_path):
    r = run_cli("--backend", "a2", "--dim", "2", "indecomposables")
    assert r.exit_code == 0
    assert [line.split()[0] for line in r.stdout.splitlines()] == \
        ["S2", "S1", "P12"]
    a1 = tmp_path / "a1.json"
    a1.write_text(json.dumps({"name": "a1", "kind": "dynkin-quiver",
                              "vertices": ["1"], "arrows": []}))
    r = run_cli("--backend", str(a1), "--dim", "3", "indecomposables")
    assert r.exit_code == 0 and r.stdout.split()[0] == "S1"
    assert len(r.stdout.splitlines()) == 1
    r = run_cli("--backend", "a2", "--dim", "1", "indecomposables", )
    assert "P12" not in r.stdout
    r = run_cli("--backend", "loop", "--dim", "3", "indecomposables")
    assert [line.split()[0] for line in r.stdout.splitlines()] == \
        ["J1", "J2", "J3"]
    r = run_cli("--backend", "p1", "indecomposables")
    assert r.exit_code == 0 and "O1: degree 1" in r.stdout
    r = run_cli("--backend", "p1", "--json", "indecomposables")
    assert r.exit_code == 0
    assert r.stdout == (
        '{"families":{"O1":{"base":{"kind":"cofinite","points":[]},"degree":1},'
        '"O2":{"base":{"kind":"cofinite","points":[]},"degree":2},'
        '"O3":{"base":{"kind":"cofinite","points":[]},"degree":3}}}\n')
    r = run_cli("--backend", "a2", "--json", "indecomposables")
    assert r.exit_code == 0 and r.stdout == '{"labels":["S2","S1","P12"]}\n'
    bare = tmp_path / "p1bare.json"
    bare.write_text(json.dumps({"name": "p1bare", "kind": "p1-torsion",
                                "vertices": [], "arrows": []}))
    r = run_cli("--backend", str(bare), "indecomposables")
    assert r.exit_code == 1 and r.stdout == ""
    assert json.loads(r.stderr) == {"error": "capability", "message":
                                    "declare families in the backend file to list them"}


def test_mul_golden(tmp_path):
    r = run_cli("--backend", "a2", "--json", "mul", "[S2]", "[S1]")
    assert r.exit_code == 0
    data = json.loads(r.stdout)
    assert data["backend"] == "a2"
    coeffs = sorted(t["coeff"] for t in data["terms"])
    assert coeffs == ["1", "1"]
    r = run_cli("--backend", "a2", "mul", "[S1]", "[S2]")
    assert r.exit_code == 0 and "P12" not in r.stdout


def test_bracket_and_power_and_comul():
    r = run_cli("--backend", "a2", "bracket", "[S1]", "[S2]")
    assert r.exit_code == 0 and r.stdout.strip() == "(-1)*1_{{P12}}"
    r = run_cli("--backend", "a2", "power", "[S1]", "3")
    assert r.exit_code == 0 and r.stdout.strip() == "(6)*1_{3.{S1}}"
    r = run_cli("--backend", "loop", "comul", "[0]")
    assert r.exit_code == 0 and r.stdout.count("(x)") == 1
    r = run_cli("--backend", "p1", "mul", "O1", "O1")
    assert r.exit_code == 0 and "O2" in r.stdout


def test_verify_exit_codes():
    r = run_cli("--backend", "a2", "--dim", "3", "verify", "assoc")
    assert r.exit_code == 0 and "pass" in r.stdout
    r = run_cli("--backend", "a2", "--dim", "3", "--json", "verify", "lie-closure")
    assert r.exit_code == 0
    assert json.loads(r.stdout)["passed"] is True
    r = run_cli("--backend", "a2", "verify", "nonsense")
    assert r.exit_code == 2


def test_p1_refuses_suites_built_on_a_class_list():
    # p1 classes range over point families; its suite is euler-axioms
    for suite in ("assoc", "bialgebra", "routes"):
        r = run_cli("--backend", "p1", "--dim", "2", "--json", "verify", suite)
        assert r.exit_code == 1 and r.stdout == ""
        assert json.loads(r.stderr.splitlines()[-1])["error"] == "CapabilityError"
    r = run_cli("--backend", "p1", "--json", "verify", "euler-axioms")
    assert r.exit_code == 0 and json.loads(r.stdout)["passed"] is True


def p1_backend_file(tmp_path, families):
    path = tmp_path / "p1x.json"
    path.write_text(json.dumps({
        "name": "p1x", "kind": "p1-torsion", "vertices": [], "arrows": [],
        "families": [{"name": n, "degree": d,
                      "base": {"kind": kind, "points": pts}}
                     for n, d, kind, pts in families]}))
    return str(path)


def test_p1_families_on_different_bases(tmp_path):
    # degree 1 off x meets degree 2 everywhere but at x
    backend = p1_backend_file(tmp_path, [("O1x", 1, "cofinite", ["x"]),
                                         ("O2", 2, "cofinite", [])])
    r = run_cli("--backend", backend, "mul", "O1x", "O2")
    assert r.exit_code == 0
    assert r.stdout == "(1)*1_{O3\\{x}} + (1)*1_{O1\\{x}+O2}\n"


def test_power_of_a_family_over_two_points(tmp_path):
    backend = p1_backend_file(tmp_path, [("Oxy", 1, "finite", ["x", "y"])])
    r = run_cli("--backend", backend, "power", "Oxy", "2")
    assert r.exit_code == 0
    assert r.stdout == ("(1)*1_{O2{x} u O2{y}} + "
                        "(2)*1_{O1{x}+O1{y} u 2.O1{x} u 2.O1{y}}\n")


def test_p1_blocks_and_families_below_degree_one_are_refused(tmp_path):
    # a torsion block needs a named point and degree >= 1; so does a family.
    # T(x,y,1) would be a block at the point "x,y", printed O1{x,y}
    for bad in ("[T(x,-1)]", "[T(x,0)]", "[T(,1)]", "[T(x,abc)]", "[T(x,)]", "[O(x)]",
                "[T(x,y,1)]"):
        r = run_cli("--backend", "p1", "mul", bad, "[T(x,1)]")
        assert r.exit_code == 2 and r.stdout == ""
        assert f"bad p1 label '{bad[1:-1]}'" in r.stderr
    for degree, base, args in ((-1, "cofinite", ("mul", "N", "O1")),
                               (0, "finite", ("power", "N", "2"))):
        backend = p1_backend_file(tmp_path, [("N", degree, base, ["x"]),
                                             ("O1", 1, "cofinite", [])])
        r = run_cli("--backend", backend, *args)
        assert r.exit_code == 2 and r.stdout == ""
        assert "family 'N' has degree below 1" in r.stderr


BASE = {"kind": "cofinite", "points": []}


@pytest.mark.parametrize("entry,message", [
    ({"degree": 1, "base": BASE}, "family None lacks 'name'"),
    ({"name": "N", "degree": 1}, "family 'N' lacks 'base'"),
    ({"name": "N", "base": BASE}, "family 'N' lacks 'degree'"),
    ({"name": "N", "degree": 1, "base": {"points": []}}, "family 'N' lacks 'base.kind'"),
    ({"name": "N", "degree": 1.5, "base": BASE}, "family 'N' has non-integer degree 1.5"),
], ids=["name", "base", "degree", "base.kind", "non-integer-degree"])
def test_p1_family_entry_with_a_missing_key_is_refused(tmp_path, entry, message):
    path = tmp_path / "p1x.json"
    path.write_text(json.dumps({"name": "p1x", "kind": "p1-torsion",
                                "vertices": [], "arrows": [], "families": [entry]}))
    r = run_cli("--backend", str(path), "indecomposables")
    assert r.exit_code == 2 and r.stdout == ""
    assert f"{path}: {message}" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("families,message", [
    (["N"], "family entry 'N' is not an object"),
    ({"name": "N"}, "'families' is not a list of family objects: {'name': 'N'}"),
    ([{"name": "N", "degree": 1, "base": {"kind": "finite", "points": "xy"}}],
     "family 'N' has 'base.points' 'xy', not a list of names"),
    ([{"name": "N", "degree": 1, "base": {"kind": "finite", "points": [1, "x"]}}],
     "family 'N' has 'base.points' [1, 'x'], not a list of names"),
    ([{"name": ["N"], "degree": 1, "base": {"kind": "finite"}}],
     "family name ['N'] is not a string"),
    ([{"name": "N", "degree": 1, "base": {"kind": "finite", "points": []}}],
     "family 'N' has 'base.points' [], an empty finite base"),
    ([{"name": "F", "degree": 1, "base": {"kind": "cofinite", "points": []}},
      {"name": "F", "degree": 2, "base": {"kind": "finite", "points": ["x"]}}],
     "family 'F' is declared twice"),
    ([{"name": "F", "degree": 1, "base": {"kind": "open", "points": []}}],
     "family 'F' has 'base.kind' 'open', not 'finite' or 'cofinite'"),
    # the one point "x,y" would print as the two points x and y of Ob
    ([{"name": "Oxy", "degree": 1, "base": {"kind": "finite", "points": ["x,y"]}},
      {"name": "Ob", "degree": 1, "base": {"kind": "finite", "points": ["x", "y"]}}],
     "point name 'x,y' is empty, padded or has one of"),
    ([{"name": "N", "degree": 1, "base": {"kind": "cofinite", "points": ["x "]}}],
     "point name 'x ' is empty"),
    ([{"name": "N", "degree": 1, "base": {"kind": "finite", "points": ["", "x"]}}],
     "point name '' is empty"),
    ([{"name": "N", "degree": 1, "base": {"kind": "finite", "points": ["x\\y"]}}],
     "point name 'x\\\\y' is empty"),
    # mul "[O1]" would read a class, and mul " O2" the stripped name O2
    ([{"name": "[O1]", "degree": 1, "base": {"kind": "cofinite", "points": []}}],
     "family name '[O1]' is empty, padded or has one of []"),
    ([{"name": " O2", "degree": 2, "base": {"kind": "cofinite", "points": []}}],
     "family name ' O2' is empty"),
    ([{"name": "", "degree": 1, "base": {"kind": "cofinite", "points": []}}],
     "family name '' is empty"),
], ids=["entry-not-object", "families-not-list", "points-string", "point-not-name",
        "name-not-string", "empty-finite-base", "duplicate-name", "unknown-base-kind",
        "point-comma", "point-padded", "point-empty", "point-backslash",
        "family-bracket", "family-padded", "family-empty"])
def test_p1_malformed_families_are_refused(tmp_path, families, message):
    path = tmp_path / "p1x.json"
    path.write_text(json.dumps({"name": "p1x", "kind": "p1-torsion",
                                "vertices": [], "arrows": [], "families": families}))
    r = run_cli("--backend", str(path), "indecomposables")
    assert r.exit_code == 2 and r.stdout == ""
    assert f"{path}: {message}" in r.stderr and "Traceback" not in r.stderr


FAMILY_N = [{"name": "N", "degree": 1, "base": {"kind": "finite", "points": ["x"]}}]
A2 = {"name": "a2", "kind": "dynkin-quiver", "vertices": ["1", "2"],
      "arrows": [{"id": "a", "src": "1", "tgt": "2"}]}
LOOP = {"name": "loop", "kind": "loop-nilpotent", "vertices": ["*"],
        "arrows": [{"id": "x", "src": "*", "tgt": "*"}]}


@pytest.mark.parametrize("data,args", [
    (A2, ("mul", "N", "N")), (A2, ("power", "N", "2")), (A2, ("comul", "N")),
    (LOOP, ("mul", "N", "N"))], ids=["a2-mul", "a2-power", "a2-comul", "loop-mul"])
def test_families_are_refused_off_p1(tmp_path, data, args):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(dict(data, families=FAMILY_N)))
    r = run_cli("--backend", str(path), *args)
    assert r.exit_code == 2 and r.stdout == ""
    assert (f"{path}: 'families' are declared on p1-torsion backends only, "
            f"not on {data['kind']}") in r.stderr


@pytest.mark.parametrize("change,message", [
    ({"vertices": "12"}, "vertices '12' are not a list of names"),
    ({"vertices": ["1", 2], "arrows": [{"id": "a", "src": "1", "tgt": 2}]},
     "vertices ['1', 2] are not a list of names"),
    ({"name": ["a2"]}, "name ['a2'] is not a string"),
    ({"arrows": ["a"]}, "arrows ['a'] are not a list of arrow objects"),
    # with a vertex "2-3", indecomposables would list P2-3-4, which mul
    # could not read back
    ({"vertices": ["1", "2-3", "4"], "arrows": [{"id": "a", "src": "1", "tgt": "2-3"},
                                                {"id": "b", "src": "2-3", "tgt": "4"}]},
     "vertex name '2-3' is empty, padded or has one of"),
    ({"vertices": ["1", " 2"], "arrows": [{"id": "a", "src": "1", "tgt": " 2"}]},
     "vertex name ' 2' is empty"),
    ({"vertices": ["", "2"], "arrows": [{"id": "a", "src": "", "tgt": "2"}]},
     "vertex name '' is empty"),
    ({"vertices": ["1", "[2]"], "arrows": [{"id": "a", "src": "1", "tgt": "[2]"}]},
     "vertex name '[2]' is empty"),
    ({"vertices": ["1", "2", "1"]}, "duplicate vertex names"),
    ({"vertices": ["1", "2", "3"], "arrows": [{"id": "a", "src": "1", "tgt": "2"},
                                              {"id": "a", "src": "2", "tgt": "3"}]},
     "duplicate arrow ids"),
    ({"vertices": [], "arrows": []}, "empty quiver"),
    ({"arrows": [{"id": "a", "src": "1", "tgt": "1"}]}, "type A quiver has no loops"),
    ({"arrows": [{"id": "a", "src": "1", "tgt": "2"}, {"id": "b", "src": "2", "tgt": "1"}]},
     "type A quiver has no multiple edges"),
    ({"arrows": []}, "type A underlying graph must be a path"),
    ({"vertices": ["1", "2", "3"], "arrows": [{"id": "a", "src": "1", "tgt": "3"},
                                              {"id": "b", "src": "3", "tgt": "2"}]},
     "vertices must be listed along the A_n path"),
    ({"kind": "p1-torsion"}, "p1-torsion backend has no quiver data"),
    ({"kind": "loop-nilpotent"}, "loop-nilpotent backend needs one vertex and one loop"),
    ({"kind": "e6"}, "unknown backend kind 'e6'"),
], ids=["vertices-string", "vertex-not-name", "name-not-string", "arrow-not-object",
        "vertex-dash", "vertex-padded", "vertex-empty", "vertex-bracket",
        "duplicate-vertex", "duplicate-arrow-id", "empty-quiver", "type-a-loop",
        "multiple-edge", "not-a-path", "out-of-path-order", "p1-with-vertices",
        "loop-with-two-vertices", "unknown-kind"])
def test_malformed_backend_definitions_are_refused(tmp_path, change, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(A2, **change)))
    r = run_cli("--backend", str(path), "indecomposables")
    assert r.exit_code == 2 and r.stdout == ""
    assert f"{path}: " in r.stderr and message in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("bound", ["--dim", "--gamma"])
def test_bounds_must_be_positive(bound):
    r = run_cli("--backend", "a2", bound, "0", "indecomposables")
    assert r.exit_code == 2 and r.stdout == ""
    assert "error: bounds must be positive" in r.stderr


def test_p1_target_beyond_the_degree_bound_exits_3():
    for args in (("power", "O1", "7"), ("mul", "[T(x,3)]", "[T(x,4)]")):
        r = run_cli("--backend", "p1", *args)
        assert r.exit_code == 3 and r.stdout == ""
        assert r.stderr == ('{"error": "resource-limit", "message": "target '
                            'dimension 7 exceeds bound 6", "limit": 6, '
                            '"requested": 7}\n')


def test_comul_is_bounded_by_dim():
    # Delta(1_[Y]) has a term per split of Y, 2^summands of them
    for backend, operand, n in (("loop", "[J1+J2+J3]", 6), ("a3", "[S1+P12+P23]", 5),
                                ("p1", "[T(x,1)+T(y,2)+T(z,3)]", 6),
                                ("p1", "[O(1)+O(2)+O(3)+O(4)+O(-5)]", 5)):
        r = run_cli("--backend", backend, "--dim", "4", "--json", "comul", operand)
        assert r.exit_code == 3 and r.stdout == ""
        assert r.stderr == ('{"error": "resource-limit", "message": "target '
                            f'dimension {n} exceeds bound 4", "limit": 4, '
                            f'"requested": {n}}}\n')
    r = run_cli("--backend", "loop", "--json", "comul", "[J1+J1]")
    assert r.exit_code == 0
    assert r.stdout == (
        '{"backend":"loop","terms":[{"coeff":"1","left":{"strata":[[]]},'
        '"right":{"strata":[[[{"labels":["J1"]},2]]]}},{"coeff":"1","left":'
        '{"strata":[[[{"labels":["J1"]},1]]]},"right":{"strata":[[[{"labels":'
        '["J1"]},1]]]}},{"coeff":"1","left":{"strata":[[[{"labels":["J1"]},2]]]},'
        '"right":{"strata":[[]]}}]}\n')
    r = run_cli("--backend", "loop", "--dim", "2", "comul", "[J1+J1]")
    assert r.exit_code == 0
    assert r.stdout == ("(1) * 1_{[0]} (x) 1_{2.{J1}}\n(1) * 1_{{J1}} (x) 1_{{J1}}\n"
                        "(1) * 1_{2.{J1}} (x) 1_{[0]}\n")


def test_products_above_dim_exit_3_before_listing_targets():
    # a huge operand exits at once instead of listing every class of its
    # dimension (loop) or every partition of its degree (p1); a power
    # starts from the unit, so its first product 1_[0] * 1_X checks X
    # itself, as `mul X [0]` does, even at exponent 1
    for backend, args, requested in (
            ("loop", ("mul", "[J99999999999]", "[J1]"), 100000000000),
            ("loop", ("power", "[J99999999999]", "2"), 99999999999),
            ("p1", ("mul", "[T(x,99999999999)]", "O1"), 99999999999),
            ("loop", ("--dim", "2", "power", "[J3]", "1"), 3),
            ("p1", ("--dim", "2", "power", "[T(x,3)]", "1"), 3)):
        r = run_cli("--backend", backend, *args)
        assert r.exit_code == 3 and r.stdout == ""
        assert json.loads(r.stderr)["requested"] == requested


VERIFY_USAGE = "usage: hallforge verify [-h] SUITE\n"


def test_verify_help_and_unknown_suite_are_pinned(monkeypatch):
    # argparse wraps help to COLUMNS - 2; the invalid-choice text is that of
    # CPython 3.10 to 3.13.0 (3.13.13 prints the choices unquoted)
    monkeypatch.setenv("COLUMNS", "80")
    r = run_cli("--backend", "a2", "verify", "--help")
    assert r.exit_code == 0 and r.stderr == ""
    assert r.stdout == (VERIFY_USAGE + "\nRun a named invariant suite; exit 0 only if "
                        "every check passes.\n\npositional arguments:\n  SUITE       "
                        "one of assoc, lie-closure, riedtmann, pbw, green, bialgebra,\n"
                        "              euler-axioms, routes\n\noptions:\n  -h, --help  "
                        "show this help message and exit\n")
    r = run_cli("--backend", "a2", "verify", "nope")
    assert r.exit_code == 2 and r.stdout == ""
    assert r.stderr == (VERIFY_USAGE + "hallforge verify: error: argument SUITE: invalid "
                        "choice: 'nope' (choose from 'assoc', 'lie-closure', 'riedtmann', "
                        "'pbw', 'green', 'bialgebra', 'euler-axioms', 'routes')\n")


def test_suite_choices_are_the_verify_suites():
    # the CLI names the suites before it loads verify
    assert cli.SUITES == tuple(verify.SUITES)


@pytest.mark.parametrize("args,message", [
    (("cache", "import", "/missing/cache.json"),
     "argument src: path '/missing/cache.json' does not exist"),
    (("--di", "3", "mul", "[S1]", "[S2]"), "invalid choice: '3'"),
    (("power", "[S1]", "-1"), "hallforge power: error: power exponent must be >= 1"),
], ids=["import-missing-file", "abbreviated-option", "negative-exponent"])
def test_usage_errors_exit_2(args, message):
    r = run_cli("--backend", "a2", *args)
    assert r.exit_code == 2 and r.stdout == ""
    assert message in r.stderr


def test_usage_errors_name_hallforge_under_python_m():
    env = dict(os.environ, PYTHONPATH=str(Path(hallforge.__file__).parent.parent))
    r = subprocess.run([sys.executable, "-m", "hallforge.cli", "--backend", "a2",
                        "mul", "bogus", "[S1]"], capture_output=True, text=True, env=env)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == ("usage: hallforge mul [-h] left right\nhallforge mul: error: "
                        "unknown operand 'bogus': not a bracketed class and not a "
                        "declared family name\n")


def test_stdout_closed_by_its_reader_exits_1_without_a_traceback():
    # 10000 lines overfill the pipe, so a write meets the closed end
    env = dict(os.environ, PYTHONPATH=str(Path(hallforge.__file__).parent.parent))
    p = subprocess.Popen([sys.executable, "-m", "hallforge.cli", "--backend", "loop",
                          "--dim", "10000", "indecomposables"], stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, env=env)
    assert p.stdout.readline() == "J1  dim [1]\n"
    p.stdout.close()
    assert p.wait(timeout=60) == 1
    assert p.stderr.read() == ""
    p.stderr.close()


def test_resource_error_is_machine_readable():
    r = run_cli("--backend", "loop", "--dim", "2", "mul", "[J2]", "[J2]")
    assert r.exit_code == 3
    err = json.loads(r.stderr.splitlines()[-1])
    assert err["error"] == "resource-limit"
    assert err["limit"] == 2 and err["requested"] == 4


def test_unknown_operand_and_bad_backend(tmp_path):
    r = run_cli("--backend", "a2", "mul", "bogus", "[S1]")
    assert r.exit_code == 2
    r = run_cli("--backend", "a2", "mul", "[J1]", "[S1]")
    assert r.exit_code == 2 and "unknown label 'J1' for backend a2" in r.stderr
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run_cli("--backend", str(bad), "indecomposables")
    assert r.exit_code != 0


def test_cache_round_trip(tmp_path):
    cache = tmp_path / "cache.json"
    exported = tmp_path / "exported.json"
    r = run_cli("--backend", "loop", "--dim", "2", "--cache", str(cache), "verify",
                "routes")
    assert r.exit_code == 0 and cache.exists()
    r = run_cli("--backend", "loop", "--cache", str(cache), "cache", "stats")
    stats1 = json.loads(r.stdout)
    assert stats1["entries"] >= 2
    r = run_cli("--backend", "loop", "--cache", str(cache), "cache", "export",
                str(exported))
    assert r.exit_code == 0
    r = run_cli("--backend", "loop", "--cache", str(cache), "cache", "clear")
    assert r.exit_code == 0
    r = run_cli("--backend", "loop", "--cache", str(cache), "cache", "stats")
    assert json.loads(r.stdout)["entries"] == 0
    r = run_cli("--backend", "loop", "--cache", str(cache), "cache", "import",
                str(exported))
    assert r.exit_code == 0
    r = run_cli("--backend", "loop", "--cache", str(cache), "cache", "stats")
    assert json.loads(r.stdout) == stats1


def test_cache_export_refuses_a_directory(tmp_path):
    # exit 1 with a JSON error, and no DIR.lock or DIR.tmp beside it
    dest = tmp_path / "dest"
    dest.mkdir()
    r = run_cli("--backend", "loop", "cache", "export", str(dest))
    assert r.exit_code == 1 and r.stdout == ""
    err = json.loads(r.stderr)
    assert err["error"] == "CacheFormatError" and "directory" in err["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dest"]
    assert not any(dest.iterdir())


def test_unwritable_cache_files_exit_1(tmp_path):
    # a missing directory, or a directory where DEST.tmp goes: exit 1 with
    # a JSON error, never a traceback; a session cache is written after
    # the command's output, which stays as printed
    (tmp_path / "dest.json.tmp").mkdir()
    nodir = str(tmp_path / "nodir" / "x.json")
    for dest in (nodir, str(tmp_path / "dest.json")):
        r = run_cli("--backend", "loop", "cache", "export", dest)
        assert r.exit_code == 1 and r.stdout == ""
        err = json.loads(r.stderr)
        assert err["error"] == "CacheFormatError" and "cannot write" in err["message"]
    r = run_cli("--backend", "loop", "--dim", "2", "--cache", nodir, "--json", "verify",
                "routes")
    assert r.exit_code == 1 and json.loads(r.stdout)["passed"] is True
    assert json.loads(r.stderr.splitlines()[-1])["error"] == "CacheFormatError"


def test_cache_version_refusal(tmp_path):
    cache = tmp_path / "cache.json"
    run_cli("--backend", "loop", "--dim", "2", "--cache", str(cache), "verify",
            "routes")
    data = json.loads(cache.read_text())
    data["version"] = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    r = run_cli("--backend", "loop", "--cache", str(cache), "cache", "import",
                str(bad))
    assert r.exit_code == 1
    assert "version" in json.loads(r.stderr.splitlines()[-1])["message"]


def test_determinism_and_cache_transparency(tmp_path):
    cache = tmp_path / "cache.json"
    cold = run_cli("--backend", "loop", "--cache", str(cache), "--json",
                   "mul", "[J1]", "[J1]")
    warm = run_cli("--backend", "loop", "--cache", str(cache), "--json",
                   "mul", "[J1]", "[J1]")
    nocache = run_cli("--backend", "loop", "--json", "mul", "[J1]", "[J1]")
    assert cold.stdout == warm.stdout == nocache.stdout


def test_stale_session_cache_is_rebuilt(tmp_path):
    cache = tmp_path / "cache.json"
    run_cli("--backend", "loop", "--dim", "2", "--cache", str(cache), "verify",
            "routes")
    data = json.loads(cache.read_text())
    data["version"] = 0
    cache.write_text(json.dumps(data))
    r = run_cli("--backend", "loop", "--cache", str(cache), "mul", "[J1]", "[J1]")
    assert r.exit_code == 0
    assert "cache-rebuilt" in r.stderr
    assert json.loads(cache.read_text())["version"] != 0


def test_malformed_cache_files_fail_cleanly(tmp_path):
    # a real process, so an uncaught exception would print its traceback
    env = dict(os.environ,
               PYTHONPATH=str(Path(hallforge.__file__).parent.parent))

    def cli(*args):
        return subprocess.run([sys.executable, "-m", "hallforge.cli",
                               "--backend", "loop", *args],
                              capture_output=True, text=True, env=env)

    backend = quiver.builtin_backend("loop").to_json()
    files = {
        "list.json": "[1,2]",
        "nokey.json": json.dumps({"version": 1, "backend": backend,
                                  "entries": [{"coeffs": [1]}]}),
        "coeffs.json": json.dumps({"version": 1, "backend": backend,
                                   "entries": [{"key": "chi:[J1]|[0]|[J1]",
                                                "coeffs": 5}]}),
        "text.json": "not json {",
    }
    for name, text in files.items():
        bad = tmp_path / name
        bad.write_text(text)
        for args in (("--cache", str(bad), "mul", "[J1]", "[J1]"),
                     ("--cache", str(tmp_path / "session.json"), "cache",
                      "import", str(bad))):
            r = cli(*args)
            assert r.returncode == 1, (name, args, r.stderr)
            assert "Traceback" not in r.stderr
            err = json.loads(r.stderr.splitlines()[-1])
            assert err["error"] == "CacheFormatError" and str(bad) in err["message"]
            assert bad.read_bytes() == text.encode()
    # a directory in place of the file is refused the same way
    r = cli("--cache", str(tmp_path), "mul", "[J1]", "[J1]")
    assert r.returncode == 1 and "Traceback" not in r.stderr


def test_cache_import_reports_a_collision_not_a_version(tmp_path):
    env = dict(os.environ,
               PYTHONPATH=str(Path(hallforge.__file__).parent.parent))

    def cli(*args):
        return subprocess.run([sys.executable, "-m", "hallforge.cli",
                               "--backend", "loop", "--cache",
                               str(tmp_path / "a.json"), *args],
                              capture_output=True, text=True, env=env)

    assert cli("--dim", "2", "verify", "routes").returncode == 0
    before = (tmp_path / "a.json").read_bytes()
    data = json.loads(before)
    data["entries"][0]["coeffs"] = [7]
    other = tmp_path / "b.json"
    other.write_text(json.dumps(data))
    r = cli("cache", "import", str(other))
    assert r.returncode == 1 and "Traceback" not in r.stderr
    err = json.loads(r.stderr.splitlines()[-1])
    assert err["error"] == "CacheCollisionError", err
    assert data["entries"][0]["key"] in err["message"]
    assert (tmp_path / "a.json").read_bytes() == before


def test_session_cache_for_other_backend_is_refused(tmp_path):
    cache = tmp_path / "cache.json"
    run_cli("--backend", "loop", "--dim", "2", "--cache", str(cache), "verify",
            "routes")
    r = run_cli("--backend", "a2", "--cache", str(cache), "mul", "[S1]", "[S2]")
    assert r.exit_code == 1
    assert json.loads(r.stderr.splitlines()[-1])["error"] == "BackendMismatchError"


def test_default_bounds_riedtmann_and_deep_loop_product():
    # constants are read off torus fixed points, with no Hall polynomial:
    # the [J1^6] product below holds cells of degree 8
    r = run_cli("--backend", "a2", "verify", "riedtmann")
    assert r.exit_code == 0 and "suite riedtmann: pass" in r.stdout
    r = run_cli("--backend", "loop", "mul", "[J1+J1]", "[J1+J1+J1+J1]")
    assert r.exit_code == 0
    assert r.stdout.strip() == ("(1)*1_{2.{J1}+2.{J2}} + (4)*1_{4.{J1}+{J2}}"
                                " + (15)*1_{6.{J1}}")


def test_verify_routes_and_chi_cache_entries(tmp_path):
    cache = tmp_path / "cache.json"
    r = run_cli("--backend", "loop", "--dim", "3", "--json", "--cache", str(cache),
                "verify", "routes")
    assert r.exit_code == 0
    assert json.loads(r.stdout)["counts"] == {"cells": 42, "mismatches": 0}
    before = cache.read_bytes()
    # products read constants off the fixed points and write no entry
    r = run_cli("--backend", "loop", "--cache", str(cache), "mul", "[J1]", "[J1]")
    assert r.exit_code == 0 and cache.read_bytes() == before
    keys = [e["key"] for e in json.loads(before)["entries"]]
    assert "[J1]|[J1]|[J2]" in keys
    assert not any(k.startswith("chi:") for k in keys)


def test_routes_pass_at_the_default_dim_with_no_q_max():
    # every Hall polynomial is exact in Z[q]: the [J1^6] cells of loop and
    # the [S2^6] cells of a2, of degrees 8 and 9, pass at the default --dim,
    # and --q-max, which bounded the fields a fit sampled, is a usage error
    r = run_cli("--backend", "loop", "--json", "verify", "routes")
    assert r.exit_code == 0
    assert json.loads(r.stdout)["counts"] == {"cells": 1109, "mismatches": 0}
    r = run_cli("--backend", "a2", "--json", "verify", "routes")
    assert r.exit_code == 0
    assert json.loads(r.stdout)["counts"] == {"cells": 1002, "mismatches": 0}
    r = run_cli("--backend", "a2", "--q-max", "2", "--dim", "2", "verify", "routes")
    assert r.exit_code == 2 and r.stdout == ""


def test_cache_file_with_chi_entries_still_loads(tmp_path, monkeypatch):
    # files written when constants were cached hold "chi:" entries: they
    # load, and those entries are never read (these values are wrong on
    # purpose, so a read would show in the product)
    cache = tmp_path / "cache.json"
    backend = quiver.builtin_backend("loop").to_json()
    cache.write_text(json.dumps({"version": 1, "backend": backend, "entries": [
        {"key": "chi:[J1]|[J1]|[J1+J1]", "coeffs": [9]},
        {"key": "chi:[J1]|[J1]|[J2]", "coeffs": [9]},
        {"key": "[J1]|[J1]|[J1+J1]", "coeffs": [1, 1]}]}))
    before = cache.read_bytes()
    nocache = run_cli("--backend", "loop", "--json", "mul", "[J1]", "[J1]")
    r = run_cli("--backend", "loop", "--cache", str(cache), "--json", "mul",
                "[J1]", "[J1]")
    assert r.exit_code == 0 and r.stdout == nocache.stdout
    assert cache.read_bytes() == before

    fitted = []
    compute = counting.hall_polynomial

    def spy(engine, sub, quot, target):
        fitted.append("|".join(quiver.class_name(engine.backend, c)
                               for c in (sub, quot, target)))
        return compute(engine, sub, quot, target)
    monkeypatch.setattr(counting, "hall_polynomial", spy)
    r = run_cli("--backend", "loop", "--dim", "2", "--json", "--cache", str(cache),
                "verify", "routes")
    assert r.exit_code == 0 and json.loads(r.stdout)["passed"] is True
    assert "[J1]|[J1]|[J2]" in fitted and "[J1]|[J1]|[J1+J1]" not in fitted


# Exact stdout of commands that print elements, tensors and reports, held
# as literals so that a change of the element representation cannot
# change a byte of what the program prints.
GOLDEN = [
    (('--backend', 'a3', '--json', 'mul', '[S2+S3]', '[S1+S2]'),
     '{"backend":"a3","terms":[{"coeff":"1",'
     '"set":{"strata":[[[{"labels":["P23"]},1],[{"labels":["P12"]},'
     '1]]]}},{"coeff":"1","set":{"strata":[[[{"labels":["S3"]},1],'
     '[{"labels":["S2"]},1],[{"labels":["P12"]},1]],'
     '[[{"labels":["S2"]},1],[{"labels":["S1"]},1],'
     '[{"labels":["P23"]},1]]]}},{"coeff":"2",'
     '"set":{"strata":[[[{"labels":["S3"]},1],[{"labels":["S2"]},2],'
     '[{"labels":["S1"]},1]]]}}]}\n'),
    (('--backend', 'a3', 'mul', '[S2+S3]', '[S1+S2]'),
     '(1)*1_{{P23}+{P12}} + (1)*1_{{S3}+{S2}+{P12} u {S2}+{S1}+{P23}} '
     '+ (2)*1_{{S3}+2.{S2}+{S1}}\n'),
    (('--backend', 'loop', '--json', 'mul', '[J1+J2]', '[J2+J1]'),
     '{"backend":"loop","terms":[{"coeff":"1",'
     '"set":{"strata":[[[{"labels":["J2"]},1],[{"labels":["J4"]},'
     '1]]]}},{"coeff":"2","set":{"strata":[[[{"labels":["J3"]},2]]]}},'
     '{"coeff":"2","set":{"strata":[[[{"labels":["J1"]},1],'
     '[{"labels":["J2"]},1],[{"labels":["J3"]},1]],'
     '[[{"labels":["J1"]},2],[{"labels":["J4"]},1]]]}},{"coeff":"6",'
     '"set":{"strata":[[[{"labels":["J2"]},3]]]}},{"coeff":"4",'
     '"set":{"strata":[[[{"labels":["J1"]},2],[{"labels":["J2"]},'
     '2]]]}}]}\n'),
    (('--backend', 'loop', 'mul', '[J1+J2]', '[J2+J1]'),
     '(1)*1_{{J2}+{J4}} + (2)*1_{2.{J3}} + (2)*1_{{J1}+{J2}+{J3} u '
     '2.{J1}+{J4}} + (6)*1_{3.{J2}} + (4)*1_{2.{J1}+2.{J2}}\n'),
    (('--backend', 'a2', 'bracket', '[S2+S2]', '[S1]'),
     '(1)*1_{{S2}+{P12}}\n'),
    (('--backend', 'a2', '--json', 'bracket', '[S1]', '[S2]'),
     '{"backend":"a2","terms":[{"coeff":"-1",'
     '"set":{"strata":[[[{"labels":["P12"]},1]]]}}]}\n'),
    (('--backend', 'loop', 'power', '[J1]', '3'),
     '(1)*1_{{J3}} + (3)*1_{{J1}+{J2}} + (6)*1_{3.{J1}}\n'),
    (('--backend', 'loop', '--json', 'comul', '[J2+J1]'),
     '{"backend":"loop","terms":[{"coeff":"1","left":{"strata":[[]]},'
     '"right":{"strata":[[[{"labels":["J1"]},1],[{"labels":["J2"]},'
     '1]]]}},{"coeff":"1","left":{"strata":[[[{"labels":["J1"]},1]]]},'
     '"right":{"strata":[[[{"labels":["J2"]},1]]]}},{"coeff":"1",'
     '"left":{"strata":[[[{"labels":["J2"]},1]]]},'
     '"right":{"strata":[[[{"labels":["J1"]},1]]]}},{"coeff":"1",'
     '"left":{"strata":[[[{"labels":["J1"]},1],[{"labels":["J2"]},'
     '1]]]},"right":{"strata":[[]]}}]}\n'),
    (('--backend', 'loop', 'comul', '[J2+J1]'),
     '(1) * 1_{[0]} (x) 1_{{J1}+{J2}}\n(1) * 1_{{J1}} (x) 1_{{J2}}\n(1) '
     '* 1_{{J2}} (x) 1_{{J1}}\n(1) * 1_{{J1}+{J2}} (x) 1_{[0]}\n'),
    (('--backend', 'a2', '--dim', '3', '--json', 'verify', 'bialgebra'),
     '{"checks":[{"detail":"37 pairs","name":"homomorphism property '
     'on basis pairs, dim <= 3, gamma <= 2","passed":true},'
     '{"name":"counit laws and cocommutativity","passed":true},'
     '{"name":"coassociativity on basis classes","passed":true}],'
     '"counts":{"classes":9,"pairs":37},"passed":true,'
     '"suite":"bialgebra"}\n'),
    (('--backend', 'a2', '--gamma', '2', '--json', 'verify', 'pbw'),
     '{"checks":[{"name":"gamma-triangularity","passed":true},'
     '{"name":"diagonal entries are products of factorials",'
     '"passed":true},{"name":"graded bijectivity per filtration '
     'degree","passed":true}],'
     '"counts":{"gamma":2,"monomials":10},"passed":true,'
     '"report":{"back_substitution":[{"coefficients":{"[0, 0, '
     '0]":"1"},"expressible":true,"stratum":{"strata":[[]]}},'
     '{"coefficients":{"[0, 0, 1]":"1"},"expressible":true,'
     '"stratum":{"strata":[[[{"labels":["P12"]},1]]]}},'
     '{"coefficients":{"[0, 1, 0]":"1"},"expressible":true,'
     '"stratum":{"strata":[[[{"labels":["S1"]},1]]]}},'
     '{"coefficients":{"[1, 0, 0]":"1"},"expressible":true,'
     '"stratum":{"strata":[[[{"labels":["S2"]},1]]]}},'
     '{"coefficients":{"[0, 0, 2]":"1/2"},"expressible":true,'
     '"stratum":{"strata":[[[{"labels":["P12"]},2]]]}},'
     '{"coefficients":{"[0, 1, 1]":"1"},"expressible":true,'
     '"stratum":{"strata":[[[{"labels":["S1"]},1],[{"labels":["P12"]},'
     '1]]]}},{"coefficients":{"[0, 2, 0]":"1/2"},"expressible":true,'
     '"stratum":{"strata":[[[{"labels":["S1"]},2]]]}},'
     '{"coefficients":{"[1, 0, 1]":"1"},"expressible":true,'
     '"stratum":{"strata":[[[{"labels":["S2"]},1],[{"labels":["P12"]},'
     '1]]]}},{"coefficients":{"[0, 0, 1]":"-1","[1, 1, 0]":"1"},'
     '"expressible":true,"stratum":{"strata":[[[{"labels":["S2"]},1],'
     '[{"labels":["S1"]},1]]]}},{"coefficients":{"[2, 0, 0]":"1/2"},'
     '"expressible":true,"stratum":{"strata":[[[{"labels":["S2"]},'
     '2]]]}}],"blocks":[{"diagonal":["1"],"diagonal_block":true,'
     '"entries":[[[0,0,0],[0,0,0],"1"]],"gamma":0},{"diagonal":["1",'
     '"1","1"],"diagonal_block":true,"entries":[[[0,0,1],[0,0,1],"1"],'
     '[[0,1,0],[0,1,0],"1"],[[1,0,0],[1,0,0],"1"]],"gamma":1},'
     '{"diagonal":["2","1","2","1","1","2"],"diagonal_block":true,'
     '"entries":[[[0,0,2],[0,0,2],"2"],[[0,1,1],[0,1,1],"1"],[[0,2,0],'
     '[0,2,0],"2"],[[1,0,1],[1,0,1],"1"],[[1,1,0],[1,1,0],"1"],[[2,0,'
     '0],[2,0,0],"2"]],"gamma":2}],"correction_closed":true,'
     '"counterexample":null,"diagonal_ok":true,'
     '"families":[{"labels":["S2"]},{"labels":["S1"]},'
     '{"labels":["P12"]}],"gamma_max":2,"graded_bijective":true,'
     '"triangular":true},"suite":"pbw"}\n'),
    (('--backend', 'p1', '--json', 'mul', 'O1', 'O1'),
     '{"backend":"p1","terms":[{"coeff":"1",'
     '"set":{"strata":[[[{"base":{"kind":"cofinite","points":[]},'
     '"degree":2},1]]]}},{"coeff":"2",'
     '"set":{"strata":[[[{"base":{"kind":"cofinite","points":[]},'
     '"degree":1},2]]]}}]}\n'),
    (('--backend', 'p1', '--json', 'power', 'O1', '4'),
     '{"backend":"p1","terms":[{"coeff":"1","set":{"strata":[[[{"base":'
     '{"kind":"cofinite","points":[]},"degree":4},1]]]}},{"coeff":"4",'
     '"set":{"strata":[[[{"base":{"kind":"cofinite","points":[]},'
     '"degree":1},1],[{"base":{"kind":"cofinite","points":[]},"degree":3},'
     '1]]]}},{"coeff":"6","set":{"strata":[[[{"base":{"kind":"cofinite",'
     '"points":[]},"degree":2},2]]]}},{"coeff":"12","set":{"strata":[[[{'
     '"base":{"kind":"cofinite","points":[]},"degree":1},2],[{"base":{'
     '"kind":"cofinite","points":[]},"degree":2},1]]]}},{"coeff":"24",'
     '"set":{"strata":[[[{"base":{"kind":"cofinite","points":[]},'
     '"degree":1},4]]]}}]}\n'),
    (('--backend', 'p1', '--json', 'mul', '[T(x,1)+T(y,2)]', '[T(x,2)]'),
     '{"backend":"p1","terms":[{"coeff":"1","set":{"strata":[[[{"base":'
     '{"kind":"finite","points":["y"]},"degree":2},1],[{"base":{"kind":'
     '"finite","points":["x"]},"degree":3},1]]]}},{"coeff":"1","set":'
     '{"strata":[[[{"base":{"kind":"finite","points":["x"]},"degree":1},'
     '1],[{"base":{"kind":"finite","points":["x"]},"degree":2},1],[{"base":'
     '{"kind":"finite","points":["y"]},"degree":2},1]]]}}]}\n'),
    (('--backend', 'p1', '--json', 'comul', 'O2'),
     '{"backend":"p1","terms":[{"coeff":"1","left":{"strata":[[]]},'
     '"right":{"strata":[[[{"base":{"kind":"cofinite","points":[]},'
     '"degree":2},1]]]}},{"coeff":"1","left":{"strata":[[[{"base":{"kind":'
     '"cofinite","points":[]},"degree":2},1]]]},"right":{"strata":[[]]}}]}\n'),
    (('--backend', 'p1', 'bracket', 'O1', 'O2'), '0\n'),
]


@pytest.mark.parametrize("args,want", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_stdout(args, want):
    r = run_cli(*args)
    assert r.exit_code == 0
    assert r.stdout == want


# Malformed input, generated: each case exits 2 (usage) or 1 (a library
# error) with a message on stderr.  The runner re-raises any exception
# that is not SystemExit, so a traceback fails the test, and so would a
# deferred import that raised NameError or ImportError.
PROPS = settings(derandomize=True, max_examples=80, deadline=None)
JSON = st.recursive(st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
                    | st.text(max_size=4),
                    lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                    max_leaves=6)
BUILTIN = {n: quiver.builtin_backend(n).to_json() for n in ("a2", "loop", "p1")}


def refused(*args):
    r = run_cli(*args)
    assert r.exit_code in (1, 2), (args, r.exit_code, r.stdout)
    assert r.stdout == "" and r.stderr and "Traceback" not in r.stderr
    return r


def not_json(text):
    try:
        json.loads(text)
    except ValueError:
        return True
    return False


def _complete_arrows(v):
    return isinstance(v, list) and all(
        isinstance(a, dict) and {"id", "src", "tgt"} <= a.keys() for a in v)


WRONG_FIELD = {
    "name": JSON.filter(lambda v: not isinstance(v, str)),
    "kind": JSON.filter(lambda v: v not in (quiver.KIND_DYNKIN, quiver.KIND_LOOP,
                                            quiver.KIND_P1)),
    "vertices": JSON.filter(lambda v: not isinstance(v, list)
                            or not all(isinstance(x, str) for x in v)),
    "arrows": JSON.filter(lambda v: not _complete_arrows(v)),
}


@st.composite
def malformed_backends(draw):
    """The text of a backend file that is not a backend definition."""
    how = draw(st.sampled_from(["text", "not-object", "missing", "field", "arrow-id"]))
    if how == "text":
        return draw(st.text(max_size=20).filter(not_json))
    if how == "not-object":
        return json.dumps(draw(JSON.filter(lambda v: not isinstance(v, dict))))
    data = dict(BUILTIN[draw(st.sampled_from(["a2", "loop"]))])
    if how == "missing":
        del data[draw(st.sampled_from(sorted(WRONG_FIELD)))]
    elif how == "field":
        key = draw(st.sampled_from(sorted(WRONG_FIELD)))
        data[key] = draw(WRONG_FIELD[key])
    else:  # an arrow id that cannot be hashed
        arrow = dict(data["arrows"][0], id=draw(st.lists(JSON, max_size=2)
                                                 | st.dictionaries(st.text(max_size=2), JSON)))
        data["arrows"] = [arrow]
    return json.dumps(data)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("malformed")


@PROPS
@given(text=malformed_backends())
def test_malformed_backend_files_exit_2(scratch, text):
    path = scratch / "backend.json"
    path.write_text(text)
    r = refused("--backend", str(path), "mul", "[0]", "[0]")
    assert r.exit_code == 2


def test_unreadable_backend_files_exit_2(tmp_path):
    for path, reason in ((tmp_path / "missing.json", "No such file or directory"),
                         (tmp_path, "Is a directory")):
        r = refused("--backend", str(path), "indecomposables")
        assert r.exit_code == 2 and f"{path}: {reason}" in r.stderr


OPERAND_CHARS = "[]+0123JSPOT(),xy -"


@st.composite
def malformed_operands(draw):
    """An operand that is neither a bracketed class nor a family name: no
    closing bracket, an empty summand, or no brackets at all."""
    body = st.text(OPERAND_CHARS, max_size=8)
    how = draw(st.sampled_from(["unclosed", "empty-summand", "unbracketed"]))
    if how == "unclosed":
        return "[" + draw(body.filter(lambda t: not t.strip().endswith("]")))
    if how == "empty-summand":
        return "[" + draw(body) + "+ +" + draw(body) + "]"
    return draw(st.text(OPERAND_CHARS, max_size=8).filter(
        lambda t: not t.strip().startswith("[") and t.strip() not in ("O1", "O2", "O3")))


@PROPS
@given(backend=st.sampled_from(["a2", "a3", "loop", "p1"]), operand=malformed_operands(),
       command=st.sampled_from(["mul", "bracket", "comul", "power"]))
def test_malformed_operands_exit_2(backend, operand, command):
    args = {"mul": [operand, "[0]"], "bracket": ["[0]", operand], "comul": [operand],
            "power": [operand, "2"]}[command]
    assert refused("--backend", backend, command, *args).exit_code == 2


@PROPS
@given(backend=st.sampled_from(["a2", "a3", "loop", "p1"]),
       operand=st.text(OPERAND_CHARS, max_size=10),
       command=st.sampled_from(["mul", "comul", "power"]), exponent=st.integers(-1, 3))
def test_any_operand_text_exits_cleanly(backend, operand, command, exponent):
    # valid classes among these run (exit 0) or pass --dim (exit 3)
    args = {"mul": [operand, operand], "comul": [operand],
            "power": [operand, str(exponent)]}[command]
    r = run_cli("--backend", backend, command, *args)
    assert r.exit_code in (0, 1, 2, 3)
    assert "Traceback" not in r.stderr and bool(r.stderr) == (r.exit_code != 0)


@st.composite
def malformed_caches(draw):
    """The text of a cache file whose version is right but whose content
    is not a cache: not JSON, not an object, another backend, or a
    corrupted entry."""
    how = draw(st.sampled_from(["text", "not-object", "backend", "entries", "entry"]))
    if how == "text":
        return draw(st.text(max_size=20).filter(not_json))
    if how == "not-object":
        return json.dumps(draw(JSON.filter(lambda v: not isinstance(v, dict))))
    data = {"version": hall.CACHE_VERSION, "backend": BUILTIN["loop"],
            "entries": [{"key": "[J1]|[J1]|[J2]", "coeffs": [1]}]}
    if how == "backend":
        data["backend"] = draw(JSON.filter(lambda v: v != BUILTIN["loop"]))
    elif how == "entries":
        data["entries"] = draw(JSON.filter(lambda v: not isinstance(v, list)))
    else:
        entry = data["entries"][0]
        field = draw(st.sampled_from(["key", "coeffs", "coeff", "whole"]))
        if field == "key":
            entry["key"] = draw(JSON.filter(lambda v: not isinstance(v, str)))
        elif field == "coeffs":
            entry["coeffs"] = draw(JSON.filter(lambda v: not isinstance(v, list)))
        elif field == "coeff":
            entry["coeffs"] = [draw(JSON.filter(lambda v: type(v) is not int))]
        else:
            data["entries"][0] = draw(JSON.filter(lambda v: not isinstance(v, dict)))
    return json.dumps(data)


@PROPS
@given(text=malformed_caches(), command=st.sampled_from(["session", "import"]))
def test_malformed_cache_files_exit_1(scratch, text, command):
    bad = scratch / "cache.json"
    bad.write_text(text)
    if command == "session":
        args = ["--cache", str(bad), "mul", "[J1]", "[J1]"]
    else:
        args = ["--cache", str(scratch / "session.json"), "cache", "import", str(bad)]
    assert refused("--backend", "loop", *args).exit_code == 1
    assert bad.read_text() == text
    assert not (scratch / "session.json").exists()
