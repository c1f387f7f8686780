import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import hallforge
from hallforge import hall, quiver
from hallforge.cli import main


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_indecomposables_listing(tmp_path):
    r = run("--backend", "a2", "--dim", "2", "indecomposables")
    assert r.exit_code == 0
    assert [line.split()[0] for line in r.stdout.splitlines()] == \
        ["S2", "S1", "P12"]
    a1 = tmp_path / "a1.json"
    a1.write_text(json.dumps({"name": "a1", "kind": "dynkin-quiver",
                              "vertices": ["1"], "arrows": []}))
    r = run("--backend", str(a1), "--dim", "3", "indecomposables")
    assert r.exit_code == 0 and r.stdout.split()[0] == "S1"
    assert len(r.stdout.splitlines()) == 1
    r = run("--backend", "a2", "--dim", "1", "indecomposables", )
    assert "P12" not in r.stdout
    r = run("--backend", "loop", "--dim", "3", "indecomposables")
    assert [line.split()[0] for line in r.stdout.splitlines()] == \
        ["J1", "J2", "J3"]
    r = run("--backend", "p1", "indecomposables")
    assert r.exit_code == 0 and "O1: degree 1" in r.stdout


def test_mul_golden(tmp_path):
    r = run("--backend", "a2", "--json", "mul", "[S2]", "[S1]")
    assert r.exit_code == 0
    data = json.loads(r.stdout)
    assert data["backend"] == "a2"
    coeffs = sorted(t["coeff"] for t in data["terms"])
    assert coeffs == ["1", "1"]
    r = run("--backend", "a2", "mul", "[S1]", "[S2]")
    assert r.exit_code == 0 and "P12" not in r.stdout


def test_bracket_and_power_and_comul():
    r = run("--backend", "a2", "bracket", "[S1]", "[S2]")
    assert r.exit_code == 0 and r.stdout.strip() == "(-1)*1_{{P12}}"
    r = run("--backend", "a2", "power", "[S1]", "3")
    assert r.exit_code == 0 and r.stdout.strip() == "(6)*1_{3.{S1}}"
    r = run("--backend", "loop", "comul", "[0]")
    assert r.exit_code == 0 and r.stdout.count("(x)") == 1
    r = run("--backend", "p1", "mul", "O1", "O1")
    assert r.exit_code == 0 and "O2" in r.stdout


def test_verify_exit_codes():
    r = run("--backend", "a2", "--dim", "3", "verify", "assoc")
    assert r.exit_code == 0 and "pass" in r.stdout
    r = run("--backend", "a2", "--dim", "3", "--json", "verify", "lie-closure")
    assert r.exit_code == 0
    assert json.loads(r.stdout)["passed"] is True
    r = run("--backend", "a2", "verify", "nonsense")
    assert r.exit_code == 2


def test_p1_refuses_suites_built_on_a_class_list():
    # p1 classes range over point families; its suite is euler-axioms
    for suite in ("assoc", "bialgebra", "routes"):
        r = run("--backend", "p1", "--dim", "2", "--json", "verify", suite)
        assert r.exit_code == 1 and r.stdout == ""
        assert json.loads(r.stderr.splitlines()[-1])["error"] == "CapabilityError"
    r = run("--backend", "p1", "--json", "verify", "euler-axioms")
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
    r = run("--backend", backend, "mul", "O1x", "O2")
    assert r.exit_code == 0
    assert r.stdout == "(1)*1_{O3\\{x}} + (1)*1_{O1\\{x}+O2}\n"


def test_power_of_a_family_over_two_points(tmp_path):
    backend = p1_backend_file(tmp_path, [("Oxy", 1, "finite", ["x", "y"])])
    r = run("--backend", backend, "power", "Oxy", "2")
    assert r.exit_code == 0
    assert r.stdout == ("(1)*1_{O2{x} u O2{y}} + "
                        "(2)*1_{O1{x}+O1{y} u 2.O1{x} u 2.O1{y}}\n")


def test_p1_blocks_and_families_below_degree_one_are_refused(tmp_path):
    # a torsion block needs a named point and degree >= 1; so does a family
    for bad in ("[T(x,-1)]", "[T(x,0)]", "[T(,1)]"):
        r = run("--backend", "p1", "mul", bad, "[T(x,1)]")
        assert r.exit_code == 2 and r.stdout == ""
        assert f"bad p1 label '{bad[1:-1]}'" in r.stderr
    for degree, base, args in ((-1, "cofinite", ("mul", "N", "O1")),
                               (0, "finite", ("power", "N", "2"))):
        backend = p1_backend_file(tmp_path, [("N", degree, base, ["x"]),
                                             ("O1", 1, "cofinite", [])])
        r = run("--backend", backend, *args)
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
    r = run("--backend", str(path), "indecomposables")
    assert r.exit_code == 2 and r.stdout == ""
    assert message in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("families,message", [
    (["N"], "family entry 'N' is not an object"),
    ({"name": "N"}, "'families' is not a list of family objects: {'name': 'N'}"),
    ([{"name": "N", "degree": 1, "base": {"kind": "finite", "points": "xy"}}],
     "family 'N' has 'base.points' 'xy', not a list of names"),
    ([{"name": "N", "degree": 1, "base": {"kind": "finite", "points": [1, "x"]}}],
     "family 'N' has 'base.points' [1, 'x'], not a list of names"),
    ([{"name": ["N"], "degree": 1, "base": {"kind": "finite"}}],
     "family name ['N'] is not a string"),
], ids=["entry-not-object", "families-not-list", "points-string", "point-not-name",
        "name-not-string"])
def test_p1_malformed_families_are_refused(tmp_path, families, message):
    path = tmp_path / "p1x.json"
    path.write_text(json.dumps({"name": "p1x", "kind": "p1-torsion",
                                "vertices": [], "arrows": [], "families": families}))
    r = run("--backend", str(path), "indecomposables")
    assert r.exit_code == 2 and r.stdout == ""
    assert message in r.stderr and "Traceback" not in r.stderr


def test_resource_error_is_machine_readable():
    r = run("--backend", "loop", "--dim", "2", "mul", "[J2]", "[J2]")
    assert r.exit_code == 3
    err = json.loads(r.stderr.splitlines()[-1])
    assert err["error"] == "resource-limit"
    assert err["limit"] == 2 and err["requested"] == 4


def test_unknown_operand_and_bad_backend(tmp_path):
    r = run("--backend", "a2", "mul", "bogus", "[S1]")
    assert r.exit_code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run("--backend", str(bad), "indecomposables")
    assert r.exit_code != 0


def test_cache_round_trip(tmp_path):
    cache = tmp_path / "cache.json"
    exported = tmp_path / "exported.json"
    r = run("--backend", "loop", "--dim", "2", "--cache", str(cache), "verify",
            "routes")
    assert r.exit_code == 0 and cache.exists()
    r = run("--backend", "loop", "--cache", str(cache), "cache", "stats")
    stats1 = json.loads(r.stdout)
    assert stats1["entries"] >= 2
    r = run("--backend", "loop", "--cache", str(cache), "cache", "export",
            str(exported))
    assert r.exit_code == 0
    r = run("--backend", "loop", "--cache", str(cache), "cache", "clear")
    assert r.exit_code == 0
    r = run("--backend", "loop", "--cache", str(cache), "cache", "stats")
    assert json.loads(r.stdout)["entries"] == 0
    r = run("--backend", "loop", "--cache", str(cache), "cache", "import",
            str(exported))
    assert r.exit_code == 0
    r = run("--backend", "loop", "--cache", str(cache), "cache", "stats")
    assert json.loads(r.stdout) == stats1


def test_cache_version_refusal(tmp_path):
    cache = tmp_path / "cache.json"
    run("--backend", "loop", "--dim", "2", "--cache", str(cache), "verify",
        "routes")
    data = json.loads(cache.read_text())
    data["version"] = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    r = run("--backend", "loop", "--cache", str(cache), "cache", "import",
            str(bad))
    assert r.exit_code == 1
    assert "version" in json.loads(r.stderr.splitlines()[-1])["message"]


def test_determinism_and_cache_transparency(tmp_path):
    cache = tmp_path / "cache.json"
    cold = run("--backend", "loop", "--cache", str(cache), "--json",
               "mul", "[J1]", "[J1]")
    warm = run("--backend", "loop", "--cache", str(cache), "--json",
               "mul", "[J1]", "[J1]")
    nocache = run("--backend", "loop", "--json", "mul", "[J1]", "[J1]")
    assert cold.stdout == warm.stdout == nocache.stdout


def test_stale_session_cache_is_rebuilt(tmp_path):
    cache = tmp_path / "cache.json"
    run("--backend", "loop", "--dim", "2", "--cache", str(cache), "verify",
        "routes")
    data = json.loads(cache.read_text())
    data["version"] = 0
    cache.write_text(json.dumps(data))
    r = run("--backend", "loop", "--cache", str(cache), "mul", "[J1]", "[J1]")
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
    run("--backend", "loop", "--dim", "2", "--cache", str(cache), "verify",
        "routes")
    r = run("--backend", "a2", "--cache", str(cache), "mul", "[S1]", "[S2]")
    assert r.exit_code == 1
    assert json.loads(r.stderr.splitlines()[-1])["error"] == "BackendMismatchError"


def test_default_bounds_riedtmann_and_deep_loop_product():
    # constants no longer depend on the F_q sample schedule: a degree-8
    # Hall polynomial needs 10 prime powers, only 9 are <= 13
    r = run("--backend", "a2", "verify", "riedtmann")
    assert r.exit_code == 0 and "suite riedtmann: pass" in r.stdout
    r = run("--backend", "loop", "mul", "[J1+J1]", "[J1+J1+J1+J1]")
    assert r.exit_code == 0
    assert r.stdout.strip() == ("(1)*1_{2.{J1}+2.{J2}} + (4)*1_{4.{J1}+{J2}}"
                                " + (15)*1_{6.{J1}}")


def test_verify_routes_and_chi_cache_entries(tmp_path):
    cache = tmp_path / "cache.json"
    r = run("--backend", "loop", "--dim", "3", "--json", "--cache", str(cache),
            "verify", "routes")
    assert r.exit_code == 0
    assert json.loads(r.stdout)["counts"] == {"cells": 42, "mismatches": 0}
    before = cache.read_bytes()
    # products read constants off the fixed points and write no entry
    r = run("--backend", "loop", "--cache", str(cache), "mul", "[J1]", "[J1]")
    assert r.exit_code == 0 and cache.read_bytes() == before
    keys = [e["key"] for e in json.loads(before)["entries"]]
    assert "[J1]|[J1]|[J2]" in keys
    assert not any(k.startswith("chi:") for k in keys)


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
    nocache = run("--backend", "loop", "--json", "mul", "[J1]", "[J1]")
    r = run("--backend", "loop", "--cache", str(cache), "--json", "mul",
            "[J1]", "[J1]")
    assert r.exit_code == 0 and r.stdout == nocache.stdout
    assert cache.read_bytes() == before

    fitted = []
    interpolate = hall.HallEngine._interpolate

    def spy(engine, sub, quot, target):
        fitted.append("|".join(quiver.class_name(engine.backend, c)
                               for c in (sub, quot, target)))
        return interpolate(engine, sub, quot, target)
    monkeypatch.setattr(hall.HallEngine, "_interpolate", spy)
    r = run("--backend", "loop", "--dim", "2", "--json", "--cache", str(cache),
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
     'degree","passed":true},{"detail":"correction-closed",'
     '"name":"back-substitution residuals recorded","passed":true}],'
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
]


@pytest.mark.parametrize("args,want", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_stdout(args, want):
    r = run(*args)
    assert r.exit_code == 0
    assert r.stdout == want
