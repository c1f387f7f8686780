"""The value classes are plain read-only `__slots__` classes, so importing
the library needs neither `dataclasses` nor `inspect`; and each CLI command
loads only the library modules it runs."""

import subprocess
import sys
from pathlib import Path

import pytest

import hallforge
from hallforge import algebra as alg
from hallforge import coalgebra as co
from hallforge import counting, hall, pbw, quiver, verify
from hallforge.p1sets import P1Set

A2 = quiver.builtin_backend("a2")
BASE = P1Set(False, frozenset({"x"}))
FAMILY = alg.IndecFamily("points", (), 1, BASE)

# each read-only class -> a function giving fresh field values, in
# __init__ order
FIELDS = {
    quiver.Arrow: lambda: ("a", 0, 1),
    quiver.Backend: lambda: ("a2", quiver.KIND_DYNKIN, ("1", "2"),
                             (quiver.Arrow("a", 0, 1),)),
    quiver.MatrixRep: lambda: (2, (1, 1), ((b"\x01",),)),
    alg.IndecFamily: lambda: ("points", (), 1, BASE),
    alg.ConstructibleSet: lambda: ((((FAMILY, 1),),),),
    alg.CFElement: lambda: (A2, {(("i", 0, 0),): 1}),
    co.TensorElement: lambda: (A2, {((("i", 0, 0),), ()): 1}),
    counting.Bounds: lambda: (6, 13),
    hall.HallPolynomial: lambda: ((1, 1),),
    P1Set: lambda: (True, frozenset({"x"})),
}
UNHASHABLE = (alg.CFElement, co.TensorElement)


def make(cls):
    return cls(*FIELDS[cls]())


def ids(classes):
    return [cls.__name__ for cls in classes]


@pytest.mark.parametrize("cls", FIELDS, ids=ids(FIELDS))
def test_equal_fields_mean_equal_objects_with_equal_hashes(cls):
    a, b = make(cls), make(cls)
    assert a is not b and a == b and not a != b
    if cls not in UNHASHABLE:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("cls", FIELDS, ids=ids(FIELDS))
def test_value_never_equals_its_fields(cls):
    obj, values = make(cls), FIELDS[cls]()
    assert obj != values and values != obj
    assert obj != values[0]
    assert obj == obj


@pytest.mark.parametrize("cls", FIELDS, ids=ids(FIELDS))
def test_fields_are_read_only(cls):
    obj = make(cls)
    field = cls.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = None
    assert getattr(obj, field) == FIELDS[cls]()[0]


def test_repr_names_the_fields():
    assert repr(quiver.Arrow("a", 0, 1)) == "Arrow(id='a', src=0, tgt=1)"
    assert repr(counting.Bounds()) == "Bounds(max_dim=6, max_q=13)"


@pytest.mark.parametrize("cls", UNHASHABLE, ids=ids(UNHASHABLE))
def test_elements_are_unhashable(cls):
    with pytest.raises(TypeError):
        hash(make(cls))


def test_backend_equality_ignores_its_label_table():
    a, b = make(quiver.Backend), make(quiver.Backend)
    quiver.make_class(a, [("i", 0, 1), ("i", 0, 0)])
    assert "label_table" in vars(a) and "label_table" not in vars(b)
    assert a == b and hash(a) == hash(b)


def test_mutable_defaults_are_not_shared():
    reports = [pbw.TruncationReport([], 1, True, True, True, True) for _ in range(2)]
    reports[0].blocks.append({})
    reports[0].back_substitution.append({})
    assert reports[1].blocks == [] and reports[1].back_substitution == []
    results = [verify.SuiteResult("assoc", True) for _ in range(2)]
    results[0].add("check", False)
    results[0].counts["n"] = 1
    assert results[1].checks == [] and results[1].counts == {}
    assert results[1].passed is True


def test_library_import_loads_no_dataclasses_inspect_or_resources():
    # -S: a site .pth file can preload importlib.resources and hide a
    # regression; it also keeps site-packages, and so click, off the path:
    # the CLI runs on the standard library alone
    src = Path(hallforge.__file__).resolve().parents[1]
    library = ("import hallforge.algebra, hallforge.coalgebra, hallforge.counting, "
               "hallforge.hall, hallforge.p1, hallforge.pbw, hallforge.quiver, "
               "hallforge.verify; hallforge.quiver.builtin_backend('a3')")
    command = ("from hallforge import cli\n"
               "try:\n    cli.main(['--backend', 'a3', 'mul', '[S1]', '[S2]'])\n"
               "except SystemExit as e:\n    assert e.code == 0, e.code")
    for code in (library, command):
        r = subprocess.run([sys.executable, "-S", "-c",
                            "import sys; sys.path.insert(0, sys.argv[1])\n" + code +
                            "\nprint(*(m for m in sys.argv[2:] if m in sys.modules))",
                            str(src), "click", "dataclasses", "inspect",
                            "importlib.resources"],
                           capture_output=True, text=True, timeout=60)
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines()[-1].split() == []


# hallforge modules that a CLI command loads only when it runs them: the
# Hall polynomials (counting), the F_q oracle's kernels (linalg), the
# verify suites (verify, pbw), and the comultiplication (coalgebra)
DEFERRED = {"counting", "linalg", "verify", "pbw", "coalgebra"}


@pytest.mark.parametrize("args,loads", [
    (("--backend", "a3", "mul", "[S1]", "[S2]"), set()),
    (("--backend", "a3", "bracket", "[S1]", "[S2]"), set()),
    (("--backend", "a3", "power", "[S1]", "2"), set()),
    (("--backend", "loop", "comul", "[J1+J1]"), {"coalgebra"}),
    (("--backend", "a3", "cache", "stats"), set()),
    (("--backend", "a3", "--dim", "4", "verify", "bialgebra"), {"coalgebra", "verify"}),
    # Hall polynomials come from Z[q]: no F_q kernel on the route
    (("--backend", "a3", "--dim", "4", "verify", "routes"),
     {"coalgebra", "counting", "verify"}),
], ids=["mul", "bracket", "power", "comul", "cache-stats", "verify-bialgebra",
        "verify-routes"])
def test_cli_command_loads_only_the_modules_it_runs(args, loads):
    # a process per command: sys.modules keeps whatever an earlier one loaded
    src = Path(hallforge.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from hallforge import cli\n"
            "try:\n    cli.main(sys.argv[2:], prog_name='hallforge')\n"
            "except SystemExit as e:\n    assert not e.code, e.code\n"
            "print(*(m for m in sys.modules if m.startswith('hallforge.')))")
    r = subprocess.run([sys.executable, "-c", code, str(src), *args],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    loaded = {m.split(".", 1)[1] for m in r.stdout.splitlines()[-1].split()}
    assert loaded & DEFERRED == loads


def test_counting_bounds_are_the_quiver_bounds():
    assert counting.Bounds is quiver.Bounds
    assert counting.DEFAULT_BOUNDS is quiver.DEFAULT_BOUNDS
    assert hall.HallEngine(A2).bounds is quiver.DEFAULT_BOUNDS
