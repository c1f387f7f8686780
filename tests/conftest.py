import contextlib
import io
from types import SimpleNamespace

import pytest

from hallforge import cli, counting, hall
from hallforge.quiver import builtin_backend

import conftest_acceptance


def run_cli(*args):
    """Run one hallforge command in this process and return its exit_code,
    stdout and stderr.  An exception other than SystemExit propagates, so
    a traceback fails the calling test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args), standalone_mode=False)
    return SimpleNamespace(exit_code=code, stdout=out.getvalue(), stderr=err.getvalue())


def pytest_terminal_summary(terminalreporter):
    if conftest_acceptance.LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(conftest_acceptance.LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def a2():
    return builtin_backend("a2")


@pytest.fixture(scope="session")
def a3():
    return builtin_backend("a3")


@pytest.fixture(scope="session")
def loop():
    return builtin_backend("loop")


@pytest.fixture(scope="session")
def p1b():
    return builtin_backend("p1")


@pytest.fixture(scope="session")
def a2_engine(a2):
    return hall.HallEngine(a2)


@pytest.fixture(scope="session")
def a3_engine(a3):
    return hall.HallEngine(a3)


@pytest.fixture(scope="session")
def loop_engine(loop):
    return hall.HallEngine(loop)


@pytest.fixture(scope="session")
def loop_engine9(loop, loop_engine):
    # deep window for the PBW certificate; shares the polynomial cache
    return hall.HallEngine(loop, counting.Bounds(max_dim=9, max_q=13),
                           cache=loop_engine.cache)


@pytest.fixture(scope="session")
def p1_engine(p1b):
    return hall.HallEngine(p1b)
