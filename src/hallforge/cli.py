"""Command line surface: hallforge --backend <file> <cmd> ...

Operands are iso classes in bracket syntax ("[S1+S1+P12]", "[J2]", "[0]")
or, on the P^1 backend, family names declared in the backend file.  All
numeric output is exact; identical command and cache state produce
byte-identical stdout.
"""

import argparse
import json
import os
import sys

from . import algebra as alg
from . import hall, quiver
from .errors import HallforgeError, ResourceLimitError


class Session:
    def __init__(self, backend_arg, dim, gamma, cache_path, as_json):
        self.backend, self.raw = quiver.load_backend(backend_arg)
        if dim < 1 or gamma < 1:
            raise ValueError("bounds must be positive")
        self.bounds = quiver.Bounds(max_dim=dim)
        self.gamma = gamma
        self.cache_path = cache_path
        cache = hall.HallCache(self.backend, cache_path)
        if cache.rebuilt:
            print(json.dumps({"warning": "cache-rebuilt",
                              "message": "cache version mismatch; "
                              "starting a fresh cache"}), file=sys.stderr)
        self.engine = hall.HallEngine(self.backend, self.bounds, cache)
        self.as_json = as_json
        self.families = {}
        if "families" in self.raw:
            try:  # refusals name the backend file, as `quiver.backend_from_json`'s do
                if self.backend.kind != quiver.KIND_P1:
                    raise ValueError("'families' are declared on p1-torsion backends "
                                     f"only, not on {self.backend.kind}")
                from . import p1
                self.families = p1.families_from_json(self.raw["families"])
            except ValueError as e:
                raise ValueError(f"{backend_arg}: {e}") from e

    def parse_operand(self, text):
        return alg.char_fn(self.backend, self.parse_set(text))

    def parse_set(self, text):
        """The set of a bracketed class, {[x]}, or of a declared family name."""
        t = text.strip()
        if t.startswith("["):
            return alg.singleton_set(self.backend, quiver.parse_class(self.backend, t))
        if t in self.families:
            return alg.ConstructibleSet(
                (alg.make_stratum(self.backend, [(self.families[t], 1)]),))
        raise ValueError(f"unknown operand {text!r}: not a bracketed "
                         "class and not a declared family name")

    def finish(self):
        if self.cache_path and self.engine.cache.dirty:
            self.engine.cache.dump()


def _session(args):
    return Session(args.backend, args.dim, args.gamma, args.cache, args.json)


def _echo_json(obj):
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _emit_element(session, element):
    if session.as_json:
        print(alg.canonical_json(session.backend, element))
    else:
        print(alg.element_to_text(session.backend, element))


def _tensor_json(backend, t):
    return {"backend": backend.name,
            "terms": [{"coeff": str(v),
                       "left": alg.set_to_json(backend, l),
                       "right": alg.set_to_json(backend, r)}
                      for (l, r), v in t.terms]}


def _run(args):
    try:
        session = _session(args)
        code = args.run(session, args)
        session.finish()
    except ResourceLimitError as e:
        print(json.dumps({"error": "resource-limit", "message": str(e),
                          "limit": e.limit, "requested": e.requested}),
              file=sys.stderr)
        raise SystemExit(3)
    except HallforgeError as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}),
              file=sys.stderr)
        raise SystemExit(1)
    except ValueError as e:
        args.parser.error(str(e))
    except BrokenPipeError:  # the reader closed stdout early (`| head`)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(1)
    raise SystemExit(code or 0)


def indecomposables(session, args):
    """List the indecomposable labels within the dimension bound."""
    b = session.backend
    if b.kind == quiver.KIND_P1:
        if not session.families:
            print(json.dumps({"error": "capability",
                              "message": "declare families in the "
                              "backend file to list them"}), file=sys.stderr)
            return 1
        if session.as_json:
            _echo_json({"families": {n: alg.family_to_json(b, f)
                                     for n, f in sorted(session.families.items())}})
        else:
            for n, f in sorted(session.families.items()):
                base = ("P1" if f.base.cofinite and not f.base.points else
                        ("P1 minus " if f.base.cofinite else "") +
                        "{" + ",".join(sorted(f.base.points)) + "}")
                print(f"{n}: degree {f.degree} torsion over {base}")
        return 0
    labels = quiver.indec_labels(b, session.bounds.max_dim)
    if session.as_json:
        _echo_json({"labels": [quiver.label_name(b, l) for l in labels]})
    else:
        for l in labels:
            dv = quiver.label_dim(b, l)
            print(f"{quiver.label_name(b, l)}  dim {list(dv)}")
    return 0


def mul(session, args):
    """Convolution product of two elements."""
    f = session.parse_operand(args.left)
    g = session.parse_operand(args.right)
    _emit_element(session, alg.convolve(session.engine, f, g))


def bracket(session, args):
    """Lie bracket f*g - g*f."""
    f = session.parse_operand(args.left)
    g = session.parse_operand(args.right)
    _emit_element(session, alg.lie_bracket(session.engine, f, g))


def power(session, args):
    """Convolution power of an indecomposable family's characteristic
    function, with the factorial leading term asserted."""
    cset = session.parse_set(args.operand)
    _emit_element(session, alg.convolution_power(session.engine, cset, args.exponent))


def comul(session, args):
    """Splitting comultiplication of an element."""
    from . import coalgebra as co
    b, f = session.backend, session.parse_operand(args.operand)
    for k in f.values:  # Delta(1_[Y]) has 2^summands terms; a line bundle counts 1
        session.bounds.check_dim(quiver.class_total_dim(b, k) if b.kind != quiver.KIND_P1
                                 else sum((fam.degree or 1) * m for fam, m in k))
    t = co.comultiply(b, f)
    if session.as_json:
        _echo_json(_tensor_json(b, t))
    else:
        for (l, r), v in t.terms:
            print(f"({v}) * 1_{{{alg._stratum_text(b, l.strata[0])}}}"
                  f" (x) 1_{{{alg._stratum_text(b, r.strata[0])}}}")


# verify.SUITES, named before verify loads
SUITES = ("assoc", "lie-closure", "riedtmann", "pbw", "green", "bialgebra",
          "euler-axioms", "routes")


def verify_cmd(session, args):
    """Run a named invariant suite; exit 0 only if every check passes."""
    from . import verify
    res = verify.run_suite(args.suite, session.engine,
                           dim=session.bounds.max_dim,
                           gamma=session.gamma)
    if session.as_json:
        _echo_json(res.to_json())
    else:
        for c in res.checks:
            mark = "ok" if c["passed"] else "FAIL"
            print(f"[{mark}] {c['name']}")
        print(f"suite {args.suite}: {'pass' if res.passed else 'FAIL'}")
    print(f"elapsed: {res.elapsed:.2f}s", file=sys.stderr)
    return 0 if res.passed else 1


def stats(session, args):
    """Print the entry count and largest polynomial degree of the cache."""
    _echo_json(session.engine.cache.stats())


def export(session, args):
    """Write the cache to a file."""
    session.engine.cache.dump(args.dest)
    _echo_json({"exported": session.engine.cache.stats()})


def import_(session, args):
    """Merge a cache file into the cache."""
    try:
        session.engine.cache.load(args.src, merge=True)
    except ValueError as e:  # another version (a collision: CacheCollisionError)
        print(json.dumps({"error": "cache-version",
                          "message": str(e)}), file=sys.stderr)
        return 1
    session.engine.cache.dirty = True
    _echo_json({"imported": session.engine.cache.stats()})


def clear(session, args):
    """Empty the cache."""
    session.engine.cache.clear()
    _echo_json({"cleared": True})


def _existing_path(path):
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"path {path!r} does not exist")
    return path


def _parser(prog):
    parser = argparse.ArgumentParser(prog=prog, description=main.__doc__,
                                     allow_abbrev=False)
    parser.add_argument("--backend", required=True,
                        help="backend JSON file, or a builtin name (a2, a3, loop, p1)")
    parser.add_argument("--dim", type=int, default=6,
                        help="maximum total dimension of a target class "
                        "(default: %(default)s)")
    parser.add_argument("--gamma", type=int, default=2,
                        help="summand-count bound for suites that take one "
                        "(default: %(default)s)")
    parser.add_argument("--cache", help="persistent cache file of Hall polynomials")
    parser.add_argument("--json", action="store_true", help="JSON output")

    def command(group, fn, *positionals, name=None):
        sub = group.add_parser(name or fn.__name__, help=fn.__doc__,
                               description=fn.__doc__, allow_abbrev=False)
        for arg in positionals:
            sub.add_argument(arg)
        sub.set_defaults(run=fn, parser=sub)
        return sub

    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    command(commands, indecomposables)
    command(commands, mul, "left", "right")
    command(commands, bracket, "left", "right")
    command(commands, power, "operand").add_argument("exponent", type=int)
    command(commands, comul, "operand")
    command(commands, verify_cmd, name="verify").add_argument(
        "suite", choices=SUITES, metavar="SUITE", help="one of %(choices)s")
    cache = commands.add_parser(
        "cache", allow_abbrev=False,
        help="Inspect or move the persistent cache of Hall polynomials.")
    actions = cache.add_subparsers(dest="action", metavar="ACTION", required=True)
    command(actions, stats)
    command(actions, export, "dest")
    command(actions, import_, name="import").add_argument("src", type=_existing_path)
    command(actions, clear)
    return parser


def main(argv=None, prog_name="hallforge", standalone_mode=True):
    """Exact degenerate Hall-algebra computations on quiver categories."""
    try:
        _run(_parser(prog_name).parse_args(argv))
    except SystemExit as e:
        if standalone_mode:
            raise
        return e.code


if __name__ == "__main__":
    main()
