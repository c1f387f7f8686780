"""Command line surface: hallforge <cmd> --backend <file> ...

Operands are iso classes in bracket syntax ("[S1+S1+P12]", "[J2]", "[0]")
or, on the P^1 backend, family names declared in the backend file.  All
numeric output is exact; identical command and cache state produce
byte-identical stdout.
"""

import json

import click

from . import algebra as alg
from . import hall, quiver
from .errors import HallforgeError, ResourceLimitError


class Session:
    def __init__(self, backend_arg, dim, q_max, gamma, cache_path, as_json):
        self.backend, self.raw = quiver.load_backend(backend_arg)
        if dim < 1 or q_max < 2 or gamma < 1:
            raise click.UsageError("bounds must be positive")
        self.bounds = quiver.Bounds(max_dim=dim, max_q=q_max)
        self.gamma = gamma
        self.cache_path = cache_path
        cache = hall.HallCache(self.backend, cache_path, rebuild_stale=True)
        if cache.rebuilt:
            click.echo(json.dumps({"warning": "cache-rebuilt",
                                   "message": "cache version mismatch; "
                                   "starting a fresh cache"}), err=True)
        self.engine = hall.HallEngine(self.backend, self.bounds, cache)
        self.as_json = as_json
        self.families = {}
        if "families" in self.raw:
            if self.backend.kind != quiver.KIND_P1:
                raise ValueError("'families' are declared on p1-torsion backends "
                                 f"only, not on {self.backend.kind}")
            from . import p1
            self.families = p1.families_from_json(self.raw["families"])

    def parse_operand(self, text):
        t = text.strip()
        if t.startswith("["):
            cls = quiver.parse_class(self.backend, t)
            return alg.class_char(self.backend, cls)
        if t in self.families:
            fam = self.families[t]
            return alg.char_fn(self.backend,
                               [alg.make_stratum(self.backend, [(fam, 1)])])
        raise click.UsageError(f"unknown operand {text!r}: not a bracketed "
                               "class and not a declared family name")

    def parse_set(self, text):
        t = text.strip()
        if t.startswith("["):
            return alg.singleton_set(self.backend, quiver.parse_class(self.backend, t))
        if t in self.families:
            return alg.ConstructibleSet(
                (alg.make_stratum(self.backend, [(self.families[t], 1)]),))
        raise click.UsageError(f"unknown set operand {text!r}")

    def finish(self):
        if self.cache_path and self.engine.cache.dirty:
            self.engine.cache.dump()


def _session(ctx):
    p = ctx.obj
    return Session(p["backend"], p["dim"], p["q_max"], p["gamma"],
                   p["cache"], p["json"])


def _echo_json(obj):
    click.echo(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _emit_element(session, element):
    if session.as_json:
        click.echo(alg.canonical_json(session.backend, element))
    else:
        click.echo(alg.element_to_text(session.backend, element))


def _tensor_json(backend, t):
    return {"backend": backend.name,
            "terms": [{"coeff": str(v),
                       "left": alg.set_to_json(backend, l),
                       "right": alg.set_to_json(backend, r)}
                      for (l, r), v in t.terms]}


def _run(ctx, fn):
    try:
        session = _session(ctx)
        code = fn(session)
        session.finish()
    except ResourceLimitError as e:
        click.echo(json.dumps({"error": "resource-limit", "message": str(e),
                               "limit": e.limit, "requested": e.requested}),
                   err=True)
        raise SystemExit(3)
    except HallforgeError as e:
        click.echo(json.dumps({"error": type(e).__name__, "message": str(e)}),
                   err=True)
        raise SystemExit(1)
    except ValueError as e:
        raise click.UsageError(str(e))
    raise SystemExit(code or 0)


@click.group()
@click.option("--backend", required=True,
              help="backend JSON file, or a builtin name (a2, a3, loop, p1)")
@click.option("--dim", default=6, show_default=True,
              help="maximum total dimension of a target class")
@click.option("--q-max", default=13, show_default=True,
              help="largest field size the F_q route (Hall polynomials, "
                   "verify routes) samples")
@click.option("--gamma", default=2, show_default=True,
              help="summand-count bound for suites that take one")
@click.option("--cache", default=None, type=click.Path(),
              help="persistent cache file of Hall polynomials")
@click.option("--json", "as_json", is_flag=True, help="JSON output")
@click.pass_context
def main(ctx, backend, dim, q_max, gamma, cache, as_json):
    """Exact degenerate Hall-algebra computations on quiver categories."""
    ctx.obj = {"backend": backend, "dim": dim, "q_max": q_max,
               "gamma": gamma, "cache": cache, "json": as_json}


@main.command()
@click.pass_context
def indecomposables(ctx):
    """List the indecomposable labels within the dimension bound."""
    def go(session):
        b = session.backend
        if b.kind == quiver.KIND_P1:
            if not session.families:
                click.echo(json.dumps({"error": "capability",
                                       "message": "declare families in the "
                                       "backend file to list them"}), err=True)
                return 1
            if session.as_json:
                _echo_json({"families": {n: alg.family_to_json(b, f)
                                         for n, f in sorted(session.families.items())}})
            else:
                for n, f in sorted(session.families.items()):
                    base = ("P1" if f.base.cofinite and not f.base.points else
                            ("P1 minus " if f.base.cofinite else "") +
                            "{" + ",".join(sorted(f.base.points)) + "}")
                    click.echo(f"{n}: degree {f.degree} torsion over {base}")
            return 0
        labels = quiver.indec_labels(b, session.bounds.max_dim)
        if session.as_json:
            _echo_json({"labels": [quiver.label_name(b, l) for l in labels]})
        else:
            for l in labels:
                dv = quiver.label_dim(b, l)
                click.echo(f"{quiver.label_name(b, l)}  dim {list(dv)}")
        return 0
    _run(ctx, go)


@main.command()
@click.argument("left")
@click.argument("right")
@click.pass_context
def mul(ctx, left, right):
    """Convolution product of two elements."""
    def go(session):
        f = session.parse_operand(left)
        g = session.parse_operand(right)
        _emit_element(session, alg.convolve(session.engine, f, g))
        return 0
    _run(ctx, go)


@main.command()
@click.argument("left")
@click.argument("right")
@click.pass_context
def bracket(ctx, left, right):
    """Lie bracket f*g - g*f."""
    def go(session):
        f = session.parse_operand(left)
        g = session.parse_operand(right)
        _emit_element(session, alg.lie_bracket(session.engine, f, g))
        return 0
    _run(ctx, go)


@main.command()
@click.argument("operand")
@click.argument("exponent", type=int)
@click.pass_context
def power(ctx, operand, exponent):
    """Convolution power of an indecomposable family's characteristic
    function, with the factorial leading term asserted."""
    def go(session):
        cset = session.parse_set(operand)
        result = alg.convolution_power(session.engine, cset, exponent)
        _emit_element(session, result)
        return 0
    _run(ctx, go)


@main.command()
@click.argument("operand")
@click.pass_context
def comul(ctx, operand):
    """Splitting comultiplication of an element."""
    def go(session):
        from . import coalgebra as co
        b, f = session.backend, session.parse_operand(operand)
        for k in f.values:  # Delta(1_[Y]) has 2^summands terms; a line bundle counts 1
            session.bounds.check_dim(quiver.class_total_dim(b, k) if b.kind != quiver.KIND_P1
                                     else sum((fam.degree or 1) * m for fam, m in k))
        t = co.comultiply(b, f)
        if session.as_json:
            _echo_json(_tensor_json(b, t))
        else:
            for (l, r), v in t.terms:
                click.echo(f"({v}) * 1_{{{alg._stratum_text(b, l.strata[0])}}}"
                           f" (x) 1_{{{alg._stratum_text(b, r.strata[0])}}}")
        return 0
    _run(ctx, go)


@main.command(name="verify")
@click.argument("suite", type=click.Choice((  # verify.SUITES, before it loads
    "assoc", "lie-closure", "riedtmann", "pbw", "green", "bialgebra", "euler-axioms", "routes")))
@click.pass_context
def verify_cmd(ctx, suite):
    """Run a named invariant suite; exit 0 only if every check passes."""
    def go(session):
        from . import verify
        res = verify.run_suite(suite, session.engine,
                               dim=session.bounds.max_dim,
                               gamma=session.gamma)
        if session.as_json:
            _echo_json(res.to_json())
        else:
            for c in res.checks:
                mark = "ok" if c["passed"] else "FAIL"
                click.echo(f"[{mark}] {c['name']}")
            click.echo(f"suite {suite}: {'pass' if res.passed else 'FAIL'}")
        click.echo(f"elapsed: {res.elapsed:.2f}s", err=True)
        return 0 if res.passed else 1
    _run(ctx, go)


@main.group()
def cache():
    """Inspect or move the persistent cache of Hall polynomials."""


@cache.command()
@click.pass_context
def stats(ctx):
    def go(session):
        _echo_json(session.engine.cache.stats())
        return 0
    _run(ctx, go)


@cache.command()
@click.argument("dest", type=click.Path())
@click.pass_context
def export(ctx, dest):
    def go(session):
        session.engine.cache.dump(dest)
        _echo_json({"exported": session.engine.cache.stats()})
        return 0
    _run(ctx, go)


@cache.command(name="import")
@click.argument("src", type=click.Path(exists=True))
@click.pass_context
def import_(ctx, src):
    def go(session):
        try:
            session.engine.cache.load(src, merge=True)
        except ValueError as e:  # another version (a collision: CacheCollisionError)
            click.echo(json.dumps({"error": "cache-version",
                                   "message": str(e)}), err=True)
            return 1
        session.engine.cache.dirty = True
        _echo_json({"imported": session.engine.cache.stats()})
        return 0
    _run(ctx, go)


@cache.command()
@click.pass_context
def clear(ctx):
    def go(session):
        session.engine.cache.clear()
        _echo_json({"cleared": True})
        return 0
    _run(ctx, go)


if __name__ == "__main__":
    main()
