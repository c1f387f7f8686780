"""Reference values that the code under test cannot change.

* Loop products: at q = 1 the Hall-Littlewood function P_lambda(x; 1) is
  the monomial symmetric function m_lambda (Macdonald, Symmetric
  Functions and Hall Polynomials, ch. III), so the value of
  1_[mu] * 1_[nu] at [lambda] is the coefficient of m_lambda in
  m_mu * m_nu.  It is computed here from the monomials directly.
* Type-A products: a table committed beside this file, written by
  make_references.py with each backend computed in its own fresh process.

Results of the program are compared through its canonical JSON
serialization, which is parsed here into {class key: coefficient}.
"""

import json
from collections import Counter
from fractions import Fraction
from itertools import permutations
from pathlib import Path

from operands import partitions

DATA = Path(__file__).resolve().parent / "data"
TYPE_A_TABLE = DATA / "type_a_reference.json"


def _arrangements(parts, length):
    """Distinct orderings of `parts` padded with zeros to `length`."""
    if len(parts) > length:
        return set()
    return set(permutations(tuple(parts) + (0,) * (length - len(parts))))


def monomial_coefficient(mu, nu, lam):
    """Coefficient of m_lam in m_mu * m_nu: the number of pairs of
    exponent vectors (a, b), a a rearrangement of mu and b of nu, with
    a + b = lam read as an exponent vector."""
    n = len(lam)
    want = Counter(p for p in nu if p)
    count = 0
    for a in _arrangements([p for p in mu if p], n):
        rest = [l - x for l, x in zip(lam, a)]
        if min(rest, default=0) >= 0 and Counter(p for p in rest if p) == want:
            count += 1
    return count


def loop_key(parts):
    return class_key(f"J{p}" for p in parts)


def loop_product(mu, nu):
    """{class key: coefficient} of 1_[mu] * 1_[nu] on the loop backend."""
    out = {}
    for lam in partitions(sum(mu) + sum(nu)):
        c = monomial_coefficient(mu, nu, lam)
        if c:
            out[loop_key(lam)] = Fraction(c)
    return out


def class_key(label_names):
    """Order-free key of a class given by its label names."""
    return "+".join(sorted(label_names))


def element_values(canonical_json):
    """{class key: coefficient} of an element whose strata are single
    classes (families of one label each), read from its canonical JSON."""
    data = json.loads(canonical_json)
    out = {}
    for term in data["terms"]:
        coeff = Fraction(term["coeff"])
        for stratum in term["set"]["strata"]:
            names = []
            for family, mult in stratum:
                labels = family.get("labels")
                if labels is None or len(labels) != 1:
                    raise ValueError(f"stratum is not a single class: {stratum}")
                names.extend(labels * mult)
            key = class_key(names)
            out[key] = out.get(key, Fraction(0)) + coeff
    return {k: v for k, v in out.items() if v}


def load_type_a_table():
    """{backend name: {"x*z": {class key: coefficient}}}, plus the
    reversed-a3 cells as {"reversed-a3-P13": {"[P13]": {"x|z": value}}}."""
    raw = json.loads(TYPE_A_TABLE.read_text())
    return {section: {op: {k: Fraction(v) for k, v in vals.items()}
                      for op, vals in entries.items()}
            for section, entries in raw.items()}
