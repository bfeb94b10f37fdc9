"""SHA-256 digests of public results, one per named computation.

Each computation's result is written in a canonical text form: cyclotomic
numbers as (order, numerator, denominator) of their normalized value,
integer matrices as (rows, cols, data), dicts and sets as their items
sorted by that text.  So a digest depends on the values alone, not on
PYTHONHASHSEED or on dict and set order.  `tests/test_golden.py` checks
the digests of `golden_digests.txt` and never rewrites them.  Run

    PYTHONPATH=src python tests/golden.py

to print the current digests in the same `name digest` lines; a change
that alters a result on purpose replaces the table with that output and
says so in CHANGES.md.
"""

import hashlib
from fractions import Fraction
from pathlib import Path

from verlkit.cyclo import CycNumber
from verlkit.exactla import IntMatrix
from verlkit.fusion import double_abelian, level1_data, su2_modular_data, verlinde_matrices
from verlkit.modinv import alpha_induction_abelian, overgroups_of_diagonal
from verlkit.repring import character_table, mckay_graph, quaternion_group

TABLE = Path(__file__).with_name("golden_digests.txt")

LEVELS = range(1, 17)
DOUBLES = [1, 2, 3, 4, 6, (2, 2), (2, 3), (2, 4), (3, 3)]
OVERGROUPS = [2, 4, 6, (2, 2), (2, 4), (3, 3)]
GROUPS = ["A3", "A5", "D4", "D5", "BD6", "E6", "E7"]


def canon(x) -> str:
    """The canonical text form of a public result."""
    if isinstance(x, CycNumber):
        x = x.normalized()
        return "cyc(%d,%s,%d)" % (x.order, canon(x.num), x.den)
    if isinstance(x, IntMatrix):
        return "mat(%d,%d,%s)" % (x.rows, x.cols, canon(x.data))
    if isinstance(x, (int, Fraction, str)):
        return repr(x)
    if isinstance(x, (tuple, list)):
        return "[%s]" % ",".join(map(canon, x))
    if isinstance(x, dict):
        return "{%s}" % ",".join(sorted("%s:%s" % (canon(k), canon(v)) for k, v in x.items()))
    if isinstance(x, (set, frozenset)):
        return "set(%s)" % ",".join(sorted(map(canon, x)))
    raise TypeError("no canonical form for %r" % type(x).__name__)


def _modular(md):
    return [md.labels, md.S, md.T, md.charge_conjugation]


def _ring(ring):
    m = len(ring.labels)
    return [ring.labels, ring.unit, [[ring.product(a, b) for b in range(m)] for a in range(m)]]


def _name(G) -> str:
    return str(G).replace(" ", "")


def results():
    """(name, public result) for every computation the table covers."""
    for k in LEVELS:
        md = su2_modular_data(k)
        yield "su2_modular_data/%d" % k, _modular(md)
        yield "verlinde_matrices/%d" % k, _ring(verlinde_matrices(md))
    for name in ("SU3", "Sp4"):
        md, ring = level1_data(name)
        yield "level1_data/%s" % name, [_modular(md), _ring(ring)]
    for G in DOUBLES:
        md, ring = double_abelian(G)
        yield "double_abelian/%s" % _name(G), [_modular(md), _ring(ring)]
    for G in OVERGROUPS:
        overgroups = overgroups_of_diagonal(G)
        yield "overgroups_of_diagonal/%s" % _name(G), overgroups
        inductions = [alpha_induction_abelian(G, H) for H in overgroups]
        yield "alpha_induction_abelian/%s" % _name(G), inductions
    for name in GROUPS:
        G = quaternion_group(name)
        ct = character_table(G)
        yield "character_table/%s" % name, [ct.labels, ct.dims, ct.classes, ct.chars]
        yield "mckay_graph/%s" % name, mckay_graph(G)


def digests() -> dict:
    return {name: hashlib.sha256(canon(x).encode()).hexdigest() for name, x in results()}


def read_table() -> dict:
    return dict(line.split() for line in TABLE.read_text().splitlines() if line.strip())


if __name__ == "__main__":
    for name, digest in digests().items():
        print(name, digest)
