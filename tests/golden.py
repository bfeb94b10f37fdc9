"""SHA-256 digests of public results, one per named computation.

Each computation's result is written in a canonical text form: cyclotomic
numbers as (order, numerator, denominator) of their normalized value,
integer matrices as (rows, cols, data), dicts and sets as their items
sorted by that text, and a computation that raises as its exception type
and message.  So a digest depends on the values alone, not on
PYTHONHASHSEED or on dict and set order.  `tests/test_golden.py` checks
the digests of `golden_digests.txt` and never rewrites them.  Run

    PYTHONPATH=src python tests/golden.py

to print the current digests in the same `name digest` lines; a change
that alters a result on purpose replaces the table with that output and
says so in CHANGES.md.
"""

import hashlib
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

from verlkit.cyclo import CycNumber
from verlkit.exactla import FGAbelianGroup, IntMatrix
from verlkit.fusion import double_abelian, level1_data, su2_modular_data, verlinde_matrices
from verlkit.modinv import (
    ade_graph, alpha_induction_abelian, enumerate_invariants, nimrep_from_graph,
    overgroups_of_diagonal,
)
from verlkit.polyring import LaurentPoly, e6_tor
from verlkit.repring import (
    NotASubgroup, VirtualRep, character_table, embedding, graded_fold, gradings, induce,
    irrep_vr, mckay_graph, quaternion_group,
)

TABLE = Path(__file__).with_name("golden_digests.txt")

LEVELS = range(1, 17)
DOUBLES = [1, 2, 3, 4, 6, (2, 2), (2, 3), (2, 4), (3, 3)]
OVERGROUPS = [2, 4, 6, (2, 2), (2, 4), (3, 3)]
GROUPS = ["A3", "A5", "D4", "D5", "BD6", "E6", "E7"]
GRADED = [
    "A1", "A3", "A5", "A7", "C3", "C5", "C8", "D4", "D5",
    "BD2", "BD3", "BD4", "BD5", "BD6", "BD8", "E6", "E7", "E8",
]
INDUCED = ["A1", "A3", "A5", "C3", "C5", "C8", "D4", "D5", "BD4", "BD6", "E6", "E7"]
INVARIANT_LEVELS = [*range(1, 17), 22]
NIMREP_GRAPHS = {10: ("A11", "D7", "E6"), 16: ("A17", "D10", "E7"), 28: ("A29", "D16", "E8")}
TOR_WINDOWS = [12, 24, 30]
CYC_SAMPLES = 400


def canon(x) -> str:
    """The canonical text form of a public result."""
    if isinstance(x, CycNumber):
        x = x.normalized()
        return "cyc(%d,%s,%d)" % (x.order, canon(x.num), x.den)
    if isinstance(x, IntMatrix):
        return "mat(%d,%d,%s)" % (x.rows, x.cols, canon(x.data))
    if isinstance(x, VirtualRep):
        return "rep(%s,%s)" % (x.group.name, canon(x.coeffs))
    if isinstance(x, LaurentPoly):
        return "poly(%s,%s)" % (canon(x.names), canon(x.terms))
    if isinstance(x, FGAbelianGroup):
        return "ab(%d,%s,%s)" % (x.free_rank, canon(x.torsion), canon(x.generators))
    if isinstance(x, BaseException):
        return "raise(%s,%s)" % (type(x).__name__, canon(str(x)))
    if x is None or isinstance(x, (int, Fraction, str)):
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


def _outcome(compute, *args):
    """compute(*args), or the exception it raises."""
    try:
        return compute(*args)
    except Exception as err:
        return err


def _folds(name):
    G = quaternion_group(name)
    gs = gradings(G)
    graded = [[sorted(gr.kernel), gr.values, gr.psi_label] for gr in gs]
    return graded, [_outcome(graded_fold, G, gr) for gr in gs] or [_outcome(graded_fold, G)]


def _inductions():
    out = []
    for sub, sup in product(INDUCED, repeat=2):
        try:
            emb = embedding(sub, sup)
        except NotASubgroup:
            continue
        labels = character_table(emb.sub).labels
        out += [[sub, sup, induce(irrep_vr(emb.sub, lab), emb)] for lab in labels]
    return out


def _cyc_samples():
    rng = random.Random(2008)
    out = []
    for _ in range(CYC_SAMPLES):
        order = rng.randint(1, 60)
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < 0.4 else 0
                  for _ in range(rng.randint(1, order))]
        x = CycNumber(order, coeffs, rng.randint(1, 5))
        out.append([x.render(), repr(x)])
    return out


def su2_data() -> dict:
    """{k: (SU(2)_k modular data, Verlinde ring)} for the covered levels."""
    out = {}
    for k in LEVELS:
        md = su2_modular_data(k)
        out[k] = (md, verlinde_matrices(md))
    return out


def results(su2=None):
    """(name, public result) for every computation the table covers;
    `su2` is `su2_data()` when it is already built."""
    su2 = su2 or su2_data()
    for k in LEVELS:
        md, ring = su2[k]
        yield "su2_modular_data/%d" % k, _modular(md)
        yield "verlinde_matrices/%d" % k, _ring(ring)
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
    for name in GRADED:
        graded, folds = _folds(name)
        yield "gradings/%s" % name, graded
        yield "graded_fold/%s" % name, folds
    yield "induce/canonical_embeddings", _inductions()
    for k in INVARIANT_LEVELS:
        yield "enumerate_invariants/%d" % k, [z.matrix for z in enumerate_invariants(k)]
    for k, graphs in NIMREP_GRAPHS.items():
        for graph in graphs:
            nim = nimrep_from_graph(ade_graph(graph)[0], k)
            yield "nimrep_from_graph/%s@%d" % (graph, k), [nim.exponents, nim.report, nim.matrices]
    for w in TOR_WINDOWS:
        yield "e6_tor/%d" % w, e6_tor(w)
    yield "cyc_render/%d" % CYC_SAMPLES, _cyc_samples()


def digests(su2=None) -> dict:
    return {name: hashlib.sha256(canon(x).encode()).hexdigest() for name, x in results(su2)}


def read_table() -> dict:
    return dict(line.split() for line in TABLE.read_text().splitlines() if line.strip())


if __name__ == "__main__":
    for name, digest in digests().items():
        print(name, digest)
