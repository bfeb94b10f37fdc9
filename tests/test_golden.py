"""Public results are unchanged: each computation of `golden.py` must match
the SHA-256 digest checked in to `golden_digests.txt`, computed before the
internals below them last changed."""

from fractions import Fraction

import golden
from verlkit.cyclo import zeta


def test_public_results_match_the_golden_digests(su2):
    want = golden.read_table()
    got = golden.digests(su2)
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []


def test_canonical_form_ignores_dict_and_set_order():
    items = [((1, 0), zeta(8, 3)), ((0, 1), Fraction(1, 2)), ((0, 0), 2 * zeta(4))]
    assert golden.canon(dict(items)) == golden.canon(dict(reversed(items)))
    assert golden.canon(frozenset(items)) == golden.canon(set(reversed(items)))
    # equal values at different orders have one form
    assert golden.canon(zeta(8, 2)) == golden.canon(zeta(4)) == "cyc(4,[0,1],1)"
