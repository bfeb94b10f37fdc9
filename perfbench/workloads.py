"""The paper-replay workloads: items, oracles, digests, routing.

An item is a (key, thunk) pair.  The thunk makes library calls only and
looks every function up through its module at call time, so wrappers the
traced pass installs are seen.  Oracles and digests run after the clock
stops, never inside the timed span.
"""

from __future__ import annotations

import hashlib
import random


class Workload:
    """One named set of items plus the independent checks on their results."""

    name = ""
    why = ""
    # layer -> True (must be called) / False (must not be called), traced pass
    routing: dict = {}

    def keys(self):
        raise NotImplementedError

    def thunk(self, vk, key):
        raise NotImplementedError

    def check(self, vk, key, result) -> bool:
        raise NotImplementedError

    def canon(self, key, result) -> str:
        """A canonical text form of one result, for the run digest."""
        raise NotImplementedError

    def items(self, vk, seed: int):
        """All items in an order fixed by `seed`; the set never depends on it."""
        keys = list(self.keys())
        random.Random(seed).shuffle(keys)
        return [(key, self.thunk(vk, key)) for key in keys]

    def digest(self, results) -> str:
        """sha256 over the sorted canonical results; independent of item order."""
        h = hashlib.sha256()
        for key in sorted(results, key=repr):
            h.update(("%r=%s\n" % (key, self.canon(key, results[key]))).encode())
        return h.hexdigest()


class E6TorWindows(Workload):
    name = "e6_tor_windows"
    why = "exactla Smith forms with entry growth on banded shift matrices; no cyclo"
    routing = {"cyclo": False, "exactla": True, "polyring": True}

    def keys(self):
        return (24, 30, 36, 42)

    def thunk(self, vk, w):
        return lambda: vk.polyring.e6_tor(w)

    def check(self, vk, w, result):
        h0, h1, cert = result
        if (h0.free_rank, h0.torsion, h1.free_rank, h1.torsion) != (2, (), 2, ()):
            return False
        if cert["sigma_squared_is_two"] is not True:
            return False
        lp = vk.polyring.LaurentPoly
        s = lp.var("s")
        a = s**4 - 3 * s**2 + 1
        b = s**3 * (s**2 - 3)
        u, v = cert["coprime_witness"]
        return u * a + v * b == lp.const(1, ("s",))

    def canon(self, w, result):
        h0, h1, cert = result
        u, v = cert["coprime_witness"]
        return repr((
            h0.free_rank, h0.torsion, h1.free_rank, h1.torsion,
            cert["sigma_squared_is_two"], sorted(u.terms.items()), sorted(v.terms.items()),
        ))


# Cappelli-Itzykson-Zuber: the A-D-E graphs with Coxeter number k + 2
_CIZ_GRAPHS = {
    10: ("A11", "D7", "E6"),
    16: ("A17", "D10", "E7"),
}
_MCKAY = {"A3": "A3", "A5": "A5", "D4": "D4", "D5": "D5", "BD6": "D8", "E6": "E6", "E7": "E7"}
_FOLDS = {"A3": "A1", "A5": "A2", "D5": "A5", "E7": "E6"}


class AdeTables(Workload):
    name = "ade_tables"
    why = "invariant enumeration (cyclo mul, kernel_basis), nimreps, character tables, McKay graphs and folds"
    routing = {"cyclo": True, "exactla": True, "fusion": True, "repring": True, "modinv": True}

    def keys(self):
        keys = [("enumerate", k) for k in _CIZ_GRAPHS]
        keys += [("nimrep", g, k) for k, gs in _CIZ_GRAPHS.items() for g in gs]
        keys += [("mckay", g) for g in _MCKAY]
        keys += [("fold", g) for g in _FOLDS]
        keys.append(("gradings", "E8"))
        return keys

    def thunk(self, vk, key):
        kind = key[0]
        m, r = vk.modinv, vk.repring
        if kind == "enumerate":
            return lambda: m.enumerate_invariants(key[1])
        if kind == "nimrep":
            return lambda: m.nimrep_from_graph(m.ade_graph(key[1])[0], key[2])
        if kind == "mckay":
            def mckay():
                G = r.quaternion_group(key[1])
                r.character_table(G)
                return r.recognize_affine_ade(r.mckay_graph(G)[0])
            return mckay
        if kind == "fold":
            return lambda: r.graded_fold(r.quaternion_group(key[1]))
        return lambda: r.gradings(r.quaternion_group(key[1]))

    def check(self, vk, key, result):
        kind = key[0]
        if kind == "enumerate":
            return len(result) == len(_CIZ_GRAPHS[key[1]])
        if kind == "nimrep":
            size = int(key[1][1:])
            return all(v is True for v in result.report.values()) and len(result.exponents) == size
        if kind == "mckay":
            return result == _MCKAY[key[1]]
        if kind == "fold":
            return result["folded_graph"] == _FOLDS[key[1]]
        return list(result) == []

    def canon(self, key, result):
        kind = key[0]
        if kind == "enumerate":
            return repr(sorted(z.matrix for z in result))
        if kind == "nimrep":
            return repr((result.exponents, sorted(result.report.items())))
        if kind == "fold":
            return repr((result["folded_graph"], sorted(result["types"].items())))
        return repr(result)


WORKLOADS = {w.name: w for w in (E6TorWindows(), AdeTables())}
