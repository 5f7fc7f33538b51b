"""Integer fusion rings: Verlinde computation and tensor-power decompositions.

An object multiset is a plain dict {simple index: multiplicity >= 0},
representing a semisimple object as a sum of simples.
"""

from __future__ import annotations

import dataclasses
from operator import mul

from . import cyclo
from .modular_data import ModularData

__all__ = [
    "FusionRing",
    "ModularityError",
    "verlinde",
    "power_decompose",
    "hom_dim",
    "fuse",
]

ObjectMultiset = dict[int, int]


class ModularityError(ArithmeticError):
    """A Verlinde entry failed to be a non-negative integer: the input is not modular."""


@dataclasses.dataclass(frozen=True)
class FusionRing:
    """Structure constants table[c][a][b] = N^c_{a,b} = dim Hom(a (x) b, c)."""

    rank: int
    unit: int
    dual: tuple[int, ...]
    table: tuple[tuple[tuple[int, ...], ...], ...]

    def n(self, c: int, a: int, b: int) -> int:
        return self.table[c][a][b]

    def check_invariants(self) -> None:
        """The unit, duality, dual-transpose and associativity laws.

        Raises ModularityError naming the first law that fails and the
        indices where it fails.
        """
        r = self.rank
        u = self.unit
        t = self.table
        dual = self.dual

        def fail(law: str, idx: tuple[int, ...]) -> None:
            raise ModularityError(f"fusion ring violates the {law} at {idx}")

        for a in range(r):
            for c in range(r):
                if not t[c][a][u] == t[c][u][a] == (1 if a == c else 0):
                    fail("unit law", (a, c))
            for b in range(r):
                if t[u][a][b] != (1 if b == dual[a] else 0):
                    fail("duality law", (a, b))
                for c in range(r):
                    if t[c][a][b] != t[dual[c]][dual[b]][dual[a]]:
                        fail("dual transpose law", (a, b, c))
        # both sides of associativity are dot products over the middle
        # simple e: N^e_{b,c} and N^d_{e,c} as vectors in e, built once
        over_e = [[tuple(t[e][b][c] for e in range(r)) for c in range(r)] for b in range(r)]
        into = [[tuple(t[d][e][c] for e in range(r)) for c in range(r)] for d in range(r)]
        for a in range(r):
            for b in range(r):
                ab = over_e[a][b]
                for c in range(r):
                    bc = over_e[b][c]
                    for d in range(r):
                        if sum(map(mul, t[d][a], bc)) != sum(map(mul, ab, into[d][c])):
                            fail("associativity law", (a, b, c, d))


def verlinde(md: ModularData) -> FusionRing:
    """Fusion rules from the S-matrix: N^a_{c,d} = sum_e S_ce S_de conj(S)_ae / S_1e.

    Every entry is computed exactly in the cyclotomic field and must
    recognize as a non-negative integer; anything else proves the input is
    not modular data and raises ModularityError naming the offending triple.
    """
    r = md.rank
    u = md.unit
    s = md.s
    ratio = [
        [(s[a][e].conjugate()) * cyclo.inverse(s[u][e]) for e in range(r)]
        for a in range(r)
    ]
    table = [[[0] * r for _ in range(r)] for _ in range(r)]
    for c in range(r):
        for d in range(c, r):
            prod = [s[c][e] * s[d][e] for e in range(r)]
            for a in range(r):
                val = cyclo.dot(prod, ratio[a])
                n = cyclo.as_integer(val)
                if n is None or n < 0:
                    raise ModularityError(
                        f"N^{md.labels[a]}_({md.labels[c]},{md.labels[d]}) = {val} "
                        "is not a non-negative integer"
                    )
                table[a][c][d] = n
                table[a][d][c] = n
    ring = FusionRing(
        rank=r,
        unit=u,
        dual=md.dual,
        table=tuple(tuple(tuple(row) for row in mat) for mat in table),
    )
    ring.check_invariants()
    return ring


def _as_multiset(a: int | ObjectMultiset) -> ObjectMultiset:
    if isinstance(a, dict):
        if any(m < 0 for m in a.values()):
            raise ValueError("multiset multiplicities must be non-negative")
        return a
    return {a: 1}


def fuse(fr: FusionRing, left: int | ObjectMultiset, right: int | ObjectMultiset) -> ObjectMultiset:
    """Decomposition of (left) (x) (right) into simples."""
    lm = _as_multiset(left)
    rm = _as_multiset(right)
    out: ObjectMultiset = {}
    for a, ma in lm.items():
        if not ma:
            continue
        for b, mb in rm.items():
            if not mb:
                continue
            for c in range(fr.rank):
                n = fr.table[c][a][b]
                if n:
                    out[c] = out.get(c, 0) + ma * mb * n
    return out


def power_decompose(fr: FusionRing, a: int | ObjectMultiset, n: int) -> ObjectMultiset:
    """Multiplicities of each simple in a^(tensor n); a^0 is the unit."""
    if n < 0:
        raise ValueError("tensor power must be non-negative")
    out: ObjectMultiset = {fr.unit: 1}
    for _ in range(n):
        out = fuse(fr, out, _as_multiset(a))
    return out


def hom_dim(fr: FusionRing, b: int, a: int | ObjectMultiset, n: int) -> int:
    """dim Hom(b, a^(tensor n)), the multiplicity of b in the power decomposition."""
    return power_decompose(fr, a, n).get(b, 0)
