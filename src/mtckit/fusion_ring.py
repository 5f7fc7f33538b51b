"""Integer fusion rings: Verlinde computation and tensor-power decompositions.

An object multiset is a plain dict {simple index: multiplicity >= 0},
representing a semisimple object as a sum of simples. Verlinde's formula
runs on S lifted to one order as packed cells (cyclo.Packing), and the
associativity check on rows of structure constants packed into ints.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from operator import mul

from . import cyclo
from ._poly import poly_fold, poly_pack, poly_unpack, slot_width
from .modular_data import ModularData, _lift

__all__ = [
    "FusionRing",
    "ModularityError",
    "verlinde",
    "power_decompose",
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

    @functools.cached_property
    def _powers(self) -> dict[tuple[int, int], ObjectMultiset]:
        # a^n for a simple a, per (a, n), kept by power_decompose, which hands out copies
        return {}

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
        # associativity packed over d: [x (x) e] holds N^d_{x,e} for every d
        # in one int, so each side at (a, b, c) is one dot product over e
        m = max((abs(n) for mat in t for row in mat for n in row), default=0)
        w = slot_width(r, m, m)

        def over_d(x, y):
            return poly_pack([t[d][x][y] for d in range(r)], w)

        left = [[over_d(a, e) for e in range(r)] for a in range(r)]
        right = [[over_d(e, c) for e in range(r)] for c in range(r)]
        over_e = [[tuple(t[e][b][c] for e in range(r)) for c in range(r)] for b in range(r)]
        for a, b, c in itertools.product(range(r), repeat=3):
            lhs = sum(map(mul, left[a], over_e[b][c]))
            rhs = sum(map(mul, over_e[a][b], right[c]))
            if lhs != rhs:
                sides = zip(poly_unpack(lhs, w, r), poly_unpack(rhs, w, r))
                d = next(d for d, (x, y) in enumerate(sides) if x != y)
                fail("associativity law", (a, b, c, d))


def verlinde(md: ModularData) -> FusionRing:
    """Fusion rules from the S-matrix: N^a_{c,d} = sum_e S_ce S_de conj(S)_ae / S_1e.

    Every entry must be a non-negative integer; anything else proves the
    input is not modular data and raises ModularityError naming the first
    offending (c, d >= c, a). Each distinct S_1e is inverted once; S_ce S_de and
    conj(S)_ae / S_1e are packed cells, and each entry is one packed dot
    product over e, reduced once: an integer iff it is constant and the
    common denominator divides it.
    """
    r, u, s = md.rank, md.unit, md.s
    cells, den, n = _lift(s)
    inverses = {v: cyclo.inverse(v) for v in set(s[u])}
    inv, inv_den = cyclo.lift([[inverses[v] for v in s[u]]], n)
    conj = [[cyclo.mapped(c, n, n, -1) for c in row] for row in cells]
    deg, s_max = len(cells[0][0]), cyclo.max_abs(cells)
    # a cell product sums at most phi(N) terms into a slot, an entry r * N
    p = cyclo.Packing(n, r * n * (deg * s_max) ** 2 * cyclo.max_abs(conj) * cyclo.max_abs(inv))
    packed, (p_inv,) = p.pack(cells), p.pack(inv)
    ratio = [[poly_fold(x * y, p.width, n) for x, y in zip(row, p_inv)] for row in p.pack(conj)]
    total = den**3 * inv_den
    table = [[[0] * r for _ in range(r)] for _ in range(r)]
    for c in range(r):
        for d in range(c, r):
            prod = [poly_fold(x * y, p.width, n) for x, y in zip(packed[c], packed[d])]
            for a, v in enumerate(map(p.reduce, p.contract([prod], ratio)[0])):
                if not 0 <= v < 1 << (p.width - 1) or v % total:
                    val = cyclo.Cyclotomic._make(n, p.unpack(v), total)
                    raise ModularityError(
                        f"N^{md.labels[a]}_({md.labels[c]},{md.labels[d]}) = {val} "
                        "is not a non-negative integer"
                    )
                table[a][c][d] = table[a][d][c] = v // total
    ring = FusionRing(
        rank=r,
        unit=u,
        dual=md.dual,
        table=tuple(tuple(tuple(row) for row in mat) for mat in table),
    )
    ring.check_invariants()
    return ring


def _as_multiset(fr: FusionRing, a: int | ObjectMultiset) -> ObjectMultiset:
    # the one check of a base object on the ring path: every simple lies in 0..rank-1,
    # so a negative index cannot wrap around, and no multiplicity is negative
    ms = a if isinstance(a, dict) else {a: 1}
    for c, m in ms.items():
        if not 0 <= c < fr.rank:
            raise ValueError(f"object index {c} is outside 0..{fr.rank - 1}")
        if m < 0:
            raise ValueError("multiset multiplicities must be non-negative")
    return ms


def fuse(fr: FusionRing, left: int | ObjectMultiset, right: int | ObjectMultiset) -> ObjectMultiset:
    """Decomposition of (left) (x) (right) into simples (ValueError: _as_multiset)."""
    lm = _as_multiset(fr, left)
    rm = _as_multiset(fr, right)
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
    """Multiplicities of each simple in a^(tensor n); a^0 is the unit.

    Each factor is one fusion step, so n above the order limit is refused,
    and so is an object outside the ring (_as_multiset), for every n.
    """
    if n < 0:
        raise ValueError("tensor power must be non-negative")
    limit = cyclo.get_order_limit()
    if n > limit:
        raise ValueError(f"tensor power {n} exceeds the configured limit {limit}")
    out = fr._powers.get((a, n)) if isinstance(a, int) else None
    if out is None:  # a kept power's object was checked when it was built
        ms = _as_multiset(fr, a)
        out = {fr.unit: 1}
        for _ in range(n):
            out = fuse(fr, out, ms)
        if isinstance(a, int):
            fr._powers[(a, n)] = out
    return dict(out)
