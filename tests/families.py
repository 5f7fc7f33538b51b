"""Modular data built from other modular data, with its fusion ring.

A relabeling permutes the simples and renames them; a Deligne product C x D
has the simples (c, d), with S, T and N the tensor products of the factors'.
Both are modular data again, so every mtckit output on them is checkable.
"""

from __future__ import annotations

from mtckit.fusion_ring import FusionRing
from mtckit.modular_data import ModularData


def relabeled(md, fr, perm):
    """The same data with simple i renamed y<i> and moved from index perm[i] to i."""
    where = {old: new for new, old in enumerate(perm)}
    md2 = ModularData(
        labels=tuple(f"y{i}" for i in range(md.rank)),
        s=tuple(tuple(md.s[i][j] for j in perm) for i in perm),
        theta=tuple(md.theta[i] for i in perm),
        unit=where[md.unit],
        dual=tuple(where[md.dual[i]] for i in perm),
    )
    fr2 = FusionRing(
        rank=fr.rank,
        unit=md2.unit,
        dual=md2.dual,
        table=tuple(tuple(tuple(fr.table[c][a][b] for b in perm) for a in perm) for c in perm),
    )
    return md2, fr2


def deligne_product(left, right):
    """The Deligne product of two (modular data, ring) pairs: S and T are tensor
    products, and the simple (a, b) is labelled 'a.b', a major."""
    (m1, f1), (m2, f2) = left, right
    pairs = [(a, b) for a in range(m1.rank) for b in range(m2.rank)]
    index = {p: i for i, p in enumerate(pairs)}
    md = ModularData(
        labels=tuple(f"{m1.labels[a]}.{m2.labels[b]}" for a, b in pairs),
        s=tuple(tuple(m1.s[a][c] * m2.s[b][d] for c, d in pairs) for a, b in pairs),
        theta=tuple(m1.theta[a] * m2.theta[b] for a, b in pairs),
        unit=index[(m1.unit, m2.unit)],
        dual=tuple(index[(m1.dual[a], m2.dual[b])] for a, b in pairs),
    )
    fr = FusionRing(
        rank=len(pairs),
        unit=md.unit,
        dual=md.dual,
        table=tuple(
            tuple(
                tuple(f1.table[c][a][a2] * f2.table[d][b][b2] for a2, b2 in pairs)
                for a, b in pairs
            )
            for c, d in pairs
        ),
    )
    return md, fr
