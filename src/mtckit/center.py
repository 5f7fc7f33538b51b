"""The Drinfel'd center of a modular category as the Deligne square C (x) C~.

Simple objects of the center are ordered pairs (a, b) of base simples, with
S_{(a,b),(c,d)} = S_{a,c} S_{b-bar,d} and twist theta_a / theta_b. The
forgetful functor sends (a, b) to a (x) b, so its multiplicity matrix A is
read off the base fusion ring.

The full rank^2 x rank^2 S-matrix is never materialized; the
SL2(Z)-representation machinery goes through apply_s / apply_t, which use
the Kronecker structure (two rank-sized contractions instead of one
rank^2-sized one).
"""

from __future__ import annotations

import dataclasses
import math

from . import cyclo
from .cyclo import ConsistencyError, RootOfUnity
from .fusion_ring import FusionRing, verlinde
from .modular_data import ModularData, derive_invariants

__all__ = ["CenterData", "ConsistencyError", "deligne_square"]


@dataclasses.dataclass
class CenterData:
    base: ModularData
    base_ring: FusionRing
    labels: tuple[str, ...]
    theta: tuple[RootOfUnity, ...]
    unit: int
    dual: tuple[int, ...]
    a_matrix: tuple[tuple[int, ...], ...]
    conductor: int

    def __post_init__(self):
        self._gfs_cache: dict[tuple[int, int], object] = {}

    @property
    def rank(self) -> int:
        return len(self.labels)

    @property
    def base_rank(self) -> int:
        return self.base.rank

    def pair_index(self, a: int, b: int) -> int:
        return a * self.base.rank + b

    def pair_of(self, i: int) -> tuple[int, int]:
        return divmod(i, self.base.rank)

    def index_of(self, obj: str | int) -> int:
        if isinstance(obj, int):
            if not 1 <= obj <= self.rank:
                raise ValueError(f"center index {obj} out of range 1..{self.rank}")
            return obj - 1
        if obj in self.labels:
            return self.labels.index(obj)
        raise ValueError(f"unknown center object {obj!r}")

    # -- SL2(Z) generator action on (rank x width) matrices ------------------

    def apply_t(self, x: list[list], inverse: bool = False) -> list[list]:
        out = []
        for i, row in enumerate(x):
            t = self.theta[i].inverse() if inverse else self.theta[i]
            tv = t.value()
            out.append([tv * v for v in row])
        return out

    def apply_s(self, x: list[list]) -> list[list]:
        r = self.base.rank
        s = self.base.s
        sd = [s[self.base.dual[b]] for b in range(r)]
        # first contraction: y[(a,d)][j] = sum_c s[a][c] x[(c,d)][j]
        y = [None] * (r * r)
        for d in range(r):
            cols = list(zip(*x[d::r]))  # cols[j][c] = x[(c,d)][j]
            for a in range(r):
                y[a * r + d] = [cyclo.dot(s[a], col) for col in cols]
        # second contraction: z[(a,b)][j] = sum_d s[b-bar][d] y[(a,d)][j]
        z = []
        for a in range(r):
            cols = list(zip(*y[a * r : (a + 1) * r]))  # cols[j][d] = y[(a,d)][j]
            for b in range(r):
                z.append([cyclo.dot(sd[b], col) for col in cols])
        return z


def deligne_square(md: ModularData, fr: FusionRing) -> CenterData:
    """Center data for Z = C (x) C~ from validated base modular data.

    Asserts the anomaly-freeness xi_Z = 1 (the Gauss-sum identity
    tau+ tau- = D); failure means the inputs are corrupt.
    """
    r = md.rank
    inv = derive_invariants(md)
    dims = inv.dims
    squares = [d * d for d in dims]
    tau_plus = cyclo.dot((t.value() for t in md.theta), squares)
    tau_minus = cyclo.dot((t.inverse().value() for t in md.theta), squares)
    if tau_plus * tau_minus != inv.global_dim:
        raise ConsistencyError(
            "Gauss-sum identity tau+ tau- = D fails; center charge would not be 1"
        )

    labels = tuple(
        f"({md.labels[a]},{md.labels[b]})" for a in range(r) for b in range(r)
    )
    theta = tuple(
        md.theta[a] / md.theta[b] for a in range(r) for b in range(r)
    )
    dual = tuple(
        md.dual[a] * r + md.dual[b] for a in range(r) for b in range(r)
    )
    a_matrix = tuple(
        tuple(fr.table[c][a][b] for c in range(r)) for a in range(r) for b in range(r)
    )
    conductor = 1
    for t in theta:
        conductor = math.lcm(conductor, t.order)
    return CenterData(
        base=md,
        base_ring=fr,
        labels=labels,
        theta=theta,
        unit=md.unit * r + md.unit,
        dual=dual,
        a_matrix=a_matrix,
        conductor=conductor,
    )


def center_for(md: ModularData, fr: FusionRing | None = None) -> CenterData:
    """Convenience: verlinde + deligne_square with a per-data cache."""
    cached = _center_cache.get(md)
    if cached is not None:
        return cached
    if fr is None:
        fr = verlinde(md)
    cd = deligne_square(md, fr)
    _center_cache[md] = cd
    return cd


_center_cache: dict[ModularData, CenterData] = {}
