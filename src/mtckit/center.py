"""The Drinfel'd center of a modular category as the Deligne square C (x) C~.

Simple objects of the center are ordered pairs (a, b) of base simples, with
S_{(a,b),(c,d)} = S_{a,c} S_{b-bar,d} and twist theta_a / theta_b. The
forgetful functor sends (a, b) to a (x) b, so its multiplicity matrix A is
read off the base fusion ring.

The full rank^2 x rank^2 S-matrix is only materialized on demand; the
SL2(Z)-representation machinery goes through apply_s / apply_t, which use
the Kronecker structure (two rank-sized contractions instead of one
rank^2-sized one).
"""

from __future__ import annotations

import dataclasses
import math

from . import cyclo
from .cyclo import ConsistencyError, Cyclotomic, RootOfUnity
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
        self._md = None
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

    def s_entry(self, i: int, j: int) -> Cyclotomic:
        a, b = self.pair_of(i)
        c, d = self.pair_of(j)
        return self.base.s[a][c] * self.base.s[self.base.dual[b]][d]

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
        width = len(x[0])
        # first contraction: y[(a,d)][j] = sum_c s[a][c] x[(c,d)][j]
        y = [[cyclo.ZERO] * width for _ in range(r * r)]
        for a in range(r):
            srow = s[a]
            for c in range(r):
                f = srow[c]
                if f.is_zero():
                    continue
                for d in range(r):
                    src = x[c * r + d]
                    dst = y[a * r + d]
                    for j in range(width):
                        v = src[j]
                        if isinstance(v, int):
                            if v:
                                dst[j] = dst[j] + f * v
                        elif not v.is_zero():
                            dst[j] = dst[j] + f * v
        # second contraction: z[(a,b)][j] = sum_d s[b-bar][d] y[(a,d)][j]
        z = [[cyclo.ZERO] * width for _ in range(r * r)]
        for b in range(r):
            srow = sd[b]
            for d in range(r):
                f = srow[d]
                if f.is_zero():
                    continue
                for a in range(r):
                    src = y[a * r + d]
                    dst = z[a * r + b]
                    for j in range(width):
                        v = src[j]
                        if not v.is_zero():
                            dst[j] = dst[j] + f * v
        return z

    # -- full modular data, materialized on demand ---------------------------

    @property
    def md(self) -> ModularData:
        if self._md is None:
            n = self.rank
            s = tuple(
                tuple(self.s_entry(i, j) for j in range(n)) for i in range(n)
            )
            self._md = ModularData(
                labels=self.labels,
                s=s,
                theta=self.theta,
                unit=self.unit,
                dual=self.dual,
            )
        return self._md


def deligne_square(md: ModularData, fr: FusionRing) -> CenterData:
    """Center data for Z = C (x) C~ from validated base modular data.

    Asserts the anomaly-freeness xi_Z = 1 (the Gauss-sum identity
    tau+ tau- = D); failure means the inputs are corrupt.
    """
    r = md.rank
    inv = derive_invariants(md)
    dims = inv.dims
    tau_plus = sum((t.value() * d * d for t, d in zip(md.theta, dims)), cyclo.ZERO)
    tau_minus = sum(
        (t.inverse().value() * d * d for t, d in zip(md.theta, dims)), cyclo.ZERO
    )
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
