"""The Drinfel'd center of a modular category as the Deligne square C (x) C~.

Simple objects of the center are ordered pairs (a, b) of base simples, with
S_{(a,b),(c,d)} = S_{a,c} S_{b-bar,d} and twist theta_a / theta_b. The
forgetful functor sends (a, b) to a (x) b, so its multiplicity matrix A is
read off the base fusion ring.

The full rank^2 x rank^2 S-matrix is never materialized. The SL2(Z)
generators act in one field per center, Q(zeta_N) with N the lcm of the
conductor and the orders of the base S entries (the semion S lies in
Q(zeta_8) while its center twists have order 4), on (cells, den) matrices
of mtckit.cyclo, with the base S lifted once per center. apply_t shifts each
row by its twist and reduces it; apply_s is two base-rank contractions,
each one packed matrix product (cyclo.Packing).
"""

from __future__ import annotations

import dataclasses
import functools
import math

from . import cyclo
from ._poly import poly_reduce
from .cyclo import ConsistencyError, Cyclotomic, RootOfUnity
from .fusion_ring import FusionRing, verlinde
from .modular_data import ModularData, derive_invariants

__all__ = ["CenterData", "ConsistencyError", "deligne_square"]

# (cells, den): cells[i][j] holds the integer numerators of entry (i, j) at
# the working order, and den is the denominator they share
Working = tuple[list[list[list[int]]], int]


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

    @functools.cached_property
    def working_order(self) -> int:
        """The order N that holds every twist and every base S entry."""
        return math.lcm(self.conductor, *(v.order for row in self.base.s for v in row))

    @functools.cached_property
    def _working_s(self) -> tuple[list[list[list[int]]], int, int]:
        # the base S lifted to order N, with its largest |coefficient|
        rows, den = self.lift(self.base.s)
        return rows, den, cyclo.max_abs(rows)

    @functools.cached_property
    def _twist_exponents(self) -> tuple[int, ...]:
        n = self.working_order
        return tuple(t.exponent * (n // t.order) for t in self.theta)

    def lift(self, matrix) -> Working:
        """A matrix of ints, Fractions or Cyclotomics as (cells, den) at order N."""
        return cyclo.lift(matrix, self.working_order)

    def convert(self, x: Working) -> tuple[tuple[Cyclotomic, ...], ...]:
        """The (cells, den) matrix as Cyclotomic entries at order N; zeros are ZERO."""
        cells, den = x
        n = self.working_order
        return tuple(
            tuple(Cyclotomic._make(n, c, den) if any(c) else cyclo.ZERO for c in row)
            for row in cells
        )

    def apply_t(self, x: Working, power: int) -> Working:
        """T^power: row i times theta_i^power, an index shift at order N."""
        cells, den = x
        n = self.working_order
        mod = cyclo.cyclotomic_polynomial(n)
        out = []
        for row, t in zip(cells, self._twist_exponents):
            e = power * t % n
            if e:
                # zeta^e c(zeta): shift the coefficients up by e, then reduce
                row = [poly_reduce([0] * e + c, mod) for c in row]
            out.append(row)
        return out, den

    def apply_s(self, x: Working) -> Working:
        """S as the base S contracted over c, then over d, of the pair (c, d).

        Each contraction is one packed product (cyclo.Packing) whose columns
        are (the other pair index, column of x); y stays packed in between.
        """
        cells, den = x
        r, cols = self.base.rank, len(cells[0])
        s_rows, s_den, s_max = self._working_s
        terms = r * len(s_rows[0][0])  # coefficient products summed into one slot
        # |y| <= terms * s_max * max|x| and |z| <= terms * s_max * max|y|
        p = cyclo.Packing(self.working_order, (terms * s_max) ** 2 * cyclo.max_abs(cells))
        packed_s, packed = p.pack(s_rows), p.pack(cells)
        # y[a][(d, j)] = sum_c s[a][c] x[(c,d)][j]
        x_cols = [[packed[c * r + d][j] for c in range(r)] for d in range(r) for j in range(cols)]
        y = p.contract(packed_s, x_cols)
        # z[b][(a, j)] = sum_d s[b-bar][d] y[a][(d, j)]
        y_cols = [[y[a][d * cols + j] for d in range(r)] for a in range(r) for j in range(cols)]
        z = p.contract([packed_s[b] for b in self.base.dual], y_cols)
        del packed, x_cols, y, y_cols  # only z is alive while it is unpacked
        out = [[p.unpack(p.reduce(v)) for v in z[b][a * cols : (a + 1) * cols]]
               for a in range(r) for b in range(r)]
        # divide out the common content so widths do not grow with every s
        den *= s_den * s_den
        g = den
        for row in out:
            g = math.gcd(g, *map(math.gcd, *row))  # every coefficient of the row
        if g > 1:
            for row in out:
                for c in row:
                    c[:] = [v // g for v in c]
            den //= g
        return out, den


def deligne_square(md: ModularData, fr: FusionRing) -> CenterData:
    """Center data for Z = C (x) C~ from validated base modular data.

    Asserts the anomaly-freeness xi_Z = 1 (the Gauss-sum identity
    tau+ tau- = D); failure means the inputs are corrupt.
    """
    r = md.rank
    inv = derive_invariants(md)
    dims = inv.dims
    squares = [d * d for d in dims]
    tau_plus, tau_minus = cyclo.root_sums(
        squares, (md.theta, [t.inverse() for t in md.theta])
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
    return CenterData(
        base=md,
        base_ring=fr,
        labels=labels,
        theta=theta,
        unit=md.unit * r + md.unit,
        dual=dual,
        a_matrix=a_matrix,
        conductor=math.lcm(*(t.order for t in theta)),
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
