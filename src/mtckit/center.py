"""The Drinfel'd center of a modular category as the Deligne square C (x) C~.

Simple objects of the center are ordered pairs (a, b) of base simples, with
S_{(a,b),(c,d)} = S_{a,c} S_{b-bar,d} and twist theta_a / theta_b. The
forgetful functor sends (a, b) to a (x) b, so its multiplicity matrix A is
read off the base fusion ring.

The full rank^2 x rank^2 S-matrix is never materialized; the
SL2(Z)-representation machinery goes through apply_s / apply_t, which use
the Kronecker structure (two rank-sized contractions instead of one
rank^2-sized one).

Both generators work in one field per center, Q(zeta_N) with N the lcm of
the conductor and the orders of the base S entries (the semion S lies in
Q(zeta_8) while its center twists have order 4). A matrix in transit is
integer coefficient rows at order N over one common denominator: lift
builds it, convert turns it back into Cyclotomic values. The base S is
lifted once per center, on first use. apply_t multiplies a row by a root
of unity as an index shift plus one reduction modulo Phi_N; apply_s
computes every cell of both contractions as one dot product of rows packed
into Python ints (mtckit._poly). The first contraction stays packed; each
output cell is unpacked and reduced modulo Phi_N once.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from operator import mul

from . import cyclo
from ._poly import poly_fold, poly_pack, poly_reduce, poly_unpack, slot_width
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
        return rows, den, _max_abs(c for row in rows for c in row)

    @functools.cached_property
    def _twist_exponents(self) -> tuple[int, ...]:
        n = self.working_order
        return tuple(t.exponent * (n // t.order) for t in self.theta)

    def lift(self, matrix) -> Working:
        """A matrix of ints, Fractions or Cyclotomics as (cells, den) at order N."""
        cols = len(matrix[0])
        flat, den = cyclo.integer_rows(
            [v for row in matrix for v in row], self.working_order
        )
        return [flat[i : i + cols] for i in range(0, len(flat), cols)], den

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
        """S through two base-rank contractions of packed-integer dot products.

        Both contractions work on packed rows modulo zeta^N = 1, so y stays
        packed between them; each output cell is unpacked and reduced
        modulo Phi_N once.
        """
        cells, den = x
        r = self.base.rank
        n = self.working_order
        s_rows, s_den, s_max = self._working_s
        mod = cyclo.cyclotomic_polynomial(n)
        terms = r * (len(mod) - 1)  # coefficient products summed into one slot
        # |y| <= terms * s_max * max|x| and |z| <= terms * s_max * max|y|
        y_max = terms * s_max * _max_abs(c for row in cells for c in row)
        width = slot_width(s_max, y_max, terms)
        packed_s = [[poly_pack(v, width) for v in row] for row in s_rows]

        def contract(rows, packed):
            # out[(a,d)][j] = sum_c rows[a][c] packed[(c,d)][j], one dot product per cell
            out = [None] * (r * r)
            for d in range(r):
                cols = list(zip(*packed[d::r]))  # cols[j][c] = packed[(c,d)][j]
                for a in range(r):
                    row = rows[a]
                    out[a * r + d] = [poly_fold(sum(map(mul, row, col)), width, n) for col in cols]
            return out

        # y[(a,d)][j] = sum_c s[a][c] x[(c,d)][j]
        y = contract(packed_s, [[poly_pack(c, width) for c in row] for row in cells])
        # z[(a,b)][j] = sum_d s[b-bar][d] y[(a,d)][j]: the same contraction on
        # the transposed pair index
        y_t = [y[a * r + d] for d in range(r) for a in range(r)]
        z_t = contract([packed_s[self.base.dual[b]] for b in range(r)], y_t)
        del y, y_t  # only one packed matrix is alive while z is unpacked
        z = [
            [poly_reduce(poly_unpack(v, width, n), mod) for v in z_t[b * r + a]]
            for a in range(r)
            for b in range(r)
        ]
        # divide out the common content so widths do not grow with every s
        den *= s_den * s_den
        g = den
        for row in z:
            for c in row:
                g = math.gcd(g, *c)
        if g > 1:
            for row in z:
                for c in row:
                    c[:] = [v // g for v in c]
            den //= g
        return z, den


def _max_abs(rows) -> int:
    return max((max(max(c), -min(c)) for c in rows), default=0)


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
