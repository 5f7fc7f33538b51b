"""The Drinfel'd center of a modular category as the Deligne square C (x) C~.

Simple objects of the center are ordered pairs (a, b) of base simples, with
S_{(a,b),(c,d)} = S_{a,c} S_{b-bar,d} and twist theta_a / theta_b. The
forgetful functor sends (a, b) to a (x) b, so its multiplicity matrix A is
read off the base fusion ring.

No rank^2 x rank^2 matrix is ever materialized. The center's SL2(Z)
representation factors over the pairs (Ng-Schauenburg): S_Z = S (x) S-bar,
since S_{b-bar,d} is the conjugate of S_{b,d}, and T_Z = T (x) T-bar, so
pi(g) = R (x) R-bar for one base-rank matrix R. R lives in one field per
center, Q(zeta_N) with N the lcm of the conductor and the orders of the
base S entries (the semion S lies in Q(zeta_8) while its center twists
have order 4), as a (cells, den) matrix of mtckit.cyclo, with the base S
lifted once per center. apply_s multiplies R by S, one packed matrix
product (cyclo.matmul); apply_t shifts row a of R by theta_a^power
(cyclo.mapped). contract_a conjugates R once, after the whole word, and
applies R (x) R-bar to the forgetful matrix A: one Contraction over md.ring,
the packed contraction through the fusion tensor that nu_direct also reads.
Its table (R N^j R-bar^T)_{a,b} is Hermitian, as N^j is symmetric, so only the
rows (a, b) with a <= b are contracted, and row (b, a) is row (a, b)
conjugated, once per distinct value. A Contraction builds each distinct value
once: equal entries are one object.

center_for keeps the center on its ModularData, and it serves both braidings:
the center of the reversed braiding, C~ (x) C, is this one with each pair's
factors swapped (Mueger). Every center reads the ring md.ring (check_ring).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from operator import mul

from . import cyclo
from .cyclo import ConsistencyError, Cyclotomic, RootOfUnity
from .fusion_ring import FusionRing
from .modular_data import ModularData

__all__ = ["CenterData", "ConsistencyError", "deligne_square"]

# (cells, den): cells[i][j] holds the integer numerators of entry (i, j) at
# the working order, and den is the denominator they share
Working = tuple[list[list[list[int]]], int]


@dataclasses.dataclass
class CenterData:
    base: ModularData
    labels: tuple[str, ...]
    theta: tuple[RootOfUnity, ...]
    unit: int
    dual: tuple[int, ...]
    a_matrix: tuple[tuple[int, ...], ...]
    conductor: int

    @property
    def rank(self) -> int:
        return len(self.labels)

    def pair_index(self, a: int, b: int) -> int:
        return a * self.base.rank + b

    def pair_of(self, i: int) -> tuple[int, int]:
        return divmod(i, self.base.rank)

    # -- SL2(Z) generator action on the factor R of pi(g) = R (x) R-bar --------

    @functools.cached_property
    def working_order(self) -> int:
        """The order N that holds every twist and every base S entry."""
        return math.lcm(self.conductor, *(v.order for row in self.base.s for v in row))

    @functools.cached_property
    def _working_s(self) -> Working:
        # the base S lifted to order N
        return cyclo.lift(self.base.s, self.working_order)

    @functools.cached_property
    def _twist_exponents(self) -> tuple[int, ...]:
        # theta_a = theta_(a,unit) is a center twist, so it lives at order N
        n = self.working_order
        return tuple(t.exponent_at(n) for t in self.base.theta)

    def identity(self) -> Working:
        """The factor R of the empty word: the base-rank identity at order N."""
        r = self.base.rank
        return cyclo.lift([[int(i == j) for j in range(r)] for i in range(r)], self.working_order)

    def apply_t(self, x: Working, power: int) -> Working:
        """T^power: row a of R times theta_a^power, an index shift at order N (cyclo.mapped)."""
        n, (cells, den) = self.working_order, x
        return [[cyclo.mapped(c, n, n, 1, power * t) for c in row]
                for row, t in zip(cells, self._twist_exponents)], den

    def apply_s(self, x: Working) -> Working:
        """S: R -> S R, one packed product (cyclo.matmul)."""
        return _content_free(cyclo.matmul(self._working_s, x, self.working_order))

    def contract_a(self, x: Working) -> tuple[tuple[Cyclotomic, ...], ...]:
        """(R (x) R-bar) A as Cyclotomic entries at order N; zeros are ZERO.

        Row (a, b), column j is sum_{c,d} R[a][c] N^j_{c,d} R-bar[b][d], entry
        (a, b, j); R-bar is R conjugated cell by cell (cyclo.mapped with k = -1).
        As N^j_{c,d} = N^j_{d,c}, entry (b, a, j) is the conjugate of entry (a, b, j):
        only the r (r + 1) / 2 rows with a <= b are contracted, and the others are
        their conjugates (Contraction.conjugates). Equal entries are one object.
        """
        n, (cells, den) = self.working_order, x
        conjugate = [[cyclo.mapped(c, n, n, -1) for c in row] for row in cells], den
        k, r = Contraction(self.base.ring.table, x, conjugate, n), self.base.rank
        half = {(a, b): tuple(k.entry(a, b, j) for j in range(r))
                for a in range(r) for b in range(a, r)}
        bar = k.conjugates()
        return tuple(half[a, b] if a <= b else tuple(bar[id(v)] for v in half[b, a])
                     for a in range(r) for b in range(r))


class Contraction:
    """entry(c, b, a) = sum_{d,e} L[c][d] N^a_{d,e} R[b][e], table[a][d][e] =
    N^a_{d,e}, for base-rank (cells, den) matrices L, R of reduced cells at one
    order N: the center's R (x) R-bar (contract_a) and the closed form's (S T^n,
    S-bar T^-n) (indicators.nu_direct). Both are packed once; folded modulo x^N - 1,
    a slot sums at most phi(N) max_a sum_{d,e} N^a_{d,e} max|L| max|R|, the
    Packing bound. w_d = sum_e N^a_{d,e} R[b][e] is kept per (b, a), and an
    entry is one packed dot product with row c of L, reduced once.

    Each distinct value is built once. The width and the denominator are fixed
    here, and a reduced packed value decodes uniquely (Packing), so a dict maps it
    to its Cyclotomic: a repeated value is the kept object, with no unpack and no
    normalization. Zero is the shared cyclo.ZERO.
    """

    def __init__(self, table, left: Working, right: Working, order: int):
        (l_cells, l_den), (r_cells, r_den) = left, right
        n_sum = max(sum(map(sum, mat)) for mat in table)
        self.packing = p = cyclo.Packing(order, cyclo.euler_phi(order) * n_sum
                                         * cyclo.max_abs(l_cells) * cyclo.max_abs(r_cells))
        self._table, self._left, self._right = table, p.pack(l_cells), p.pack(r_cells)
        self._den = l_den * r_den
        self._w: dict[tuple[int, int], list[int]] = {}
        self._values: dict[int, Cyclotomic] = {}  # reduced packed value -> its entry

    def entry(self, c: int, b: int, a: int) -> Cyclotomic:
        w = self._w.get((b, a))
        if w is None:
            w = self._w[b, a] = [sum(map(mul, row, self._right[b])) for row in self._table[a]]
        value = self.packing.reduce(sum(map(mul, self._left[c], w)))
        if not value:
            return cyclo.ZERO
        x = self._values.get(value)
        if x is None:
            p = self.packing
            x = self._values[value] = Cyclotomic._make(p.order, p.unpack(value), self._den)
        return x

    def conjugates(self) -> dict[int, Cyclotomic]:
        """id(x) -> the conjugate of x, for ZERO and every entry x built so far.

        Each distinct value is conjugated once (Cyclotomic.conjugate), and its
        conjugate is kept like an entry: an entry equal to it is the same object.
        The conjugate's coordinates are bounded as an entry's are (conjugation
        permutes the slots folded modulo x^N - 1), so it packs into the width.
        When R is L conjugated cell by cell and every N^a is symmetric
        (contract_a), the conjugate of entry (c, b, a) is entry (b, c, a).
        """
        p, bar, kept = self.packing, {id(cyclo.ZERO): cyclo.ZERO}, list(self._values.items())
        n = p.order
        (keys,) = p.pack([[cyclo.mapped(p.unpack(value), n, n, -1) for value, _ in kept]])
        for (_, x), key in zip(kept, keys):
            y = self._values.get(key)
            if y is None:
                y = self._values[key] = x.conjugate()
            bar[id(x)] = y
        return bar


def _content_free(x: Working) -> Working:
    # divide out the common content so widths do not grow with every s
    cells, den = x
    g = den
    for row in cells:
        g = math.gcd(g, *map(math.gcd, *row))  # every coefficient of the row
    if g == 1:
        return x
    return [[[v // g for v in c] for c in row] for row in cells], den // g


def check_index(i: int, count: int, what: str) -> None:
    """ValueError unless 0 <= i < count: no index wraps around or fails bare."""
    if not 0 <= i < count:
        raise ValueError(f"{what} {i} is outside 0..{count - 1}")


def check_ring(md: ModularData, fr: FusionRing | None) -> None:
    """Raise ValueError unless fr is None or md.ring, by identity or by its table."""
    if fr is not None and fr is not md.ring and fr != md.ring:
        raise ValueError("fr is not the fusion ring of md")


def deligne_square(md: ModularData, fr: FusionRing | None = None) -> CenterData:
    """Center data for Z = C (x) C~ from validated base modular data.

    The forgetful matrix is read off md.ring; a ring fr other than md.ring
    raises ValueError (check_ring). Asserts the anomaly-freeness xi_Z = 1
    (the Gauss-sum identity tau+ tau- = D); failure means the inputs are
    corrupt.
    """
    check_ring(md, fr)
    table = md.ring.table
    r = md.rank
    inv = md.invariants
    dims = inv.dims
    squares = [d * d for d in dims]
    twists = [t.exponent_at(inv.conductor) for t in md.theta]
    tau_plus, tau_minus = cyclo.root_sums(squares, (twists, [-e for e in twists]), inv.conductor)
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
    a_matrix = tuple(tuple(table[c][a][b] for c in range(r)) for a in range(r) for b in range(r))
    return CenterData(
        base=md,
        labels=labels,
        theta=theta,
        unit=md.unit * r + md.unit,
        dual=dual,
        a_matrix=a_matrix,
        conductor=math.lcm(*(t.order for t in theta)),
    )


def center_for(md: ModularData, fr: FusionRing | None = None) -> CenterData:
    """deligne_square(md), kept on md after the first use; it serves both
    braidings of md (see spectra.braid_jm_spectrum). A ring fr other than
    md.ring raises ValueError (check_ring)."""
    check_ring(md, fr)
    cd = vars(md).get("_center")
    if cd is None:
        cd = vars(md)["_center"] = deligne_square(md)
    return cd
