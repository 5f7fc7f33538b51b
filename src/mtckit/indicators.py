"""Generalized Frobenius-Schur indicators, by two independent routes.

Route one (gfs_matrix) evaluates the SL2(Z) representation of the center on
a word g with (1,0) g^-1 = (m,l) and multiplies the forgetful matrix A. Route
two (nu_general) derives nu_{n,k} from the single-rotation column nu_{n,1} by
a Galois automorphism, after pinning a root theta^(1/n); the two must agree.
It reads nu_{n,1} off its closed double sum over the base data (nu_direct),
which builds no SL2(Z) state, as rotation and braid spectra do. Route one's
last step and the closed form share one packed contraction through the
fusion tensor (center.Contraction); a bad index is ValueError.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from operator import mul

from . import cyclo
from .center import CenterData, Contraction, check_index, check_ring
from .cyclo import Cyclotomic, RootOfUnity
from .fusion_ring import FusionRing, ObjectMultiset, power_decompose
from .modular_data import ModularData

__all__ = [
    "Sl2Word",
    "IndicatorTable",
    "sl2_word",
    "matrix_tokens",
    "gfs_matrix",
    "nu_general",
    "nu_direct",
    "nu2_direct",
    "hom_dim_under_forgetful",
]

S_MAT = ((0, -1), (1, 0))
T_MAT = ((1, 1), (0, 1))
T_INV_MAT = ((1, -1), (0, 1))
_TOKEN_MATS = {"s": S_MAT, "t": T_MAT, "T": T_INV_MAT}
_ONE_ROOT = RootOfUnity(1, 0)


def _mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


@dataclasses.dataclass(frozen=True)
class Sl2Word:
    """A word in the generators s, t, t^-1 (token 'T'), targeting (m, l)."""

    tokens: tuple[str, ...]
    m: int
    l: int

    def matrix(self):
        g = ((1, 0), (0, 1))
        for tok in self.tokens:
            g = _mat_mul(g, _TOKEN_MATS[tok])
        return g

    def verify(self) -> None:
        g = self.matrix()
        det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        if det != 1:
            raise AssertionError(f"word evaluates to det {det}")
        # g^-1 = ((d, -b), (-c, a)); need its first row equal to (m, l)
        if (g[1][1], -g[0][1]) != (self.m, self.l):
            raise AssertionError(
                f"word for ({self.m}, {self.l}) evaluates to g with "
                f"(1,0) g^-1 = {(g[1][1], -g[0][1])}"
            )


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def matrix_tokens(mat) -> tuple[str, ...]:
    """Decompose an SL2(Z) matrix into s / t / t^-1 tokens (Euclidean descent).

    The tokens are counted from the Euclidean quotients before any is
    spelled: a word longer than the order limit (cyclo.get_order_limit)
    raises ValueError instead of being built.
    """
    (a, b), (c, d) = mat
    if a * d - b * c != 1:
        raise ValueError("matrix is not in SL2(Z)")
    recorded: list[tuple[str, int]] = []  # left-multipliers reducing the matrix
    while c:
        q = a // c
        if q:
            recorded.append(("T", q))  # T^-q on the left
            a, b = a - q * c, b - q * d
        recorded.append(("sinv", 1))
        a, b, c, d = c, d, -a, -b
    if a == 1:
        if b:
            recorded.append(("T", b))
    else:  # a == d == -1: the matrix is s^2 t^-b
        recorded.append(("sinv", 2))
        b = -b
        if b:
            recorded.append(("T", b))
    count, limit = sum(abs(n) for _, n in recorded), cyclo.get_order_limit()
    if count > limit:
        raise ValueError(f"SL2(Z) word of {count} tokens exceeds the configured limit {limit}")

    tokens: list[str] = []
    for kind, count in recorded:
        if kind == "sinv":
            tokens.extend("s" * count)  # inverse of s^-1
        elif count > 0:  # inverse of T^-q is t^q
            tokens.extend("t" * count)
        else:
            tokens.extend("T" * (-count))
    return tuple(tokens)


def sl2_word(m: int, l: int) -> Sl2Word:
    """A word whose matrix g satisfies (1,0) g^-1 = (m, l), gcd(m, l) = 1.

    Built by Euclidean reduction; t-powers come out as runs of t or t^-1
    tokens. The postcondition is re-verified by integer evaluation.
    """
    if math.gcd(m, l) != 1:
        raise ValueError(f"gcd({m}, {l}) != 1: no SL2(Z) word exists")
    g, x, y = _ext_gcd(m, l)
    if g < 0:
        g, x, y = -g, -x, -y
    v, u = x, -y  # m v - l u = 1
    word = Sl2Word(tokens=matrix_tokens(((v, -l), (-u, m))), m=m, l=l)
    word.verify()
    return word


@dataclasses.dataclass(frozen=True)
class IndicatorTable:
    """The matrix of indicators nu^b_{m,l}(a): rows center simples, columns base."""

    m: int
    l: int
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    values: tuple[tuple[Cyclotomic, ...], ...]


def gfs_matrix(cd: CenterData, m: int, l: int) -> IndicatorTable:
    """The indicator table via the center's SL2(Z) representation: pi(g) A.

    Requires gcd(m, l) = 1. Valid because the center is anomaly-free
    (xi = 1, asserted at construction), so the choice of the word g =
    sl2_word(m, l) cannot matter. The word runs on the base-rank factor R of
    pi(g) = R (x) R-bar, one center call per s token and per run of t / t^-1
    tokens, and A is contracted once, so a table's cost hardly depends on
    how many s tokens its word has.
    """
    if math.gcd(m, l) != 1:
        raise ValueError(f"gcd({m}, {l}) != 1")
    return _gfs_apply(cd, m, l, sl2_word(m, l))


def _gfs_apply(cd: CenterData, m: int, l: int, word: Sl2Word) -> IndicatorTable:
    # pi(g) = R (x) R-bar is built on the base-rank factor R, tokens applied right
    # to left, each run of t / t^-1 tokens as one power of T; A is contracted once
    x = cd.identity()
    for is_s, run in itertools.groupby(reversed(word.tokens), key=lambda tok: tok == "s"):
        if is_s:
            for _ in run:
                x = cd.apply_s(x)
        else:
            x = cd.apply_t(x, sum(1 if tok == "t" else -1 for tok in run))
    return IndicatorTable(
        m=m,
        l=l,
        row_labels=cd.labels,
        col_labels=cd.base.labels,
        values=cd.contract_a(x),
    )


def hom_dim_under_forgetful(cd: CenterData, b: int, a: int | ObjectMultiset, n: int) -> int:
    """dim Hom(b, a^(x)n) for a center simple b and base object a."""
    check_index(b, cd.rank, "center simple")
    powers = power_decompose(cd.base.ring, a, n)
    return sum(map(mul, map(cd.a_matrix[b].__getitem__, powers), powers.values()))


def _theta_root(theta: RootOfUnity, n: int, shift: int) -> RootOfUnity:
    # theta = zeta_q^e in lowest terms; the pinned n-th root is zeta_{nq}^(e + shift q)
    # (rows pin shift 0; a shift is nu_general's root_shift, the other roots that
    # independence tests compare against)
    return RootOfUnity.make(n * theta.order, theta.exponent + shift * theta.order)


def nu_general(
    cd: CenterData,
    b: int,
    n: int,
    k: int,
    a: int | ObjectMultiset,
    root_shift: int = 0,
) -> Cyclotomic:
    """nu^b_{n,k}(a) for any integer k, reduced through the indicator identities.

    k is first brought into 0..n-1 by periodicity (each full turn costs a
    factor theta_b^-1). k = 0 is the hom dimension; otherwise, with
    g = gcd(k, n), the value is theta_b^{-k/n} applied to the Galois image
    alpha_{k/g, n/g} of theta_b^{g/n} nu^b_{n/g,1}(a^g), the inner indicator
    expanding additively over the decomposition of a^g into closed-form
    values nu_direct(cd.base, n/g, *cd.pair_of(b), c).

    No two field values are multiplied. The root-of-unity factors
    (theta_b^-q, the pinned root's powers) are exponent arithmetic on
    RootOfUnity, and each enters as an index shift (cyclo.times_root); the
    sum over a^g is an int-weighted cyclo.dot of closed-form values, which
    takes no field product either. The Galois step is cyclo.galois_apply, so a
    value outside Q(zeta_{n/g}) fails its descent check with DescentError.

    Rotation and K rows (mtckit.spectra) do not read this route: they take
    nu_{n,1} from nu_direct's closed form and sum field traces for other k.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    check_index(b, cd.rank, "center simple")
    q, k0 = divmod(k, n)
    prefactor = cd.theta[b].inverse() ** q if q else _ONE_ROOT

    if k0 == 0:
        base = cyclo.from_rational(hom_dim_under_forgetful(cd, b, a, n))
        return cyclo.times_root(base, prefactor)

    g = math.gcd(k0, n)
    n1, k1 = n // g, k0 // g
    a_pow = power_decompose(cd.base.ring, a, g)
    nu1 = cyclo.dot(a_pow.values(), (nu_direct(cd.base, n1, *cd.pair_of(b), c) for c in a_pow))

    if k1 == 1:
        # theta^{-k0/n} * theta^{g/n} = 1 when k0 == g
        return cyclo.times_root(nu1, prefactor)
    root = _theta_root(cd.theta[b], n, root_shift)
    result = cyclo.galois_apply(cyclo.times_root(nu1, root**g), k1, n1)
    return cyclo.times_root(result, prefactor * root ** (-k0))


def _twisted_rows(md: ModularData, n: int) -> Contraction:
    # U[c][d] = theta_d^n S_{c,d} and V[b][e] = theta_e^-n S_{b-bar,e}, S lifted once per n
    # to the order L of S and every theta^n; their Contraction over md.ring is kept per n
    rows = vars(md).get("_twisted_rows") or vars(md).setdefault("_twisted_rows", {})
    kept = rows.get(n)
    if kept is None:
        twists = [t**n for t in md.theta]
        order = math.lcm(*(v.order for row in md.s for v in row), *(t.order for t in twists))
        cells, den = cyclo.lift(md.s, order)
        shifts = [t.exponent_at(order) for t in twists]
        u = [[cyclo.mapped(x, order, order, 1, e) for x, e in zip(row, shifts)] for row in cells]
        v = [[cyclo.mapped(x, order, order, 1, -e) for x, e in zip(cells[i], shifts)]
             for i in md.dual]
        kept = rows[n] = Contraction(md.ring.table, (u, den), (v, den), order)
    return kept


def nu_direct(md: ModularData, n: int, c: int, b: int, a: int) -> Cyclotomic:
    """nu^{c (x) b~}_{n,1}(a), n >= 1, as the closed double sum over the base data.

    sum_{d,e} U_{c,d} N^a_{d,e} V_{b,e}, U_{c,d} = theta_d^n S_{c,d}, V_{b,e} =
    theta_e^-n S_{b-bar,e}, N from md.ring (Ng-Schauenburg, arXiv:0806.2493):
    gfs_matrix(n, 1) of the center, with no center: entry (c, b, a) of the
    Contraction of U and V, kept per n, with no field product.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    r = md.rank
    if not (0 <= c < r and 0 <= b < r and 0 <= a < r):
        for i, what in ((c, "center simple factor"), (b, "center simple factor"), (a, "object index")):
            check_index(i, r, what)
    return _twisted_rows(md, n).entry(c, b, a)


def nu2_direct(md: ModularData, fr: FusionRing, c: int, b: int, a: int) -> Cyclotomic:
    """nu^{c (x) b~}_{2,1}(a), nu_direct at n = 2; fr must be md.ring (check_ring)."""
    check_ring(md, fr)
    return nu_direct(md, 2, c, b, a)
