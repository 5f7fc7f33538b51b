"""Independent oracles used by the test suite.

Everything here but the last section is derived from first principles
(finite group theory, Legendre symbols, float evaluation) without touching
the library's field arithmetic or spectral formulas, so agreement is
meaningful. The last section holds reference formulas in the library's own
field arithmetic; see its header.
"""

from __future__ import annotations

import cmath
import functools
import math


def legendre(k: int, p: int) -> int:
    t = pow(k, (p - 1) // 2, p)
    return -1 if t == p - 1 else t


def gauss_sum_float(p: int) -> complex:
    return sum(legendre(k, p) * cmath.exp(2j * cmath.pi * k / p) for k in range(1, p))


# ---------------------------------------------------------------------------
# the Drinfel'd double of Z/2 as a bare group-theory object
#
# Anyons are pairs (g, chi) in Z/2 x dual(Z/2); chi(g) in {+1, -1}. Fusion
# is the group law, twists are theta = chi(g), and the braid generator acts
# on the unique channel of x (x) x by chi(g) (the self-statistics).

TORIC_LABELS = ("1", "e", "m", "f")
_TORIC_PAIRS = {"1": (0, 0), "e": (1, 0), "m": (0, 1), "f": (1, 1)}


def toric_fuse(a: str, b: str) -> str:
    ga, ca = _TORIC_PAIRS[a]
    gb, cb = _TORIC_PAIRS[b]
    pair = ((ga + gb) % 2, (ca + cb) % 2)
    return next(k for k, v in _TORIC_PAIRS.items() if v == pair)


def toric_fusion_table() -> dict[tuple[str, str, str], int]:
    out = {}
    for a in TORIC_LABELS:
        for b in TORIC_LABELS:
            c = toric_fuse(a, b)
            for d in TORIC_LABELS:
                out[(d, a, b)] = 1 if d == c else 0
    return out


def toric_twist_exponent(a: str) -> tuple[int, int]:
    """theta as a fraction of a turn (num, den): chi(g) = (-1)^(g * chi)."""
    g, chi = _TORIC_PAIRS[a]
    return ((g * chi) % 2, 2)


def toric_sigma_scalar(a: str) -> tuple[int, int]:
    """Braid-generator eigenvalue on the unique channel of a (x) a, as a turn."""
    return toric_twist_exponent(a)


# ---------------------------------------------------------------------------
# the semion: Z/2 with quadratic form q(s) = i

SEMION_LABELS = ("1", "s")


def semion_fuse(a: str, b: str) -> str:
    return "s" if (a == "s") != (b == "s") else "1"


def semion_twist_exponent(a: str) -> tuple[int, int]:
    """q(1) = 1, q(s) = i, as fractions of a turn."""
    return (0, 1) if a == "1" else (1, 4)


def semion_sigma_scalar(a: str) -> tuple[int, int]:
    """For abelian anyons the self-braiding scalar in the unique channel is
    the twist q(a)."""
    return semion_twist_exponent(a)


def turn_to_complex(turn: tuple[int, int]) -> complex:
    return cmath.exp(2j * cmath.pi * turn[0] / turn[1])


# ---------------------------------------------------------------------------
# float evaluation of the Haagerup-center closed forms


def haagerup_s_float() -> list[list[float]]:
    s13 = math.sqrt(13)
    x = (13 - 3 * s13) / 26
    y = 3 / s13

    def c(j: int) -> float:
        return -2 * y * math.cos(2 * math.pi * j / 13)

    cs = [None] + [c(j) for j in range(1, 7)]
    block = [
        [cs[1], cs[2], cs[3], cs[4], cs[5], cs[6]],
        [cs[2], cs[4], cs[6], cs[5], cs[3], cs[1]],
        [cs[3], cs[6], cs[4], cs[1], cs[2], cs[5]],
        [cs[4], cs[5], cs[1], cs[3], cs[6], cs[2]],
        [cs[5], cs[3], cs[2], cs[6], cs[1], cs[4]],
        [cs[6], cs[1], cs[5], cs[2], cs[4], cs[3]],
    ]
    top = [
        [x, 1 - x, 1, 1, 1, 1] + [y] * 6,
        [1 - x, x, 1, 1, 1, 1] + [-y] * 6,
        [1, 1, 2, -1, -1, -1] + [0] * 6,
        [1, 1, -1, 2, -1, -1] + [0] * 6,
        [1, 1, -1, -1, -1, 2] + [0] * 6,
        [1, 1, -1, -1, 2, -1] + [0] * 6,
    ]
    bottom = [[y, -y, 0, 0, 0, 0] + block[i] for i in range(6)]
    return [[v / 3 for v in row] for row in top + bottom]


# The known braid-generator table for the sixth object of the Haagerup
# center: per object, the map from the eigenvalue exp(2 pi i e/q) (keyed
# (q, e) in lowest terms) to its multiplicity. The commonly printed form of
# row 8 repeats one entry with a sign typo; the true candidate pair is
# +-e^(20 pi i/39) and the multiplicity-1 eigenvalue is the negative one.
HAAGERUP_SIGMA_X6_TABLE = {
    "x1": {(3, 1): 1, (6, 5): 0},
    "x2": {(3, 1): 1, (6, 5): 1},
    "x3": {(3, 1): 1, (6, 5): 0},
    "x4": {(3, 1): 1, (6, 5): 0},
    "x5": {(1, 0): 1, (2, 1): 0},
    "x6": {(6, 1): 0, (3, 2): 2},
    "x7": {(78, 5): 1, (39, 22): 0},
    "x8": {(39, 10): 0, (78, 59): 1},
    "x9": {(39, 16): 0, (78, 71): 1},
    "x10": {(39, 1): 0, (78, 41): 1},
    "x11": {(39, 4): 0, (78, 47): 1},
    "x12": {(78, 11): 1, (39, 25): 0},
}


# ---------------------------------------------------------------------------
# the fusion ring of a Deligne square, by integer products


def product_fusion_ring(fr):
    """The fusion ring of the Deligne square: the tensor square of the base ring.

    N^{(c,d)}_{(a,b),(a',b')} = N^c_{a,a'} N^d_{b,b'}. Cross-checks the
    center against an independent Verlinde computation on small fixtures;
    invariants are inherited from the factors.
    """
    from mtckit.fusion_ring import FusionRing

    r = fr.rank
    t = fr.table
    table = tuple(
        tuple(
            tuple(
                t[c][a][a2] * t[d][b][b2]
                for a2 in range(r)
                for b2 in range(r)
            )
            for a in range(r)
            for b in range(r)
        )
        for c in range(r)
        for d in range(r)
    )
    return FusionRing(
        rank=r * r,
        unit=fr.unit * r + fr.unit,
        dual=tuple(fr.dual[a] * r + fr.dual[b] for a in range(r) for b in range(r)),
        table=table,
    )


# ---------------------------------------------------------------------------
# reference formulas in the library's field arithmetic
#
# Unlike the oracles above, these use the library's field arithmetic.
# center_modular_data builds the full S-matrix of a center entry by entry,
# which the library never does (it applies S to the one base-rank factor R
# of R (x) R-bar). gfs_by_dot walks an SL2(Z) word with one Cyclotomic product
# per term: each token is a pass of Cyclotomic products and cyclo.dot
# sums, where the library works on packed integer rows at one field order.
# dims_check evaluates the dimension homomorphism directly. matmul is the
# entry-by-entry matrix product that the packed cyclo.matmul replaced.
# nu_general_by_field_powers is the straightforward formula that
# nu_general used before its root-of-unity factors became exponent
# arithmetic. Every root is a Cyclotomic raised with ``**`` (negative
# powers through the field inverse), so agreement checks the exponent
# bookkeeping of nu_general.


def matmul(a, b):
    """The product of two matrices of field values, one cyclo.dot per entry."""
    from mtckit import cyclo

    cols = list(zip(*b))
    return tuple(tuple(cyclo.dot(row, col) for col in cols) for row in a)


def center_modular_data(cd):
    """The center's full modular data, S_{(a,b),(c,d)} = S_{a,c} S_{b-bar,d}."""
    from mtckit.modular_data import ModularData

    s, dual = cd.base.s, cd.base.dual

    def entry(i, j):
        (a, b), (c, d) = cd.pair_of(i), cd.pair_of(j)
        return s[a][c] * s[dual[b]][d]

    n = cd.rank
    return ModularData(
        labels=cd.labels,
        s=tuple(tuple(entry(i, j) for j in range(n)) for i in range(n)),
        theta=cd.theta,
        unit=cd.unit,
        dual=cd.dual,
    )


def gfs_by_dot(cd, word):
    """The indicator table values pi(g) A for the tokens of word, in field arithmetic."""
    from mtckit import cyclo

    r = cd.base.rank
    s = cd.base.s
    sd = [s[cd.base.dual[b]] for b in range(r)]

    def apply_s(x):
        # y[(a,d)][j] = sum_c s[a][c] x[(c,d)][j]
        y = [None] * (r * r)
        for d in range(r):
            cols = list(zip(*x[d::r]))
            for a in range(r):
                y[a * r + d] = [cyclo.dot(s[a], col) for col in cols]
        # z[(a,b)][j] = sum_d s[b-bar][d] y[(a,d)][j]
        z = []
        for a in range(r):
            cols = list(zip(*y[a * r : (a + 1) * r]))
            for b in range(r):
                z.append([cyclo.dot(sd[b], col) for col in cols])
        return z

    def apply_t(x, inverse):
        out = []
        for i, row in enumerate(x):
            t = cd.theta[i].inverse() if inverse else cd.theta[i]
            tv = t.value()
            out.append([tv * v for v in row])
        return out

    x = [[cyclo.from_rational(v) for v in row] for row in cd.a_matrix]
    for tok in reversed(word.tokens):
        x = apply_s(x) if tok == "s" else apply_t(x, inverse=tok == "T")
    return tuple(tuple(row) for row in x)


def dims_check(fr, md):
    """The dimension homomorphism: sum_c N^c_{a,b} d_c = d_a d_b, exactly."""
    from mtckit import cyclo
    from mtckit.modular_data import derive_invariants

    dims = derive_invariants(md).dims
    r = fr.rank
    for a in range(r):
        for b in range(r):
            lhs = sum(
                (dims[c] * fr.table[c][a][b] for c in range(r) if fr.table[c][a][b]),
                cyclo.ZERO,
            )
            if lhs != dims[a] * dims[b]:
                return False
    return True


def nu_general_by_field_powers(cd, b, n, k, a, root_shift=0):
    from mtckit import cyclo
    from mtckit.fusion_ring import power_decompose
    from mtckit.indicators import gfs_matrix, hom_dim_under_forgetful

    q, k0 = divmod(k, n)
    theta = cd.theta[b].value()
    prefactor = cyclo.inverse(theta) ** q
    if k0 == 0:
        return prefactor * hom_dim_under_forgetful(cd, b, a, n)
    g = math.gcd(k0, n)
    n1, k1 = n // g, k0 // g
    table = gfs_matrix(cd, n1, 1)
    nu1 = cyclo.ZERO
    for c, mult in power_decompose(cd.base.ring, a, g).items():
        nu1 = nu1 + mult * table.values[b][c]
    if k1 == 1:
        return prefactor * nu1
    m_cond = cd.conductor
    t = cd.theta[b]
    root = cyclo.root_of_unity(
        m_cond * n, t.exponent * (m_cond // t.order) + root_shift * m_cond
    )
    image = cyclo.galois_apply(root**g * nu1, k1, n1)
    return prefactor * root ** (-k0) * image


def multiplicity_by_dot(cd, b, a, n, lam, root_shift=0):
    """P^b_{n,a}(lambda^-1) = (1/n) sum_{k<n} nu^b_{n,k}(a) lambda^-k, by cyclo.dot
    over the exact root values."""
    from fractions import Fraction

    from mtckit import cyclo
    from mtckit.indicators import nu_general

    nus = [nu_general(cd, b, n, k, a, root_shift=root_shift) for k in range(n)]
    return cyclo.dot(nus, ((lam ** -k).value() for k in range(n))) * Fraction(1, n)


def nu2_by_dot(md, fr, c, b, a):
    """nu^{c (x) b~}_{2,1}(a) = sum_{d,e} (theta_d / theta_e)^2 S_{c,d} S_{b-bar,e}
    N^a_{d,e} by field products: both twisted rows embedded into one field,
    z_e = sum_d N^a_{d,e} u_d, then sum_e z_e v_e, each by cyclo.dot."""
    from mtckit import cyclo

    r = md.rank
    u_row = [(md.theta[d] ** 2).value() * md.s[c][d] for d in range(r)]
    v_row = [(md.theta[e] ** -2).value() * md.s[md.dual[b]][e] for e in range(r)]
    order = math.lcm(*(x.order for x in u_row + v_row))
    u_row = [x.embedded(order) for x in u_row]
    v_row = [x.embedded(order) for x in v_row]
    z = [cyclo.dot(col, u_row) for col in zip(*fr.table[a])]
    return cyclo.dot(z, v_row)


def _invert_fraction_matrix(mat):
    from fractions import Fraction

    n = len(mat)
    work = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(i for i in range(col, n) if work[i][col] != 0)
        work[col], work[piv] = work[piv], work[col]
        inv = 1 / work[col][col]
        work[col] = [v * inv for v in work[col]]
        for i in range(n):
            if i != col and work[i][col]:
                f = work[i][col]
                work[i] = [v - f * w for v, w in zip(work[i], work[col])]
    return [row[n:] for row in work]


@functools.lru_cache(maxsize=None)
def descent_solver(n, m):
    """Pivot rows, integer solving matrix (with denominator), and embedding
    columns for Q(zeta_m) inside Q(zeta_n), by Fraction Gauss-Jordan."""
    from fractions import Fraction

    from mtckit import cyclo
    from mtckit._poly import poly_reduce

    dn, dm = cyclo.euler_phi(n), cyclo.euler_phi(m)
    s = n // m
    phi_n = cyclo.cyclotomic_polynomial(n)
    cols = []
    for i in range(dm):
        p = [0] * (i * s + 1)
        p[i * s] = 1
        poly_reduce(p, phi_n)
        cols.append(p)
    # select dm pivot rows by elimination, then invert the square subsystem
    work = [[Fraction(cols[j][i]) for j in range(dm)] for i in range(dn)]
    rowperm = list(range(dn))
    for col in range(dm):
        piv = next(i for i in range(col, dn) if work[i][col] != 0)
        work[col], work[piv] = work[piv], work[col]
        rowperm[col], rowperm[piv] = rowperm[piv], rowperm[col]
        for i in range(col + 1, dn):
            if work[i][col]:
                f = work[i][col] / work[col][col]
                for jj in range(col, dm):
                    work[i][jj] -= f * work[col][jj]
    rows = rowperm[:dm]
    frac_solver = _invert_fraction_matrix([[Fraction(cols[j][i]) for j in range(dm)] for i in rows])
    # clear denominators so the solve and verify are pure int work
    den = math.lcm(1, *(v.denominator for row in frac_solver for v in row))
    return rows, [[int(v * den) for v in row] for row in frac_solver], den, cols


def descend_by_solver(x, m):
    """x at order m by a linear solve on pivot rows, verified on every coordinate;
    DescentError names the first coordinate where the embedded solution differs."""
    from mtckit.cyclo import Cyclotomic, DescentError

    n = x.order
    if m == n:
        return x
    rows, solver, den, cols = descent_solver(n, m)
    rhs = [x._num[i] for i in rows]
    ynum = [sum(a * b for a, b in zip(srow, rhs)) for srow in solver]
    for i in range(len(x._num)):
        if sum(col[i] * y for col, y in zip(cols, ynum)) != den * x._num[i]:
            raise DescentError(n, m, i)
    return Cyclotomic._make(m, ynum, x._den * den)


# ---------------------------------------------------------------------------
# canonical forms by the monomial table: a value is reduced to its minimal
# order m by trying a descent per prime, then compared with every x^j modulo
# Phi_m for j < m. The library reads the same answers off the power basis.


def reduced_by_descent(x):
    """x at its minimal order, trying cyclo.descend one prime at a time."""
    from mtckit import cyclo

    while x.order > 1:
        for p in cyclo._factorize(x.order):
            try:
                x = cyclo.descend(x, x.order // p)
                break
            except cyclo.DescentError:
                continue
        else:
            break
    return x


@functools.lru_cache(maxsize=None)
def monomials(n):
    """x^j modulo Phi_n for j < n, one poly_reduce each."""
    from mtckit import cyclo
    from mtckit._poly import poly_reduce

    mod = cyclo.cyclotomic_polynomial(n)
    return tuple(tuple(poly_reduce([0] * j + [1], mod)) for j in range(n))


def recognize_by_monomials(x):
    """(scale, root) with x = scale * root and scale > 0, else None: the first
    x^j modulo Phi_m that x is a rational multiple of, at its minimal order m."""
    from fractions import Fraction

    from mtckit.cyclo import RootOfUnity

    r = reduced_by_descent(x)
    m, num = r.order, r._num
    for j, mono in enumerate(monomials(m)):
        i0 = next(i for i, c in enumerate(mono) if c)
        if num[i0] and all(a * mono[i0] == b * num[i0] for a, b in zip(num, mono)):
            scale = Fraction(num[i0], mono[i0] * r._den)
            if scale < 0:
                return -scale, RootOfUnity.make(2 * m, m + 2 * j)
            return scale, RootOfUnity.make(m, j)
    return None


def _rational_text(q):
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def canonical_by_monomials(x):
    """(recognize_by_monomials(x), the canonical E-notation of x): a rational,
    one q*E(n)^k term for a scaled root, else the signed power-basis sum at
    the minimal order."""
    found = recognize_by_monomials(x)
    if found is None:
        r = reduced_by_descent(x)
        terms = []
        for j, c in enumerate(r.coeffs):
            if c:
                mono = f"E({r.order})^{j}" if j > 1 else f"E({r.order})" if j else ""
                size = _rational_text(abs(c))
                body = size if not mono else mono if abs(c) == 1 else f"{size}*{mono}"
                terms.append(("-" if c < 0 else "+", body))
        if not terms:
            return None, "0"
        head = ("-" if terms[0][0] == "-" else "") + terms[0][1]
        return None, head + "".join(f" {sign} {body}" for sign, body in terms[1:])
    scale, root = found
    if root.order <= 2:
        return found, _rational_text(scale if root.order == 1 else -scale)
    mono = f"E({root.order})" if root.exponent == 1 else f"E({root.order})^{root.exponent}"
    return found, mono if scale == 1 else f"{_rational_text(scale)}*{mono}"


# ---------------------------------------------------------------------------
# the exact discrete Fourier transform over roots of unity, as root sums
# (cyclo.root_sums) in the library's field arithmetic


def _dft_rows(n: int, sign: int):
    # row k holds the exponents sign m k of zeta_N, m = 1..N
    return ([sign * m * k for m in range(1, n + 1)] for k in range(1, n + 1))


def dft(xs: list) -> list:
    """F(x)_k = sum_m x_m zeta_N^(m k) for k, m = 1..N (exact)."""
    from mtckit import cyclo

    return cyclo.root_sums(xs, _dft_rows(len(xs), 1), len(xs) or 1)


def idft(xs: list) -> list:
    """Inverse transform: F^-1(X)_k = (1/N) sum_m X_m zeta_N^(-m k) (exact)."""
    from mtckit import cyclo

    return cyclo.root_sums(xs, _dft_rows(len(xs), -1), len(xs) or 1, len(xs) or 1)


# ---------------------------------------------------------------------------
# the reversed braiding and the set of eigenvalues of a report, by definition


def reverse(md):
    """The same category with reversed braiding: S~_{a,b} = S_{a-bar,b}, twists inverted.

    The under-crossing braids read the forward center with each pair's
    factors swapped; this builds the reversed data itself, as their oracle.
    """
    from mtckit.modular_data import ModularData

    s = tuple(tuple(md.s[md.dual[a]][b] for b in range(md.rank)) for a in range(md.rank))
    theta = tuple(t.inverse() for t in md.theta)
    return ModularData(labels=md.labels, s=s, theta=theta, unit=md.unit, dual=md.dual)


def spectrum(report) -> set:
    """The union of eigenvalues with nonzero multiplicity over all rows of a report."""
    return {
        ev for row in report.rows for ev, mult in zip(row.eigenvalues, row.multiplicities) if mult
    }


def sigma_spectrum_n2(md, fr, a, braid="sigma"):
    """Braid-generator spectra by the n = 2 formula, with no center.

    braid="sigma" is the generator (conjugating object the unit), and
    braid="sigma-triple" is sigma_i sigma_{i+1} sigma_i (conjugating object
    a-bar). Row b holds theta_a^-1 omega with the K^(2) counts of
    spectra.k2_pairs for (c, b, a). The library computes these reports as
    braid_jm_spectrum at (n, l, m) = (2, 0, 0) and (3, 1, 0); this is their
    oracle.
    """
    from mtckit.spectra import SpectrumReport, SpectrumRow, k2_pairs

    if braid == "sigma":
        c = md.unit
    elif braid == "sigma-triple":
        c = md.dual[a]
    else:
        raise ValueError(f"unknown braid {braid!r}")
    theta_a_inv = md.theta[a].inverse()
    rows = []
    for b in range(md.rank):
        pairs = sorted(((theta_a_inv * omega, k) for omega, k in k2_pairs(md, fr, c, b, a)),
                       key=lambda p: p[0].turn())
        rows.append(SpectrumRow(md.labels[b], tuple(ev for ev, _ in pairs),
                                tuple(k for _, k in pairs)))
    return SpectrumReport(
        kind=f"braid-{braid}", source="", params=(("object", md.labels[a]),), rows=tuple(rows)
    )


# ---------------------------------------------------------------------------
# rotation rows, K rows and K^2 pairs by the per-k route: the inverse DFT of the
# whole indicator sequence nu_{n,k}, k < n, one nu_general call per k, summed by
# one cyclo.root_sums call. The library sums one field trace per divisor of n
# instead (mtckit.spectra._candidate_counts); this is the route it replaced.


def _candidate_counts_by_k(theta, n, nus, describe):
    from mtckit import cyclo
    from mtckit.cyclo import RootOfUnity
    from mtckit.spectra import _require_count

    # every lambda with lambda^n = theta^-1, in turn order: j / order grows with j
    order = n * theta.order
    roots = (RootOfUnity.make(order, j) for j in range(order))
    cands = [lam for lam in roots if lam**n == theta.inverse()]
    rows = ([-k * lam.exponent_at(order) for k in range(n)] for lam in cands)
    values = cyclo.root_sums(nus, rows, order, n)
    return [
        (lam, _require_count(value, lambda lam=lam: describe(lam)))
        for lam, value in zip(cands, values)
    ]


def rotation_spectrum_by_k(cd, b, a, n, root_shift=0):
    """spectra.rotation_spectrum's (eigenvalues, multiplicities) by the per-k route."""
    from mtckit import cyclo
    from mtckit.indicators import nu_general

    pairs = _candidate_counts_by_k(
        cd.theta[b],
        n,
        (nu_general(cd, b, n, k, a, root_shift=root_shift) for k in range(n)),
        lambda lam: f"multiplicity of {cyclo.format_root(lam)} on Hom({cd.labels[b]}, a^{n})",
    )
    return tuple(lam for lam, _ in pairs), tuple(k for _, k in pairs)


def semisimple_K_by_k(cd, b, a, n):
    """spectra.semisimple_K by the per-k route."""
    from mtckit import cyclo
    from mtckit.indicators import hom_dim_under_forgetful, nu_general

    groups = {}
    for c, mult in b.items():
        if mult:
            groups.setdefault(cd.theta[c], {})[c] = mult
    out = {}
    for theta, group in groups.items():
        if n == 1:  # the one-strand rotation is the identity: P^c_{1,a} is dim Hom(c, a)
            out[theta.inverse()] = sum(
                m * hom_dim_under_forgetful(cd, c, a, 1) for c, m in group.items())
            continue
        nus = (cyclo.dot(group.values(), [nu_general(cd, c, n, k, a) for c in group])
               for k in range(n))
        out.update(_candidate_counts_by_k(
            theta, n, nus, lambda omega: f"K at omega = {cyclo.format_root(omega)}"))
    return out


def k2_pairs_by_k(md, fr, c, b, a):
    """spectra.k2_pairs by the per-k route: the sequence (N^b_{c-bar,a,a}, nu_{2,1})."""
    from mtckit import cyclo
    from mtckit.indicators import nu2_direct

    cbar = md.dual[c]
    n_hom = sum(
        fr.table[b][cbar][e] * fr.table[e][a][a]
        for e in range(md.rank)
        if fr.table[e][a][a]
    )
    return tuple(_candidate_counts_by_k(
        md.theta[c] / md.theta[b],
        2,
        (n_hom, nu2_direct(md, fr, c, b, a)),
        lambda omega: f"K^(2) at omega = {cyclo.format_root(omega)}",
    ))


# ---------------------------------------------------------------------------
# index maps and traces term by term: the unreduced row that cyclo.mapped
# reduces by one packed remainder, and every trace of a value from the Ramanujan
# sums (cyclo.ramanujan_sums), one integer functional per trace


def index_map(coeffs, order, target, k=1, e=0):
    """Numerators at order, mapped zeta_order^j -> zeta_target^(k j target/order + e):
    target entries, unreduced. With gcd(k, order) = 1 this embeds (k = 1), applies
    the Galois map zeta -> zeta^k and multiplies by zeta_target^e, in any combination."""
    s = target // order
    p = [0] * target
    for j, c in enumerate(coeffs):
        if c:
            p[(k * j * s + e) % target] += c
    return p


def traces(x):
    """(ints, den): Tr_{Q(zeta_n)/Q}(zeta_n^s x) for s = 0..n-1, n the order of x,
    as ints over x's denominator. Tr(zeta_n^j) = c_n(j), so trace s is
    sum_j num_j c_n(s + j)."""
    from mtckit import cyclo

    n, sums = x.order, cyclo.ramanujan_sums(x.order)
    return tuple(sum(c * sums[(s + j) % n] for j, c in enumerate(x._num))
                 for s in range(n)), x._den


# ---------------------------------------------------------------------------
# trace entries by the descent route: the value x = rho nu shifted to the order of
# rho nu, descended to Q(zeta_n1) and traced there. The library reads the same
# ints off nu's coordinates in the subspace V of Q(zeta_L) where rho nu lies in
# Q(zeta_n1) (mtckit.spectra._trace_field); this is the route it replaced.


def trace_entry_by_descent(md, n1, b, c, nu=None):
    """spectra's entry (n1, b, c), b = left rank + right, as (ints, den): the traces
    Tr(zeta_n1^s x), s < n1, of x = rho nu with rho the pinned root theta_b^(1/n1) and
    nu = nu^{left (x) right~}_{n1,1}(c) (nu_direct) unless given, by cyclo.times_root,
    galois_apply and traces above. A value off Q(zeta_n1) raises the DescentError that the
    library's entries repeat."""
    from mtckit import cyclo
    from mtckit.indicators import _theta_root, nu_direct

    left, right = divmod(b, md.rank)
    if nu is None:
        nu = nu_direct(md, n1, left, right, c)
    root = _theta_root(md.theta[left] / md.theta[right], n1, 0)
    return traces(cyclo.galois_apply(cyclo.times_root(nu, root), 1, n1))


def _rank(rows) -> int:
    # the rank over Q of int rows, by fraction-free elimination
    work, rank = [row for row in rows if any(row)], 0
    while work:
        row = work.pop()
        col = next(k for k, x in enumerate(row) if x)
        rest = []
        for other in work:
            if other[col]:
                other = [row[col] * x - other[col] * y for x, y in zip(other, row)]
                if any(other):
                    g = math.gcd(*other)
                    rest.append([x // g for x in other])
            else:
                rest.append(other)
        work, rank = rest, rank + 1
    return rank


def trace_field_dim_by_galois(theta, n1, order):
    """dim_Q {nu in Q(zeta_L) : rho nu in Q(zeta_n1)}, L = order and rho the pinned
    root theta^(1/n1): phi(L) less the rank of nu -> (sigma_k(rho nu) - rho nu)_k over
    generators k of Gal(Q(zeta_M)/Q(zeta_n1)), M = lcm(L, n1, ord rho), each sigma_k by
    cyclo.galois_apply at order M on the power basis of Q(zeta_L)."""
    from mtckit import cyclo
    from mtckit.indicators import _theta_root

    rho = _theta_root(theta, n1, 0)
    big = math.lcm(order, n1, rho.order)
    fixing = [k for k in range(1, big) if math.gcd(k, big) == 1 and k % n1 == 1 % n1]
    gens, reached = [], {1}
    for k in fixing:
        if k not in reached:
            gens.append(k)
            while True:  # close the generated subgroup under products
                more = {x * y % big for x in reached for y in gens} - reached
                if not more:
                    break
                reached |= more
    phi, rows = cyclo.euler_phi(order), []
    for j in range(phi):
        unit = cyclo.Cyclotomic._make(order, [int(i == j) for i in range(phi)], 1)
        x = cyclo.times_root(unit, rho).embedded(big)
        moved = ((cyclo.galois_apply(x, k, big) - x).embedded(big) for k in gens)
        rows.append([c for y in moved for c in y._num])
    return phi - _rank(rows)
