"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Values are represented by rational coordinates on the power basis
1, zeta_n, ..., zeta_n^(phi(n)-1), reduced modulo the n-th cyclotomic
polynomial. Internally a value stores integer numerators plus one common
positive denominator; the public ``coeffs`` property exposes Fractions.

Everything is immutable and every operation is a pure function, so values
are safe to share between threads. The per-order memo table (each
cyclotomic polynomial and the constants derived from it) is only ever
extended with identical entries, which is safe under the GIL.

The canonical text rendering (``str(x)``) writes values as sums of terms
``q*E(n)^k`` where ``E(n)`` denotes exp(2*pi*i/n); the parser for that
grammar lives in mtckit.dataio.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math
import os
from fractions import Fraction
from operator import mul

from ._poly import poly_mulmod, poly_pack, poly_reduce, poly_unpack

__all__ = [
    "Cyclotomic",
    "RootOfUnity",
    "ConsistencyError",
    "CycloDomainError",
    "DescentError",
    "cyclotomic_polynomial",
    "root_of_unity",
    "zeta",
    "from_rational",
    "dot",
    "mapped",
    "root_sums",
    "times_root",
    "lift",
    "max_abs",
    "Packing",
    "matmul",
    "inverse",
    "galois_apply",
    "descend",
    "ramanujan_sums",
    "recognize",
    "euler_phi",
    "set_order_limit",
    "get_order_limit",
    "check_order",
    "ZERO",
    "ONE",
]

DEFAULT_ORDER_LIMIT = 10_000


def _order_limit_from_env() -> tuple[int, str | None]:
    # (limit, error); a bad setting is reported when the limit is first
    # needed, so importing the package never fails on it
    raw = os.environ.get("MTCKIT_MAX_ORDER")
    if raw is None:
        return DEFAULT_ORDER_LIMIT, None
    try:
        limit = int(raw)
    except ValueError:
        limit = 0
    if limit < 1:
        return 0, f"MTCKIT_MAX_ORDER must be a positive integer, got {raw!r}"
    return limit, None


_order_limit, _order_limit_error = _order_limit_from_env()


class CycloDomainError(ValueError):
    """Invalid parameters for a cyclotomic operation (bad order, bad Galois index)."""


class ConsistencyError(ArithmeticError):
    """An internal identity that holds for genuine modular input failed."""


class DescentError(ConsistencyError):
    """A value does not lie in the requested subfield Q(zeta_m).

    Signals a pipeline bug upstream when raised from galois_apply, so it is
    a ConsistencyError; carries the first offending power-basis coordinate
    as a witness.
    """

    def __init__(self, order: int, target: int, witness_index: int):
        self.order = order
        self.target = target
        self.witness_index = witness_index
        super().__init__(
            f"value of order {order} does not descend to Q(zeta_{target}); "
            f"first mismatch at power-basis coordinate {witness_index}"
        )


def set_order_limit(limit: int) -> None:
    """Set the largest permitted cyclotomic order (cost grows like phi(n)^2)."""
    global _order_limit, _order_limit_error
    if limit < 1:
        raise CycloDomainError("order limit must be positive")
    _order_limit = limit
    _order_limit_error = None


def get_order_limit() -> int:
    """The largest permitted order; CycloDomainError if MTCKIT_MAX_ORDER is invalid."""
    if _order_limit_error is not None:
        raise CycloDomainError(_order_limit_error)
    return _order_limit


def check_order(n: int) -> None:
    """CycloDomainError unless 1 <= n <= the configured order limit."""
    if n < 1:
        raise CycloDomainError(f"cyclotomic order must be >= 1, got {n}")
    if n > _order_limit:
        if _order_limit_error is not None:
            raise CycloDomainError(_order_limit_error)
        raise CycloDomainError(
            f"cyclotomic order {n} exceeds the configured limit {_order_limit}"
        )


# ---------------------------------------------------------------------------
# integer helpers


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n: int) -> int:
    out = 1
    for p, e in _factorize(n).items():
        out *= (p - 1) * p ** (e - 1)
    return out


def _divisors(n: int) -> list[int]:
    out = [1]
    for p, e in _factorize(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def _poly_divexact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # exact division by a monic int polynomial, ascending coefficients
    dd = len(den) - 1
    q = [0] * (len(num) - dd)
    r = list(num)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + dd]
        q[i] = c
        if c:
            for j in range(dd + 1):
                r[i + j] -= c * den[j]
    if any(r):
        raise ConsistencyError("non-exact polynomial division")
    return q


def _high_powers(poly: tuple[int, ...], n: int):
    # x^k modulo Phi_n for phi(n) <= k < n, each one x times the last
    low = [-c for c in poly[:-1]]  # x^phi(n)
    h = low
    for _ in range(n - len(low)):
        yield h
        h = [a + h[-1] * b for a, b in zip([0, *h[:-1]], low)]


class _OrderConstants:
    """What one cyclotomic order n needs, derived once: Phi_n, and for the
    packed reduction (Packing) its growth, its height and Phi_n packed at
    each slot width asked for."""

    def __init__(self, n: int, poly: tuple[int, ...]):
        self.n, self.poly = n, poly
        self._moduli: dict[int, int] = {}

    @functools.cached_property
    def height(self) -> int:
        """The largest |coefficient| of Phi_n."""
        return max(map(abs, self.poly))

    def modulus(self, width: int) -> int:
        """Phi_n packed with width bits a slot, Q = Phi_n(2^width)."""
        packed = self._moduli.get(width)
        if packed is None:
            packed = self._moduli[width] = poly_pack(self.poly, width)
        return packed

    @functools.cached_property
    def growth(self) -> int:
        """The factor by which reducing a row of n slots modulo Phi_n can grow
        its largest |coefficient|: each low slot adds every high slot times one
        coefficient of its power.

        With r the radical of n, Phi_n(x) = Phi_r(x^(n/r)), so the powers of x
        modulo Phi_n are those modulo Phi_r spread n/r slots apart, and the
        growth is the radical's.
        """
        r = math.prod(_factorize(self.n))
        if r < self.n:
            return _order_constants(r).growth
        sums = [0] * (len(self.poly) - 1)
        for h in _high_powers(self.poly, self.n):
            sums = [s + abs(c) for s, c in zip(sums, h)]
        return 1 + max(sums, default=0)


_cyclo_poly_cache: dict[int, _OrderConstants] = {1: _OrderConstants(1, (-1, 1))}


def _order_constants(n: int) -> _OrderConstants:
    check_order(n)
    cached = _cyclo_poly_cache.get(n)
    if cached is not None:
        return cached
    poly = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n):
        if d < n:
            poly = _poly_divexact(poly, cyclotomic_polynomial(d))
    result = tuple(poly)
    if len(result) != euler_phi(n) + 1 or result[-1] != 1:
        raise ConsistencyError(f"cyclotomic polynomial {n} is not monic of degree phi({n})")
    cached = _cyclo_poly_cache[n] = _OrderConstants(n, result)
    return cached


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """The n-th cyclotomic polynomial as a monic ascending int tuple.

    Computed by dividing x^n - 1 by Phi_d over the proper divisors d of n,
    memoized across calls with the order's other constants.
    """
    return _order_constants(n).poly


# ---------------------------------------------------------------------------
# the field element


class Cyclotomic:
    """An exact element of Q(zeta_n).

    ``order`` is the ambient field order (not necessarily minimal for the
    value; see :meth:`reduced`). Two values compare equal iff they agree
    after embedding into the common field Q(zeta_lcm).
    """

    __slots__ = ("order", "_num", "_den", "_reduced", "_hash")

    def __init__(self, order: int, num: tuple[int, ...], den: int):
        # internal constructor; use the module factories
        self.order = order
        self._num = num
        self._den = den
        self._reduced: Cyclotomic | None = None
        self._hash: int | None = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def _make(order: int, num: list[int], den: int) -> "Cyclotomic":
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den = -den
            num = [-c for c in num]
        g = math.gcd(den, *num) if den > 1 else 1
        if g > 1:
            den //= g
            num = [c // g for c in num]
        return Cyclotomic(order, tuple(num), den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Power-basis coordinates as Fractions (length phi(order))."""
        d = self._den
        return tuple(Fraction(c, d) for c in self._num)

    def is_zero(self) -> bool:
        return not any(self._num)

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction if it is rational, else None."""
        if any(self._num[1:]):
            return None
        return Fraction(self._num[0], self._den)

    # -- representation changes --------------------------------------------

    def embedded(self, target: int) -> "Cyclotomic":
        """The same value represented in Q(zeta_target); order must divide target."""
        n = self.order
        if target == n:
            return self
        return Cyclotomic(target, tuple(mapped(self._num, n, target)), self._den)

    def reduced(self) -> "Cyclotomic":
        """The value represented in its minimal cyclotomic field."""
        cached = self._reduced
        if cached is not None:
            return cached
        num, n = self._num, self.order
        while n > 1:
            for p in _factorize(n):
                step, ok = _prime_step(num, n, p)
                if ok:
                    num, n = step, n // p
                    break
            else:
                break
        x = self if n == self.order else Cyclotomic._make(n, num, self._den)
        self._reduced = x
        x._reduced = x
        return x

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "Cyclotomic | None":
        if isinstance(value, Cyclotomic):
            return value
        if isinstance(value, int):
            return Cyclotomic(1, (value,), 1)
        if isinstance(value, Fraction):
            return Cyclotomic(1, (value.numerator,), value.denominator)
        return None

    def _common(self, other: "Cyclotomic") -> tuple["Cyclotomic", "Cyclotomic"]:
        if self.order == other.order:
            return self, other
        n = math.lcm(self.order, other.order)
        return self.embedded(n), other.embedded(n)

    def __add__(self, other):
        o = Cyclotomic._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._common(o)
        da, db = a._den, b._den
        num = [x * db + y * da for x, y in zip(a._num, b._num)]
        return Cyclotomic._make(a.order, num, da * db)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-c for c in self._num), self._den)

    def __sub__(self, other):
        o = Cyclotomic._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = Cyclotomic._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = Cyclotomic._coerce(other)
        if o is None:
            return NotImplemented
        if o.order == 1:
            num = o._num[0]
            if num == 0:
                return Cyclotomic(1, (0,), 1)
            return Cyclotomic._make(
                self.order, [num * c for c in self._num], self._den * o._den
            )
        if self.order == 1:
            return o * self
        a, b = self._common(o)
        num = poly_mulmod(a._num, b._num, cyclotomic_polynomial(a.order))
        return Cyclotomic._make(a.order, num, a._den * b._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Cyclotomic._coerce(other)
        if o is None:
            return NotImplemented
        return self * inverse(o)

    def __rtruediv__(self, other):
        o = Cyclotomic._coerce(other)
        if o is None:
            return NotImplemented
        return o * inverse(self)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return inverse(self) ** (-exponent)
        result = Cyclotomic(1, (1,), 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation (the Galois automorphism zeta -> zeta^-1)."""
        if self.order == 1:
            return self
        n = self.order
        return Cyclotomic(n, tuple(mapped(self._num, n, n, -1)), self._den)

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        o = Cyclotomic._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._common(o)
        return a._num == b._num and a._den == b._den

    def __hash__(self):
        h = self._hash
        if h is None:
            r = self.reduced()
            h = hash((r.order, r._num, r._den))
            self._hash = h
        return h

    def __bool__(self):
        return any(self._num)

    # -- output --------------------------------------------------------------

    def to_complex(self) -> complex:
        n = self.order
        total = 0j
        for j, c in enumerate(self._num):
            if c:
                total += c * cmath.exp(2j * cmath.pi * j / n)
        return total / self._den

    def __str__(self):
        return format_expr(self)

    def __repr__(self):
        return f"Cyclotomic({format_expr(self)})"


ZERO = Cyclotomic(1, (0,), 1)
ONE = Cyclotomic(1, (1,), 1)


def mapped(coeffs, order: int, target: int, k: int = 1, e: int = 0) -> list[int]:
    """Numerators at order moved by zeta_order^j -> zeta_target^(k j target/order + e)
    and reduced modulo Phi_target: the coordinates at target of zeta_target^e
    sigma_k(x), x the value they hold.

    Every embedding (k = 1), Galois map and root-of-unity shift of stored
    numerators, in any combination, takes this one route. target is a multiple
    of order, coeffs holds at most order numerators and gcd(k, order) = 1, so
    no two land in one slot modulo x^target - 1; other input raises
    CycloDomainError. The identity map (target = order, k = 1 and e = 0 modulo
    them) returns coeffs itself, and a row moved (k = 1) below slot
    phi(target) is already reduced; any other row is packed (Packing) with its
    largest |numerator| as the bound and reduced by one remainder.
    """
    if target % order or target < order or len(coeffs) > order or math.gcd(k, order) != 1:
        raise CycloDomainError(f"cannot map {len(coeffs)} numerators at order {order} "
                               f"into order {target} by zeta -> zeta^{k}")
    s, e, plain = target // order, e % target, (k - 1) % order == 0
    if plain and s == 1 and not e:
        return coeffs
    deg = len(cyclotomic_polynomial(target)) - 1
    if plain and e + s * (len(coeffs) - 1) < deg:
        row = [0] * deg
        row[e : e + s * len(coeffs) : s] = coeffs
        return row
    p = Packing(target, max(map(abs, coeffs), default=0))
    w = p.width
    if plain:
        value = poly_pack(coeffs, w * s) << (e * w)
    else:
        value = sum(c << ((k * j % order * s + e) * w) for j, c in enumerate(coeffs) if c)
    return p.unpack(p.reduce(value))


def dot(coeffs, values) -> Cyclotomic:
    """sum_i c_i v_i, exactly; the two iterables must have equal length.

    Coefficients may be ints, Fractions or Cyclotomics; values are
    Cyclotomics. A term with a zero factor costs nothing, and the sum is
    taken at the lcm of its terms' orders instead of passing through order
    1. ZERO if every term vanishes. When every coefficient is an int, no
    field product is taken: each value enters one row by an index map, over
    one denominator, and the row is reduced modulo Phi once.
    """
    terms = [(c, v) for c, v in zip(coeffs, values, strict=True) if c and v]
    if not terms:
        return ZERO
    if not all(isinstance(c, int) for c, _ in terms):
        total = terms[0][0] * terms[0][1]
        for c, v in terms[1:]:
            total = total + c * v
        return total
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    order = math.lcm(*(v.order for _, v in terms))
    den = math.lcm(*(v._den for _, v in terms))
    acc = [0] * order
    for c, v in terms:
        f, s = c * (den // v._den), order // v.order
        for j, x in enumerate(v._num):
            acc[j * s] += f * x
    return Cyclotomic._make(order, poly_reduce(acc, cyclotomic_polynomial(order)), den)


def times_root(x: Cyclotomic, root: RootOfUnity) -> Cyclotomic:
    """root.value() * x as an index shift: the same value at the same order,
    with no field product. A root of order 1 or 2 keeps x's order, and a zero
    rational stays the order-1 ZERO. Any other product is x's numerators
    moved to the common order L and shifted by the root's exponent there
    (mapped)."""
    if root.order <= 2:
        return x if root.order == 1 else -x
    if x.order == 1 and not x._num[0]:
        return ZERO
    order = math.lcm(root.order, x.order)
    return Cyclotomic._make(
        order, mapped(x._num, x.order, order, 1, root.exponent_at(order)), x._den
    )


def root_sums(values, exponent_rows, order: int, den: int = 1) -> list[Cyclotomic]:
    """[(sum_m zeta_order^(e_m) v_m) / den for each row e], exactly and with
    no field product.

    Values may be ints, Fractions or Cyclotomics, each row holds one int
    exponent per value and den is a positive int. With L the lcm of order
    and every value's order, each value is packed once at L (Packing), so a
    power zeta_L^e is a left shift by e slots, and a whole row's sum is
    reduced by one remainder. Folded modulo x^L - 1, a sum's slots are at
    most the l1 bound: the sum over values of max|numerator|. The reduced
    sum is a constant exactly when its remainder lies in the lowest signed
    slot; such a sum comes back as a rational at order 1, any other one is
    unpacked at order L.
    """
    values = [v if isinstance(v, Cyclotomic) else from_rational(v) for v in values]
    big = math.lcm(order, *(v.order for v in values))
    common = math.lcm(*(v._den for v in values))
    p = Packing(big, sum((common // v._den) * max(map(abs, v._num)) for v in values))
    packed = [(common // v._den) * poly_pack(v._num, p.width * (big // v.order)) for v in values]
    step, total_den, half = p.width * (big // order), common * den, 1 << (p.width - 1)
    out = []
    for row in exponent_rows:
        r = p.reduce(sum(x << (e % order * step) for x, e in zip(packed, row, strict=True) if x))
        if -half < r < half:
            out.append(Cyclotomic._make(1, [r], total_den))
        else:
            out.append(Cyclotomic._make(big, p.unpack(r), total_den))
    return out


# ---------------------------------------------------------------------------
# matrices at one order N: (cells, den), where cell (i, j) holds the integer
# numerators of entry (i, j) over the shared den, reduced modulo Phi_N (lift,
# mapped). A product packs each cell into one int (mtckit._poly): an output
# cell is one dot product of ints, reduced modulo Phi_N by one int remainder
# (Packing.reduce).


def lift(matrix, order: int) -> tuple[list[list[list[int]]], int]:
    """A matrix of ints, Fractions or Cyclotomics as (cells, den) at the order.

    Each entry must lie in Q(zeta_order) by its representation: its order
    divides ``order``, else CycloDomainError. Cell (i, j) times 1/den is
    entry (i, j) at the order.
    """
    check_order(order)
    flat = [v if isinstance(v, Cyclotomic) else from_rational(v) for row in matrix for v in row]
    den = math.lcm(*(v._den for v in flat))
    cells = [[den // v._den * c for c in mapped(v._num, v.order, order)] for v in flat]
    cols = len(matrix[0])
    return [cells[i : i + cols] for i in range(0, len(cells), cols)], den


def max_abs(cells) -> int:
    """The largest |numerator| in a matrix of cells."""
    return max((max(max(c), -min(c)) for row in cells for c in row), default=0)


class Packing:
    """Cells at order N packed into ints, one width-bit slot per coefficient,
    so that a packed row p is the int p(X) at X = 2^width.

    bound is the largest |slot| of any value of one computation once folded
    modulo x^N - 1; the value itself need not be folded. Reducing the folded
    row modulo Phi_N multiplies that bound by at most the order's growth, so
    the reduced row r has deg r < d = phi(N) and |r_k| <= B = bound growth.

    The width is w = (2 B + H).bit_length() with H the height of Phi_N, so X
    >= 2 B + H + 1, and Q = Phi_N(X). Since x -> X is a ring map and Phi_N
    divides p - r, p(X) = r(X) modulo Q. With S = (X^d - 1) / (X - 1),
    2 |r(X)| <= 2 B S and Q >= X^d - H S, so Q - 2 |r(X)| >= X^d - (2 B + H) S
    >= X^d - (X - 1) S = 1: |r(X)| < Q/2. The remainder of p(X) in (-Q/2,
    Q/2] is therefore r(X), and as every |r_k| <= B < X/2 it unpacks into
    signed slots. It is a constant iff it lies in the lowest signed slot: a
    constant has |r(X)| <= B < X/2, and if k >= 1 is r's top degree, then
    2 B <= X - 2 (as H >= 1) gives |r(X)| >= X^k - B (X^k - 1) / (X - 1)
    > X^k / 2.
    """

    def __init__(self, order: int, bound: int):
        c = _order_constants(order)
        self.order, self.deg = order, len(c.poly) - 1
        self.width = (2 * bound * c.growth + c.height).bit_length()
        self.modulus = c.modulus(self.width)

    def pack(self, cells) -> list[list[int]]:
        return [[poly_pack(c, self.width) for c in row] for row in cells]

    def contract(self, left, right) -> list[list[int]]:
        """out[i][j] = sum_k left[i][k] right[j][k]: left times right transposed."""
        return [[sum(map(mul, row, col)) for col in right] for row in left]

    def reduce(self, value: int) -> int:
        """Any packed value modulo Phi_N, still packed: its remainder modulo
        Phi_N(X) taken in (-Q/2, Q/2]."""
        r = value % self.modulus
        return r - self.modulus if r > self.modulus >> 1 else r

    def unpack(self, value: int) -> list[int]:
        return poly_unpack(value, self.width, self.deg)


def matmul(a, b, order: int) -> tuple[list[list[list[int]]], int]:
    """The exact product of two (cells, den) matrices at one order, reduced."""
    (a_cells, a_den), (b_cells, b_den) = a, b
    # a cell product sums at most one term per coefficient of the shorter cell
    terms = len(b_cells) * min(len(a_cells[0][0]), len(b_cells[0][0]))
    p = Packing(order, terms * max_abs(a_cells) * max_abs(b_cells))
    out = p.contract(p.pack(a_cells), list(zip(*p.pack(b_cells))))
    return [[p.unpack(p.reduce(v)) for v in row] for row in out], a_den * b_den


def from_rational(q) -> Cyclotomic:
    """The rational q (int or Fraction) as a Cyclotomic of order 1."""
    x = Cyclotomic._coerce(q)
    if x is None:
        raise CycloDomainError(f"not a rational value: {q!r}")
    return x


def root_of_unity(q: int, k: int) -> Cyclotomic:
    """The exact value zeta_q^k, represented at its minimal order."""
    if q < 1:
        raise CycloDomainError(f"root-of-unity order must be >= 1, got {q}")
    k %= q
    g = math.gcd(k, q)
    q, k = q // g, k // g
    if q == 1:
        return ONE
    if q == 2:
        return Cyclotomic(1, (-1,), 1)
    return Cyclotomic(q, tuple(mapped((1,), 1, q, 1, k)), 1)


def zeta(n: int) -> Cyclotomic:
    return root_of_unity(n, 1)


# ---------------------------------------------------------------------------
# Galois automorphisms, descent, inversion


def galois_apply(x: Cyclotomic, k: int, m: int) -> Cyclotomic:
    """Apply the Galois automorphism zeta_m -> zeta_m^k of Q(zeta_m) to x.

    x must lie in Q(zeta_m); that is verified by descending its
    representation to order m, so a value outside the field raises
    DescentError rather than being silently mangled.
    """
    if m < 1:
        raise CycloDomainError(f"automorphism modulus must be >= 1, got {m}")
    k %= m
    if math.gcd(k, m) != 1:
        raise CycloDomainError(f"gcd({k}, {m}) != 1: not a Galois automorphism")
    y = descend(x.embedded(math.lcm(x.order, m)), m)
    if y.order == 1 or k == 1:
        return y
    return Cyclotomic(m, tuple(mapped(y._num, m, m, k)), y._den)


def ramanujan_sums(n: int) -> list[int]:
    """The Ramanujan sums c_n(j) = Tr_{Q(zeta_n)/Q}(zeta_n^j) for j = 0..n-1.

    c_n(j) = mu(n/d) phi(n)/phi(n/d) with d = gcd(j, n) (von Sterneck): mu(n/d)
    is 0 unless n/d is a product of distinct primes p of n, and then
    phi(n)/phi(n/d) = phi(n) / prod(p - 1).
    """
    sums = {n: euler_phi(n)}
    for p in _factorize(n):
        sums.update({d // p: -c // (p - 1) for d, c in sums.items()})
    return [sums.get(math.gcd(j, n), 0) for j in range(n)]


def _prime_step(num: list[int], n: int, p: int) -> tuple[list[int], bool]:
    # numerators at order n re-expressed at n / p, and whether the value lies there
    m = n // p
    if m % p == 0:
        # Phi_n(x) = Phi_m(x^p): the power basis at m is every p-th one at n
        return num[::p], not any(c for j, c in enumerate(num) if j % p)
    # zeta_n = zeta_m^u zeta_p^v with u p + v m = 1: slot j is zeta_m^(j u) zeta_p^(j v).
    # With x = sum_t y_t zeta_p^t, y_t in Q(zeta_m), and 1 + zeta_p + ... = 0, x lies
    # in Q(zeta_m) iff y_1 = ... = y_(p-1), and then x = y_0 - y_1
    u, v = pow(p, -1, m) if m > 1 else 0, pow(m, -1, p)
    buckets: dict[int, list[int]] = {}
    for j, c in enumerate(num):
        if c:
            t = j * v % p
            if t not in buckets:
                buckets[t] = [0] * m
            buckets[t][j * u % m] += c
    mod = cyclotomic_polynomial(m)
    zero = [0] * (len(mod) - 1)
    y = {t: poly_reduce(b, mod) for t, b in buckets.items()}
    y0, y1 = y.get(0, zero), y.get(1, zero)
    return [a - b for a, b in zip(y0, y1)], all(y.get(t, zero) == y1 for t in range(2, p))


def descend(x: Cyclotomic, m: int) -> Cyclotomic:
    """Re-represent x at order m, or raise DescentError if x is not in Q(zeta_m).

    m must divide the order of x. The order drops one prime at a time, each
    step in closed form. The witness is the first power-basis coordinate
    where x differs from its candidate at order m embedded back.
    """
    n = x.order
    if m < 1 or n % m != 0:
        raise CycloDomainError(f"descent target {m} does not divide order {n}")
    if m == n:
        return x
    num, k, ok = list(x._num), n, True
    # the largest primes first: their steps shrink the order the most
    for p, e in sorted(_factorize(n // m).items(), reverse=True):
        for _ in range(e):
            num, step_ok = _prime_step(num, k, p)
            ok, k = ok and step_ok, k // p
    if not ok:
        back = mapped(num, m, n)
        raise DescentError(n, m, next(i for i, (a, b) in enumerate(zip(x._num, back)) if a != b))
    return Cyclotomic._make(m, num, x._den)


def inverse(x: Cyclotomic) -> Cyclotomic:
    """The multiplicative inverse, via the product of Galois conjugates.

    x * inverse(x) = 1 exactly; the field norm (x times all its nontrivial
    conjugates) is a nonzero rational, so the inverse is the conjugate
    product divided by the norm.
    """
    if x.is_zero():
        raise ZeroDivisionError("inverse of zero cyclotomic")
    r = x.reduced()
    n = r.order
    if n == 1:
        return Cyclotomic._make(1, [r._den], r._num[0])
    prod = ONE
    for k in range(2, n):
        if math.gcd(k, n) == 1:
            prod = prod * Cyclotomic(n, tuple(mapped(r._num, n, n, k)), r._den)
    norm = (r * prod).reduced()
    q = norm.as_rational()
    if not q:
        raise ConsistencyError("field norm must be a nonzero rational")
    return prod * Fraction(q.denominator, q.numerator)


# ---------------------------------------------------------------------------
# roots of unity as (order, exponent) pairs


@dataclasses.dataclass(frozen=True, order=True)
class RootOfUnity:
    """exp(2*pi*i*exponent/order) in lowest terms; a cheap exact handle.

    Multiplication, powers, and equality are integer arithmetic on the
    exponent fraction, so spectral gates never touch field arithmetic.
    """

    order: int
    exponent: int

    @staticmethod
    def make(order: int, exponent: int) -> "RootOfUnity":
        if order < 1:
            raise CycloDomainError(f"root order must be >= 1, got {order}")
        exponent %= order
        g = math.gcd(exponent, order)
        return RootOfUnity(order // g, exponent // g)

    def value(self) -> Cyclotomic:
        return root_of_unity(self.order, self.exponent)

    def exponent_at(self, order: int) -> int:
        """The exponent e with self = zeta_order^e; order is a multiple of
        the root's order."""
        if order % self.order:
            raise CycloDomainError(f"a root of order {self.order} is no power of zeta_{order}")
        return self.exponent * (order // self.order)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        n = math.lcm(self.order, other.order)
        return RootOfUnity.make(n, self.exponent_at(n) + other.exponent_at(n))

    def __pow__(self, k: int) -> "RootOfUnity":
        return RootOfUnity.make(self.order, self.exponent * k)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity.make(self.order, -self.exponent)

    def __truediv__(self, other: "RootOfUnity") -> "RootOfUnity":
        n = math.lcm(self.order, other.order)
        return RootOfUnity.make(n, self.exponent_at(n) - other.exponent_at(n))

    def is_one(self) -> bool:
        return self.order == 1

    def turn(self) -> Fraction:
        """The angle as a fraction of a full turn, in [0, 1)."""
        return Fraction(self.exponent, self.order)


# ---------------------------------------------------------------------------
# recognition and rendering


def recognize(x: Cyclotomic) -> tuple[Fraction, RootOfUnity] | None:
    """x as (scale, root) with x = scale * root and scale > 0, else None.

    Read off the power basis at x's own order n: x = q * zeta_n^j exactly
    when x * zeta_n^-t has a single nonzero coordinate for some t in {0,
    phi(n), 2 phi(n), ...}, so at most ceil(n / phi(n)) shifts are tried and
    t = 0 is a scan. A negative q joins the root, -zeta_n^j = zeta_2n^(n + 2j);
    rationals are roots of order 1 or 2. Zero and other values give None.
    """
    n, num = x.order, x._num
    if not any(num):
        return None
    for t in range(0, n, len(num)):
        coords = mapped(num, n, n, 1, -t) if t else num
        if len(coords) - coords.count(0) == 1:
            j = next(j for j, c in enumerate(coords) if c)
            c = coords[j]
            scale = Fraction(c, x._den)
            if c < 0:
                return -scale, RootOfUnity.make(2 * n, n + 2 * (j + t))
            return scale, RootOfUnity.make(n, j + t)
    return None


def as_root_of_unity(x: Cyclotomic) -> RootOfUnity | None:
    """x as a RootOfUnity if it is exactly one, else None."""
    found = recognize(x)
    return found[1] if found is not None and found[0] == 1 else None


def as_integer(x: Cyclotomic) -> int | None:
    """x as a Python int if it is a rational integer, else None."""
    # power-basis coordinates are unique at any order
    q, r = divmod(x._num[0], x._den)
    return None if r or any(x._num[1:]) else q


def _format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_root(r: RootOfUnity) -> str:
    """Canonical E-notation of a root of unity: 1, -1, E(n) or E(n)^k."""
    if r.order <= 2:
        return "1" if r.order == 1 else "-1"
    return f"E({r.order})" if r.exponent == 1 else f"E({r.order})^{r.exponent}"


def format_expr(x: Cyclotomic) -> str:
    """Canonical E-notation rendering.

    Rational multiples of roots of unity print as a rational or a single
    q*E(n)^k term (signs absorbed into the root); everything else prints as
    the power-basis sum at the value's minimal order.
    """
    if not x:
        return "0"
    found = recognize(x)
    if found is not None:
        scale, root = found
        if root.order <= 2:  # a rational
            return _format_rational(scale if root.order == 1 else -scale)
        mono = format_root(root)
        return mono if scale == 1 else f"{_format_rational(scale)}*{mono}"
    r = x.reduced()
    n = r.order
    parts: list[str] = []
    for j, c in enumerate(r._num):
        if not c:
            continue
        coeff = Fraction(c, r._den)
        mono = f"E({n})" if j == 1 else f"E({n})^{j}" if j > 1 else ""
        if not mono:
            term = _format_rational(coeff)
        elif coeff == 1:
            term = mono
        elif coeff == -1:
            term = f"-{mono}"
        else:
            term = f"{_format_rational(coeff)}*{mono}"
        if parts and not term.startswith("-"):
            parts.append(f" + {term}")
        elif parts:
            parts.append(f" - {term[1:]}")
        else:
            parts.append(term)
    return "".join(parts)
