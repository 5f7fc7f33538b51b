import cmath
import functools
import math
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from mtckit import _poly, cyclo
from mtckit.cyclo import (
    CycloDomainError,
    DescentError,
    RootOfUnity,
    as_root_of_unity,
    descend,
    format_expr,
    from_rational,
    galois_apply,
    inverse,
    recognize,
    root_of_unity,
    zeta,
)


def rand_cyclotomic(rng, order, span=6):
    x = cyclo.ZERO
    for j in range(cyclo.euler_phi(order)):
        if rng.random() < 0.6:
            x = x + Fraction(rng.randint(-span, span), rng.randint(1, 4)) * root_of_unity(order, j)
    return x


def gauss_sum_13():
    total = cyclo.ZERO
    for k in range(1, 13):
        total = total + oracles.legendre(k, 13) * root_of_unity(13, k)
    return total


class TestRootsOfUnity:
    def test_unit(self):
        assert root_of_unity(1, 0) == 1

    def test_fourth_root_squared(self):
        assert root_of_unity(4, 2) == -1
        assert zeta(4) * zeta(4) == -1

    def test_third_roots_sum_to_minus_one(self):
        assert root_of_unity(3, 1) + root_of_unity(3, 2) == -1

    def test_zero_order_rejected(self):
        with pytest.raises(CycloDomainError):
            root_of_unity(0, 1)

    def test_canonical_pairs(self):
        assert RootOfUnity.make(78, 52) == RootOfUnity(3, 2)
        assert RootOfUnity.make(8, 6) == RootOfUnity(4, 3)
        assert RootOfUnity.make(5, 7) == RootOfUnity(5, 2)

    def test_exponent_at_matches_the_hand_formula(self):
        for q in (1, 2, 3, 8, 12, 39):
            for k in range(q):
                r = RootOfUnity.make(q, k)
                for order in (r.order, 2 * r.order, 5 * r.order, 312 * r.order):
                    e = r.exponent_at(order)
                    assert e == r.exponent * (order // r.order)
                    assert RootOfUnity.make(order, e) == r
        for r, order in ((RootOfUnity(8, 1), 12), (RootOfUnity(3, 2), 1), (RootOfUnity(2, 1), 3)):
            with pytest.raises(CycloDomainError):
                r.exponent_at(order)

    def test_root_arithmetic_matches_field(self):
        r = RootOfUnity.make(12, 5) * RootOfUnity.make(8, 3)
        assert r.value() == root_of_unity(12, 5) * root_of_unity(8, 3)
        assert RootOfUnity.make(12, 5).inverse().value() == inverse(root_of_unity(12, 5))


class TestArithmetic:
    def test_gauss_sum_squares_to_13(self):
        g = gauss_sum_13()
        assert g * g == 13
        # float cross-check of the 144-term expansion
        assert abs(g.to_complex() - oracles.gauss_sum_float(13)) < 1e-9
        assert abs(g.to_complex() - math.sqrt(13)) < 1e-9

    def test_additive_identity(self):
        rng = random.Random(11)
        for _ in range(20):
            x = rand_cyclotomic(rng, rng.choice([5, 8, 12, 13]))
            assert x + 0 == x
            assert x + cyclo.ZERO == x

    def test_field_axioms_random(self):
        rng = random.Random(23)
        for _ in range(25):
            n = rng.choice([3, 4, 5, 8, 12, 36])
            x, y, z = (rand_cyclotomic(rng, n) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            if not x.is_zero():
                assert x * inverse(x) == 1

    def test_mixed_order_arithmetic(self):
        assert zeta(3) * zeta(4) == root_of_unity(12, 7)
        assert zeta(6) == -zeta(3) ** 2
        assert zeta(2) == -1

    def test_equality_across_orders(self):
        a = zeta(12) ** 2
        assert a == zeta(6)
        assert hash(a) == hash(zeta(6))
        assert from_rational(1).embedded(12) == cyclo.ONE


class TestInverse:
    def test_examples(self):
        assert inverse(zeta(5)) == zeta(5) ** 4
        assert inverse(from_rational(2)) == Fraction(1, 2)
        x = 1 + zeta(3)
        assert x * inverse(x) == 1

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            inverse(cyclo.ZERO)

    def test_pow_negative(self):
        assert zeta(7) ** -2 == inverse(zeta(7)) ** 2


class TestGalois:
    def test_basic(self):
        assert galois_apply(zeta(3), 2, 3) == zeta(3) ** 2
        assert galois_apply(from_rational(Fraction(7, 3)), 5, 12) == Fraction(7, 3)

    def test_gauss_sum_sign_flip(self):
        # 2 is a quadratic non-residue mod 13, so the automorphism negates sqrt(13)
        assert oracles.legendre(2, 13) == -1
        g = gauss_sum_13()
        img = galois_apply(g, 2, 13)
        assert img == -g
        assert abs(img.to_complex() + math.sqrt(13)) < 1e-9

    def test_requires_coprime(self):
        with pytest.raises(CycloDomainError):
            galois_apply(zeta(12), 4, 12)

    def test_outside_field_raises_descent_error(self):
        with pytest.raises(DescentError):
            galois_apply(zeta(12), 2, 3)

    def test_composition_law(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.choice([5, 8, 12, 13, 39])
            x = rand_cyclotomic(rng, n)
            units = [k for k in range(1, n) if math.gcd(k, n) == 1]
            k1, k2 = rng.choice(units), rng.choice(units)
            lhs = galois_apply(galois_apply(x, k1, n), k2, n)
            assert lhs == galois_apply(x, (k1 * k2) % n, n)

    def test_conjugation(self):
        rng = random.Random(17)
        for _ in range(15):
            n = rng.choice([5, 8, 12, 13])
            x, y = rand_cyclotomic(rng, n), rand_cyclotomic(rng, n)
            assert x.conjugate().conjugate() == x
            assert (x * y).conjugate() == x.conjugate() * y.conjugate()
            assert (x + y).conjugate() == x.conjugate() + y.conjugate()


    def test_identity_checks_the_field(self):
        # k = 1 returns the value at order m, after the same descent check
        x = galois_apply(zeta(12) ** 8, 1, 3)
        assert (x.order, x) == (3, zeta(3) ** 2)
        assert galois_apply(from_rational(Fraction(7, 3)), 1, 4).order == 4
        with pytest.raises(DescentError):
            galois_apply(zeta(12), 1, 3)


class TestTraces:
    @staticmethod
    def _trace(x, n):
        # the sum of the Galois conjugates of x over Q, by galois_apply
        units = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
        return sum((galois_apply(x, k, n) for k in units[1:]), galois_apply(x, units[0], n))

    def test_sum_of_conjugates(self):
        # Tr(zeta_n^s x) for every s < n, with denominators, at orders with repeated,
        # several and single prime factors
        rng = random.Random(23)
        for n in (1, 2, 3, 4, 6, 8, 9, 12, 13, 15, 30, 36, 39, 60):
            for _ in range(3):
                x = rand_cyclotomic(rng, n).embedded(n)
                ints, den = oracles.traces(x)
                assert len(ints) == n
                for s, t in enumerate(ints):
                    want = self._trace(cyclo.times_root(x, RootOfUnity.make(n, s)), n)
                    assert want == Fraction(t, den), (n, s)

    def test_ramanujan_sums_at_large_order(self):
        # c_n(j) = mu(n/d) phi(n)/phi(n/d), d = gcd(j, n), at n = 1,200 (phi = 320)
        n = 1200
        mobius = {1: 1, 2: -1, 3: -1, 5: -1, 6: 1, 10: 1, 15: 1, 30: -1}
        want = [mobius.get(n // math.gcd(j, n), 0) * cyclo.euler_phi(n)
                // cyclo.euler_phi(n // math.gcd(j, n)) for j in range(n)]
        assert cyclo.ramanujan_sums(n) == want
        assert cyclo.ramanujan_sums(1) == [1]


class TestTimesRoot:
    @staticmethod
    def _by_index_map(x, root):
        # the product reduced as a polynomial: the shifted numerators by index_map at
        # the common order, then poly_reduce modulo Phi of that order
        if root.order <= 2:
            return x if root.order == 1 else -x
        if x.order == 1 and not x._num[0]:
            return cyclo.ZERO
        order = math.lcm(root.order, x.order)
        p = oracles.index_map(x._num, x.order, order, 1, root.exponent_at(order))
        return cyclo.Cyclotomic._make(
            order, _poly.poly_reduce(p, cyclo.cyclotomic_polynomial(order)), x._den
        )

    def test_matches_the_reduced_index_map(self):
        # order, numerators and denominator agree for every order L <= 120 and every
        # root zeta_L^e, on a random value at L or at a divisor of L (numerators
        # spread apart) with small or wide numerators, a rational and a zero
        rng = random.Random(31)
        for order in range(1, 121):
            divisors = [d for d in range(1, order + 1) if order % d == 0]
            zero = cyclo.Cyclotomic(order, (0,) * cyclo.euler_phi(order), 1)
            for e in range(order):
                root = RootOfUnity.make(order, e)
                at = order if e % 2 else rng.choice(divisors)
                bits = 134 if e % 3 == 0 else 5  # numerators past 10^40, or below 16
                half = 1 << (bits - 1)
                num = [rng.getrandbits(bits) - half for _ in range(cyclo.euler_phi(at))]
                values = (
                    cyclo.Cyclotomic._make(at, num, rng.randint(1, 6)),
                    from_rational(Fraction(rng.randint(-50, 50), rng.randint(1, 9))),
                    zero if e % 2 else cyclo.ZERO,
                )
                for x in values:
                    got, want = cyclo.times_root(x, root), self._by_index_map(x, root)
                    assert (got.order, got._num, got._den) == (want.order, want._num, want._den), (
                        order, e, x
                    )


class TestMapped:
    def test_matches_the_reduced_index_map(self):
        # every k coprime to the order, shifts e past the target and negative, rows of
        # phi(order) to order numerators, small or past 10^40, into the order or a
        # multiple of it
        rng = random.Random(37)
        for order in range(1, 61):
            for _ in range(6):
                target = order * rng.choice((1, 1, 2, 3, 5))
                k = rng.choice([k for k in range(-order, 2 * order) if math.gcd(k, order) == 1])
                e = rng.randrange(-2 * target, 2 * target)
                bits = rng.choice((4, 134))
                coeffs = [rng.getrandbits(bits) - (1 << (bits - 1))
                          for _ in range(rng.randint(cyclo.euler_phi(order), order))]
                want = _poly.poly_reduce(
                    oracles.index_map(coeffs, order, target, k, e),
                    cyclo.cyclotomic_polynomial(target),
                )
                if target == order and (k - 1) % order == 0 and e % order == 0:
                    want = coeffs
                assert cyclo.mapped(coeffs, order, target, k, e) == want, (order, target, k, e)

    def test_identity_returns_the_row(self):
        row = (3, -1, 4, 1)
        assert cyclo.mapped(row, 5, 5) is row
        assert cyclo.mapped(row, 5, 5, 6, -10) is row
        assert cyclo.mapped(row, 8, 8) is row

    def test_refuses_rows_whose_slots_could_collide(self):
        with pytest.raises(CycloDomainError):
            cyclo.mapped([1, 2, 3, 4], 4, 8, 2)  # zeta -> zeta^2 is no automorphism at 4
        with pytest.raises(CycloDomainError):
            cyclo.mapped([1, 2, 3, 4, 5], 4, 8)  # five numerators for four slots
        with pytest.raises(CycloDomainError):
            cyclo.mapped([1, 2], 3, 8)  # 8 is no multiple of 3

    def test_width_is_tight(self, monkeypatch):
        # the extreme row of TestMatmul, moved back by zeta -> zeta^k and zeta^e so
        # that mapped moves it onto itself: its reduced slot k reaches bound times the
        # growth. The remainder mapped reads (Packing.reduce) unpacks to it at its
        # width, from a Galois map and from a plain shift; at the width without the
        # growth factor it does not
        seen = TestIntegerSums._record_reduce(monkeypatch)
        for order, e in ((105, 48), (385, 145)):
            mod = cyclo.cyclotomic_polynomial(order)
            deg, height = len(mod) - 1, max(map(abs, mod))
            for bound in (1, 1000, (1 << 40) - 1):
                row, want, growth = TestMatmul._extreme_row(order, bound)
                for k in (1, 2):
                    coeffs = [row[(k * j + e) % order] for j in range(order)]
                    seen.clear()
                    assert cyclo.mapped(coeffs, order, order, k, e) == want
                    ((width, r),) = seen
                    assert width == (2 * bound * growth + height).bit_length()
                    narrow = (2 * bound + height).bit_length()
                    q = _poly.poly_pack(mod, narrow)
                    r = _poly.poly_pack(row, narrow) % q
                    r -= q if r > q >> 1 else 0
                    try:
                        got = _poly.poly_unpack(r, narrow, deg)
                    except ValueError:
                        got = None
                    assert got != want, (order, bound, k)


class TestDescent:
    def test_examples(self):
        minus_one = from_rational(-1).embedded(12)
        down = descend(minus_one, 1)
        assert down.order == 1 and down == -1
        sq = zeta(12).embedded(12) ** 2
        at6 = descend(sq.embedded(12), 6)
        assert at6.order == 6 and at6 == zeta(6)
        with pytest.raises(DescentError):
            descend(zeta(12), 6)

    def test_target_must_divide(self):
        with pytest.raises(CycloDomainError):
            descend(zeta(12), 5)

    def test_embed_descend_roundtrip(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.choice([3, 5, 8, 12, 13])
            mult = rng.choice([2, 3, 4])
            x = rand_cyclotomic(rng, n)
            assert descend(x.embedded(n * mult), n) == x

    def test_witness_index(self):
        try:
            descend(zeta(12), 6)
        except DescentError as exc:
            assert exc.order == 12 and exc.target == 6
            assert 0 <= exc.witness_index < cyclo.euler_phi(12)
        else:
            pytest.fail("descent should have failed")


# every prime step n -> n / p of these orders is checked against the linear solver
DESCENT_ORDERS = (8, 12, 13, 24, 26, 39, 40, 52, 78, 88, 117, 156)


def _descent_outcome(descend_fn, x, m):
    try:
        y = descend_fn(x, m)
    except DescentError as exc:
        return "fails", exc.order, exc.target, exc.witness_index
    return "descends", y.order, y._num, y._den


@pytest.mark.parametrize("n", DESCENT_ORDERS)
def test_prime_steps_match_the_linear_solver(n):
    rng = random.Random(n)
    dn = cyclo.euler_phi(n)
    for p in (q for q in range(2, n + 1) if n % q == 0 and all(q % k for k in range(2, q))):
        m = n // p
        dm = cyclo.euler_phi(m)
        for trial in range(24):
            inside = cyclo.Cyclotomic._make(
                m, [rng.randint(-9, 9) for _ in range(dm)], rng.randint(1, 6)
            ).embedded(n)
            num = list(inside._num)
            num[rng.randrange(dn)] += rng.choice((-1, 1))  # one coordinate off
            near = cyclo.Cyclotomic._make(n, num, inside._den)
            far = cyclo.Cyclotomic._make(n, [rng.randint(-3, 3) for _ in range(dn)], 1)
            for x in (inside, near, far):
                got, want = _descent_outcome(descend, x, m), _descent_outcome(
                    oracles.descend_by_solver, x, m
                )
                if m % p == 0 or got[0] == "descends":
                    assert got == want, (n, m, x)
                else:
                    # the solver's candidate hangs on its pivot rows; only the
                    # first coordinate off the embedded candidate may differ
                    assert got[:3] == want[:3], (n, m, x)
                    assert 0 <= got[3] < dn


class TestReduceRecognize:
    def test_reduced_minimal(self):
        assert (zeta(12) ** 2).reduced().order == 3  # Q(zeta_6) = Q(zeta_3)
        assert (zeta(12) ** 4).reduced().order == 3
        assert (zeta(12) ** 3).reduced().order == 4
        assert from_rational(5).embedded(36).reduced().order == 1

    def test_recognize_scaled_root(self):
        # -e^(i pi/3) = e^(4 pi i/3)
        assert recognize(-root_of_unity(78, 13)) == (1, RootOfUnity(3, 2))

    def test_recognize_integer_and_rational(self):
        # rationals are roots of order 1 or 2 with a positive scale
        assert recognize(from_rational(13)) == (13, RootOfUnity(1, 0))
        assert recognize(from_rational(-13)) == (13, RootOfUnity(2, 1))
        assert recognize(from_rational(Fraction(1, 3))) == (Fraction(1, 3), RootOfUnity(1, 0))
        assert recognize(from_rational(5).embedded(36)) == (5, RootOfUnity(1, 0))
        assert recognize(cyclo.ZERO) is None

    def test_recognize_generic(self):
        assert recognize(1 + zeta(5)) is None

    def test_recognize_negative_scale_absorbed(self):
        # -zeta_5 = e^(2 pi i 7/10)
        assert recognize(Fraction(-3, 2) * zeta(5)) == (Fraction(3, 2), RootOfUnity(10, 7))

    def test_float_agreement(self):
        rng = random.Random(47)
        for _ in range(25):
            n = rng.choice([7, 12, 20, 36, 60, 100])
            x, y = rand_cyclotomic(rng, n, span=4), rand_cyclotomic(rng, n, span=4)
            exact = (x * y + x - y).to_complex()
            floats = x.to_complex() * y.to_complex() + x.to_complex() - y.to_complex()
            assert abs(exact - floats) < 1e-9 * (1 + abs(floats))


class TestCanonicalForms:
    """recognize, as_root_of_unity and format_expr read canonical forms off the
    power basis at the value's own order; the oracle reduces to the minimal
    order by descent and scans the table of every x^j modulo Phi_m."""

    def check(self, x, *copies):
        want, text = oracles.canonical_by_monomials(x)
        root = want[1] if want is not None and want[0] == 1 else None
        for y in (x, *copies):
            assert recognize(y) == want, (y.order, x)
            assert as_root_of_unity(y) == root, (y.order, x)
            assert format_expr(y) == text, (y.order, x)
        return want

    def test_scaled_roots_at_every_order_up_to_120(self):
        for q in range(1, 121):
            for k in range(q):
                for scale in (1, -1, Fraction(3, 2), Fraction(-2, 7)):
                    x = scale * root_of_unity(q, k)
                    got = self.check(x, x.embedded(2 * q), x.embedded(3 * q))
                    if scale > 0:
                        assert got == (scale, RootOfUnity.make(q, k)), (q, k, scale)
                    else:
                        assert got == (-scale, RootOfUnity.make(2 * q, q + 2 * k)), (q, k, scale)

    def test_sums_and_zero(self):
        assert self.check(1 + zeta(5), (1 + zeta(5)).embedded(15)) is None
        assert self.check(cyclo.ZERO, cyclo.ZERO.embedded(12)) is None
        rng = random.Random(59)
        for _ in range(200):
            n = rng.choice([3, 4, 5, 7, 8, 9, 12, 13, 15, 20, 24, 39, 40])
            x = rand_cyclotomic(rng, n, span=3)
            self.check(x, x.embedded(2 * n), x.embedded(3 * n))

    def test_format_root_matches_format_expr(self):
        for n in range(1, 400):
            for k in range(n):
                r = RootOfUnity.make(n, k)
                assert cyclo.format_root(r) == format_expr(r.value()), (n, k)

    def test_reduced_matches_the_descent_loop(self):
        rng = random.Random(61)
        for _ in range(300):
            n = rng.choice([3, 4, 5, 7, 8, 9, 12, 13, 15, 20, 24, 39, 40])
            x = rand_cyclotomic(rng, n, span=3) if rng.random() < 0.5 else root_of_unity(n, 1)
            for y in (x, x.embedded(2 * n), x.embedded(6 * n)):
                want = oracles.reduced_by_descent(y)
                got = y.reduced()
                assert (got.order, got._num, got._den) == (want.order, want._num, want._den)


class TestDft:
    def test_roundtrip_100_random_rational_vectors(self):
        rng = random.Random(101)
        for _ in range(100):
            n = rng.randint(1, 8)
            vec = [Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(n)]
            back = oracles.idft(oracles.dft(vec))
            assert all(b == v for b, v in zip(back, vec))

    def test_matches_float_definition(self):
        vec = [Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)]
        out = oracles.dft(vec)
        n = len(vec)
        for k in range(1, n + 1):
            want = sum(
                float(vec[m - 1]) * cmath.exp(2j * cmath.pi * m * k / n)
                for m in range(1, n + 1)
            )
            assert abs(out[k - 1].to_complex() - want) < 1e-9


    def test_empty_vectors(self):
        assert oracles.dft([]) == []
        assert oracles.idft([]) == []


class TestDot:
    ORDERS = (1, 3, 8, 13, 39)

    def _coeff(self, rng):
        kind = rng.randrange(4)
        if kind == 0:
            return 0
        if kind == 1:
            return rng.randint(-5, 5)
        if kind == 2:
            return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return rand_cyclotomic(rng, rng.choice(self.ORDERS))

    def _value(self, rng):
        order = rng.choice(self.ORDERS)
        if rng.random() < 0.2:
            return zeta(order) - zeta(order)  # zero carried at order > 1
        return rand_cyclotomic(rng, order)

    def test_matches_pairwise_products(self):
        rng = random.Random(59)
        for _ in range(150):
            k = rng.randint(1, 8)
            coeffs = [self._coeff(rng) for _ in range(k)]
            values = [self._value(rng) for _ in range(k)]
            want = functools.reduce(operator.add, [c * v for c, v in zip(coeffs, values)])
            got = cyclo.dot(coeffs, values)
            assert isinstance(got, cyclo.Cyclotomic)
            assert got == want, (coeffs, values)
            assert cyclo.dot(iter(coeffs), (v for v in values)) == want
            as_dict = dict(zip(range(k), coeffs))
            assert cyclo.dot(as_dict.values(), (values[i] for i in as_dict)) == want

    def test_int_coefficients_take_no_field_product(self, monkeypatch):
        # int coefficients enter by index map: the same value at the same order
        # and denominator as the term-by-term sum, with no Cyclotomic product
        rng = random.Random(60)
        cases = []
        for _ in range(150):
            k = rng.randint(1, 8)
            coeffs = [rng.randint(-4, 4) for _ in range(k)]
            values = [self._value(rng) for _ in range(k)]
            terms = [c * v for c, v in zip(coeffs, values) if c and v]
            want = functools.reduce(operator.add, terms) if terms else cyclo.ZERO
            cases.append((coeffs, values, want))
        products = []
        mul = cyclo.Cyclotomic.__mul__

        def counting_mul(self, other):
            products.append((self, other))
            return mul(self, other)

        monkeypatch.setattr(cyclo.Cyclotomic, "__mul__", counting_mul)
        monkeypatch.setattr(cyclo.Cyclotomic, "__rmul__", counting_mul)
        for coeffs, values, want in cases:
            got = cyclo.dot(coeffs, values)
            assert (got.order, got._num, got._den) == (want.order, want._num, want._den)
        assert not products

    def test_all_zero_terms(self):
        z13 = zeta(13) - zeta(13)
        assert cyclo.dot([], []) == cyclo.ZERO
        got = cyclo.dot([0, Fraction(0), 3, zeta(8)], [zeta(8), zeta(3), z13, cyclo.ZERO])
        assert isinstance(got, cyclo.Cyclotomic) and got == cyclo.ZERO

    def test_unequal_lengths_raise(self):
        with pytest.raises(ValueError):
            cyclo.dot([1, 2], [zeta(3)])
        with pytest.raises(ValueError):
            cyclo.dot([1], (zeta(3) for _ in range(2)))


def root_sums_by_dot(values, rows, order, den=1):
    """The reference for cyclo.root_sums: each row's sum as cyclo.dot over the
    roots' field values, divided by den."""
    values = list(values)
    return [
        cyclo.dot(values, (RootOfUnity.make(order, e).value() for e in row)) * Fraction(1, den)
        for row in rows
    ]


def int_sums(values, rows, order, den=1):
    # each root sum as an int, None where it is not a rational integer
    return [cyclo.as_integer(s) for s in cyclo.root_sums(values, rows, order, den)]


class TestRootSums:
    """cyclo.root_sums against cyclo.dot over the roots' field values."""

    ORDERS = (1, 3, 8, 13, 39)
    # root orders up to 156 that keep every common order a divisor of 312
    ROOT_ORDERS = (1, 2, 3, 4, 6, 8, 12, 13, 24, 26, 39, 52, 78, 104, 156)

    def _value(self, rng):
        kind = rng.randrange(5)
        if kind == 0:
            return rng.choice([0, Fraction(0), cyclo.ZERO, zeta(39) - zeta(39)])
        if kind == 1:
            return rng.randint(-9, 9)
        if kind == 2:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        return rand_cyclotomic(rng, rng.choice(self.ORDERS))

    @staticmethod
    def _root_rows(roots):
        # rows of RootOfUnity as int exponents at the lcm of their orders
        order = math.lcm(*(r.order for row in roots for r in row))
        return [[r.exponent_at(order) for r in row] for row in roots], order

    def test_matches_dot_over_root_values(self):
        rng = random.Random(61)
        for _ in range(150):
            k = rng.randint(1, 7)
            values = [self._value(rng) for _ in range(k)]
            roots = [
                [RootOfUnity.make(q, rng.randrange(q)) for q in rng.choices(self.ROOT_ORDERS, k=k)]
                for _ in range(rng.randint(1, 4))
            ]
            rows, order = self._root_rows(roots)
            got = cyclo.root_sums(values, rows, order)
            assert len(got) == len(rows)
            for row, total in zip(roots, got):
                assert isinstance(total, cyclo.Cyclotomic)
                assert total == cyclo.dot(values, (r.value() for r in row)), (values, row)
            # iterators are accepted for both arguments
            assert cyclo.root_sums(iter(values), (iter(row) for row in rows), order) == got

    def test_den_divides_each_sum(self):
        rng = random.Random(62)
        for den in (1, 2, 3, 12):
            values = [self._value(rng) for _ in range(4)]
            roots = [[RootOfUnity.make(q, rng.randrange(q)) for q in (1, 4, 13, 39)]
                     for _ in range(3)]
            rows, order = self._root_rows(roots)
            got = cyclo.root_sums(values, rows, order, den)
            want = [s * Fraction(1, den) for s in cyclo.root_sums(values, rows, order)]
            assert [(v.order, v._num, v._den) for v in got] == [
                (v.order, v._num, v._den) for v in want
            ]
            assert got == root_sums_by_dot(values, rows, order, den)

    def test_rational_sums_come_back_at_order_1(self):
        # zeta_8 zeta_24^21 = 1 and zeta_24^12 = -1: rows 0 and 1 are rational,
        # rows 2 and 3 are not and stay at L = lcm(24, 8) = 24, even though
        # row 3, 4 + zeta_3 / 2, lies in a smaller field
        values = [zeta(8), Fraction(1, 2), 3]
        rows = [[21, 0, 0], [21, 0, 12], [0, 0, 0], [21, 8, 0]]
        got = cyclo.root_sums(values, rows, 24)
        assert [(v.order, v._num, v._den) for v in got[:2]] == [(1, (9,), 2), (1, (-3,), 2)]
        assert [v.order for v in got[2:]] == [24, 24]
        assert got == root_sums_by_dot(values, rows, 24)
        assert got[3] == 4 + zeta(3) / 2
        # a zero sum is the rational 0 at order 1
        (zero,) = cyclo.root_sums([zeta(8), zeta(8)], [[0, 4]], 8)
        assert (zero.order, zero._num, zero._den) == (1, (0,), 1)

    def test_edge_cases(self):
        assert cyclo.root_sums([zeta(3)], [], 3) == []
        assert cyclo.root_sums([], [[]], 7) == [cyclo.ZERO]
        assert cyclo.root_sums([0, Fraction(0)], [[1, 2]], 35) == [0]
        with pytest.raises(ValueError):
            cyclo.root_sums([1, 2], [[1]], 3)
        with pytest.raises(CycloDomainError):
            cyclo.root_sums([zeta(3)], [[0]], 20_000)

    def test_makes_no_field_product_or_order_change(self, monkeypatch):
        values = [zeta(8) + 1, Fraction(-2, 3), 2 * zeta(13) - zeta(13) ** 5, 5, cyclo.ZERO]
        roots = [
            [RootOfUnity(3, 1), RootOfUnity(156, 7), RootOfUnity(39, 2), RootOfUnity(4, 3),
             RootOfUnity(2, 1)],
            [RootOfUnity(1, 0)] * 5,
        ]
        want = [cyclo.dot(values, (r.value() for r in row)) for row in roots]
        rows, order = self._root_rows(roots)
        products, changes = [], []
        mul = cyclo.Cyclotomic.__mul__
        embedded = cyclo.Cyclotomic.embedded

        def counting_mul(self, other):
            products.append((self, other))
            return mul(self, other)

        def recording_embedded(self, target):
            if target != self.order:
                changes.append((self.order, target))
            return embedded(self, target)

        monkeypatch.setattr(cyclo.Cyclotomic, "__mul__", counting_mul)
        monkeypatch.setattr(cyclo.Cyclotomic, "__rmul__", counting_mul)
        monkeypatch.setattr(cyclo.Cyclotomic, "embedded", recording_embedded)
        got = cyclo.root_sums(values, rows, order)
        monkeypatch.undo()
        assert not products and not changes, (products, changes)
        assert got == want


class TestIntegerSums:
    """Integer readouts of cyclo.root_sums (as_integer) against the field
    route, as_integer of cyclo.dot over the roots' field values."""

    ORDERS = (1, 2, 39, 105, 156, 2400)

    @staticmethod
    def _oracle(values, rows, order, den=1):
        return [cyclo.as_integer(s) for s in root_sums_by_dot(values, rows, order, den)]

    @staticmethod
    def _values(rng, order, k):
        # values at divisors of order, a few of them plain rationals
        divisors = [d for d in (1, 2, 3, 4, 5, 7, 8, 13, 39, 105, 156, 600, 2400) if order % d == 0]
        out = []
        for _ in range(k):
            d = rng.choice(divisors)
            if d <= 2 or rng.random() < 0.2:
                out.append(Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
            else:
                out.append(rand_cyclotomic(rng, d, span=4) if d <= 156 else
                           Fraction(rng.randint(1, 3)) * root_of_unity(d, rng.randrange(d)))
        return out

    @staticmethod
    def _record_reduce(monkeypatch):
        # (width, remainder) of every Packing.reduce call, in order
        seen = []
        real = cyclo.Packing.reduce

        def recording(self, value):
            r = real(self, value)
            seen.append((self.width, r))
            return r

        monkeypatch.setattr(cyclo.Packing, "reduce", recording)
        return seen

    def test_integer_sums_match_the_field_route(self):
        # the last value is chosen so that the sum of the first row is a known
        # target: den times an integer (kind 0) or a negative integer (kind 1),
        # a rational den does not divide (kind 2), or a non-rational after one
        # coordinate is perturbed (kind 3); rows 2 and 3 are whatever they are
        rng = random.Random(71)
        for order in self.ORDERS:
            for trial in range(8 if order < 2400 else 4):
                k = rng.randint(1, 5)
                kind = trial % 4
                den = rng.choice((2, 3, 12) if kind == 2 else (1, 2, 3, 12))
                values = self._values(rng, order, k - 1)
                rows = [[rng.randrange(-order, 2 * order) for _ in range(k)] for _ in range(3)]
                (partial,) = root_sums_by_dot(values, [rows[0][:-1]], order)
                target = den * (-rng.randint(1, 40) if kind == 1 else rng.randint(-40, 40))
                target += 1 if kind == 2 else 0
                last_root = RootOfUnity.make(order, rows[0][-1])
                last = (target - partial) * last_root.inverse().value()
                if kind == 3 and order > 2:
                    # one more coordinate: the sum gains zeta_order itself
                    last = last + root_of_unity(order, 1 - rows[0][-1])
                values.append(last)
                sums = cyclo.root_sums(values, rows, order, den)
                want = root_sums_by_dot(values, rows, order, den)
                assert sums == want, (order, values, rows, den)
                got = [cyclo.as_integer(s) for s in sums]
                assert got == [cyclo.as_integer(s) for s in want]
                if kind == 2 or (kind == 3 and order > 2):
                    assert got[0] is None
                else:
                    assert got[0] == target // den

    def test_cancelling_multiples_match_the_field_route(self):
        rng = random.Random(72)
        for order in (1, 39, 156):
            for _ in range(10):
                k = rng.randint(1, 6)
                values = [rng.randint(-3, 3) * v for v in self._values(rng, order, k)]
                rows = [[rng.randrange(order) for _ in range(k)] for _ in range(2)]
                # the same values negated under the same roots cancel
                values += [-v for v in values]
                rows = [row + row for row in rows]
                got = int_sums(values, rows, order)
                assert got == self._oracle(values, rows, order) == [0, 0]
                half = int_sums(values[:k], [rows[0][:k]], order)
                assert half == self._oracle(values[:k], [rows[0][:k]], order)

    def test_width_holds_the_reduced_sum(self, monkeypatch):
        # one value shifted by e so that its window covers high slots, each
        # numerator signed like its power's coefficient at slot k: the reduced
        # sum's slot k is then 28 (order 105, growth 34) or 145 (order 385,
        # growth 146) times the value's max|numerator|. The remainder the
        # kernel reads (Packing.reduce) must unpack to the reduced sum at its
        # width; at the width without the growth factor it does not.
        seen = self._record_reduce(monkeypatch)
        for order, e, k, times in ((105, 48, 41, 28), (385, 145, 119, 145)):
            mod = cyclo.cyclotomic_polynomial(order)
            deg, height = len(mod) - 1, max(map(abs, mod))
            growth = cyclo._order_constants(order).growth
            for bound in (1, 1000, (1 << 40) - 1):
                signs = [
                    -1 if _poly.poly_reduce([0] * ((j + e) % order) + [1], mod)[k] < 0 else 1
                    for j in range(deg)
                ]
                value = cyclo.dot(
                    [bound * s for s in signs], [zeta(order) ** j for j in range(deg)]
                )
                (want,) = root_sums_by_dot([value], [[e]], order)
                assert want.order == order and want._den == 1 and want._num[k] == times * bound
                assert times * bound > bound * growth // 2
                seen.clear()
                (got,) = cyclo.root_sums([value], [[e]], order)
                assert (got.order, got._num, got._den) == (want.order, want._num, want._den)
                assert cyclo.as_integer(got) is None
                ((width, r),) = seen
                assert width == (2 * bound * growth + height).bit_length()
                assert _poly.poly_unpack(r, width, deg) == list(want._num)
                narrow = (2 * bound + height).bit_length()
                q = _poly.poly_pack(mod, narrow)
                r = _poly.poly_pack(want._num, narrow) % q
                r -= q if r > q >> 1 else 0
                try:
                    got = _poly.poly_unpack(r, narrow, deg)
                except ValueError:
                    got = None
                assert got != list(want._num)

    def test_constant_at_the_width_bound_decodes(self):
        # with growth 1 (order 1) the l1 bound is reached when every value lands
        # in the constant slot with one sign: the sum is then exactly 2^(w-1) - 1,
        # the top of the lowest signed slot, for the width w the kernel chooses
        for bits in (1, 2, 29, 30, 31, 61, 62, 63, 64, 100):
            m = (1 << bits) - 1
            parts = [m // 3, m // 3, m - 2 * (m // 3)]
            for sign in (1, -1):
                assert int_sums([sign * m], [[0]], 1) == [sign * m]
                assert int_sums([sign * p for p in parts], [[0, 0, 0]], 1) == [sign * m]
                # at a larger order the same constant still sits in the lowest slot
                for order in (105, 2400):
                    assert int_sums([sign * m], [[0]], order) == [sign * m]
                    assert int_sums([sign * m, sign * m], [[0, 1]], order) == [None]
                assert int_sums([sign * m, sign * m], [[0, 1200]], 2400) == [0]
            assert int_sums([m], [[0]], 1, m) == [1]
            assert int_sums([m + 1], [[0]], 1, m) == ([None] if m > 1 else [2])

    def test_integer_sums_read_the_lowest_slot(self, monkeypatch):
        # a constant sum, as large as the l1 bound allows, has its remainder in
        # the lowest signed slot and comes back at order 1; the largest opposite
        # constant plus one unit at zeta^1 or at the top power zeta^(phi - 1)
        # lies outside it and is unpacked at the order, and a constant den does
        # not divide is no integer
        seen = self._record_reduce(monkeypatch)
        order, deg = 105, cyclo.euler_phi(105)
        for m in (1, 3, 1000, (1 << 40) - 1):
            for sign in (1, -1):
                seen.clear()
                got = cyclo.root_sums([sign * m], [[0], [order]], order)
                assert [(v.order, v._num) for v in got] == [(1, (sign * m,))] * 2
                assert [r for _, r in seen] == [sign * m] * 2
                assert int_sums([sign * m], [[0]], order, 3) == (
                    [None] if m % 3 else [sign * m // 3]
                )
                for k in (1, deg - 1):
                    seen.clear()
                    (got,) = cyclo.root_sums([-sign * m, sign], [[0, k]], order)
                    assert cyclo.as_integer(got) is None
                    assert self._oracle([-sign * m, sign], [[0, k]], order) == [None]
                    ((width, r),) = seen
                    assert abs(r) >= 1 << (width - 1)
                    want = [0] * deg
                    want[0], want[k] = -sign * m, sign
                    assert _poly.poly_unpack(r, width, deg) == want
                    assert (got.order, list(got._num)) == (order, want)

    def test_non_integral_sums_give_none(self):
        assert int_sums([Fraction(1, 3), Fraction(1, 3)], [[0, 0], [0, 1]], 2) == [None, 0]
        assert int_sums([1], [[1]], 3) == [None]  # zeta_3
        assert int_sums([1, 1, 1], [[0, 1, 2], [0, 0, 0]], 3, 3) == [0, 1]
        assert int_sums([zeta(105)], [[104]], 105) == [1]
        assert int_sums([zeta(105)], [[103]], 105) == [None]

    def test_edge_cases(self):
        assert int_sums([zeta(3)], [], 3) == []
        assert int_sums([], [[]], 7) == [0]
        assert int_sums([0, cyclo.ZERO], [[1, 2]], 5) == [0]
        with pytest.raises(ValueError):
            int_sums([1, 2], [[0]], 3)
        with pytest.raises(CycloDomainError):
            int_sums([zeta(3)], [[0]], 20_000)


class TestOrderLimit:
    def test_cap_enforced(self):
        old = cyclo.get_order_limit()
        cyclo.set_order_limit(50)
        try:
            with pytest.raises(CycloDomainError):
                zeta(51)
            assert zeta(50) * zeta(50) == root_of_unity(50, 2)
        finally:
            cyclo.set_order_limit(old)

    def test_bad_limit(self):
        with pytest.raises(CycloDomainError):
            cyclo.set_order_limit(0)


def _sympy_ascending(poly, length):
    coeffs = [int(c) for c in reversed(poly.all_coeffs())]
    return coeffs + [0] * (length - len(coeffs))


def _rand_coeffs(rng, length):
    # about a third zeros, and now and then the zero polynomial
    if rng.random() < 0.05:
        return [0] * length
    return [rng.randint(-99, 99) if rng.random() < 0.7 else 0 for _ in range(length)]


class TestKernel:
    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def as_poly(coeffs):
            return sympy.Poly(list(reversed(coeffs)), x)

        rng = random.Random(13)
        moduli = [cyclo.cyclotomic_polynomial(n) for n in (1, 12, 13, 24, 39)]
        for _ in range(200):
            a = _rand_coeffs(rng, rng.randint(1, 30))
            b = _rand_coeffs(rng, rng.randint(1, 30))
            if rng.random() < 0.5:
                a, b = tuple(a), tuple(b)
            if rng.random() < 0.5:
                mod = tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 12))) + (1,)
            else:
                mod = rng.choice(moduli)
            d = len(mod) - 1
            a_before, b_before = list(a), list(b)

            prod = as_poly(a) * as_poly(b)
            assert _poly.poly_mul(a, b) == _sympy_ascending(prod, len(a) + len(b) - 1)
            rem = prod.rem(as_poly(mod))
            assert _poly.poly_mulmod(a, b, mod) == _sympy_ascending(rem, d)
            assert (list(a), list(b)) == (a_before, b_before)

            p = _rand_coeffs(rng, rng.randint(1, 40))
            want = _sympy_ascending(as_poly(p).rem(as_poly(mod)), d)
            assert _poly.poly_reduce(p, mod) == want


    def test_pack_round_trip(self):
        # signed slots anywhere in [-2^(width-1), 2^(width-1)), the limits included
        rng = random.Random(17)
        for _ in range(300):
            width = rng.randint(1, 70)
            half = 1 << (width - 1)
            row = [
                rng.choice((-half, half - 1, 0, rng.randint(-half, half - 1)))
                for _ in range(rng.randint(1, 30))
            ]
            packed = _poly.poly_pack(row, width)
            assert _poly.poly_unpack(packed, width, len(row)) == row
            assert packed == sum(c << (k * width) for k, c in enumerate(row))
        assert _poly.poly_pack([0, 0, 0], 5) == 0
        assert _poly.poly_unpack(0, 5, 3) == [0, 0, 0]
        assert _poly.poly_pack([-8], 4) == -8
        assert _poly.poly_unpack(-8, 4, 1) == [-8]
        assert _poly.poly_unpack(7, 4, 1) == [7]

    def test_packed_dot_against_sympy(self):
        # sum_i a_i * b_i on packed rows, at the width slot_width gives
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(23)
        for _ in range(200):
            length = rng.randint(1, 12)
            terms = rng.randint(1, 12)
            a = [_rand_coeffs(rng, length) for _ in range(terms)]
            b = [_rand_coeffs(rng, length) for _ in range(terms)]
            want = [sum(col) for col in zip(*(_poly.poly_mul(u, v) for u, v in zip(a, b)))]
            prod = sum(
                (sympy.Poly(list(reversed(u)), x) * sympy.Poly(list(reversed(v)), x)
                 for u, v in zip(a, b)),
                sympy.Poly(0, x),
            )
            assert want == _sympy_ascending(prod, 2 * length - 1)
            width = _poly.slot_width(
                max(abs(c) for u in a for c in u),
                max(abs(c) for v in b for c in v),
                terms * length,
            )
            packed = sum(
                _poly.poly_pack(u, width) * _poly.poly_pack(v, width) for u, v in zip(a, b)
            )
            assert _poly.poly_unpack(packed, width, 2 * length - 1) == want

    def test_slot_width_is_tight(self):
        # three products of all-15 rows of length 5: the middle slot is
        # +-3 * 5 * 15 * 15 = +-3375, which needs 13 signed bits
        width = _poly.slot_width(15, 15, 3 * 5)
        assert width == 13
        for sign in (1, -1):
            a, b = [15] * 5, [sign * 15] * 5
            want = [3 * c for c in _poly.poly_mul(a, b)]
            assert want[4] == sign * 3375
            for w in (width, width - 1):
                packed = 3 * (_poly.poly_pack(a, w) * _poly.poly_pack(b, w))
                got = _poly.poly_unpack(packed, w, 9)
                assert (got == want) == (w == width)

    def test_fold(self):
        # x^k and x^(k+n) share a slot modulo x^n - 1
        rng = random.Random(29)
        for _ in range(200):
            n = rng.randint(1, 20)
            p = _rand_coeffs(rng, rng.randint(1, 2 * n - 1))
            want = [0] * n
            for k, c in enumerate(p):
                want[k % n] += c
            width = _poly.slot_width(max(map(abs, p)), 1, 2)
            folded = _poly.poly_fold(_poly.poly_pack(p, width), width, n)
            assert _poly.poly_unpack(folded, width, n) == want

    def test_unpack_rejects_a_value_wider_than_its_slots(self):
        with pytest.raises(ValueError):
            _poly.poly_unpack(1 << 12, 4, 3)
        with pytest.raises(ValueError):
            _poly.poly_unpack(-(1 << 12), 4, 3)


class TestMatmul:
    ORDERS = (1, 3, 8, 13, 39, 40)

    def _value(self, rng, order):
        # zero, a rational, or a value of an order dividing `order`
        kind = rng.randrange(4)
        if kind == 0:
            return rng.choice([0, Fraction(0), cyclo.ZERO])
        if kind == 1:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        return rand_cyclotomic(rng, rng.choice(cyclo._divisors(order)))

    def test_matches_the_dot_oracle(self):
        rng = random.Random(71)
        for order in self.ORDERS:
            for _ in range(8):
                r, k, c = (rng.randint(1, 5) for _ in range(3))
                a = [[self._value(rng, order) for _ in range(k)] for _ in range(r)]
                b = [[from_rational(0) + self._value(rng, order) for _ in range(c)] for _ in range(k)]
                b_cells, b_den = cyclo.lift(b, order)
                if rng.random() < 0.5:
                    # the right factor as unreduced cells, each moved by zeta^e
                    moves = [[rng.randrange(order) for _ in range(c)] for _ in range(k)]
                    b_cells = [
                        [[dict(enumerate(cell)).get((j - e) % order, 0) for j in range(order)]
                         for cell, e in zip(row, es)]
                        for row, es in zip(b_cells, moves)
                    ]
                    b = [
                        [v * root_of_unity(order, e) for v, e in zip(row, es)]
                        for row, es in zip(b, moves)
                    ]
                cells, den = cyclo.matmul(cyclo.lift(a, order), (b_cells, b_den), order)
                assert all(len(cell) == cyclo.euler_phi(order) for row in cells for cell in row)
                got = [[cyclo.Cyclotomic._make(order, cell, den) for cell in row] for row in cells]
                want = oracles.matmul([[from_rational(0) + v for v in row] for row in a], b)
                assert got == [list(row) for row in want], (order, a, b)

    def test_packed_reduction_matches_poly_reduce(self):
        # Packing(order, 99) reduces any row whose slots, folded modulo
        # x^N - 1, lie in [-99, 99]: a folded row of N slots, and the same
        # value unfolded, each slot j < N - 1 split between j and j + N
        rng = random.Random(73)
        for order in self.ORDERS + (2, 105):
            mod = cyclo.cyclotomic_polynomial(order)
            p = cyclo.Packing(order, 99)
            for _ in range(20):
                row = _rand_coeffs(rng, order)
                want = _poly.poly_reduce(list(row), mod)
                got = p.unpack(p.reduce(_poly.poly_pack(row, p.width)))
                assert got == want, (order, row)
                unfolded = row + [0] * (order - 1)
                for j in range(order - 1):
                    unfolded[j + order] = rng.randint(-99, 99)
                    unfolded[j] -= unfolded[j + order]
                got = p.unpack(p.reduce(_poly.poly_pack(unfolded, p.width)))
                assert got == want, (order, unfolded)

    def test_high_powers_match_poly_reduce(self):
        # one poly_reduce carries every x^k at once: packed at 2^(32 (k - phi))
        # the reduced coefficient i holds x^k's coefficient i in slot k - phi
        for order in range(1, 400):
            deg = cyclo.euler_phi(order)
            row = [0] * deg + [1 << 32 * (k - deg) for k in range(deg, order)]
            reduced = _poly.poly_reduce(row, cyclo.cyclotomic_polynomial(order))
            slots = [_poly.poly_unpack(c, 32, order - deg) for c in reduced]
            # the growth (read off the radical's powers) is 1 plus the largest sum,
            # over every x^k, of |coefficient i| for one i
            growth = 1 + max((sum(map(abs, coeff)) for coeff in slots), default=0)
            assert cyclo._order_constants(order).growth == growth, order

    @staticmethod
    def _extreme_row(order, bound):
        # a folded row whose reduced slot k reaches bound * growth: slot k at
        # +bound and every high slot at +-bound, signed like the coefficient
        # of its power at k
        deg = cyclo.euler_phi(order)
        mod = cyclo.cyclotomic_polynomial(order)
        high = [_poly.poly_reduce([0] * k + [1], mod) for k in range(deg, order)]
        k = max(range(deg), key=lambda k: sum(abs(h[k]) for h in high))
        growth = 1 + sum(abs(h[k]) for h in high)
        row = [0] * order
        row[k] = bound
        for j, h in enumerate(high):
            row[deg + j] = bound if h[k] >= 0 else -bound
        want = _poly.poly_reduce(list(row), mod)
        assert want[k] == bound * growth
        return row, want, growth

    def test_width_is_tight_with_the_reduction(self):
        # the extreme row decodes at the width; one bit less must not decode it
        bound = 1024
        for order in (2, 3, 13, 39, 40, 105):
            row, want, growth = self._extreme_row(order, bound)
            p, narrower = cyclo.Packing(order, bound), cyclo.Packing(order, bound // 2)
            assert p.width == (bound * growth).bit_length() + 1 == narrower.width + 1
            assert p.unpack(p.reduce(_poly.poly_pack(row, p.width))) == want
            try:
                got = narrower.unpack(narrower.reduce(_poly.poly_pack(row, narrower.width)))
            except ValueError:
                got = None
            assert got != want, order

    def test_height_term_at_the_tightest_width(self):
        # Phi_105 has height 2 and Phi_385 height 3. Their growth (34, 146) is
        # even, so no bound >= 1 brings 2 bound growth + height to a power of
        # two and the height term adds a bit only at bound 0. These bounds put
        # X = 2^w closest to the floor 2 bound growth + height + 1 of the
        # Packing proof (1 above it at 105, on it at 385): the extreme row, its
        # negation and random rows of folded slots in [-bound, bound] decode.
        rng = random.Random(79)
        for order, bound, slack in ((105, 15, 1), (385, 7, 0)):
            mod = cyclo.cyclotomic_polynomial(order)
            height = max(map(abs, mod))
            row, want, growth = self._extreme_row(order, bound)
            assert growth == cyclo._order_constants(order).growth
            p = cyclo.Packing(order, bound)
            assert p.width == (2 * bound * growth + height).bit_length()
            assert (1 << p.width) - (2 * bound * growth + height + 1) == slack
            assert cyclo.Packing(order, 0).width == 2 == _poly.slot_width(0, growth) + 1
            for sign in (1, -1):
                packed = _poly.poly_pack([sign * c for c in row], p.width)
                assert p.unpack(p.reduce(packed)) == [sign * c for c in want]
            for _ in range(20):
                row = [rng.randint(-bound, bound) for _ in range(order)]
                got = p.unpack(p.reduce(_poly.poly_pack(row, p.width)))
                assert got == _poly.poly_reduce(list(row), mod)


class TestGuards:
    def test_inexact_division_raises(self):
        with pytest.raises(cyclo.ConsistencyError):
            cyclo._poly_divexact([1, 0, 1], (1, 1))

    def test_inexact_division_raises_under_optimize(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
        code = (
            "from mtckit import cyclo\n"
            "try:\n"
            "    cyclo._poly_divexact([1, 0, 1], (1, 1))\n"
            "except cyclo.ConsistencyError:\n"
            "    print('raised')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "raised\n"

    def test_center_reexports_the_error(self):
        from mtckit.center import ConsistencyError

        assert ConsistencyError is cyclo.ConsistencyError
