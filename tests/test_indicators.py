import dataclasses
import itertools
import math
import random

import pytest

import families
import oracles
from mtckit import cyclo, indicators
from mtckit._poly import poly_pack
from mtckit.center import CenterData, deligne_square
from mtckit.fusion_ring import FusionRing, power_decompose
from mtckit.indicators import (
    Sl2Word,
    gfs_matrix,
    hom_dim_under_forgetful,
    matrix_tokens,
    nu2_direct,
    nu_direct,
    nu_general,
    sl2_word,
)
from mtckit.modular_data import ModularData, validate

SMALL = ("vec", "semion", "toric-code", "fibonacci")


class TestSl2Words:
    def test_identity_pair_gives_empty_word(self):
        assert sl2_word(1, 0).tokens == ()

    def test_zero_one_gives_single_s(self):
        assert sl2_word(0, 1).tokens == ("s",)

    def test_two_one(self):
        word = sl2_word(2, 1)
        g = word.matrix()
        assert g[0][0] * g[1][1] - g[0][1] * g[1][0] == 1
        assert (g[1][1], -g[0][1]) == (2, 1)

    def test_random_pairs_verify(self):
        rng = random.Random(9)
        seen = 0
        while seen < 40:
            m = rng.randint(-12, 12)
            l = rng.randint(-12, 12)
            if math.gcd(m, l) != 1:
                continue
            seen += 1
            sl2_word(m, l).verify()

    def test_gcd_requirement(self):
        with pytest.raises(ValueError):
            sl2_word(4, 2)
        with pytest.raises(ValueError):
            sl2_word(0, 0)

    def test_tampered_word_fails_verify(self):
        word = sl2_word(3, 1)
        bad = Sl2Word(tokens=word.tokens + ("t",), m=3, l=1)
        with pytest.raises(AssertionError):
            bad.verify()

    def test_matrix_tokens_rejects_non_sl2(self):
        with pytest.raises(ValueError):
            matrix_tokens(((2, 0), (0, 1)))

    def test_words_longer_than_the_order_limit_are_refused(self):
        # for odd l, sl2_word(2, l) is t^-((l - 1) / 2) s t^2: (l + 1) / 2 + 2 tokens
        old = cyclo.get_order_limit()
        cyclo.set_order_limit(50)
        try:
            assert len(sl2_word(2, 95).tokens) == 50
            with pytest.raises(ValueError, match="word of 51 tokens exceeds the configured limit 50"):
                sl2_word(2, 97)
        finally:
            cyclo.set_order_limit(old)
        assert len(sl2_word(2, 97).tokens) == 51


class TestGfsMatrix:
    def test_identity_table_is_forgetful_matrix(self, fixture_centers):
        for name in SMALL:
            cd = fixture_centers[name]
            table = gfs_matrix(cd, 1, 0)
            for i in range(cd.rank):
                for j in range(cd.base.rank):
                    assert table.values[i][j] == cd.a_matrix[i][j], name

    def test_word_choice_does_not_matter(self, fixture_centers):
        # two different valid g for the same (m, l) give the same table
        for name in ("semion", "toric-code"):
            cd = fixture_centers[name]
            for m, l in ((2, 1), (3, 1), (1, 1)):
                w1 = sl2_word(m, l)
                g = w1.matrix()
                # right-multiplying by a lower-unitriangular matrix preserves
                # the first row of g^-1
                h = ((1, 0), (-1, 1))
                g2 = (
                    (g[0][0] * h[0][0] + g[0][1] * h[1][0], g[0][1]),
                    (g[1][0] * h[0][0] + g[1][1] * h[1][0], g[1][1]),
                )
                w2 = Sl2Word(tokens=matrix_tokens(g2), m=m, l=l)
                w2.verify()
                assert w2.matrix() != g
                assert gfs_matrix(cd, m, l).values == oracles.gfs_by_dot(cd, w2), (name, m, l)

    @pytest.mark.parametrize("name", SMALL)
    def test_matches_dot_oracle(self, name, fixture_data):
        # (3, 2) is TsssTTT and (5, 3) TsTTssstt: t^-1 runs and an s^3
        md, fr = fixture_data[name]
        cd = deligne_square(md, fr)
        for m, l in ((1, 0), (2, 1), (3, 1), (3, 2), (5, 3), (7, -2)):
            _assert_table_matches_oracle(cd, m, l)

    def test_matches_dot_oracle_on_haagerup_center(self, fixture_data):
        md, fr = fixture_data["haagerup-center"]
        _assert_table_matches_oracle(deligne_square(md, fr), 2, 1)

    def test_custom_word_matches_dot_oracle(self, fixture_data):
        # s^4 = 1 and t t^-1 = 1: a longer word for the same (m, l), with a
        # t/T run that folds to the zero power, gives the table of sl2_word(3, 2)
        md, fr = fixture_data["fibonacci"]
        cd = deligne_square(md, fr)
        tokens = ("s", "s", "t", "T", "s", "s") + sl2_word(3, 2).tokens
        word = Sl2Word(tokens=tokens, m=3, l=2)
        word.verify()
        got = gfs_matrix(cd, 3, 2)
        want = oracles.gfs_by_dot(cd, word)
        assert got.values == want
        assert _texts(got.values) == _texts(want)

    def test_working_order_above_conductor(self, fixture_data):
        # the semion S lies in Q(zeta_8) while the center twists have order 4
        md, fr = fixture_data["semion"]
        cd = deligne_square(md, fr)
        assert (cd.conductor, cd.working_order) == (4, 8)
        _assert_table_matches_oracle(cd, 3, 2)

    def test_deligne_product_matches_dot_oracle(self, fixture_data):
        # semion x fibonacci: S at order 40, center twists at order 20
        md, fr = families.deligne_product(fixture_data["semion"], fixture_data["fibonacci"])
        assert validate(md).ok
        cd = deligne_square(md, fr)
        assert (cd.conductor, cd.working_order) == (20, 40)
        for m, l in ((2, 1), (3, 2)):
            _assert_table_matches_oracle(cd, m, l)

    def test_matches_dot_oracle_on_every_small_pair(self, fixture_data):
        pairs = [(m, l) for m in range(9) for l in range(-9, 10) if math.gcd(m, l) == 1]
        for name in SMALL:
            cd = deligne_square(*fixture_data[name])
            for m, l in pairs:
                _assert_table_matches_oracle(cd, m, l)

    def test_matches_dot_oracle_on_haagerup_word_classes(self, fixture_data):
        # one pair per class of word (the word without its leading t/T tokens)
        # beside stt, checked above, and the three-s word TsTTsTTstt
        md, fr = fixture_data["haagerup-center"]
        cd = deligne_square(md, fr)
        classes = {(3, 1): "sttt", (4, 1): "stttt", (5, 1): "sttttt", (6, 1): "stttttt",
                   (7, 1): "sttttttt", (5, 2): "sTTsTTT", (2, -1): "sssTT", (8, 3): "sTTsTTstt"}
        for (m, l), core in classes.items():
            assert "".join(sl2_word(m, l).tokens).lstrip("tT") == core
            _assert_table_matches_oracle(cd, m, l)
        # a five-s word for (8, 3) gives the same table, run on the center as
        # gfs_matrix runs its own word (the dot oracle takes seconds per word here)
        word = Sl2Word(tokens=tuple("TsTTsTTTsssTT"), m=8, l=3)
        word.verify()
        got = indicators._gfs_apply(cd, 8, 3, word)
        want = gfs_matrix(cd, 8, 3)
        assert got.values == want.values
        assert _texts(got.values) == _texts(want.values)

    def test_deligne_product_three_s_words(self, fixture_data):
        # semion x fibonacci at order 40: the three-s words sssTT and TsTTsTTstt
        md, fr = families.deligne_product(fixture_data["semion"], fixture_data["fibonacci"])
        cd = deligne_square(md, fr)
        for m, l in ((2, -1), (8, 3)):
            _assert_table_matches_oracle(cd, m, l)

    def test_one_center_call_per_s_token_and_t_run(self, fixture_data, monkeypatch):
        md, fr = fixture_data["semion"]
        cd = deligne_square(md, fr)
        calls = []
        apply_s, apply_t = CenterData.apply_s, CenterData.apply_t

        def recording_s(self, x):
            calls.append("s")
            return apply_s(self, x)

        def recording_t(self, x, power):
            calls.append(power)
            return apply_t(self, x, power)

        monkeypatch.setattr(CenterData, "apply_s", recording_s)
        monkeypatch.setattr(CenterData, "apply_t", recording_t)
        gfs_matrix(cd, 8, 3)  # TsTTsTTstt, applied right to left
        assert calls == [2, "s", -2, "s", -2, "s", -1]
        calls.clear()
        gfs_matrix(cd, 2, -1)  # sssTT
        assert calls == [-2, "s", "s", "s"]

    def test_t_runs_fold_into_one_power(self, fixture_data, monkeypatch):
        md, fr = fixture_data["fibonacci"]
        cd = deligne_square(md, fr)
        word = sl2_word(2001, 1)
        runs = sum(1 for is_s, _ in itertools.groupby(word.tokens, key="s".__eq__) if not is_s)
        apply_t = CenterData.apply_t
        powers = []

        def recording(self, x, power):
            powers.append(power)
            return apply_t(self, x, power)

        monkeypatch.setattr(CenterData, "apply_t", recording)
        got = gfs_matrix(cd, 2001, 1)
        assert word.tokens.count("t") + word.tokens.count("T") == 2001
        assert len(powers) == runs == 1
        assert powers == [2001]
        assert got.values == oracles.gfs_by_dot(cd, word)

    def test_gcd_requirement(self, fixture_centers):
        with pytest.raises(ValueError):
            gfs_matrix(fixture_centers["vec"], 4, 2)


def _texts(values):
    return [[str(v) for v in row] for row in values]


def _assert_table_matches_oracle(cd, m, l):
    got = gfs_matrix(cd, m, l)
    want = oracles.gfs_by_dot(cd, sl2_word(m, l))
    assert got.values == want, (m, l)
    assert _texts(got.values) == _texts(want), (m, l)


def _assert_nu2_matches(md, fr, oracle, where=""):
    # every (c, b, a): oracle(c, b, a) is the dot-product value
    r = md.rank
    for c, b, a in itertools.product(range(r), repeat=3):
        got, want = nu2_direct(md, fr, c, b, a), oracle(c, b, a)
        assert got == want and str(got) == str(want), (where, c, b, a)


@pytest.fixture(scope="module")
def haagerup_nu2_oracle(fixture_data):
    md, fr = fixture_data["haagerup-center"]
    r = md.rank
    return {t: oracles.nu2_by_dot(md, fr, *t) for t in itertools.product(range(r), repeat=3)}


class TestNu2Direct:
    def test_matches_dot_oracle_on_small_fixtures(self, fixture_data):
        for name in SMALL:
            md, fr = fixture_data[name]
            _assert_nu2_matches(md, fr, lambda *t: oracles.nu2_by_dot(md, fr, *t), name)

    def test_matches_dot_oracle_on_haagerup_center(self, fixture_data, haagerup_nu2_oracle):
        md, fr = fixture_data["haagerup-center"]
        _assert_nu2_matches(md, fr, lambda *t: haagerup_nu2_oracle[t])

    def test_matches_dot_oracle_on_a_relabeling(self, fixture_data, haagerup_nu2_oracle):
        # the double sum does not see the labels: the relabeled value at
        # (c, b, a) is the oracle's at the original indices
        md, fr = fixture_data["haagerup-center"]
        perm = list(range(md.rank))
        random.Random(12).shuffle(perm)
        md2, fr2 = families.relabeled(md, fr, perm)
        assert validate(md2).ok and md2.unit != md.unit
        _assert_nu2_matches(md2, fr2, lambda *t: haagerup_nu2_oracle[tuple(perm[i] for i in t)])

    def test_matches_dot_oracle_on_a_deligne_product(self, fixture_data):
        # semion x fibonacci: S at order 40 with theta^2 of orders 1, 2, 5 and 10
        md, fr = families.deligne_product(fixture_data["semion"], fixture_data["fibonacci"])
        assert {v.order for row in md.s for v in row} == {40}
        assert {(t**2).order for t in md.theta} == {1, 2, 5, 10}
        _assert_nu2_matches(md, fr, lambda *t: oracles.nu2_by_dot(md, fr, *t))

    def test_takes_no_field_product_or_order_change(self, fixture_data, monkeypatch):
        # at n = 2 and at n = 3, where theta^3 has other orders than theta^2
        md, fr = fixture_data["haagerup-center"]
        md = dataclasses.replace(md)  # no packed rows yet: the build is counted too
        assert md.ring == fr  # the ring is built before the count starts
        assert {(t**2).order for t in md.theta} != {(t**3).order for t in md.theta}
        seen = []
        mul, embedded = cyclo.Cyclotomic.__mul__, cyclo.Cyclotomic.embedded

        def counting_mul(self, other):
            seen.append("mul")
            return mul(self, other)

        def counting_embedded(self, target):
            if target != self.order:
                seen.append("embed")
            return embedded(self, target)

        monkeypatch.setattr(cyclo.Cyclotomic, "__mul__", counting_mul)
        monkeypatch.setattr(cyclo.Cyclotomic, "__rmul__", counting_mul)
        monkeypatch.setattr(cyclo.Cyclotomic, "embedded", counting_embedded)
        for c, b, a in itertools.product(range(md.rank), repeat=3):
            nu2_direct(md, fr, c, b, a)
            nu_direct(md, 3, c, b, a)
        assert seen == []

    def test_slot_width_is_tight(self, monkeypatch):
        # rank 3, S all +-m at order 1, theta^n = 1 and every N^a_{d,e} = k: the
        # value at (c, b) = (0, 0) is +bound and at (0, 1) it is -bound, with
        # bound = phi(1) * sum_{d,e} N^a_{d,e} * max|U| * max|V| = 9 k m^2.
        # One bit less must not decode it. At n = 3 every theta is zeta_3, so the
        # rows of theta^3 are at order 1 while those of theta^2 would be at order 3
        r, m, k = 3, 5, 7
        bound = r * r * k * m * m
        rows = ((m,) * r, (-m,) * r, (m,) * r)
        fr = FusionRing(rank=r, unit=0, dual=(0, 1, 2), table=(((k,) * r,) * r,) * r)

        def made_up(theta):
            md = ModularData(
                labels=("x", "y", "z"),
                s=tuple(tuple(cyclo.from_rational(v) for v in row) for row in rows),
                theta=(theta,) * r,
                unit=0,
                dual=(0, 1, 2),
            )
            vars(md)["ring"] = fr  # S is no modular data, so its ring is handed over
            return md

        class Narrower(cyclo.Packing):
            def __init__(self, order, bound):
                super().__init__(order, bound)
                self.width -= 1
                self.modulus = poly_pack(cyclo.cyclotomic_polynomial(order), self.width)

        for theta, n in ((cyclo.RootOfUnity(1, 0), 2), (cyclo.RootOfUnity(3, 1), 3)):
            md = made_up(theta)
            assert nu_direct(md, n, 0, 0, 0) == bound
            assert nu_direct(md, n, 0, 1, 0) == -bound
            width = vars(md)["_twisted_rows"][n].packing.width
            assert width == bound.bit_length() + 1
            with monkeypatch.context() as patched:
                patched.setattr(cyclo, "Packing", Narrower)
                for b, want in ((0, bound), (1, -bound)):
                    narrow = made_up(theta)
                    try:
                        got = nu_direct(narrow, n, 0, b, 0)
                    except ValueError:
                        got = None
                    assert vars(narrow)["_twisted_rows"][n].packing.width == width - 1
                    assert got != want, (n, b)
        assert nu2_direct(made_up(cyclo.RootOfUnity(1, 0)), fr, 0, 0, 0) == bound

    def test_another_ring_is_refused(self, fixture_data):
        # the rows are packed for md.ring, the one ring they read; a ring with
        # another table is refused, and the values for md.ring stay as they were
        md, fr = fixture_data["fibonacci"]
        md = dataclasses.replace(md)
        want = [oracles.nu2_by_dot(md, fr, 1, 1, a) for a in range(md.rank)]
        assert [nu2_direct(md, fr, 1, 1, a) for a in range(md.rank)] == want
        big = FusionRing(
            rank=fr.rank,
            unit=fr.unit,
            dual=fr.dual,
            table=tuple(tuple(tuple(1000 * v for v in row) for row in mat) for mat in fr.table),
        )
        for a in range(md.rank):
            with pytest.raises(ValueError, match="not the fusion ring"):
                nu2_direct(md, big, 1, 1, a)
        assert [nu2_direct(md, fr, 1, 1, a) for a in range(md.rank)] == want


class TestIndexGuards:
    # a negative index would wrap around to another simple, and a rank-sized one fail
    # as a bare IndexError: every indicator function refuses both with ValueError

    def test_closed_form(self, fixture_data):
        md, fr = fixture_data["fibonacci"]
        for bad in (-1, md.rank):
            for args, what in (((bad, 0, 0), "center simple factor"),
                               ((0, bad, 0), "center simple factor"),
                               ((0, 0, bad), "object index")):
                for call in (lambda: nu_direct(md, 2, *args), lambda: nu_direct(md, 3, *args),
                             lambda: nu2_direct(md, fr, *args)):
                    with pytest.raises(ValueError, match=f"{what} {bad} is outside 0..1"):
                        call()

    def test_center_simples(self, fixture_centers):
        cd = fixture_centers["fibonacci"]
        for bad in (-1, cd.rank):
            for call in (lambda: nu_general(cd, bad, 2, 0, 0), lambda: nu_general(cd, bad, 2, 1, 0),
                         lambda: nu_general(cd, bad, 3, 2, 1),
                         lambda: hom_dim_under_forgetful(cd, bad, 0, 2)):
                with pytest.raises(ValueError, match=f"center simple {bad} is outside 0..3"):
                    call()


class TestCrossRoute:
    def test_nu2_direct_equals_gfs(self, fixture_data, fixture_centers):
        # the closed form nu_direct(n) against gfs_matrix(n, 1) on every (c, b, a):
        # n = 1..8 on the small fixtures and semion x fibonacci, 1..6 on haagerup-center
        product = families.deligne_product(fixture_data["semion"], fixture_data["fibonacci"])
        cases = [(*fixture_data[name], fixture_centers[name], 8) for name in SMALL]
        cases.append((*fixture_data["haagerup-center"], fixture_centers["haagerup-center"], 6))
        cases.append((*product, deligne_square(*product), 8))
        for md, fr, cd, top in cases:
            for n in range(1, top + 1):
                table = gfs_matrix(cd, n, 1)
                for c, b, a in itertools.product(range(md.rank), repeat=3):
                    got = nu_direct(md, n, c, b, a)
                    assert table.values[cd.pair_index(c, b)][a] == got, (md.labels, n, c, b, a)
                    if n == 2:
                        assert nu2_direct(md, fr, c, b, a) == got

    def test_nu_general_matches_gfs_coprime(self, fixture_data, fixture_centers):
        for name in SMALL:
            md, _ = fixture_data[name]
            cd = fixture_centers[name]
            for n in range(1, 5):
                for k in (j for j in range(1, n + 1) if math.gcd(j, n) == 1):
                    table = gfs_matrix(cd, n, k)
                    for b in range(cd.rank):
                        for a in range(md.rank):
                            assert nu_general(cd, b, n, k, a) == table.values[b][a], (
                                name, n, k, b, a,
                            )


class TestKnownIndicatorValues:
    def test_toric_frobenius_schur_row(self, fixture_data, fixture_centers):
        # all four simples of the Z/2 double are real: nu_2 = +1 across the row
        md, _ = fixture_data["toric-code"]
        cd = fixture_centers["toric-code"]
        row = gfs_matrix(cd, 2, 1).values[cd.unit]
        assert [v for v in row] == [cyclo.ONE] * 4

    def test_semion_is_pseudoreal(self, fixture_data, fixture_centers):
        md, _ = fixture_data["semion"]
        cd = fixture_centers["semion"]
        row = gfs_matrix(cd, 2, 1).values[cd.unit]
        assert row[md.unit] == 1
        assert row[md.index_of("s")] == -1

    def test_haagerup_unit_pair_x6(self, fixture_data, fixture_centers):
        md, _ = fixture_data["haagerup-center"]
        cd = fixture_centers["haagerup-center"]
        table = gfs_matrix(cd, 2, 1)
        assert table.values[cd.unit][md.index_of("x6")] == 1


class TestNuGeneral:
    def test_k_zero_is_hom_dimension(self, fixture_data, fixture_centers):
        md, fr = fixture_data["toric-code"]
        cd = fixture_centers["toric-code"]
        e = md.index_of("e")
        assert nu_general(cd, cd.unit, 2, 0, e) == 1  # e^2 = 1

    def test_periodicity(self, fixture_data, fixture_centers):
        rng = random.Random(77)
        for name in SMALL:
            cd = fixture_centers[name]
            base_rank = cd.base.rank
            for _ in range(12):
                b = rng.randrange(cd.rank)
                a = rng.randrange(base_rank)
                m = rng.randint(1, 4)
                l = rng.randint(0, m)
                k = rng.randint(1, 3)
                lhs = nu_general(cd, b, m, l + k * m, a)
                rhs = (cd.theta[b].inverse() ** k).value() * nu_general(cd, b, m, l, a)
                assert lhs == rhs, (name, b, a, m, l, k)

    def test_toric_periodicity_exhaustive(self, fixture_centers):
        # nu^b_{2,3} = theta_b^-1 nu^b_{2,1} for every b, a
        cd = fixture_centers["toric-code"]
        for b in range(cd.rank):
            for a in range(4):
                lhs = nu_general(cd, b, 2, 3, a)
                rhs = cd.theta[b].inverse().value() * nu_general(cd, b, 2, 1, a)
                assert lhs == rhs

    def test_gcd_reduction(self, fixture_data, fixture_centers):
        for name in SMALL:
            _, fr = fixture_data[name]
            cd = fixture_centers[name]
            for b in range(cd.rank):
                for a in range(cd.base.rank):
                    v42 = nu_general(cd, b, 4, 2, a)
                    v21 = nu_general(cd, b, 2, 1, power_decompose(fr, a, 2))
                    assert v42 == v21, (name, b, a)

    def test_additive_in_object(self, fixture_data, fixture_centers):
        md, _ = fixture_data["toric-code"]
        cd = fixture_centers["toric-code"]
        e, m = md.index_of("e"), md.index_of("m")
        for b in range(cd.rank):
            both = nu_general(cd, b, 3, 1, {e: 1, m: 1})
            assert both == nu_general(cd, b, 3, 1, e) + nu_general(cd, b, 3, 1, m)

    def test_rejects_bad_n(self, fixture_centers):
        with pytest.raises(ValueError):
            nu_general(fixture_centers["vec"], 0, 0, 1, 0)

    def test_an_n_above_the_order_limit(self, fixture_centers):
        # nu_general spells no SL2(Z) word: nu_{n,1} is the closed form, which reads n
        # only through theta^n (fibonacci's twists have order 5), and only a Galois
        # step whose field order passes the limit is refused
        cd = fixture_centers["fibonacci"]
        n = 5 * cyclo.get_order_limit() + 2
        for b in range(cd.rank):
            for a in range(cd.base.rank):
                assert nu_general(cd, b, n, 1, a) == nu_general(cd, b, 2, 1, a), (b, a)
        with pytest.raises(cyclo.CycloDomainError, match="exceeds the configured limit"):
            nu_general(cd, 3, n, 3, 1)


@pytest.mark.parametrize("name", ("semion", "toric-code", "fibonacci"))
def test_nu_general_matches_field_power_formula(name, fixture_centers):
    # every (b, n <= 4, k, a), k over two full periods so that the theta^-q
    # prefactor is exercised, with both pinned roots
    cd = fixture_centers[name]
    for shift in (0, 1):
        for n in range(1, 5):
            for k in range(-n, n + 1):
                for b in range(cd.rank):
                    for a in range(cd.base.rank):
                        want = oracles.nu_general_by_field_powers(cd, b, n, k, a, shift)
                        got = nu_general(cd, b, n, k, a, root_shift=shift)
                        assert got == want, (name, shift, n, k, b, a)


def test_nu_general_takes_no_field_inverse_or_power(fixture_centers, monkeypatch):
    cd = fixture_centers["fibonacci"]

    def forbidden(*args):
        raise AssertionError("field inverse or power reached from nu_general")

    monkeypatch.setattr(cyclo, "inverse", forbidden)
    monkeypatch.setattr(cyclo.Cyclotomic, "__pow__", forbidden)
    for n in range(1, 5):
        for k in range(-n, 2 * n):
            for b in range(cd.rank):
                nu_general(cd, b, n, k, 1, root_shift=1)


def test_nu_general_makes_no_field_product(fixture_centers, monkeypatch):
    # roots enter as index shifts and the sum over a^g is int-weighted: every
    # (b, n <= 4, k, a) of fibonacci, k over two periods, both pinned roots;
    # each value has the field route's order, numerators and denominator
    cd = fixture_centers["fibonacci"]
    keys = [
        (b, n, k, a, shift)
        for shift in (0, 1) for n in range(1, 5) for k in range(-n, n + 1)
        for b in range(cd.rank) for a in range(cd.base.rank)
    ]
    products = []
    mul = cyclo.Cyclotomic.__mul__

    def counting_mul(self, other):
        products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(cyclo.Cyclotomic, "__mul__", counting_mul)
    monkeypatch.setattr(cyclo.Cyclotomic, "__rmul__", counting_mul)
    got = {key: nu_general(cd, *key[:4], root_shift=key[4]) for key in keys}
    monkeypatch.undo()
    assert products == []
    for key, value in got.items():
        oracle = oracles.nu_general_by_field_powers(cd, *key)
        assert (value.order, value._num, value._den) == (oracle.order, oracle._num, oracle._den), key


def test_nu_general_builds_no_sl2_state(fixture_data, monkeypatch):
    # pi(g) = R (x) R-bar is carried as its one base-rank factor R, and the center keeps
    # no tables: nu_general reads the closed form, so over every (b, n <= 4, k, a) of a
    # fresh fibonacci center it builds no gfs_matrix table and applies no generator
    md = dataclasses.replace(fixture_data["fibonacci"][0])
    cd = deligne_square(md)
    cells, den = cd.identity()
    assert isinstance(den, int) and len(cells) == md.rank
    assert all(len(row) == md.rank for row in cells)
    assert not hasattr(cd, "_gfs_cache")
    calls = []

    def counting(owner, name):
        real = getattr(owner, name)

        def counted(*args):
            calls.append(name)
            return real(*args)

        return counted

    for owner, name in ((indicators, "gfs_matrix"), (CenterData, "apply_s"),
                        (CenterData, "apply_t")):
        monkeypatch.setattr(owner, name, counting(owner, name))
    for n in range(1, 5):
        for k in range(-n, 2 * n):
            for b in range(cd.rank):
                for a in range(md.rank):
                    nu_general(cd, b, n, k, a)
    assert calls == []
    indicators.gfs_matrix(cd, 3, 1)  # the patched names do count the SL2(Z) route
    assert set(calls) == {"gfs_matrix", "apply_s", "apply_t"}


def test_descent_witness_on_a_corrupted_table(fixture_data, monkeypatch):
    # nu_{3,2} is the Galois image of theta^(1/3) nu_{3,1}; a closed-form value moved
    # out of the field by zeta_L, L the order of nu_direct's contraction at n = 3,
    # fails galois_apply's descent check, which names the order, the target and the
    # first mismatching coordinate. On fibonacci L is the center's working order 20
    # (S has order 20 and theta^3 order 5), so the witness is the one the center's
    # table gave before nu_general read the closed form
    md, fr = fixture_data["fibonacci"]
    cd = deligne_square(md, fr)
    order = indicators._twisted_rows(md, 3).packing.order
    assert order == cd.working_order == 20
    direct = indicators.nu_direct

    def corrupted(md, n, c, b, a):
        value = direct(md, n, c, b, a)
        return value + cyclo.zeta(order) if (n, c, b, a) == (3, *cd.pair_of(3), 1) else value

    monkeypatch.setattr(indicators, "nu_direct", corrupted)
    with pytest.raises(cyclo.DescentError) as exc:
        nu_general(cd, 3, 3, 2, 1)
    assert (exc.value.order, exc.value.target, exc.value.witness_index) == (60, 3, 3)
    assert str(exc.value) == (
        "value of order 60 does not descend to Q(zeta_3); first mismatch at power-basis coordinate 3"
    )


@pytest.mark.parametrize(
    "name, pairs",
    [
        ("semion", [(m, l) for m in range(-3, 5) for l in range(-3, 5)]),
        ("fibonacci", [(m, l) for m in range(-2, 4) for l in range(-2, 4)]),
        ("toric-code", [(m, l) for m in range(-3, 5) for l in range(-3, 5)]),
        ("haagerup-center", [(3, 1), (5, -3)]),
    ],
)
def test_indicators_are_congruence_invariant(name, pairs, fixture_centers):
    # Ng-Schauenburg: the center's SL2(Z) representation factors through
    # SL2(Z/N) with N the order of its T, so a table depends only on
    # (m, l) mod N
    cd = fixture_centers[name]
    n = cd.conductor
    checked = 0
    for m, l in pairs:
        shifted = [(m, l), (m + n, l), (m, l + n)]
        if any(math.gcd(*p) != 1 for p in shifted):
            continue
        tables = [gfs_matrix(cd, *p).values for p in shifted]
        assert tables[0] == tables[1] == tables[2], (name, m, l)
        checked += 1
    assert checked >= 2, name


def test_nu_direct_refuses_a_non_positive_n(fixture_data):
    # n = 0, -1 and -2 once returned 1 on fibonacci, each building and keeping one more
    # contraction on the data; they are refused as nu_general refuses them
    md = dataclasses.replace(fixture_data["fibonacci"][0])
    for n in (0, -1, -2):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            nu_direct(md, n, 0, 0, 0)
    assert "_twisted_rows" not in vars(md)
    nu_direct(md, 1, 0, 0, 0)
    assert list(vars(md)["_twisted_rows"]) == [1]
