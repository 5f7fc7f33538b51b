import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

import oracles
from mtckit import cyclo, indicators, spectra
from mtckit.center import center_for, deligne_square
from mtckit.cyclo import RootOfUnity
from mtckit.fusion_ring import FusionRing, power_decompose, verlinde
from mtckit.indicators import hom_dim_under_forgetful, nu2_direct
from mtckit.modular_data import ModularData
from mtckit.spectra import (
    IntegralityError,
    braid_jm_spectrum,
    format_eigenvalue,
    k2_pairs,
    render_report,
    rotation_report,
    rotation_spectrum,
    semisimple_K,
)

SMALL = ("vec", "semion", "toric-code", "fibonacci")


def rows_data(report):
    return [(r.label, r.eigenvalues, r.multiplicities) for r in report.rows]


class TestRotation:
    def test_vec_trivial(self, fixture_centers):
        cd = fixture_centers["vec"]
        for n in (1, 2, 3, 5):
            row = rotation_spectrum(cd, 0, 0, n)
            assert row.as_map()[RootOfUnity(1, 0)] == 1
            assert sum(row.multiplicities) == 1

    def test_toric_boson_row(self, fixture_data, fixture_centers):
        md, _ = fixture_data["toric-code"]
        cd = fixture_centers["toric-code"]
        row = rotation_spectrum(cd, cd.unit, md.index_of("e"), 2)
        assert row.as_map() == {RootOfUnity(1, 0): 1, RootOfUnity(2, 1): 0}

    def test_eigenvalues_are_roots_of_theta_inverse(self, fixture_data, fixture_centers):
        rng = random.Random(3)
        for name in SMALL:
            cd = fixture_centers[name]
            for _ in range(8):
                b = rng.randrange(cd.rank)
                a = rng.randrange(cd.base.rank)
                n = rng.randint(1, 4)
                row = rotation_spectrum(cd, b, a, n)
                for ev in row.eigenvalues:
                    assert ev**n == cd.theta[b].inverse(), (name, b, a, n)

    def test_row_sums_equal_hom_dims(self, fixture_data, fixture_centers):
        for name in SMALL:
            cd = fixture_centers[name]
            for n in range(1, 5):
                for b in range(cd.rank):
                    for a in range(cd.base.rank):
                        row = rotation_spectrum(cd, b, a, n)
                        assert sum(row.multiplicities) == hom_dim_under_forgetful(cd, b, a, n)

    def test_haagerup_pair_row_two(self, fixture_data, fixture_centers):
        # Hom((x1,x2), x6 (x) x6) is two-dimensional; both square roots of
        # theta_2/theta_1 = 1 occur once
        md, _ = fixture_data["haagerup-center"]
        cd = fixture_centers["haagerup-center"]
        b = cd.pair_index(md.index_of("x1"), md.index_of("x2"))
        row = rotation_spectrum(cd, b, md.index_of("x6"), 2)
        assert row.as_map() == {RootOfUnity(1, 0): 1, RootOfUnity(2, 1): 1}
        assert sum(row.multiplicities) == 2

    def test_root_shift_independence(self, fixture_data, fixture_centers):
        # the row at the pinned root against the per-k route at the next root, whose
        # Galois steps (nu_general) take the other theta^(1/n)
        rng = random.Random(41)
        for name in SMALL + ("haagerup-center",):
            cd = fixture_centers[name]
            for _ in range(8):
                b = rng.randrange(cd.rank)
                a = rng.randrange(cd.base.rank)
                n = rng.randint(2, 4)
                r0 = rotation_spectrum(cd, b, a, n)
                assert (r0.eigenvalues, r0.multiplicities) == (
                    oracles.rotation_spectrum_by_k(cd, b, a, n, root_shift=1)
                ), (name, b, a, n)

    def test_multiset_object(self, fixture_data, fixture_centers):
        md, _ = fixture_data["toric-code"]
        cd = fixture_centers["toric-code"]
        ms = {md.index_of("e"): 1, md.index_of("m"): 1}
        row = rotation_spectrum(cd, cd.unit, ms, 2)
        assert sum(row.multiplicities) == hom_dim_under_forgetful(cd, cd.unit, ms, 2) == 2

    def test_bad_n(self, fixture_centers):
        with pytest.raises(ValueError):
            rotation_spectrum(fixture_centers["vec"], 0, 0, 0)


class TestSemisimpleK:
    def test_delta_gate(self, fixture_data, fixture_centers):
        md, _ = fixture_data["toric-code"]
        cd = fixture_centers["toric-code"]
        f = md.index_of("f")
        b = cd.pair_index(f, md.unit)  # theta = -1; omega^2 = -1 required
        assert semisimple_K(cd, {b: 1}, f, 2).get(RootOfUnity(1, 0), 0) == 0

    def test_additivity(self, fixture_data, fixture_centers):
        md, _ = fixture_data["toric-code"]
        cd = fixture_centers["toric-code"]
        e = md.index_of("e")
        omega = RootOfUnity(1, 0)
        single = semisimple_K(cd, {cd.unit: 1}, e, 2).get(omega, 0)
        double = semisimple_K(cd, {cd.unit: 2}, e, 2).get(omega, 0)
        assert single == 1 and double == 2

    def test_matches_rotation(self, fixture_data, fixture_centers):
        rng = random.Random(15)
        for name in SMALL:
            cd = fixture_centers[name]
            for _ in range(6):
                b = rng.randrange(cd.rank)
                a = rng.randrange(cd.base.rank)
                n = rng.randint(1, 3)
                row = rotation_spectrum(cd, b, a, n)
                for ev, mult in zip(row.eigenvalues, row.multiplicities):
                    assert semisimple_K(cd, {b: 1}, a, n).get(ev, 0) == mult

    def test_one_strand_weighs_rotation_rows(self, fixture_centers):
        # n = 1 skips the root sum; each gated simple still counts its n = 1 rotation row
        for name in SMALL:
            cd = fixture_centers[name]
            ms = {c: 1 + c % 3 for c in range(cd.rank)}
            for a in range(cd.base.rank):
                for omega in dict.fromkeys(t.inverse() for t in cd.theta):
                    want = sum(m * rotation_spectrum(cd, c, a, 1).multiplicities[0]
                               for c, m in ms.items() if cd.theta[c] == omega.inverse())
                    assert semisimple_K(cd, ms, a, 1).get(omega, 0) == want

    def test_row_is_the_weighted_sum_of_rotation_rows(self, fixture_centers):
        # K is linear in b: the whole row is sum_c mult_c P^c, candidates of each twist
        # kept with their zero multiplicities, whether b mixes twists or repeats one
        for name in SMALL:
            cd = fixture_centers[name]
            multisets = [{c: 1 + c % 3 for c in range(cd.rank)}]
            multisets += [{c: 2, d: 1} for c in range(cd.rank) for d in range(c + 1, cd.rank)]
            for ms in multisets:
                for a in range(cd.base.rank):
                    for n in (1, 2, 3):
                        want: dict[RootOfUnity, int] = {}
                        for c, mult in ms.items():
                            for omega, k in rotation_spectrum(cd, c, a, n).as_map().items():
                                want[omega] = want.get(omega, 0) + mult * k
                        assert semisimple_K(cd, ms, a, n) == want, (name, ms, a, n)


class TestBraids:
    def test_vec(self, fixture_data):
        md, fr = fixture_data["vec"]
        rep = braid_jm_spectrum(md, 0, 3, 1, 1, fr=fr)
        assert oracles.spectrum(rep) == {RootOfUnity(1, 0)}

    def test_each_nu_value_is_computed_once_per_call(self, fixture_data, monkeypatch):
        # the simples of one twist share their candidates omega, so a braid call takes
        # each nu^b_{n,k}(a) once, not once per omega
        md, fr = fixture_data["haagerup-center"]
        md = dataclasses.replace(md)  # fresh data: trace entries read the patched nu_direct
        real = spectra.nu_direct
        seen = []

        def recording(md, n, c, b, a):
            seen.append((n, c, b, a))
            return real(md, n, c, b, a)

        monkeypatch.setattr(spectra, "nu_direct", recording)
        for a in range(md.rank):
            for sign in ("over", "under"):
                seen.clear()
                braid_jm_spectrum(md, a, 3, 0, 0, sign=sign, fr=fr)
                assert seen and len(set(seen)) == len(seen), (a, sign)

    def test_jm_equals_sigma_paths(self, fixture_data):
        for name in SMALL + ("haagerup-center",):
            md, fr = fixture_data[name]
            for a in range(md.rank):
                jm = braid_jm_spectrum(md, a, 2, 0, 0, fr=fr)
                sg = oracles.sigma_spectrum_n2(md, fr, a)
                assert rows_data(jm) == rows_data(sg), (name, a)
                jm3 = braid_jm_spectrum(md, a, 3, 1, 0, fr=fr)
                sg3 = oracles.sigma_spectrum_n2(md, fr, a, braid="sigma-triple")
                assert rows_data(jm3) == rows_data(sg3), (name, a)

    def test_k2_pairs_equal_the_center_route(self, fixture_data, fixture_centers):
        # each K^2 triple is the n = 2 K row of the one center simple c (x) b~. K^2
        # pairs and the center's rows read one table of closed-form entries, so the
        # row comes from the per-k route, through nu_general's Galois step
        for name, (md, fr) in fixture_data.items():
            cd = fixture_centers[name]
            for c in range(md.rank):
                for b in range(md.rank):
                    want_b = {cd.pair_index(c, b): 1}
                    for a in range(md.rank):
                        want = tuple(oracles.semisimple_K_by_k(cd, want_b, a, 2).items())
                        assert k2_pairs(md, fr, c, b, a) == want, (name, c, b, a)

    def test_row_sums_are_hom_dims(self, fixture_data):
        for name in SMALL:
            md, fr = fixture_data[name]
            for a in range(md.rank):
                for n, l, m in ((2, 0, 0), (3, 0, 0), (3, 1, 0), (3, 0, 1), (4, 0, 0), (4, 1, 1)):
                    rep = braid_jm_spectrum(md, a, n, l, m, fr=fr)
                    for b, row in enumerate(rep.rows):
                        want = power_decompose(fr, a, n).get(b, 0)
                        assert sum(row.multiplicities) == want, (name, a, n, l, m, b)

    def test_k2_sum_rule(self, fixture_data):
        for name in SMALL:
            md, fr = fixture_data[name]
            r = md.rank
            for c in range(r):
                for b in range(r):
                    for a in range(r):
                        pairs = k2_pairs(md, fr, c, b, a)
                        total = sum(k for _, k in pairs)
                        want = sum(
                            fr.table[b][md.dual[c]][e] * fr.table[e][a][a]
                            for e in range(r)
                        )
                        assert total == want, (name, c, b, a)

    def test_pointed_oracle_toric(self, fixture_data):
        md, fr = fixture_data["toric-code"]
        for label in oracles.TORIC_LABELS:
            a = md.index_of(label)
            rep = oracles.sigma_spectrum_n2(md, fr, a)
            square = oracles.toric_fuse(label, label)
            scalar = RootOfUnity.make(*reversed(oracles.toric_sigma_scalar(label)))
            for row in rep.rows:
                m = row.as_map()
                if row.label == square:
                    assert m.get(scalar, 0) == 1 and sum(m.values()) == 1, label
                else:
                    assert sum(m.values()) == 0

    def test_pointed_oracle_semion(self, fixture_data):
        md, fr = fixture_data["semion"]
        for label in oracles.SEMION_LABELS:
            a = md.index_of(label)
            rep = oracles.sigma_spectrum_n2(md, fr, a)
            square = oracles.semion_fuse(label, label)
            scalar = RootOfUnity.make(*reversed(oracles.semion_sigma_scalar(label)))
            for row in rep.rows:
                m = row.as_map()
                if row.label == square:
                    assert m.get(scalar, 0) == 1 and sum(m.values()) == 1, label
                else:
                    assert sum(m.values()) == 0

    def test_fibonacci_generator_matches_known_r_symbols(self, fixture_data):
        # the golden-ratio category braids with e^(-4 pi i/5) on the trivial
        # channel and e^(3 pi i/5) on the tau channel
        md, fr = fixture_data["fibonacci"]
        tau = md.index_of("tau")
        rep = oracles.sigma_spectrum_n2(md, fr, tau)
        by_label = {row.label: row.as_map() for row in rep.rows}
        assert by_label["1"] == {RootOfUnity(5, 3): 1, RootOfUnity(10, 1): 0}
        assert by_label["tau"] == {RootOfUnity(10, 3): 1, RootOfUnity(5, 4): 0}

    def test_sigma_triple_cubes_generator_on_characters(self, fixture_data):
        # pointed hom spaces are at most 1-dim, so pi restricted to B_3 is a
        # character: the sigma-triple eigenvalue must be the cube of the
        # generator eigenvalue
        for name in ("toric-code", "semion"):
            md, fr = fixture_data[name]
            for a in range(md.rank):
                sg = oracles.sigma_spectrum_n2(md, fr, a)
                tr = oracles.sigma_spectrum_n2(md, fr, a, braid="sigma-triple")
                r = next(
                    ev for row in sg.rows for ev, m in row.as_map().items() if m
                )
                for b, mult in power_decompose(fr, a, 3).items():
                    if not mult:
                        continue
                    got = {ev for ev, m in tr.rows[b].as_map().items() if m}
                    assert got == {r**3}, (name, a, b)

    def test_under_sign_is_reverse(self, fixture_data):
        for name in ("semion", "fibonacci"):
            md, fr = fixture_data[name]
            rev = oracles.reverse(md)
            rev_fr = verlinde(rev)
            for a in range(md.rank):
                under = braid_jm_spectrum(md, a, 2, 0, 0, sign="under")
                straight = oracles.sigma_spectrum_n2(rev, rev_fr, a)
                assert rows_data(under) == rows_data(straight), (name, a)

    def test_under_matches_the_reversed_data_up_to_n3(self, fixture_data):
        # the under family reads the forward center with its pairs swapped;
        # the reversed data, with a center of its own, must give the same rows
        shapes = [(n, l, m) for n in (2, 3) for l in range(n) for m in range(n - l)]
        for name, (md, fr) in fixture_data.items():
            rev = oracles.reverse(md)
            for a in range(md.rank):
                for n, l, m in shapes:
                    under = braid_jm_spectrum(md, a, n, l, m, sign="under", fr=fr)
                    want = braid_jm_spectrum(rev, a, n, l, m, sign="over", fr=fr)
                    assert rows_data(under) == rows_data(want), (name, a, n, l, m)

    def test_under_after_over_builds_nothing(self, fixture_data, monkeypatch):
        # fresh data no earlier test has warmed (new labels, so equal to no
        # cached value): the over call builds the one center, the under call
        # builds neither a second center nor second invariants
        from mtckit import center, modular_data

        md, _ = fixture_data["fibonacci"]
        fresh = dataclasses.replace(md, labels=tuple(f"w{label}" for label in md.labels))
        calls = []

        def count(module, name):
            original = getattr(module, name)

            def counting(*args):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(module, name, counting)

        count(center, "deligne_square")
        count(modular_data, "derive_invariants")
        over = braid_jm_spectrum(fresh, 1, 3, 1, 0)
        assert calls == ["deligne_square", "derive_invariants"]
        calls.clear()
        under = braid_jm_spectrum(fresh, 1, 3, 1, 0, sign="under")
        assert calls == []
        assert {ev.inverse() for ev in oracles.spectrum(over)} == oracles.spectrum(under)

    def test_under_conjugates_pointed_spectrum(self, fixture_data):
        md, fr = fixture_data["semion"]
        s = md.index_of("s")
        over = braid_jm_spectrum(md, s, 2, 0, 0, fr=fr)
        under = braid_jm_spectrum(md, s, 2, 0, 0, sign="under")
        assert {ev.inverse() for ev in oracles.spectrum(over)} == oracles.spectrum(under)

    def test_bad_parameters(self, fixture_data):
        md, fr = fixture_data["vec"]
        with pytest.raises(ValueError):
            braid_jm_spectrum(md, 0, 2, 1, 1, fr=fr)
        with pytest.raises(ValueError):
            braid_jm_spectrum(md, 0, 2, 0, 0, sign="sideways", fr=fr)
        with pytest.raises(ValueError, match="not the fusion ring"):
            braid_jm_spectrum(md, 0, 2, 0, 0, fr=fixture_data["semion"][1])


class TestIndexGuards:
    # a negative index would wrap around to another simple, and a rank-sized one fail
    # as a bare IndexError: every entry point refuses both with ValueError

    def test_center_simples(self, fixture_data, fixture_centers):
        md, fr = fixture_data["semion"]
        cd = fixture_centers["semion"]
        for bad in (-1, cd.rank):
            with pytest.raises(ValueError, match=f"center simple {bad} is outside 0..3"):
                rotation_spectrum(cd, bad, 1, 2)
            with pytest.raises(ValueError, match=f"center simple {bad} is outside 0..3"):
                semisimple_K(cd, {0: 1, bad: 1}, 1, 2)
        for bad in (-1, md.rank):
            for c, b in ((bad, 0), (0, bad)):
                with pytest.raises(ValueError, match=f"factor {bad} is outside 0..1"):
                    k2_pairs(md, fr, c, b, 0)

    def test_base_objects(self, fixture_data, fixture_centers):
        md, fr = fixture_data["semion"]
        cd = fixture_centers["semion"]
        for bad in (-1, md.rank):
            for call in (
                lambda: rotation_spectrum(cd, 0, bad, 2),
                lambda: rotation_spectrum(cd, 0, {bad: 1}, 2),
                lambda: rotation_report(cd, bad, 2),
                lambda: semisimple_K(cd, {0: 1}, bad, 1),
                lambda: semisimple_K(cd, {0: 1}, bad, 2),
                lambda: k2_pairs(md, fr, 0, 0, bad),
                lambda: braid_jm_spectrum(md, bad, 2, 0, 0),
                lambda: braid_jm_spectrum(md, bad, 3, 1, 0, sign="under"),
            ):
                with pytest.raises(ValueError, match=f"object index {bad} is outside 0..1"):
                    call()

    def test_negative_center_multiplicity(self, fixture_centers):
        # the caller's fault, not corrupt data: ValueError, never IntegralityError
        cd = fixture_centers["semion"]
        for n in (1, 2):
            with pytest.raises(ValueError, match="center multiplicities must be non-negative"):
                semisimple_K(cd, {0: -1}, 1, n)


class TestIntegralityGuards:
    def test_non_integer_multiplicity_raises(self, fixture_data):
        # swapping two twists while keeping S makes the indicator data
        # inconsistent; the K formula stops being integral
        md, fr = fixture_data["toric-code"]
        theta = list(md.theta)
        f = md.index_of("f")
        theta[f] = RootOfUnity.make(4, 1)
        bad = ModularData(
            labels=md.labels, s=md.s, theta=tuple(theta), unit=md.unit, dual=md.dual
        )
        with pytest.raises(IntegralityError):
            for a in range(4):
                oracles.sigma_spectrum_n2(bad, fr, a)

    def test_non_integer_indicators_raise(self, fixture_data, monkeypatch):
        # on vec, nu_{n,1} = 1/3 (the closed form nu_direct, read by the n1 = 3 and the
        # n1 = 2 entries) or nu_0 = 2 (hom_dim_under_forgetful)
        # makes some P on Hom(1, 1^(x)n) a non-integer: 5/9 at n = 3, 2/3 and 3/2 at
        # n = 2. The data is fresh for each patch, as the trace entries keep its values
        from mtckit import spectra

        md, fr = fixture_data["vec"]
        hom = spectra.hom_dim_under_forgetful

        def third(*args, **kwargs):
            return cyclo.from_rational(Fraction(1, 3))

        for seam, patch, n in (
            ("nu_direct", third, 3),
            ("nu_direct", third, 2),
            ("hom_dim_under_forgetful", lambda *args: hom(*args) + 1, 2),
        ):
            cd = deligne_square(dataclasses.replace(md), fr)
            with monkeypatch.context() as patched:
                patched.setattr(spectra, seam, patch)
                with pytest.raises(IntegralityError, match="multiplicity of"):
                    rotation_spectrum(cd, 0, 0, n)
                with pytest.raises(IntegralityError, match="K at omega"):
                    semisimple_K(cd, {0: 1}, 0, n).get(RootOfUnity(1, 0), 0)


class TestRendering:
    def test_format_eigenvalue(self):
        assert format_eigenvalue(RootOfUnity(1, 0)) == "1"
        assert format_eigenvalue(RootOfUnity(2, 1)) == "-1"
        assert format_eigenvalue(RootOfUnity(3, 2)) == "-e^(i*pi*1/3)"
        assert format_eigenvalue(RootOfUnity(6, 1)) == "e^(i*pi*1/3)"
        assert format_eigenvalue(RootOfUnity(78, 41)) == "-e^(i*pi*2/39)"
        assert format_eigenvalue(RootOfUnity(4, 1)) == "e^(i*pi*1/2)"

    def test_zero_rows_render(self, fixture_data):
        md, fr = fixture_data["toric-code"]
        rep = oracles.sigma_spectrum_n2(md, fr, md.index_of("e"))
        text = render_report(rep)
        assert "(0, 0)" in text  # hom-dim-zero rows keep all-zero multiplicities

    def test_structured_payload_roundtrip(self, fixture_data):
        from mtckit import dataio

        md, fr = fixture_data["semion"]
        rep = oracles.sigma_spectrum_n2(md, fr, md.index_of("s"))
        text = render_report(rep, fmt="structured")
        for line in text.splitlines():
            if line.startswith("  eigenvalues: "):
                for token in line.split(": ", 1)[1].split("; "):
                    dataio.parse_expr(token)  # canonical payloads parse back

    def test_rotation_report_shape(self, fixture_data, fixture_centers):
        md, _ = fixture_data["semion"]
        cd = fixture_centers["semion"]
        rep = rotation_report(cd, md.index_of("s"), 2, source="catalog:semion")
        assert len(rep.rows) == cd.rank
        text = render_report(rep)
        assert text.count("\n") == cd.rank + 3


class TestMultiplicitiesAgainstDot:
    @staticmethod
    def _check_row(cd, b, a, n, root_shift):
        # the oracle's nu_general values take the root with this shift
        row = rotation_spectrum(cd, b, a, n)
        for lam, mult in zip(row.eigenvalues, row.multiplicities):
            want = oracles.multiplicity_by_dot(cd, b, a, n, lam, root_shift=root_shift)
            assert cyclo.as_integer(want) == mult, (cd.labels[b], a, n, lam)

    @pytest.mark.parametrize("name", SMALL)
    def test_every_small_row(self, fixture_centers, name):
        cd = fixture_centers[name]
        for n in range(1, 5):
            for root_shift in (0, 1):
                for a in range(cd.base.rank):
                    for b in range(cd.rank):
                        self._check_row(cd, b, a, n, root_shift)

    def test_haagerup_sample(self, fixture_centers):
        cd = fixture_centers["haagerup-center"]
        rng = random.Random(67)
        for _ in range(12):
            self._check_row(
                cd, rng.randrange(cd.rank), rng.randrange(cd.base.rank), rng.randint(1, 4),
                rng.randint(0, 1),
            )


ALL = SMALL + ("haagerup-center",)
# every braid shape (n, l, m) of the benchmark's spectra-sweep: all with n <= 3
BRAID_SHAPES = ((2, 0, 0), (2, 1, 0), (2, 0, 1), (3, 0, 0), (3, 1, 0), (3, 0, 1),
                (3, 1, 1), (3, 2, 0), (3, 0, 2))


class TestTracesAgainstTheRouteByK:
    """The trace route (one field trace per divisor of n, from the trace table)
    against the per-k route it replaced: one nu_general call per k and one
    root_sums call (oracles.*_by_k)."""

    @pytest.mark.parametrize("name", ALL)
    def test_every_rotation_row(self, fixture_centers, name):
        cd = fixture_centers[name]
        big = name == "haagerup-center"
        for n in range(1, 5 if big else 7):
            for b in range(0, cd.rank, 12 if big else 1):
                for a in range(cd.base.rank):
                    for root_shift in (0, 1):
                        row = rotation_spectrum(cd, b, a, n)
                        want = oracles.rotation_spectrum_by_k(cd, b, a, n, root_shift=root_shift)
                        assert (row.eigenvalues, row.multiplicities) == want, (
                            name, b, a, n, root_shift)

    @pytest.mark.parametrize("sign", ("over", "under"))
    def test_k_rows_of_every_braid_shape(self, fixture_data, monkeypatch, sign):
        real, checked = spectra.semisimple_K, []

        def checking(cd, b, a, n):
            got = real(cd, b, a, n)
            assert got == oracles.semisimple_K_by_k(cd, b, a, n), (b, a, n)
            checked.append(n)
            return got

        monkeypatch.setattr(spectra, "semisimple_K", checking)
        for name in ALL:
            md, fr = fixture_data[name]
            for a in range(md.rank):
                for n, l, m in BRAID_SHAPES:
                    braid_jm_spectrum(md, a, n, l, m, sign=sign, fr=fr)
        assert set(checked) == {1, 2, 3}

    @pytest.mark.parametrize("name", ALL)
    def test_every_k2_triple(self, fixture_data, name):
        md, fr = fixture_data[name]
        r = md.rank
        for c in range(r):
            for b in range(r):
                for a in range(r):
                    assert k2_pairs(md, fr, c, b, a) == oracles.k2_pairs_by_k(md, fr, c, b, a)


def test_semion_row_at_n_1200_sums_to_the_hom_dimension(fixture_data, fixture_centers):
    # 1,200 candidates from one trace entry per divisor of 1,200: n = 1,200 is within
    # the order limit for the row b = 0 (twist 1)
    md, fr = fixture_data["semion"]
    cd = fixture_centers["semion"]
    a = md.index_of("s")
    row = rotation_spectrum(cd, 0, a, 1200)
    assert len(row.multiplicities) == 1200
    powers = power_decompose(fr, a, 1200)
    want = sum(cd.a_matrix[0][c] * mult for c, mult in powers.items())
    assert sum(row.multiplicities) == want == 1


def test_rows_and_k2_pairs_make_no_field_product(fixture_data, monkeypatch):
    # a warm rotation row, K row or K^2 pair multiplies no field values and reduces
    # no polynomial, neither as a list (poly_reduce) nor packed (Packing.reduce, the
    # remainder behind cyclo.mapped and times_root): nu_0 is a hom dimension, and
    # every other term is read off the modular data's trace table as ints. The tables
    # are warmed here, on fresh data, so the test does not depend on which tests ran
    # before; each entry is built once, on the first pass
    products, reductions, built = [], [], []
    mul, reduce, nu_direct = cyclo.Cyclotomic.__mul__, cyclo.poly_reduce, spectra.nu_direct
    packed_reduce = cyclo.Packing.reduce

    def counting_mul(self, other):
        products.append((self, other))
        return mul(self, other)

    def counting_reduce(p, mod):
        reductions.append(len(p))
        return reduce(p, mod)

    def counting_packed_reduce(self, value):
        reductions.append(self.order)
        return packed_reduce(self, value)

    def recording_nu(md, n, c, b, a):
        built.append((id(md), n, c, b, a))  # only a trace entry reads nu_{n,1}
        return nu_direct(md, n, c, b, a)

    monkeypatch.setattr(spectra, "nu_direct", recording_nu)
    centers = {
        name: deligne_square(dataclasses.replace(fixture_data[name][0]))
        for name in ("semion", "toric-code", "fibonacci", "haagerup-center")
    }
    md = centers["haagerup-center"].base
    fr = md.ring

    def sweep():
        for name, cd in centers.items():
            rows = range(0, cd.rank, 12 if name == "haagerup-center" else 1)
            mixed = {c: 1 + c % 3 for c in rows}  # a K row over several twists
            for n in (2, 3, 4):
                for a in range(cd.base.rank):
                    for b in rows:
                        rotation_spectrum(cd, b, a, n)
                    semisimple_K(cd, mixed, a, n)
        r = md.rank
        for c in range(r):
            for b in range(r):
                for a in range(r):
                    k2_pairs(md, fr, c, b, a)

    sweep()  # builds the trace entries and the packed rows
    assert built and len(set(built)) == len(built)
    first = len(built)
    monkeypatch.setattr(cyclo.Cyclotomic, "__mul__", counting_mul)
    monkeypatch.setattr(cyclo.Cyclotomic, "__rmul__", counting_mul)
    monkeypatch.setattr(cyclo, "poly_reduce", counting_reduce)
    monkeypatch.setattr(cyclo.Packing, "reduce", counting_packed_reduce)
    sweep()
    assert products == [] and reductions == [] and len(built) == first


def test_warm_rows_build_no_field_value(fixture_data, monkeypatch):
    # once the trace tables and the candidate frames are warm, a rotation row, K row or
    # K^2 pair builds no Cyclotomic at all: every count is an int quotient, and only a
    # failed gate would build the value for its message. The tables are warmed here,
    # on fresh centers, so the test does not depend on which tests ran before
    built, init = [], cyclo.Cyclotomic.__init__

    def counting_init(self, order, num, den):
        built.append(order)
        init(self, order, num, den)

    data = {name: fixture_data[name] for name in SMALL + ("haagerup-center",)}
    centers = {name: deligne_square(md, fr) for name, (md, fr) in data.items()}

    def sweep():
        for name, cd in centers.items():
            rows = range(0, cd.rank, 12 if name == "haagerup-center" else 1)
            mixed = {c: 1 + c % 3 for c in rows}  # a K row over several twists
            for n in (1, 2, 3, 4):
                for a in range(cd.base.rank):
                    for b in rows:
                        rotation_spectrum(cd, b, a, n)
                    semisimple_K(cd, mixed, a, n)
            md, fr = data[name]
            for c, b, a in itertools.product(range(md.rank), repeat=3):
                k2_pairs(md, fr, c, b, a)

    sweep()  # builds the trace entries, the packed rows and the frames
    monkeypatch.setattr(cyclo.Cyclotomic, "__init__", counting_init)
    sweep()
    assert built == []


def test_a_kept_frame_still_meets_the_order_limit(fixture_data, fixture_centers, monkeypatch):
    # the candidates of a (twist, n) are kept once built, but every row checks the
    # order limit again: a lowered limit refuses the row before any term is read
    md, _ = fixture_data["haagerup-center"]
    cd = fixture_centers["haagerup-center"]
    a, n = md.index_of("x6"), 4
    b = max(range(cd.rank), key=lambda b: cd.theta[b].order)
    want = rotation_spectrum(cd, b, a, n)
    read, hom = [], spectra.hom_dim_under_forgetful

    def recording(*args):
        read.append(args)
        return hom(*args)

    monkeypatch.setattr(spectra, "hom_dim_under_forgetful", recording)
    old = cyclo.get_order_limit()
    cyclo.set_order_limit(n * cd.theta[b].order - 1)
    try:
        with pytest.raises(cyclo.CycloDomainError):
            rotation_spectrum(cd, b, a, n)
        with pytest.raises(cyclo.CycloDomainError):
            semisimple_K(cd, {b: 1}, a, n)
    finally:
        cyclo.set_order_limit(old)
    assert read == []
    assert rotation_spectrum(cd, b, a, n) == want


def test_n2_entries_are_one_table_on_the_modular_data(fixture_data, monkeypatch):
    # the n1 = 2 entries of rotation rows, K rows and braids and the entries of the
    # K^2 pairs are one table of closed-form values, kept on the modular data: rows
    # fill it, K^2 pairs then call no nu_direct at n = 2, and no entry builds a
    # gfs_matrix. A ring other than md.ring is refused
    md = dataclasses.replace(fixture_data["haagerup-center"][0])  # no trace table yet
    fr, r = md.ring, md.rank
    cd = center_for(md, fr)
    closed, direct = [], spectra.nu_direct
    tables, table = [], indicators.gfs_matrix

    def counting(md, n, c, b, a):
        if n == 2:
            closed.append((c, b, a))
        return direct(md, n, c, b, a)

    def counting_tables(cd, m, l):
        tables.append((m, l))
        return table(cd, m, l)

    monkeypatch.setattr(spectra, "nu_direct", counting)
    monkeypatch.setattr(indicators, "gfs_matrix", counting_tables)
    for b in range(cd.rank):
        for a in range(r):
            rotation_spectrum(cd, b, a, 2)
    assert len(set(closed)) == len(closed) == r**3
    closed.clear()
    for c, b, a in itertools.product(range(r), repeat=3):
        k2_pairs(md, fr, c, b, a)
    mixed = {c: 1 + c % 3 for c in range(0, cd.rank, 5)}  # a K row over several twists
    for a in range(r):
        for n in (2, 4):
            rotation_spectrum(cd, 7 * a, a, n)
            semisimple_K(cd, mixed, a, n)
        for sign in ("over", "under"):
            for n, l, m in ((2, 0, 0), (3, 1, 0), (3, 0, 1)):
                braid_jm_spectrum(md, a, n, l, m, sign=sign, fr=fr)
    assert closed == [] and tables == []

    # a ring that is not md.ring (here every N^a_{d,e} doubled) is refused, by K^2
    # pairs and by the closed form alike
    doubled = FusionRing(
        rank=fr.rank, unit=fr.unit, dual=fr.dual,
        table=tuple(tuple(tuple(2 * n for n in row) for row in mat) for mat in fr.table),
    )
    with pytest.raises(ValueError, match="not the fusion ring"):
        k2_pairs(md, doubled, 0, 0, 0)
    with pytest.raises(ValueError, match="not the fusion ring"):
        nu2_direct(md, doubled, 0, 0, 0)
    for c, b, a in itertools.product(range(r), repeat=3):
        assert k2_pairs(md, fr, c, b, a) == oracles.k2_pairs_by_k(md, fr, c, b, a)
    assert closed == []


def test_rows_build_no_sl2_state(fixture_data, monkeypatch):
    # on fresh data, a rotation report, a K row and both braid signs read the closed
    # form only: no gfs_matrix table is built and no SL2(Z) generator is applied
    from mtckit.center import CenterData

    applied = []

    def counting(owner, name):
        real = getattr(owner, name)

        def counted(*args):
            applied.append(name)
            return real(*args)

        return counted

    for owner, name in ((CenterData, "apply_s"), (CenterData, "apply_t"),
                        (indicators, "gfs_matrix")):
        monkeypatch.setattr(owner, name, counting(owner, name))
    for name in ("fibonacci", "haagerup-center"):
        md = dataclasses.replace(fixture_data[name][0])
        cd = center_for(md)
        a = md.rank - 1
        rotation_report(cd, a, 6)
        semisimple_K(cd, {c: 1 + c % 2 for c in range(cd.rank)}, a, 4)
        for sign in ("over", "under"):
            for n, l, m in ((2, 0, 0), (3, 1, 0), (4, 1, 0)):
                braid_jm_spectrum(md, a, n, l, m, sign=sign)
        assert applied == [], name
    indicators.gfs_matrix(cd, 3, 1)  # the patched names do count the SL2(Z) route
    assert set(applied) == {"gfs_matrix", "apply_s", "apply_t"}


def test_every_ring_argument_is_the_data_ring(fixture_data):
    # a ring passed beside md must be md.ring, by identity or by its table; another
    # ring is refused before any work, where it used to reach a wrong value's
    # DescentError (the semion ring on fibonacci data)
    md = dataclasses.replace(fixture_data["fibonacci"][0])
    tau, semion_ring = md.index_of("tau"), fixture_data["semion"][1]
    calls = (
        lambda fr: deligne_square(md, fr),
        lambda fr: k2_pairs(md, fr, tau, tau, tau),
        lambda fr: nu2_direct(md, fr, tau, tau, tau),
        lambda fr: braid_jm_spectrum(md, tau, 3, 1, 0, fr=fr),
    )
    for call in calls:
        with pytest.raises(ValueError, match="not the fusion ring"):
            call(semion_ring)
    equal = verlinde(md)
    assert equal is not md.ring
    for call in calls:
        call(equal)
    b = deligne_square(md, equal).pair_index(tau, tau)
    assert rotation_spectrum(center_for(md), b, tau, 3) == rotation_spectrum(
        center_for(fixture_data["fibonacci"][0]), b, tau, 3)


# IntegralityError texts, pinned byte for byte: each names the exact sum the
# kernel returned, with no value rebuilt for the message. Under the k = 1 fault
# the n = 2 and n = 3 calls stop earlier: their trace entry x = rho nu_{n,1} lies
# off Q(zeta_n), so its subfield check raises DescentError (exit 3, like the others).
INTEGRALITY_MESSAGES = [
    "value of order 21 does not descend to Q(zeta_3); first mismatch at power-basis coordinate 0",
    "value of order 140 does not descend to Q(zeta_2); first mismatch at power-basis coordinate 0",
    "value of order 420 does not descend to Q(zeta_3); first mismatch at power-basis coordinate 0",
    "multiplicity of 1 on Hom((tau,tau), a^3) = -2/3 is not a non-negative integer",
    "multiplicity of 1 on Hom((1,1), a^1) = -5 is not a non-negative integer",
    "K at omega = 1 = -9/2 is not a non-negative integer",
    "K at omega = E(15)^2 = -4/3 is not a non-negative integer",
]


def test_integrality_messages_are_unchanged(fixture_data, monkeypatch):
    md, fr = fixture_data["fibonacci"]
    direct, hom = spectra.nu_direct, spectra.hom_dim_under_forgetful

    # nu_{n,1} off Q(zeta_n), in the closed form every trace entry reads; nu_0 =
    # dim Hom(b, a^n) - 5
    off_field = {"nu_direct": lambda *args: direct(*args) + cyclo.zeta(7)}
    negative = {"hom_dim_under_forgetful": lambda *args: hom(*args) - 5}

    calls = [
        lambda cd: rotation_spectrum(cd, 3, 1, 3),
        lambda cd: rotation_spectrum(cd, 0, 1, 1),
        lambda cd: semisimple_K(cd, {0: 2, 3: 1}, 1, 2).get(RootOfUnity(1, 0), 0),
        lambda cd: semisimple_K(cd, {1: 2, 2: 1}, 1, 3).get(RootOfUnity.make(15, 2), 0),
    ]
    messages = []
    for patches in (off_field, negative):
        # the patches reach the trace entries, which live on the modular data, so each
        # set gets fresh data
        cd = deligne_square(dataclasses.replace(md), fr)
        with monkeypatch.context() as patched:
            for name, patch in patches.items():
                patched.setattr(spectra, name, patch)
            for call in calls:
                try:
                    call(cd)
                except (IntegralityError, cyclo.DescentError) as exc:
                    messages.append(str(exc))
    assert messages == INTEGRALITY_MESSAGES

    cd = deligne_square(dataclasses.replace(md), fr)
    assert rotation_spectrum(cd, 0, 1, 1).multiplicities == (0,)  # the unpatched -5 + 5
    monkeypatch.setattr(
        spectra, "nu_direct",
        lambda *args: direct(*args) + Fraction(1, 3) * cyclo.zeta(3),
    )
    with pytest.raises(cyclo.DescentError) as exc:
        k2_pairs(dataclasses.replace(md), fr, 0, 1, 1)
    assert str(exc.value) == (
        "value of order 60 does not descend to Q(zeta_2); first mismatch at power-basis coordinate 8"
    )


def test_k2_integrality_message_is_pinned(fixture_data):
    # the toric code with theta_f moved to i (criterion 10's inconsistent data): each
    # braid generator row with a != 1 meets a half-integer K^(2) at omega = 1 first
    md, fr = fixture_data["toric-code"]
    theta = list(md.theta)
    theta[md.index_of("f")] = RootOfUnity.make(4, 1)
    bad = ModularData(labels=md.labels, s=md.s, theta=tuple(theta), unit=md.unit, dual=md.dual)
    messages = []
    for a in range(md.rank):
        try:
            oracles.sigma_spectrum_n2(bad, fr, a)
        except IntegralityError as exc:
            messages.append((a, str(exc)))
    text = "K^(2) at omega = 1 = 1/2 is not a non-negative integer"
    assert messages == [(1, text), (2, text), (3, text)]


def test_a_shifted_root_leaves_the_unshifted_row_as_it_was(fixture_data):
    # the per-k route at root_shift = 1 between two rows of the same (b, a, n) at the
    # pinned root changes nothing the second row reads, on data whose rows start fresh
    md, fr = fixture_data["fibonacci"]
    md = dataclasses.replace(md)
    cd = deligne_square(md, fr)
    uneven = 0
    for n in (3, 4):
        for b in range(cd.rank):
            for a in range(md.rank):
                first = rotation_spectrum(cd, b, a, n)
                shifted = oracles.rotation_spectrum_by_k(cd, b, a, n, root_shift=1)
                assert rotation_spectrum(cd, b, a, n) == first, (b, a, n)
                assert shifted == (first.eigenvalues, first.multiplicities), (b, a, n)
                uneven += len(set(first.multiplicities)) > 1
    assert uneven  # a row read with a moved offset would differ


def test_semion_row_at_large_n_sums_to_the_hom_dimension(fixture_data, fixture_centers):
    # n = 600: a row of 600 candidates over 600 nu values at order 600
    md, fr = fixture_data["semion"]
    cd = fixture_centers["semion"]
    a = md.index_of("s")
    n = 600
    row = rotation_spectrum(cd, 0, a, n)
    assert len(row.multiplicities) == n
    powers = power_decompose(fr, a, n)
    want = sum(cd.a_matrix[0][c] * mult for c, mult in powers.items())
    assert sum(row.multiplicities) == want == 1
