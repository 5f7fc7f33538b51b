import dataclasses
import gc
import itertools
import weakref

import pytest

import families
import oracles
from mtckit import cyclo
from mtckit._poly import poly_pack
from mtckit.center import ConsistencyError, Contraction, center_for, deligne_square
from mtckit.cyclo import Cyclotomic, RootOfUnity
from mtckit.fusion_ring import verlinde
from mtckit.indicators import gfs_matrix, nu_direct, sl2_word
from mtckit.modular_data import ModularData, derive_invariants, validate

SMALL = ("vec", "semion", "toric-code", "fibonacci")
HERMITIAN_PAIRS = ((2, 1), (3, 2), (7, -2), (5, 3))


def test_center_modular_data_validates(fixture_data, fixture_centers):
    for name in SMALL:
        cd_md = oracles.center_modular_data(fixture_centers[name])
        report = validate(cd_md)
        assert report.ok, (name, report.failed())
        inv = derive_invariants(cd_md)
        assert inv.central_charge.is_one(), name


def test_pair_structure(fixture_data, fixture_centers):
    for name in SMALL + ("haagerup-center",):
        md, _ = fixture_data[name]
        cd = fixture_centers[name]
        r = md.rank
        assert cd.rank == r * r
        assert cd.unit == cd.pair_index(md.unit, md.unit)
        for a in range(r):
            for b in range(r):
                p = cd.pair_index(a, b)
                assert cd.pair_of(p) == (a, b)
                assert cd.theta[p] == md.theta[a] / md.theta[b]
                assert cd.dual[p] == cd.pair_index(md.dual[a], md.dual[b])


def test_forgetful_matrix(fixture_data, fixture_centers):
    for name in SMALL + ("haagerup-center",):
        md, fr = fixture_data[name]
        cd = fixture_centers[name]
        for a in range(md.rank):
            for b in range(md.rank):
                p = cd.pair_index(a, b)
                for c in range(md.rank):
                    assert cd.a_matrix[p][c] == fr.table[c][a][b]
        # A[(unit,unit)][c] = delta_{c,unit}
        unit_row = cd.a_matrix[cd.unit]
        assert all(v == (1 if c == md.unit else 0) for c, v in enumerate(unit_row))


def test_toric_center_examples(fixture_data, fixture_centers):
    md, _ = fixture_data["toric-code"]
    cd = fixture_centers["toric-code"]
    assert cd.rank == 16
    f = md.index_of("f")
    assert cd.theta[cd.pair_index(f, f)].is_one()
    e, m = md.index_of("e"), md.index_of("m")
    assert cd.a_matrix[cd.pair_index(e, m)][f] == 1


def test_haagerup_center_shape(fixture_data, fixture_centers):
    md, fr = fixture_data["haagerup-center"]
    cd = fixture_centers["haagerup-center"]
    assert cd.rank == 144
    x6 = md.index_of("x6")
    assert cd.theta[cd.pair_index(x6, x6)].is_one()
    assert cd.labels[cd.unit] == "(x1,x1)"
    assert cd.conductor == 39
    row = cd.a_matrix[cd.pair_index(x6, x6)]
    assert list(row) == [1, 2, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1]


def test_center_dims_and_column_sums(fixture_data, fixture_centers):
    for name in SMALL:
        md, _ = fixture_data[name]
        cd = fixture_centers[name]
        inv = derive_invariants(md)
        inv_z = derive_invariants(oracles.center_modular_data(cd))
        r = md.rank
        # d_{(a,b)} = d_a d_b and D_Z = D^2, so sqrt(D_Z) = D inside the field
        for a in range(r):
            for b in range(r):
                assert inv_z.dims[cd.pair_index(a, b)] == inv.dims[a] * inv.dims[b]
        assert inv_z.global_dim == inv.global_dim * inv.global_dim
        # column sums: sum_{(a,b)} A[(a,b)][c] d_a d_b = D d_c
        for c in range(r):
            total = cyclo.ZERO
            for a in range(r):
                for b in range(r):
                    n = cd.a_matrix[cd.pair_index(a, b)][c]
                    if n:
                        total = total + n * inv.dims[a] * inv.dims[b]
            assert total == inv.global_dim * inv.dims[c], name


def test_product_ring_matches_center_verlinde(fixture_data, fixture_centers):
    for name in ("semion", "toric-code", "fibonacci"):
        _, fr = fixture_data[name]
        cd = fixture_centers[name]
        pr = oracles.product_fusion_ring(fr)
        vr = verlinde(oracles.center_modular_data(cd))
        assert pr.table == vr.table
        assert pr.unit == vr.unit and pr.dual == vr.dual, name


def test_apply_s_matches_matrix_product(fixture_data, fixture_centers):
    # pi(s) A from the factor R = S of S (x) S-bar against the center's full S times A
    for name in ("semion", "toric-code", "fibonacci"):
        md, _ = fixture_data[name]
        cd = fixture_centers[name]
        got = cd.contract_a(cd.apply_s(cd.identity()))
        s = oracles.center_modular_data(cd).s
        n = cd.rank
        for i in range(n):
            for j in range(md.rank):
                want = sum(
                    (s[i][k] * cd.a_matrix[k][j] for k in range(n)),
                    cyclo.ZERO,
                )
                assert got[i][j] == want, (name, i, j)


def test_indicator_sums_never_embed_an_order_one_zero(fixture_data, monkeypatch):
    # a cell sum started at the order-1 ZERO pays an embedding on its first add
    md, fr = fixture_data["semion"]
    cd = deligne_square(md, fr)
    embedded = Cyclotomic.embedded
    zero_embeds = []

    def recording(self, target):
        if self.order == 1 and self.is_zero():
            zero_embeds.append(target)
        return embedded(self, target)

    monkeypatch.setattr(Cyclotomic, "embedded", recording)
    for m, l in ((2, 1), (3, 1), (3, 2)):
        gfs_matrix(cd, m, l)
    assert not zero_embeds


def test_indicator_table_makes_no_field_products(fixture_data, monkeypatch):
    # S is lifted to the working order once per center, so building a table
    # re-embeds no S entry and multiplies no Cyclotomic values
    md, fr = fixture_data["haagerup-center"]
    cd = deligne_square(md, fr)
    embedded, times = Cyclotomic.embedded, Cyclotomic.__mul__
    order_changes, products = [], []

    def recording_embedded(self, target):
        if target != self.order:
            order_changes.append((self.order, target))
        return embedded(self, target)

    def recording_mul(self, other):
        products.append(other)
        return times(self, other)

    monkeypatch.setattr(Cyclotomic, "embedded", recording_embedded)
    monkeypatch.setattr(Cyclotomic, "__mul__", recording_mul)
    gfs_matrix(cd, 3, 1)
    assert not order_changes
    assert not products


def test_apply_t_scales_rows(fixture_centers):
    # T^+-1 A from the factor R = T^+-1: row i of A times the center twist theta_i^+-1;
    # every row of A is nonzero, so every twist is checked
    for name in ("semion", "toric-code", "fibonacci"):
        cd = fixture_centers[name]
        assert all(any(row) for row in cd.a_matrix), name
        for power in (1, -1):
            got = cd.contract_a(cd.apply_t(cd.identity(), power))
            for i in range(cd.rank):
                twist = (cd.theta[i] ** power).value()
                for j in range(cd.base.rank):
                    assert got[i][j] == twist * cd.a_matrix[i][j], (name, power, i, j)


def test_identity_pair_gives_the_forgetful_matrix(fixture_centers):
    for name in ("semion", "fibonacci", "haagerup-center"):
        cd = fixture_centers[name]
        got = cd.contract_a(cd.identity())
        assert got == tuple(tuple(cyclo.from_rational(v) for v in row) for row in cd.a_matrix)
        # zero cells are the shared ZERO, not one object per cell
        assert all(v is cyclo.ZERO for row in got for v in row if not v), name


def _data(name, fixture_data):
    # a catalog fixture, a relabeled toric code or the semion x fibonacci product
    if name == "relabeled toric-code":
        return families.relabeled(*fixture_data["toric-code"], [1, 0, 3, 2])
    if name == "semion x fibonacci":
        return families.deligne_product(fixture_data["semion"], fixture_data["fibonacci"])
    return fixture_data[name]


@pytest.mark.parametrize("name", SMALL + ("haagerup-center", "relabeled toric-code",
                                          "semion x fibonacci"))
def test_row_b_a_is_the_conjugate_of_row_a_b(name, fixture_data):
    # pi(g) A = (R N^j R-bar^T)_{a,b} is Hermitian in (a, b), as N^j is symmetric:
    # contract_a contracts the rows a <= b only, and the table still equals the oracle
    md, fr = _data(name, fixture_data)
    cd = deligne_square(md, fr)
    for m, l in HERMITIAN_PAIRS:
        values = gfs_matrix(cd, m, l).values
        for a, b, j in itertools.product(range(md.rank), repeat=3):
            want = values[cd.pair_index(a, b)][j].conjugate()
            assert values[cd.pair_index(b, a)][j] == want, (m, l, a, b, j)
        assert values == oracles.gfs_by_dot(cd, sl2_word(m, l)), (m, l)


def test_contract_a_contracts_half_the_rows(fixture_data, monkeypatch):
    # r r (r + 1) / 2 entries, the rows (a, b) with a <= b, where every row is r^3
    entry, calls = Contraction.entry, []

    def counting(self, c, b, a):
        calls.append((c, b, a))
        return entry(self, c, b, a)

    monkeypatch.setattr(Contraction, "entry", counting)
    for name in ("fibonacci", "haagerup-center"):
        cd = deligne_square(*fixture_data[name])
        r = cd.base.rank
        for m, l in ((2, 1), (7, -2)):
            calls.clear()
            gfs_matrix(cd, m, l)
            assert len(calls) == r * r * (r + 1) // 2, (name, m, l)
            assert all(c <= b for c, b, _ in calls)
    assert len(calls) == 936


def test_equal_entries_are_one_object(fixture_data):
    # each distinct value of a table, or of one n of nu_direct, is built once
    md, fr = fixture_data["haagerup-center"]
    cd = deligne_square(md, fr)
    for m, l in HERMITIAN_PAIRS:
        values = [v for row in gfs_matrix(cd, m, l).values for v in row]
        assert len({id(v) for v in values}) == len(set(values)) < 40, (m, l)
        assert all(v is cyclo.ZERO for v in values if not v), (m, l)
    fresh = dataclasses.replace(md)
    values = [nu_direct(fresh, 3, c, b, a) for c, b, a in itertools.product(range(12), repeat=3)]
    assert len({id(v) for v in values}) == len(set(values)) <= 36
    assert all(v is cyclo.ZERO for v in values if not v)


def test_contraction_slot_width_is_tight(monkeypatch):
    # order 1, L all M, row b of R all +-M': entry (c, b, a) is sum_{d,e} M N^a_{d,e}
    # (+-M') = +-bound at the a with the largest sum, bound = phi(1) max_a sum_{d,e}
    # N^a_{d,e} max|L| max|R|. One bit less must not decode it. Every N^a_{d,e} n,
    # and then n on the diagonal and 1 off it, where r^2 max N is wider than the sum.
    # R is not the conjugate of L, so the pair goes to Contraction, not contract_a
    r, big, big2, n = 3, 5, 7, 2
    uniform = (((n,) * r,) * r,) * r
    diagonal = (tuple(tuple(n if c == d else 1 for d in range(r)) for c in range(r)),) * r
    signs = (1, -1, 1)
    left = ([[[big]] * r for _ in range(r)], 1)
    right = ([[[sign * big2]] * r for sign in signs], 1)
    packing = cyclo.Packing

    class Recording(packing):
        def __init__(self, order, bound):
            super().__init__(order, bound)
            widths.append(self.width)

    class Narrower(packing):
        def __init__(self, order, bound):
            super().__init__(order, bound)
            self.width -= 1
            self.modulus = poly_pack(cyclo.cyclotomic_polynomial(order), self.width)

    def entries(table):
        k = Contraction(table, left, right, 1)
        return [[[k.entry(c, b, a) for a in range(r)] for b in range(r)] for c in range(r)]

    for table in (uniform, diagonal):
        sums = [sum(map(sum, mat)) for mat in table]
        bound = big * max(sums) * big2
        want = [[[cyclo.from_rational(signs[b] * big * s * big2) for s in sums]
                 for b in range(r)] for _ in range(r)]
        widths = []
        with monkeypatch.context() as patched:
            patched.setattr(cyclo, "Packing", Recording)
            assert entries(table) == want
        assert widths == [bound.bit_length() + 1]
        with monkeypatch.context() as patched:
            patched.setattr(cyclo, "Packing", Narrower)
            try:
                got = entries(table)
            except ValueError:
                got = None
        assert got != want


def test_second_center_reuses_the_invariants(fixture_data, monkeypatch):
    # derive_invariants runs once per ModularData: a second Deligne square of the
    # same data takes no norm-based inverse, and equality, hash and repr ignore it
    md, fr = fixture_data["haagerup-center"]
    md = dataclasses.replace(md)
    before = (hash(md), repr(md))
    deligne_square(md, fr)
    assert "invariants" in vars(md)
    assert md == fixture_data["haagerup-center"][0] and (hash(md), repr(md)) == before
    inverses = []
    inverse = cyclo.inverse

    def recording(x):
        inverses.append(x)
        return inverse(x)

    monkeypatch.setattr(cyclo, "inverse", recording)
    deligne_square(md, fr)
    assert not inverses


def test_the_center_lives_and_dies_with_its_data(fixture_data):
    # center_for keeps the center on the data, not in a module cache, so the
    # data is freed once its last user drops it
    md, _ = fixture_data["semion"]
    fresh = dataclasses.replace(md)
    cd = center_for(fresh)
    assert center_for(fresh) is cd and cd.base is fresh
    alive = weakref.ref(fresh)
    del fresh, cd
    gc.collect()
    assert alive() is None


def test_the_center_is_built_on_the_data_ring(fixture_data, fixture_centers):
    # center_for builds on md.ring and refuses any other ring, so no ring a first
    # caller passed stays on the data for later callers
    from mtckit.spectra import rotation_spectrum

    md, _ = fixture_data["fibonacci"]
    fresh = dataclasses.replace(md)
    with pytest.raises(ValueError):
        center_for(fresh, fixture_data["semion"][1])
    cd = center_for(fresh, verlinde(fresh))  # an equal ring is the same ring
    assert center_for(fresh) is cd and cd.base is fresh
    tau = fresh.index_of("tau")
    b = cd.pair_index(tau, tau)
    assert rotation_spectrum(cd, b, tau, 3) == rotation_spectrum(fixture_centers["fibonacci"], b, tau, 3)


def test_corrupt_twists_rejected(fixture_data):
    # all-trivial twists break the Gauss-sum identity; the pipeline must
    # refuse to build a center from them (at charge recognition or at the
    # tau+ tau- = D guard)
    from mtckit.modular_data import ModularDataError

    md, fr = fixture_data["toric-code"]
    trivial = ModularData(
        labels=md.labels,
        s=md.s,
        theta=(RootOfUnity(1, 0),) * 4,
        unit=md.unit,
        dual=md.dual,
    )
    with pytest.raises((ConsistencyError, ModularDataError)):
        deligne_square(trivial, fr)
