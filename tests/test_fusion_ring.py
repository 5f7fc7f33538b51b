import pytest

import oracles
from mtckit import cyclo, dataio
from mtckit.fusion_ring import (
    FusionRing,
    ModularityError,
    fuse,
    power_decompose,
    verlinde,
)
from mtckit.modular_data import ModularData


def test_vec(fixture_data):
    _, fr = fixture_data["vec"]
    assert fr.table[0][0][0] == 1


def test_toric_matches_group_double_oracle(fixture_data):
    md, fr = fixture_data["toric-code"]
    want = oracles.toric_fusion_table()
    for (d, a, b), n in want.items():
        assert fr.table[md.index_of(d)][md.index_of(a)][md.index_of(b)] == n


def test_fibonacci_rule(fixture_data):
    md, fr = fixture_data["fibonacci"]
    tau = md.index_of("tau")
    assert fuse(fr, tau, tau) == {md.unit: 1, tau: 1}


def test_haagerup_x6_square(fixture_data):
    md, fr = fixture_data["haagerup-center"]
    x6 = md.index_of("x6")
    dec = power_decompose(fr, x6, 2)
    want = {md.index_of(f"x{i}"): 1 for i in range(1, 13)}
    want[md.index_of("x2")] = 2
    want[md.index_of("x6")] = 2
    assert dec == want


def test_all_entries_non_negative(fixture_data):
    for name, (_, fr) in fixture_data.items():
        for mat in fr.table:
            for row in mat:
                assert all(isinstance(v, int) and v >= 0 for v in row), name


def test_ring_invariants(fixture_data):
    for name, (_, fr) in fixture_data.items():
        fr.check_invariants()


def test_dimension_homomorphism(fixture_data):
    for name, (md, fr) in fixture_data.items():
        assert oracles.dims_check(fr, md), name


def test_power_decompose_basics(fixture_data):
    md, fr = fixture_data["toric-code"]
    e = md.index_of("e")
    assert power_decompose(fr, e, 0) == {md.unit: 1}
    assert power_decompose(fr, e, 2) == {md.unit: 1}
    # matrix-power consistency
    for a in range(md.rank):
        for n in range(4):
            stepped = fuse(fr, power_decompose(fr, a, n), a)
            assert stepped == power_decompose(fr, a, n + 1)


def test_multiset_powers(fixture_data):
    md, fr = fixture_data["toric-code"]
    e, m = md.index_of("e"), md.index_of("m")
    ms = {e: 1, m: 1}
    sq = power_decompose(fr, ms, 2)
    # (e + m)^2 = e^2 + em + me + m^2 = 2*1 + 2*f
    assert sq == {md.unit: 2, md.index_of("f"): 2}


def test_hom_dim_examples(fixture_data):
    vec_md, vec_fr = fixture_data["vec"]
    assert power_decompose(vec_fr, 0, 5).get(0, 0) == 1
    haag_md, haag_fr = fixture_data["haagerup-center"]
    assert power_decompose(haag_fr, haag_md.index_of("x6"), 2).get(haag_md.index_of("x2"), 0) == 2
    toric_md, toric_fr = fixture_data["toric-code"]
    assert power_decompose(toric_fr, toric_md.index_of("e"), 3).get(toric_md.index_of("f"), 0) == 0


def test_negative_multiset_rejected(fixture_data):
    _, fr = fixture_data["toric-code"]
    with pytest.raises(ValueError):
        fuse(fr, {0: -1}, 0)


def test_object_indices_outside_the_ring_are_refused(fixture_data):
    # -1 would wrap around to the last simple and rank would fail as a bare IndexError;
    # both are refused, as a simple or as a multiset key, on either side and at every
    # power, a^0 included
    _, fr = fixture_data["semion"]
    for bad in (-1, fr.rank):
        for obj in (bad, {bad: 1}, {0: 1, bad: 0}):
            for call in (
                lambda: fuse(fr, obj, 0),
                lambda: fuse(fr, 0, obj),
                *(lambda n=n: power_decompose(fr, obj, n) for n in (0, 1, 2)),
            ):
                with pytest.raises(ValueError, match=f"object index {bad} is outside 0..1"):
                    call()


def test_verlinde_rejects_non_modular(fixture_data):
    md, _ = fixture_data["toric-code"]
    s = [list(row) for row in md.s]
    s[1][2] = s[1][2] + 1
    s[2][1] = s[2][1] + 1
    bad = ModularData(
        labels=md.labels, s=tuple(tuple(r) for r in s), theta=md.theta,
        unit=md.unit, dual=md.dual,
    )
    with pytest.raises(ModularityError) as err:
        verlinde(bad)
    assert str(err.value) == "N^e_(1,1) = 1/2 is not a non-negative integer"


def test_verlinde_names_an_irrational_entry(fixture_data):
    # the first failing (c, d >= c, a) in scan order, rendered in E-notation
    md, _ = fixture_data["haagerup-center"]
    cases = (
        ((6, 7), (6, 8), "N^x8_(x1,x1) = 1/13*E(13)^2 - 1/13*E(13)^3 - 1/13*E(13)^10 "
         "+ 1/13*E(13)^11 is not a non-negative integer"),
        ((2, 3), None, "N^x3_(x1,x1) = 1/9*E(13)^12 is not a non-negative integer"),
    )
    for first, second, message in cases:
        s = [list(row) for row in md.s]
        (i, j) = first
        if second is None:
            s[i][j] = s[j][i] = s[i][j] + cyclo.zeta(13) / 3
        else:
            (k, l) = second
            s[i][j], s[k][l] = s[k][l], s[i][j]
            s[j][i], s[l][k] = s[i][j], s[k][l]
        bad = ModularData(
            labels=md.labels, s=tuple(tuple(r) for r in s), theta=md.theta,
            unit=md.unit, dual=md.dual,
        )
        with pytest.raises(ModularityError) as err:
            verlinde(bad)
        assert str(err.value) == message


def test_reversed_braiding_has_the_same_ring(fixture_data):
    # braid_jm_spectrum(sign="under") reuses the ring of the unreversed data
    for name, (md, _) in fixture_data.items():
        assert verlinde(oracles.reverse(md)) == dataio.catalog_ring(name), name


def _ring(rank, products):
    # products: {(a, b): {c: N^c_{a,b}}} for a <= b, filled in symmetrically
    table = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    for (a, b), out in products.items():
        for c, n in out.items():
            table[c][a][b] = table[c][b][a] = n
    return FusionRing(
        rank=rank,
        unit=0,
        dual=tuple(range(rank)),
        table=tuple(tuple(tuple(row) for row in mat) for mat in table),
    )


def test_check_invariants_names_unit_law(fixture_data):
    _, fr = fixture_data["fibonacci"]
    table = [[list(row) for row in mat] for mat in fr.table]
    table[1][1][0] = table[1][0][1] = 0  # tau (x) 1 no longer contains tau
    bad = FusionRing(
        rank=fr.rank, unit=fr.unit, dual=fr.dual,
        table=tuple(tuple(tuple(row) for row in mat) for mat in table),
    )
    with pytest.raises(ModularityError, match=r"unit law at \(1, 1\)"):
        bad.check_invariants()


def test_check_invariants_names_associativity_law():
    # x (x) x = 1 + y, x (x) y = x, y (x) y = 1 + y: commutative and rigid
    # on the nose, but (x x) y = 1 + 2y while x (x y) = 1 + y
    bad = _ring(3, {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
        (1, 1): {0: 1, 2: 1}, (1, 2): {1: 1}, (2, 2): {0: 1, 2: 1},
    })
    with pytest.raises(ModularityError, match=r"associativity law at \(1, 1, 2, 2\)$"):
        bad.check_invariants()


def test_check_invariants_names_the_first_associativity_failure(fixture_data):
    # one more x8 in x6 (x) x7, kept symmetric and dual-transposed (all
    # simples are self-dual): the first failure in (a, b, c, d) scan order
    _, fr = fixture_data["haagerup-center"]
    table = [[list(row) for row in mat] for mat in fr.table]
    for c, a, b in ((7, 5, 6), (7, 6, 5), (6, 5, 7), (6, 7, 5), (5, 6, 7), (5, 7, 6)):
        table[c][a][b] += 1
    bad = FusionRing(
        rank=fr.rank, unit=fr.unit, dual=fr.dual,
        table=tuple(tuple(tuple(row) for row in mat) for mat in table),
    )
    with pytest.raises(ModularityError, match=r"associativity law at \(1, 1, 5, 6\)$"):
        bad.check_invariants()


def test_verlinde_inverts_each_unit_row_entry_once(fixture_data, monkeypatch):
    md, _ = fixture_data["haagerup-center"]
    inverse, calls = cyclo.inverse, []

    def counting(x):
        calls.append(x)
        return inverse(x)

    monkeypatch.setattr(cyclo, "inverse", counting)
    assert verlinde(md) == dataio.catalog_ring("haagerup-center")
    assert len(calls) <= md.rank


def _fused(fr, a, n):
    out = {fr.unit: 1}
    for _ in range(n):
        out = fuse(fr, out, a)
    return out


def test_power_decompose_equals_repeated_fuse(fixture_data):
    for name, (md, fr) in fixture_data.items():
        for a in range(md.rank):
            for n in range(5):
                assert power_decompose(fr, a, n) == _fused(fr, a, n), (name, a, n)
                assert power_decompose(fr, a, n) == _fused(fr, a, n), (name, a, n)


def test_tensor_powers_are_bounded_by_the_order_limit(fixture_data):
    # one fusion step per factor: a power above the limit is refused before any step
    from mtckit.center import center_for
    from mtckit.indicators import nu_general

    md, fr = fixture_data["fibonacci"]
    tau = md.index_of("tau")
    ring = FusionRing(rank=fr.rank, unit=fr.unit, dual=fr.dual, table=fr.table)
    old = cyclo.get_order_limit()
    cyclo.set_order_limit(30)
    try:
        assert power_decompose(ring, tau, 30) == _fused(fr, tau, 30)
        with pytest.raises(ValueError, match="tensor power 31 exceeds the configured limit 30"):
            power_decompose(ring, tau, 31)
        with pytest.raises(ValueError, match="tensor power 31"):
            power_decompose(ring, {tau: 1}, 31)
    finally:
        cyclo.set_order_limit(old)
    with pytest.raises(ValueError, match="tensor power"):
        nu_general(center_for(md), 0, 10**9, 0, tau)


def test_power_memo_hands_out_copies(fixture_data):
    md, fr = fixture_data["fibonacci"]
    tau = md.index_of("tau")
    first = power_decompose(fr, tau, 3)
    want = dict(first)
    first[md.unit] = 99
    first.clear()
    assert power_decompose(fr, tau, 3) == want == _fused(fr, tau, 3)


def test_multiset_powers_are_not_kept(fixture_data):
    md, fr = fixture_data["toric-code"]
    e, m = md.index_of("e"), md.index_of("m")
    ring = FusionRing(rank=fr.rank, unit=fr.unit, dual=fr.dual, table=fr.table)
    assert power_decompose(ring, {e: 1, m: 1}, 2) == {md.unit: 2, md.index_of("f"): 2}
    assert power_decompose(ring, {e: 2}, 3) == {e: 8}
    assert ring._powers == {}
    power_decompose(ring, e, 3)
    assert list(ring._powers) == [(e, 3)]


def test_rings_never_share_powers(fixture_data):
    md, fr = fixture_data["semion"]
    s = md.index_of("s")
    ring = FusionRing(rank=fr.rank, unit=fr.unit, dual=fr.dual, table=fr.table)
    other = FusionRing(rank=fr.rank, unit=fr.unit, dual=fr.dual, table=fr.table)
    assert (md.unit, s) == (0, 1)
    assert power_decompose(ring, s, 2) == {0: 1}
    assert other._powers == {} and ring._powers is not other._powers
    # same rank, same (a, n), other rules: s (x) s = 0 here
    zero_square = FusionRing(rank=2, unit=0, dual=(0, 1), table=(((1, 0), (0, 0)), ((0, 1), (1, 0))))
    assert power_decompose(zero_square, s, 2) == {}
    assert power_decompose(ring, s, 2) == {0: 1}


def test_filled_caches_keep_equality_and_hash(fixture_data):
    from mtckit.indicators import nu2_direct

    for name, (md, fr) in fixture_data.items():
        md2 = ModularData(md.labels, md.s, md.theta, md.unit, md.dual)
        fr2 = FusionRing(rank=fr.rank, unit=fr.unit, dual=fr.dual, table=fr.table)
        before = (hash(md2), hash(fr2))
        nu2_direct(md2, fr2, 0, 0, 0)
        power_decompose(fr2, 0, 2)
        assert "_twisted_rows" in vars(md2) and fr2._powers
        assert md2 == md and fr2 == fr and (hash(md2), hash(fr2)) == before == (hash(md), hash(fr))
        assert repr(md2) == repr(md) and repr(fr2) == repr(fr)
