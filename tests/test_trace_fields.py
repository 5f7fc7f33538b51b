"""Trace entries read off nu's own field: each entry (n1, b, c) of mtckit.spectra is
read off the coordinates of nu = nu^b_{n1,1}(c) in the subspace V of Q(zeta_L) where
rho nu lies in Q(zeta_n1) (spectra._trace_field), with one exact coordinate check.
These tests hold the entries to the descent route they replaced
(oracles.trace_entry_by_descent), each field to a brute-force Galois computation,
and a failed check to the descent route's DescentError."""

import dataclasses
from fractions import Fraction

import pytest

import oracles
from mtckit import cyclo, spectra
from mtckit.center import center_for
from mtckit.indicators import _theta_root, _twisted_rows
from mtckit.spectra import braid_jm_spectrum, k2_pairs, rotation_report, semisimple_K

# every n1 up to 60 on the small fixtures, up to 12 on the rank-12 one
REACH = {"semion": 60, "fibonacci": 60, "toric-code": 60, "haagerup-center": 12}


def _twist(md, b):
    left, right = divmod(b, md.rank)
    return md.theta[left] / md.theta[right]


@pytest.mark.parametrize("name", REACH)
def test_entries_equal_the_descent_route(fixture_data, name):
    md, _ = fixture_data[name]
    r = md.rank
    for n1 in range(2, REACH[name] + 1):
        for b in range(r * r):
            den, row = spectra._entries(md, n1, b, _twist(md, b), range(r))
            for c in range(r):
                ints, d = oracles.trace_entry_by_descent(md, n1, b, c)
                assert [x * d for x in row[c]] == [y * den for y in ints], (n1, b, c)


@pytest.mark.parametrize("name", REACH)
def test_field_bases_match_a_brute_force_descent(fixture_data, name):
    # each basis row B_i holds D at its pivot and 0 at the others, rho B_i descends to
    # Q(zeta_n1) with the kept traces T_i, and the rows span V: its dimension by the
    # Galois fixed points equals their count
    md, _ = fixture_data[name]
    dims = set()
    for n1 in range(2, min(REACH[name], 6) + 1):
        for theta in sorted({_twist(md, b) for b in range(md.rank**2)}):
            order, pivots, basis, traced, scale = spectra._trace_field(md, n1, theta)
            assert order == _twisted_rows(md, n1).packing.order
            assert [[row[p] for p in pivots] for row in basis] == [
                [scale * (i == j) for j in range(len(pivots))] for i in range(len(pivots))]
            rho = _theta_root(theta, n1, 0)
            for row, tr in zip(basis, traced):
                x = cyclo.times_root(cyclo.Cyclotomic._make(order, row, 1), rho)
                assert oracles.traces(cyclo.galois_apply(x, 1, n1)) == (tuple(tr), 1)
            assert len(basis) == oracles.trace_field_dim_by_galois(theta, n1, order), (n1, theta)
            dims.add(len(basis))
    assert 1 in dims


def _outcome(call):
    # ("entry", the traces as Fractions) or ("error", order, target, witness)
    try:
        ints, den = call()
    except cyclo.DescentError as exc:
        return "error", exc.order, exc.target, exc.witness_index
    return "entry", [Fraction(x, den) for x in ints]


@pytest.mark.parametrize("name", ("fibonacci", "haagerup-center"))
def test_values_corrupted_inside_their_field_fail_as_the_descent_route_does(
    fixture_data, fixture_centers, monkeypatch, name
):
    # nu + zeta_L^j / 3 keeps nu's order L, so only the coordinate check can refuse it:
    # every entry that reads it fails with the descent route's order, target and
    # witness, or equals that route's entry; a row whose a^g misses the corrupted
    # simple reads no such entry and comes out as on clean data
    base, _ = fixture_data[name]
    md = dataclasses.replace(base)
    vars(md)["ring"] = base.ring  # the same ring, with no trace table yet
    cd, clean, r = center_for(md), fixture_centers[name], base.rank
    direct, c0, failed = spectra.nu_direct, r - 1, 0
    for n1 in (2, 3):  # prime: a row at n = n1 reads the entries (n1, b, a) only
        order = _twisted_rows(md, n1).packing.order
        for j in range(0, order, 1 + order // 4):
            shift = Fraction(1, 3) * cyclo.zeta(order) ** j

            def corrupt(md, n, c, b, a):
                nu = direct(md, n, c, b, a)
                return nu + shift if (n, a) == (n1, c0) else nu

            vars(md).pop("_trace_entries", None)
            monkeypatch.setattr(spectra, "nu_direct", corrupt)
            for b in range(cd.rank):
                left, right = divmod(b, r)
                want = _outcome(lambda: oracles.trace_entry_by_descent(
                    md, n1, b, c0, nu=corrupt(md, n1, left, right, c0)))
                got = _outcome(lambda: (lambda den, row: (row[c0], den))(
                    *spectra._entries(md, n1, b, cd.theta[b], (c0,))))
                assert got == want, (n1, j, b)
                failed += want[0] == "error"
                a = (c0 + 1 + b) % (r - 1)  # any simple but c0
                assert spectra.rotation_spectrum(cd, b, a, n1) == spectra.rotation_spectrum(
                    clean, b, a, n1)
                if want[0] == "error":
                    with pytest.raises(cyclo.DescentError) as exc:
                        spectra.rotation_spectrum(cd, b, c0, n1)
                    assert (exc.value.order, exc.value.target, exc.value.witness_index) == want[1:]
            monkeypatch.undo()
    assert failed


def test_rows_take_no_root_shift_and_no_descent(fixture_data, monkeypatch):
    # on fresh data, rotation reports, K rows, braids of both signs and K^2 pairs build
    # every entry they read with no cyclo.times_root, galois_apply or descend call
    md = dataclasses.replace(fixture_data["fibonacci"][0])
    cd, calls = center_for(md), []
    for name in ("times_root", "galois_apply", "descend"):
        real = getattr(cyclo, name)
        monkeypatch.setattr(cyclo, name,
                            lambda *args, real=real, name=name: calls.append(name) or real(*args))
    a = md.rank - 1
    for n in (2, 3, 4, 6, 12):
        rotation_report(cd, a, n)
        semisimple_K(cd, {c: 1 + c % 2 for c in range(cd.rank)}, a, n)
    for sign in ("over", "under"):
        for n, l, m in ((2, 0, 0), (3, 1, 0), (4, 1, 1)):
            braid_jm_spectrum(md, a, n, l, m, sign=sign)
    for c in range(md.rank):
        for b in range(md.rank):
            k2_pairs(md, md.ring, c, b, a)
    assert vars(md)["_trace_entries"] and calls == []


def test_the_field_table_is_bounded_by_the_twists_and_the_n1_asked_for(fixture_data):
    # an n = 1..200 sweep of the semion rotation rows of a = s keeps at most one trace
    # field per distinct center twist and n1 > 1 read, n1 a divisor of some n asked for
    md = dataclasses.replace(fixture_data["semion"][0])
    cd, a = center_for(md), md.index_of("s")
    for n in range(1, 201):
        for b in range(cd.rank):
            spectra.rotation_spectrum(cd, b, a, n)
    fields = vars(md)["_trace_fields"]
    assert {n1 for n1, _ in fields} == set(range(2, 201))
    assert len(fields) <= len(set(cd.theta)) * 199
    assert len(vars(md)["_trace_entries"]) <= cd.rank * 199


def test_a_new_denominator_moves_the_kept_entries(fixture_data, monkeypatch):
    # entries of one (n1, b) share one denominator: an entry over 3 built after entries
    # over 1 moves them all to the lcm, and each still equals the descent route's value
    md = dataclasses.replace(fixture_data["toric-code"][0])
    direct, r = spectra.nu_direct, md.rank

    def thirds(md, n, c, b, a):
        return direct(md, n, c, b, a) + Fraction(a % 2, 3)

    monkeypatch.setattr(spectra, "nu_direct", thirds)
    den, row = spectra._entries(md, 2, 0, _twist(md, 0), range(r))
    assert den == 3
    for c in range(r):
        ints, d = oracles.trace_entry_by_descent(md, 2, 0, c, nu=thirds(md, 2, 0, 0, c))
        assert [x * d for x in row[c]] == [y * den for y in ints], c


def test_a_check_that_fails_where_the_descent_holds_is_a_consistency_error(
    fixture_data, monkeypatch
):
    # with V taken as 0, a genuine nonzero nu fails the check, and its descent route
    # finds no fault: that disagreement is the library's, a ConsistencyError
    md = dataclasses.replace(fixture_data["fibonacci"][0])
    cd, order = center_for(md), _twisted_rows(md, 2).packing.order
    monkeypatch.setattr(spectra, "_trace_field", lambda md, n1, theta: (order, [], [], [], 1))
    with pytest.raises(cyclo.ConsistencyError, match="off its trace field") as exc:
        spectra.rotation_report(cd, md.index_of("tau"), 2)
    assert not isinstance(exc.value, cyclo.DescentError)
