import pytest

import oracles
from mtckit import cyclo
from mtckit.cyclo import RootOfUnity
from mtckit.modular_data import (
    MAX_DIGITS,
    ModularData,
    ModularDataError,
    construct,
    derive_invariants,
    validate,
)


def test_vec_trivial(fixture_data):
    md, _ = fixture_data["vec"]
    assert md.rank == 1 and md.unit == 0 and md.dual == (0,)
    assert validate(md).ok
    inv = derive_invariants(md)
    assert inv.dims == (cyclo.ONE,)
    assert inv.global_dim == 1
    assert inv.conductor == 1
    assert inv.central_charge.is_one()


def test_toric_code_construction(fixture_data):
    md, _ = fixture_data["toric-code"]
    assert md.unit == 0
    assert md.dual == (0, 1, 2, 3)
    report = validate(md)
    assert report.ok, report.failed()
    inv = derive_invariants(md)
    assert all(d == 1 for d in inv.dims)
    assert inv.global_dim == 4
    assert inv.conductor == 2
    assert inv.central_charge.is_one()  # the double of a group is anomaly-free


def _tampered(md, s=None, theta=None):
    return ModularData(
        labels=md.labels,
        s=md.s if s is None else tuple(tuple(row) for row in s),
        theta=md.theta if theta is None else tuple(theta),
        unit=md.unit,
        dual=md.dual,
    )


def _failures(md):
    return [(c.name, c.detail) for c in validate(md).checks if not c.passed]


def test_failure_details_are_pinned(fixture_data):
    # every failing check names its first mismatch in scan order; the
    # texts are part of the output contract
    toric, _ = fixture_data["toric-code"]
    s = [list(row) for row in toric.s]
    s[1][2] = s[1][2] + 1
    s[2][1] = s[2][1] + 1
    assert _failures(_tampered(toric, s)) == [
        ("S unitary", "first mismatch at (1, 2)"),
        ("S^2 = C", "first mismatch at (1, 2)"),
        ("(ST)^3 = xi S^2", "first mismatch at (1, 1), xi = 1"),
    ]
    s = [list(row) for row in toric.s]
    s[0][0] = s[0][0] + 1
    assert _failures(_tampered(toric, s)) == [
        ("S unitary", "first mismatch at (1, 1)"),
        ("S^2 = C", "first mismatch at (1, 1)"),
        ("(ST)^3 = xi S^2", "central charge is not a root of unity: 5/3"),
    ]
    for name, xi in (("fibonacci", "E(20)^7"), ("semion", "E(8)")):
        md, _ = fixture_data[name]
        s = [list(row) for row in md.s]
        s[1][1] = -s[1][1]
        assert _failures(_tampered(md, s)) == [
            ("S unitary", "first mismatch at (1, 2)"),
            ("S^2 = C", "first mismatch at (1, 2)"),
            ("(ST)^3 = xi S^2", f"first mismatch at (1, 1), xi = {xi}"),
        ], name


def test_haagerup_failure_details_are_pinned(fixture_data):
    md, _ = fixture_data["haagerup-center"]
    s = [list(row) for row in md.s]
    s[3][7] = s[3][7] + cyclo.zeta(13)
    assert _failures(_tampered(md, s)) == [
        ("S symmetric", "first mismatch at (4, 8)"),
        ("S unitary", "first mismatch at (1, 4)"),
        ("S^2 = C", "first mismatch at (1, 8)"),
        ("S-bar = CS", "first mismatch at (4, 8)"),
        ("(ST)^3 = xi S^2", "first mismatch at (1, 1), xi = 1"),
    ]
    # twists swapped between two objects of equal dimension keep the
    # central charge, so only the SL2(Z) relation fails
    theta = list(md.theta)
    theta[6], theta[7] = theta[7], theta[6]
    assert _failures(_tampered(md, theta=theta)) == [
        ("(ST)^3 = xi S^2", "first mismatch at (1, 1), xi = 1"),
    ]


def test_square_must_be_a_permutation(fixture_data):
    md, _ = fixture_data["fibonacci"]
    doubled = [[2 * v for v in row] for row in md.s]
    with pytest.raises(
        ModularDataError,
        match=r"^S\^2 is not a permutation matrix; input is not modular data$",
    ):
        construct(md.labels, doubled, [t.value() for t in md.theta])


def test_corrupted_entry_fails_unitarity(fixture_data):
    md, _ = fixture_data["toric-code"]
    s = [list(row) for row in md.s]
    s[0][0] = s[0][0] + 1
    bad = ModularData(
        labels=md.labels, s=tuple(tuple(r) for r in s), theta=md.theta,
        unit=md.unit, dual=md.dual,
    )
    report = validate(bad)
    assert not report.ok
    assert any(c.name == "S unitary" and not c.passed for c in report.checks)


def test_duplicate_labels_rejected(fixture_data):
    md, _ = fixture_data["toric-code"]
    with pytest.raises(ModularDataError):
        construct(("1", "e", "e", "f"), md.s, [t.value() for t in md.theta])


def test_twist_must_be_root_of_unity(fixture_data):
    md, _ = fixture_data["toric-code"]
    bad_theta = [cyclo.ONE, cyclo.ONE, cyclo.ONE, cyclo.from_rational(2)]
    with pytest.raises(ModularDataError):
        construct(md.labels, md.s, bad_theta)


def test_no_unit_candidate_is_an_error(fixture_data):
    md, _ = fixture_data["semion"]
    with pytest.raises(ModularDataError):
        construct(md.labels, md.s, [cyclo.zeta(4), cyclo.ONE])


def test_forced_unit_must_qualify(fixture_data):
    md, _ = fixture_data["toric-code"]
    with pytest.raises(ModularDataError):
        construct(md.labels, md.s, [t.value() for t in md.theta], unit=3)


def test_haagerup_center_fixture(fixture_data):
    md, _ = fixture_data["haagerup-center"]
    assert md.rank == 12
    assert md.labels[md.unit] == "x1"
    assert md.dual == tuple(range(12))  # equal twists force all self-dual
    report = validate(md)
    assert report.ok, report.failed()
    inv = derive_invariants(md)
    assert inv.conductor == 39
    assert inv.central_charge.is_one()
    # global dimension is 1/S_{11}^2, exactly
    assert inv.global_dim * md.s[0][0] * md.s[0][0] == 1


def test_dims_real_and_dual_symmetric(fixture_data):
    for name, (md, _) in fixture_data.items():
        dims = derive_invariants(md).dims
        for a in range(md.rank):
            assert dims[a].conjugate() == dims[a], name
            assert dims[md.dual[a]] == dims[a], name


def test_reverse_involution_and_validity(fixture_data):
    for name, (md, _) in fixture_data.items():
        rev = oracles.reverse(md)
        assert oracles.reverse(rev) == md, name
        assert validate(rev).ok, name


def test_reverse_inverts_central_charge(fixture_data):
    md, _ = fixture_data["semion"]
    assert derive_invariants(md).central_charge == RootOfUnity(8, 1)
    assert derive_invariants(oracles.reverse(md)).central_charge == RootOfUnity(8, 7)
    haag, _ = fixture_data["haagerup-center"]
    assert derive_invariants(oracles.reverse(haag)).central_charge.is_one()


def test_toric_reverse_is_identity(fixture_data):
    md, _ = fixture_data["toric-code"]
    rev = oracles.reverse(md)
    assert rev.s == md.s  # real S, all self-dual
    assert rev.theta == md.theta  # twists are +-1


def test_projective_sl2_presentation(fixture_data):
    # validate passing implies (ST)^3 = xi S^2 and S^4 = 1; check S^4 = 1
    for name, (md, _) in fixture_data.items():
        r = md.rank
        s2 = oracles.matmul(md.s, md.s)
        s4 = oracles.matmul(s2, s2)
        assert all(
            s4[i][j] == (1 if i == j else 0) for i in range(r) for j in range(r)
        ), name


def test_index_of_addressing(fixture_data):
    md, _ = fixture_data["haagerup-center"]
    assert md.index_of("x6") == 5
    assert md.index_of(6) == 5
    assert md.index_of("6") == 5
    with pytest.raises(ModularDataError):
        md.index_of("nope")
    with pytest.raises(ModularDataError):
        md.index_of(13)
    # a superscript digit passes str.isdigit(), but it is no index
    with pytest.raises(ModularDataError, match="unknown object"):
        md.index_of("\u00b2")
    # the longest index int() converts, and one digit more, refused before int()
    assert md.index_of("0" * (MAX_DIGITS - 1) + "6") == 5
    with pytest.raises(ModularDataError, match="unknown object"):
        md.index_of("0" * MAX_DIGITS + "6")


def test_validate_reuses_the_square_construct_made(fixture_data, monkeypatch):
    # construct hands its S^2 to the first validate: S S-bar^T and the two
    # products of (ST)^3 are all that validate then multiplies
    md, _ = fixture_data["haagerup-center"]
    products = []
    matmul = cyclo.matmul

    def counting(a, b, order):
        products.append(order)
        return matmul(a, b, order)

    monkeypatch.setattr(cyclo, "matmul", counting)
    built = construct(md.labels, md.s, md.theta)
    assert products == [13]
    assert validate(built).ok
    assert products == [13, 13, 39, 39]
    assert validate(built).ok  # a second report builds its own S^2
    assert products == [13, 13, 39, 39, 13, 13, 39, 39]
