"""Modular data: the (S, T) pair of a modular category, validated exactly.

S is the normalized unitary matrix (the printed matrices in the literature
divide out the global-dimension square root); T is diagonal and carried as
the tuple of twists theta_a, stored as RootOfUnity. The unit object and the
duality permutation are derived, not supplied: the unit is the row of S
that is entirely real positive with trivial twist, and duals come from
S^2 = C. The matrix relations compare cells of packed products of S lifted
to one order (cyclo.matmul); twists, xi and complex conjugation act on the
lifted cells as index maps.
"""

from __future__ import annotations

import dataclasses
import functools
import math

from . import cyclo
from .cyclo import Cyclotomic, RootOfUnity

__all__ = [
    "ModularData",
    "DerivedInvariants",
    "ValidationReport",
    "CheckResult",
    "ModularDataError",
    "construct",
    "validate",
    "derive_invariants",
]


# the longest integer literal or decimal index: CPython's default limit on
# converting a string to int
MAX_DIGITS = 4300


class ModularDataError(ValueError):
    """The supplied matrices do not form (or cannot be completed to) modular data."""


@dataclasses.dataclass(frozen=True)
class ModularData:
    labels: tuple[str, ...]
    s: tuple[tuple[Cyclotomic, ...], ...]
    theta: tuple[RootOfUnity, ...]
    unit: int
    dual: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.labels)

    def index_of(self, obj: str | int) -> int:
        """Resolve an object by label, or by 1-based index given as int/digits."""
        if isinstance(obj, int):
            if not 1 <= obj <= self.rank:
                raise ModularDataError(f"object index {obj} out of range 1..{self.rank}")
            return obj - 1
        if obj in self.labels:
            return self.labels.index(obj)
        if obj.isdecimal() and len(obj) <= MAX_DIGITS:
            return self.index_of(int(obj))
        raise ModularDataError(f"unknown object {obj!r}; labels are {', '.join(self.labels)}")

    @functools.cached_property
    def invariants(self) -> DerivedInvariants:
        """derive_invariants(self), kept on the instance after the first use."""
        return derive_invariants(self)

    @functools.cached_property
    def report(self) -> ValidationReport:
        """validate(self), kept on the instance after the first use."""
        return validate(self)

    @functools.cached_property
    def ring(self) -> FusionRing:
        """verlinde(self), the one fusion ring of this data, kept after the first use."""
        from .fusion_ring import verlinde  # fusion_ring imports this module
        return verlinde(self)


@dataclasses.dataclass(frozen=True)
class DerivedInvariants:
    dims: tuple[Cyclotomic, ...]
    global_dim: Cyclotomic
    conductor: int
    central_charge: RootOfUnity


@dataclasses.dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclasses.dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def _is_real(x: Cyclotomic) -> bool:
    return x.conjugate() == x

def _is_positive_real(x: Cyclotomic) -> bool:
    if x.is_zero() or not _is_real(x):
        return False
    approx = x.to_complex().real
    # fixture entries are far from zero; an exactly-nonzero value this close
    # to zero would make the float sign untrustworthy
    if abs(approx) < 1e-9:
        raise ModularDataError("cannot decide sign of a near-zero real entry")
    return approx > 0


def _lift(s) -> tuple[list[list[list[int]]], int, int]:
    # S as (cells, den) at the order n of its entries, and n
    n = math.lcm(*(v.order for row in s for v in row))
    return (*cyclo.lift(s, n), n)


def _perm_from_square(square) -> tuple[int, ...] | None:
    # each row's one nonzero column, if that entry is 1 and they form a permutation
    cells, den = square
    one = [den] + [0] * (len(cells[0][0]) - 1)
    nonzero = [[j for j, v in enumerate(row) if any(v)] for row in cells]
    perm = tuple(js[0] if len(js) == 1 and row[js[0]] == one else -1
                 for js, row in zip(nonzero, cells))
    return perm if sorted(perm) == list(range(len(cells))) else None


def construct(
    labels,
    s_entries,
    theta_entries,
    unit: int | None = None,
) -> ModularData:
    """Build validated modular data from raw entries.

    s_entries: rank x rank of Cyclotomic (the normalized S). theta_entries:
    Cyclotomic or RootOfUnity twists. The unit index is auto-detected (the
    unique object with trivial twist and an all-real-positive S row) unless
    forced explicitly.
    """
    labels = tuple(str(l) for l in labels)
    rank = len(labels)
    if len(set(labels)) != rank:
        raise ModularDataError("labels must be distinct")
    if len(s_entries) != rank or any(len(row) != rank for row in s_entries):
        raise ModularDataError(f"S must be {rank}x{rank} to match the labels")
    if len(theta_entries) != rank:
        raise ModularDataError(f"T diagonal must have {rank} entries")
    s = tuple(tuple(row) for row in s_entries)
    theta = []
    for i, t in enumerate(theta_entries):
        if isinstance(t, RootOfUnity):
            theta.append(t)
            continue
        root = cyclo.as_root_of_unity(t)
        if root is None:
            raise ModularDataError(f"twist {i + 1} ({labels[i]}) is not a root of unity: {t}")
        theta.append(root)
    theta = tuple(theta)

    candidates = [
        u
        for u in range(rank)
        if theta[u].is_one() and all(_is_positive_real(s[u][b]) for b in range(rank))
    ]
    if unit is None:
        if len(candidates) != 1:
            raise ModularDataError(
                f"found {len(candidates)} unit candidates {candidates}; "
                "pass an explicit unit index"
            )
        unit = candidates[0]
    elif unit not in candidates:
        raise ModularDataError(f"forced unit {unit} fails the unit-row conditions")

    cells, den, n = _lift(s)
    square = cyclo.matmul((cells, den), (cells, den), n)
    dual = _perm_from_square(square)
    if dual is None:
        raise ModularDataError("S^2 is not a permutation matrix; input is not modular data")
    md = ModularData(labels=labels, s=s, theta=theta, unit=unit, dual=dual)
    vars(md)["_square"] = square  # handed to the first validate, which takes it
    return md


def derive_invariants(md: ModularData) -> DerivedInvariants:
    """Quantum dimensions, global dimension, conductor, and central charge."""
    u = md.unit
    inv_suu = cyclo.inverse(md.s[u][u])
    dims = tuple(md.s[u][a] * inv_suu for a in range(md.rank))
    global_dim = cyclo.dot(dims, dims)
    conductor = math.lcm(*(t.order for t in md.theta))
    # xi = sum_a theta_a d_a^2 / sqrt(D), with sqrt(D) = 1/S_{unit,unit}
    twists = [t.exponent_at(conductor) for t in md.theta]
    (gauss,) = cyclo.root_sums((d * d for d in dims), (twists,), conductor)
    xi_val = gauss * md.s[u][u]
    xi = cyclo.as_root_of_unity(xi_val)
    if xi is None:
        raise ModularDataError(f"central charge is not a root of unity: {xi_val}")
    return DerivedInvariants(
        dims=dims, global_dim=global_dim, conductor=conductor, central_charge=xi
    )


def _matrix_check(name: str, r: int, predicate) -> CheckResult:
    # predicate(i, j) -> bool; failures name the first offending coordinate
    for i in range(r):
        for j in range(r):
            if not predicate(i, j):
                return CheckResult(name, False, f"first mismatch at ({i + 1}, {j + 1})")
    return CheckResult(name, True)


def validate(md: ModularData) -> ValidationReport:
    """Exact checks of the defining relations; failures are report entries
    carrying the first offending matrix coordinate.

    S S-bar^T, S^2 and (ST)^3 are packed products of lifted cells
    (cyclo.matmul), compared cell by cell; S^2 is the one construct made.
    """
    checks: list[CheckResult] = []
    r = md.rank
    s = md.s

    checks.append(_matrix_check("S symmetric", r, lambda i, j: s[i][j] == s[j][i]))

    cells, den, n = _lift(s)
    one = [den * den] + [0] * (len(cells[0][0]) - 1)
    zero = [0] * len(one)
    # S-bar^T: conjugation zeta -> zeta^-1 is an index map on the cells
    conj_t = [[cyclo.mapped(row[i], n, n, -1) for row in cells] for i in range(r)]
    prod = cyclo.matmul((cells, den), (conj_t, den), n)[0]
    checks.append(
        _matrix_check("S unitary", r, lambda i, j: prod[i][j] == (one if i == j else zero))
    )

    s2 = (vars(md).pop("_square", None) or cyclo.matmul((cells, den), (cells, den), n))[0]
    checks.append(
        _matrix_check(
            "S^2 = C", r, lambda i, j: s2[i][j] == (one if j == md.dual[i] else zero)
        )
    )

    c2_ok = all(md.dual[md.dual[i]] == i for i in range(r))
    checks.append(CheckResult("C^2 = 1", c2_ok))

    checks.append(
        _matrix_check("CS = SC", r, lambda i, j: s[md.dual[i]][j] == s[i][md.dual[j]])
    )

    ct_ok = all(md.theta[md.dual[i]] == md.theta[i] for i in range(r))
    checks.append(CheckResult("CT = TC", ct_ok))

    checks.append(
        _matrix_check("S-bar = CS", r, lambda i, j: s[md.dual[i]][j] == s[i][j].conjugate())
    )

    try:
        inv = md.invariants
        xi = inv.central_charge
        # (ST)^3 and xi S^2 at the order m that holds S, T and xi, where each
        # twist and xi are index maps on lifted cells
        m = math.lcm(n, inv.conductor, xi.order)
        twists = [t.exponent_at(m) for t in md.theta]
        st = [[cyclo.mapped(c, n, m, 1, e) for c, e in zip(row, twists)] for row in cells]
        st3 = cyclo.matmul(cyclo.matmul((st, den), (st, den), m), (st, den), m)[0]
        e = xi.exponent_at(m)
        rel = _matrix_check(
            "(ST)^3 = xi S^2",
            r,
            lambda i, j: st3[i][j] == cyclo.mapped([den * v for v in s2[i][j]], n, m, 1, e),
        )
        xi_text = f"xi = {cyclo.format_root(xi)}"
        detail = xi_text if rel.passed else f"{rel.detail}, {xi_text}"
        checks.append(CheckResult(rel.name, rel.passed, detail))
    except ModularDataError as exc:
        checks.append(CheckResult("(ST)^3 = xi S^2", False, str(exc)))

    checks.append(CheckResult("theta[unit] = 1", md.theta[md.unit].is_one()))
    try:
        pos = all(_is_positive_real(s[md.unit][b]) for b in range(r))
    except ModularDataError:
        pos = False
    checks.append(CheckResult("unit row real positive", pos))

    return ValidationReport(tuple(checks))
