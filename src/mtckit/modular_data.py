"""Modular data: the (S, T) pair of a modular category, validated exactly.

S is the normalized unitary matrix (the printed matrices in the literature
divide out the global-dimension square root); T is diagonal and carried as
the tuple of twists theta_a, stored as RootOfUnity. The unit object and the
duality permutation are derived, not supplied: the unit is the row of S
that is entirely real positive with trivial twist, and duals come from
S^2 = C.
"""

from __future__ import annotations

import dataclasses
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
    "reverse",
]


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
        if obj.isdigit():
            return self.index_of(int(obj))
        raise ModularDataError(f"unknown object {obj!r}; labels are {', '.join(self.labels)}")


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


def _matmul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(cyclo.dot(row, col) for col in cols) for row in a)


def _perm_from_square(s2) -> tuple[int, ...] | None:
    n = len(s2)
    perm = []
    for i in range(n):
        hit = None
        for j in range(n):
            v = s2[i][j]
            if v == 1:
                if hit is not None:
                    return None
                hit = j
            elif not v.is_zero():
                return None
        if hit is None:
            return None
        perm.append(hit)
    return tuple(perm) if sorted(perm) == list(range(n)) else None


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

    dual = _perm_from_square(_matmul(s, s))
    if dual is None:
        raise ModularDataError("S^2 is not a permutation matrix; input is not modular data")
    return ModularData(labels=labels, s=s, theta=theta, unit=unit, dual=dual)


def derive_invariants(md: ModularData) -> DerivedInvariants:
    """Quantum dimensions, global dimension, conductor, and central charge."""
    u = md.unit
    inv_suu = cyclo.inverse(md.s[u][u])
    dims = tuple(md.s[u][a] * inv_suu for a in range(md.rank))
    global_dim = cyclo.dot(dims, dims)
    conductor = 1
    for t in md.theta:
        conductor = math.lcm(conductor, t.order)
    # xi = sum_a theta_a d_a^2 / sqrt(D), with sqrt(D) = 1/S_{unit,unit}
    (gauss,) = cyclo.root_sums((d * d for d in dims), (md.theta,))
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
    carrying the first offending matrix coordinate."""
    checks: list[CheckResult] = []
    r = md.rank
    s = md.s

    checks.append(_matrix_check("S symmetric", r, lambda i, j: s[i][j] == s[j][i]))

    sconj = tuple(tuple(x.conjugate() for x in row) for row in s)
    prod = _matmul(s, tuple(tuple(sconj[j][i] for j in range(r)) for i in range(r)))
    checks.append(
        _matrix_check("S unitary", r, lambda i, j: prod[i][j] == (1 if i == j else 0))
    )

    s2 = _matmul(s, s)
    checks.append(
        _matrix_check(
            "S^2 = C", r, lambda i, j: s2[i][j] == (1 if j == md.dual[i] else 0)
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
        _matrix_check("S-bar = CS", r, lambda i, j: s[md.dual[i]][j] == sconj[i][j])
    )

    try:
        inv = derive_invariants(md)
        st = tuple(
            tuple(s[i][j] * md.theta[j].value() for j in range(r)) for i in range(r)
        )
        st3 = _matmul(_matmul(st, st), st)
        xi_val = inv.central_charge.value()
        rel = _matrix_check(
            "(ST)^3 = xi S^2", r, lambda i, j: st3[i][j] == xi_val * s2[i][j]
        )
        detail = f"xi = {xi_val}" if rel.passed else f"{rel.detail}, xi = {xi_val}"
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


def reverse(md: ModularData) -> ModularData:
    """The same category with reversed braiding: S~_{a,b} = S_{a-bar,b}, twists inverted."""
    s = tuple(tuple(md.s[md.dual[a]][b] for b in range(md.rank)) for a in range(md.rank))
    theta = tuple(t.inverse() for t in md.theta)
    return ModularData(labels=md.labels, s=s, theta=theta, unit=md.unit, dual=md.dual)
