"""Exact eigenvalue/multiplicity data for rotations and braid elements.

Rotation eigenvalues on Hom(b, a^(x)n) are n-th roots of theta_b^-1; the
multiplicity of each candidate is the inverse-DFT value P^b_{n,a}(lambda^-1)
with P built from the indicator sequence. Braid spectra for the
one-strand-wrapping elements reduce to rotations on the center: the braid
value theta_a^-1 omega occurs with multiplicity K^{a-bar^(l+m) (x) b~}(omega).

Roots of unity (twists, candidate eigenvalues, omega) are handled by
exponent as RootOfUnity. One routine (_candidate_counts) computes and gates
every multiplicity: given a twist, n and the terms of the inverse DFT, it
returns the candidates lambda and their counts. Every term is a field trace
(arXiv:1611.00071; Ng-Schauenburg, arXiv:0806.2493): with rho = theta_b^(1/n)
the one root every row pins (indicators._theta_root at shift 0; the counts do
not depend on that choice) and mu = (lambda rho)^-1 = zeta_n^s, the Galois
orbit {nu_{n,k} : gcd(k, n) = g} sums to one trace, so

    P^b_{n,a}(lambda^-1) = (1/n) [nu_0 + sum_{g | n, g < n} Tr_{Q(zeta_n1)/Q}(mu^g x_g)]

with n1 = n/g, x_g = rho^g nu^b_{n1,1}(a^g) in Q(zeta_n1) and nu_0 = dim
Hom(b, a^(x)n) (hom_dim_under_forgetful), the trace at n1 = 1. A term is an
entry (_entry): the n1 ints Tr(zeta_n1^s x), s < n1, of its value x over one
denominator (cyclo.traces), after a check that x lies in Q(zeta_n1) as
galois_apply makes; a value off that field (data that breaks the indicator
identities) raises cyclo.DescentError. So every count is an integer sum of
entries. They are kept in one table on the base modular data, filled as rows
read them (_trace_entry): entry (n1, b, c), for a base simple c, is that of
x = theta_b^(1/n1) nu^b_{n1,1}(c) with nu from the closed form
indicators.nu_direct, so a row adds ints and builds no SL2(Z) state. For each
(b, c) read the table holds sum n1 ints, one entry per divisor n1 of an n
asked for, and the order limit (cyclo.get_order_limit) bounds every n1: a
row's candidates are checked against it before any entry is built.

A rotation row sums its own entries; the K row of a semisimple center object
(semisimple_K) adds, per twist, its simples' entries with int weights; the
n = 2 braid values (k2_pairs) pass nu_0 = N^b_{c-bar,a,a} and the n = 2 entry
of (c, b, a), the one the center's rows read, with no center. No two field
values are multiplied, and no sum of a row is reduced as a polynomial. Tensor
powers are kept on md.ring, the one fusion ring every row reads.

Every multiplicity must be a non-negative rational integer; anything else
raises IntegralityError, which doubles as an end-to-end data check. A count
is gated as an int: the quotient of its sum by n times the denominator, with
no remainder and not negative. Only a count that fails becomes a field value,
so that the message shows it in E(n) form, the exact sum computed. The
candidates of one twist and n, with their offset into the trace slots, are a
frame built once and kept on the modular data (_candidate_frame); the order
limit is checked once on every call. A center simple outside 0..rank^2-1 or a
negative center multiplicity is the caller's error, ValueError.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

from . import cyclo
from .center import CenterData, center_for, check_index, check_ring
from .cyclo import Cyclotomic, RootOfUnity
from .fusion_ring import FusionRing, ObjectMultiset, power_decompose
from .indicators import _theta_root, hom_dim_under_forgetful, nu_direct
from .modular_data import ModularData

__all__ = [
    "IntegralityError",
    "SpectrumRow",
    "SpectrumReport",
    "rotation_spectrum",
    "rotation_report",
    "semisimple_K",
    "braid_jm_spectrum",
    "k2_pairs",
    "render_report",
]


class IntegralityError(ArithmeticError):
    """A multiplicity failed to be a non-negative rational integer."""


def _require_count(value: Cyclotomic, describe) -> int:
    # value is an exact sum; describe() names it, for the message
    count = cyclo.as_integer(value)
    if count is None or count < 0:
        raise IntegralityError(f"{describe()} = {value} is not a non-negative integer")
    return count


@dataclasses.dataclass(frozen=True)
class SpectrumRow:
    """Candidate eigenvalues (zero multiplicities retained) for one object."""

    label: str
    eigenvalues: tuple[RootOfUnity, ...]
    multiplicities: tuple[int, ...]

    def as_map(self) -> dict[RootOfUnity, int]:
        return dict(zip(self.eigenvalues, self.multiplicities))


@dataclasses.dataclass(frozen=True)
class SpectrumReport:
    kind: str
    source: str
    params: tuple[tuple[str, str], ...]
    rows: tuple[SpectrumRow, ...]


def _check_candidates(theta_b: RootOfUnity, n: int) -> None:
    # the row's field holds every candidate, so a too large n fails here, before any work
    if n < 1:
        raise ValueError("rotation power n must be >= 1")
    cyclo.check_order(n * theta_b.order)


def _candidate_frame(md: ModularData, theta: RootOfUnity, n: int):
    # (candidates, s0) of one twist and n, kept on md (it depends on neither b nor a):
    # all lambda with lambda^n = theta^-1 in turn order, and with rho the pinned root
    # the candidate i has mu = (lambda rho)^-1 = zeta_n^(s0 - i). The order limit is
    # checked on every call, so a lowered limit refuses a frame built before it
    _check_candidates(theta, n)
    frames = vars(md).setdefault("_candidate_frames", {})
    frame = frames.get((theta, n))
    if frame is None:
        q = theta.order
        base = -theta.exponent % q  # lambda_i = zeta_{n q}^(base + q i), i < n
        cands = tuple(RootOfUnity.make(n * q, base + q * i) for i in range(n))
        rho_e = _theta_root(theta, n, 0).exponent_at(n * q)  # rho = zeta_{n q}^rho_e
        frame = frames[theta, n] = cands, -(base + rho_e) // q
    return frame


def _entry(x: Cyclotomic, n1: int):
    # the traces Tr(zeta_n1^s x), s < n1, as (ints, den). x must lie in Q(zeta_n1), which
    # galois_apply checks as it does in nu_general; a rational x at n1 = 2 is read
    # directly, as (x, -x)
    if n1 == 2 and (q := x.as_rational()) is not None:
        return (q.numerator, -q.numerator), q.denominator
    return cyclo.traces(cyclo.galois_apply(x, 1, n1))


def _trace_entry(md: ModularData, n1: int, b: int, c: int):
    # the entry of x = rho nu^b_{n1,1}(c), b = left (x) right~ = left rank + right and
    # rho = _theta_root(theta_b, n1, 0), from the closed form, built once and kept on md
    entries = vars(md).get("_trace_entries")
    if entries is None:
        entries = vars(md)["_trace_entries"] = {}
    key = (n1, b, c)
    entry = entries.get(key)
    if entry is None:
        left, right = divmod(b, md.rank)
        root = _theta_root(md.theta[left] / md.theta[right], n1, 0)
        x = cyclo.times_root(nu_direct(md, n1, left, right, c), root)
        entry = entries[key] = _entry(x, n1)
    return entry


def _row_terms(cd: CenterData, b: int, a, n: int, weight: int):
    # the terms (weight, entry) of P^b_{n,a}: nu_0 at n1 = 1, then for each divisor
    # g < n one trace entry at n1 = n/g per simple of a^g
    yield weight, ((hom_dim_under_forgetful(cd, b, a, n),), 1)
    for g in range(1, n):
        if n % g:
            continue
        for c, mult in power_decompose(cd.base.ring, a, g).items():
            if mult:
                yield weight * mult, _trace_entry(cd.base, n // g, b, c)


def _candidate_counts(
    md: ModularData, theta: RootOfUnity, n: int, terms, describe
) -> tuple[tuple[RootOfUnity, ...], tuple[int, ...]]:
    # the candidates lambda (lambda^n = theta^-1) and their counts, (1/n) times the sum
    # of its terms, gated with describe(lambda) as its name. A term (weight, (ints, den))
    # is the entry of x = rho^g nu_{n1,1}, n1 = n/g, rho = _theta_root(theta, n, 0):
    # with mu = (lambda rho)^-1 = zeta_n^s it adds weight Tr(mu^g x) = weight
    # ints[s mod n1] / den. The n1 = 1 entry, nu_0, is the same for every lambda.
    # Entries add up as ints over one denominator; terms are only read once the
    # candidates passed the order check. The candidates and s0 come from md's frame
    # for (theta, n). Each count is gated as an int quotient: only a count that is no
    # non-negative integer becomes a field value, for its message in E(n) form
    cands, s0 = _candidate_frame(md, theta, n)
    den, traced = 1, {}
    for weight, (ints, d) in terms:
        if den % d:
            scale = d // math.gcd(den, d)
            den *= scale
            traced = {m: [scale * t for t in row] for m, row in traced.items()}
        weight *= den // d
        row = traced.get(len(ints))
        traced[len(ints)] = ([weight * t for t in ints] if row is None
                             else [u + weight * t for u, t in zip(row, ints)])
    sums = [traced.pop(1, (0,))[0]] * n
    for row in traced.values():
        m = len(row)
        sums = [t + row[(s0 - i) % m] for i, t in enumerate(sums)]
    total_den, counts = n * den, []
    for lam, t in zip(cands, sums):
        count, rest = divmod(t, total_den)
        if rest or count < 0:  # raises: t / total_den is no non-negative integer
            _require_count(Cyclotomic._make(1, [t], total_den), lambda: describe(lam))
        counts.append(count)
    return cands, tuple(counts)


def rotation_spectrum(
    cd: CenterData,
    b: int,
    a: int | ObjectMultiset,
    n: int,
) -> SpectrumRow:
    """Eigenvalues-with-multiplicities of the rotation on Hom(b, a^(x)n).

    b is a center simple; candidates are exactly the n-th roots of
    theta_b^-1 and zero-multiplicity candidates are kept in the row.
    """
    check_index(b, cd.rank, "center simple")
    eigenvalues, multiplicities = _candidate_counts(
        cd.base,
        cd.theta[b],
        n,
        _row_terms(cd, b, a, n, 1),
        lambda lam: f"multiplicity of {cyclo.format_root(lam)} on Hom({cd.labels[b]}, a^{n})",
    )
    return SpectrumRow(label=cd.labels[b], eigenvalues=eigenvalues, multiplicities=multiplicities)


def rotation_report(
    cd: CenterData, a: int | ObjectMultiset, n: int, source: str = ""
) -> SpectrumReport:
    # every row's field order is checked before any row's work
    for theta_b in dict.fromkeys(cd.theta):
        _check_candidates(theta_b, n)
    rows = tuple(rotation_spectrum(cd, b, a, n) for b in range(cd.rank))
    a_desc = cd.base.labels[a] if isinstance(a, int) else str(a)
    return SpectrumReport(
        kind="rotation",
        source=source,
        params=(("object", a_desc), ("n", str(n))),
        rows=rows,
    )


def semisimple_K(
    cd: CenterData,
    b: ObjectMultiset,
    a: int | ObjectMultiset,
    n: int,
) -> dict[RootOfUnity, int]:
    """The K row {omega: K^b_{n,a}(omega)} of a semisimple center object b = {simple: mult}.

    K is linear in b, the sum of mult_c P^c_{n,a}: the simples of one twist share
    their candidates omega (omega^n = theta_c^-1), and other twists' differ.
    A simple outside 0..cd.rank-1 or a negative mult raises ValueError.
    """
    groups: dict[RootOfUnity, ObjectMultiset] = {}
    for c, mult in b.items():
        check_index(c, cd.rank, "center simple")
        if mult < 0:
            raise ValueError("center multiplicities must be non-negative")
        if mult:
            groups.setdefault(cd.theta[c], {})[c] = mult
    out = {}
    for theta, group in groups.items():
        if n == 1:  # the one-strand rotation is the identity: P^c_{1,a} is dim Hom(c, a)
            out[theta.inverse()] = sum(
                m * hom_dim_under_forgetful(cd, c, a, 1) for c, m in group.items())
            continue
        # the simples of one twist share the pinned root, so their terms add up
        out.update(zip(*_candidate_counts(
            cd.base,
            theta,
            n,
            (term for c, mult in group.items() for term in _row_terms(cd, c, a, n, mult)),
            lambda omega: f"K at omega = {cyclo.format_root(omega)}",
        )))
    return out


def braid_jm_spectrum(
    md: ModularData,
    a: int,
    n: int,
    l: int,
    m: int,
    sign: str = "over",
    fr: FusionRing | None = None,
) -> SpectrumReport:
    """Spectrum of the one-strand-wrapping braid on n strands (l, m legs).

    Per base simple b, the eigenvalue theta_a^-1 omega occurs on
    Hom(b, a^(x)n) with multiplicity K^{a-bar^(l+m) (x) b~}_{n-(l+m), a}(omega),
    so each row is one semisimple_K call.
    The inverse-crossing family (sign="under") is this computation for the
    reversed braiding, whose center is the same center with each pair's
    factors swapped: it reads the pair (c, b) as (b, c), and its prefactor
    is theta_a. Both signs use the one center that center_for keeps on md.
    """
    if l < 0 or m < 0 or l + m >= n:
        raise ValueError("need l, m >= 0 and l + m < n")
    if sign not in ("over", "under"):
        raise ValueError(f"sign must be 'over' or 'under', got {sign!r}")
    cyclo.check_order(n - (l + m))  # each row's field holds the (n-l-m)-th roots of 1
    cd = center_for(md, fr)
    # a-bar^(l+m) is the dual of a^(l+m), whose decomposition checks a first
    wrap = {md.dual[c]: mult for c, mult in power_decompose(md.ring, a, l + m).items()}
    n1 = n - (l + m)
    under = sign == "under"
    prefactor = md.theta[a] if under else md.theta[a].inverse()

    rows = []
    for b in range(md.rank):
        center_ms: ObjectMultiset = {
            cd.pair_index(*((b, c) if under else (c, b))): mult for c, mult in wrap.items() if mult
        }
        # the eigenvalues prefactor * omega are distinct, so their turn order fixes the row
        k_row = semisimple_K(cd, center_ms, a, n1).items()
        row = sorted(((prefactor * omega, k) for omega, k in k_row), key=lambda p: p[0].turn())
        rows.append(SpectrumRow(md.labels[b], tuple(ev for ev, _ in row), tuple(k for _, k in row)))
    return SpectrumReport(
        kind="braid-jm",
        source="",
        params=(
            ("object", md.labels[a]),
            ("n", str(n)),
            ("l", str(l)),
            ("m", str(m)),
            ("sign", sign),
        ),
        rows=tuple(rows),
    )


def k2_pairs(
    md: ModularData, fr: FusionRing, c: int, b: int, a: int
) -> tuple[tuple[RootOfUnity, int], tuple[RootOfUnity, int]]:
    """The two admissible omega with K^{c (x) b~}_{2,omega} for the braid square.

    K = [omega^2 = theta_b/theta_c] (omega^-1 nu^{c (x) b~}_{2,1}(a) +
    N^b_{c-bar,a,a}) / 2, computed without constructing the center: the two
    omega are the n = 2 candidates of the twist theta_c/theta_b, and the
    terms are N and the entry of rho nu (rho the pinned root of that twist),
    a value that must be rational. That entry is read from md's trace table,
    which the center's rows share; it is built from indicators.nu_direct on
    first use. The two counts sum to N, since the omega^-1 sum to 0. fr must
    be md.ring (center.check_ring); c, b or a outside 0..rank-1 is a ValueError.
    """
    check_ring(md, fr)
    for i in (c, b):
        check_index(i, md.rank, "center simple factor")
    row = md.ring.table[b][md.dual[c]]  # N^b_{c-bar,e} for each e
    n_hom = sum(row[e] * mult for e, mult in power_decompose(md.ring, a, 2).items())
    return tuple(zip(*_candidate_counts(
        md,
        md.theta[c] / md.theta[b],
        2,
        ((1, ((n_hom,), 1)), (1, _trace_entry(md, 2, c * md.rank + b, a))),
        lambda omega: f"K^(2) at omega = {cyclo.format_root(omega)}",
    )))


# ---------------------------------------------------------------------------
# rendering


def format_eigenvalue(r: RootOfUnity) -> str:
    """Render exp(2 pi i e/q) as +-e^(i*pi*p/q) with p/q in [0, 1) lowest terms."""
    turn2 = Fraction(2 * r.exponent, r.order)  # angle in units of pi
    sign = ""
    if turn2 >= 1:
        sign = "-"
        turn2 -= 1
    if turn2 == 0:
        return f"{sign}1"
    return f"{sign}e^(i*pi*{turn2.numerator}/{turn2.denominator})"


def render_report(report: SpectrumReport, fmt: str = "table") -> str:
    """Deterministic text rendering; rows ordered by object index."""
    if fmt == "structured":
        from . import dataio

        return dataio.serialize_report(report)
    if fmt != "table":
        raise ValueError(f"unknown format {fmt!r}")
    header = ["object", "possible eigenvalues", "multiplicities"]
    lines = []
    for row in report.rows:
        evs = ", ".join(format_eigenvalue(ev) for ev in row.eigenvalues)
        mults = ", ".join(str(m) for m in row.multiplicities)
        lines.append([row.label, f"({evs})", f"({mults})"])
    widths = [
        max(len(header[i]), *(len(line[i]) for line in lines)) if lines else len(header[i])
        for i in range(3)
    ]
    out = []
    title = " ".join(f"{k}={v}" for k, v in report.params)
    out.append(f"{report.kind} {title}".strip())
    out.append(" | ".join(h.ljust(w) for h, w in zip(header, widths)))
    out.append("-+-".join("-" * w for w in widths))
    for line in lines:
        out.append(" | ".join(v.ljust(w) for v, w in zip(line, widths)))
    return "\n".join(out) + "\n"
