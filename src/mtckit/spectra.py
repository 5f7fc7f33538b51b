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
Hom(b, a^(x)n) (hom_dim_under_forgetful). A trace term sums, through a^g,
entries (n1, b, c): the n1 ints Tr(zeta_n1^s x), s < n1, of x =
theta_b^(1/n1) nu^b_{n1,1}(c) over one denominator, nu from indicators.nu_direct.
The indicator identities put nu in the Q-subspace V of Q(zeta_L), L the order
of nu_direct's contraction, where rho nu lies in Q(zeta_n1), and an entry is
read off nu's coordinates in V (_trace_field, _entry): one exact check and an
int combination of traces, with no root shift, descent or field value. A nu
that fails (data that breaks the indicator identities) raises the descent
route's cyclo.DescentError (_off_field). Entries are kept on the base modular
data, one list per (n1, b), filled as rows read them; every n1 is bounded by
the order limit, checked on a row's candidates before any entry is built.

A rotation row sums its own entries; the K row of a semisimple center object
(semisimple_K) adds, per twist, its simples' entries with int weights; the
n = 2 braid values (k2_pairs) pass nu_0 = N^b_{c-bar,a,a} and the n = 2 entry
of (c, b, a), the one the center's rows read, with no center. No two field
values are multiplied, and tensor powers are kept on md.ring, the one fusion
ring every row reads. Every multiplicity must be a non-negative rational
integer, else IntegralityError, which doubles as an end-to-end data check. A
count is gated as an int, the quotient of its sum by n times the denominator;
only a count that fails becomes a field value, so that the message shows it
in E(n) form, the exact sum computed. The candidates of one twist and n, with
their offset into the trace slots, are a frame kept on the modular data
(_candidate_frame). A center simple outside 0..rank^2-1 or a negative center
multiplicity is the caller's error, ValueError.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from operator import itemgetter, mul

from . import cyclo
from .center import CenterData, center_for, check_index, check_ring
from .cyclo import Cyclotomic, RootOfUnity
from .fusion_ring import FusionRing, ObjectMultiset, power_decompose
from .indicators import _theta_root, _twisted_rows, hom_dim_under_forgetful, nu_direct
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


def _candidate_frame(md: ModularData, theta: RootOfUnity, n: int):
    # (candidates, s0) of one twist and n, kept on md (it depends on neither b nor a):
    # all lambda with lambda^n = theta^-1 in turn order, and with rho the pinned root
    # the candidate i has mu = (lambda rho)^-1 = zeta_n^(s0 - i). The row's field holds
    # every candidate, so its order limit is checked first, on every call
    if n < 1:
        raise ValueError("rotation power n must be >= 1")
    cyclo.check_order(n * theta.order)
    frames = vars(md).get("_candidate_frames") or vars(md).setdefault("_candidate_frames", {})
    frame = frames.get((theta.order, theta.exponent, n))
    if frame is None:
        q = theta.order
        base = -theta.exponent % q  # lambda_i = zeta_{n q}^(base + q i), i < n
        cands = tuple(RootOfUnity.make(n * q, base + q * i) for i in range(n))
        rho_e = _theta_root(theta, n, 0).exponent_at(n * q)  # rho = zeta_{n q}^rho_e
        frame = frames[q, theta.exponent, n] = cands, -(base + rho_e) // q
    return frame


def _echelon(rows, width: int):
    # independent int rows in reduced echelon form on their first width columns, as ints:
    # (pivots, rows, D) with rows[i][pivots[j]] = D [i == j]
    pivots = []
    for i in range(len(rows)):
        row = rows[i]
        pivots.append(p := min((k for k in range(width) if row[k]), key=lambda k: abs(row[k])))
        rows = [r if j == i or not r[p] else [row[p] * x - r[p] * y for x, y in zip(r, row)]
                for j, r in enumerate(rows)]
    rows = [[x // g for x in row] for row in rows for g in [math.gcd(*row)]]
    scale = math.lcm(*(abs(row[p]) for row, p in zip(rows, pivots)))
    return pivots, [[scale // row[p] * x for x in row] for row, p in zip(rows, pivots)], scale


def _trace_field(md: ModularData, n1: int, theta: RootOfUnity):
    # (L, pivots, basis, traces, D) of V = {nu in Q(zeta_L) : rho nu in Q(zeta_n1)}, rho =
    # _theta_root(theta, n1, 0), kept on md per (n1, theta): at most the distinct twists
    # times the n1 asked for. Q(zeta_L) meets Q(zeta_n1) in Q(zeta_g), g = gcd(n1, L), so
    # when rho = sign zeta_n1^a zeta_L^e lies in Q(zeta_lcm(n1, L)), V = nu0 Q(zeta_g) for
    # nu0 = zeta_L^-e, else V = 0 (rho = x / nu would lie there): rows nu0 zeta_g^j, j <
    # phi(g), beside their traces sign Tr(zeta_n1^(s + a + j n1/g)), in echelon form
    fields = vars(md).setdefault("_trace_fields", {})
    kept = fields.get((n1, theta))
    if kept is None:
        order, rho, rows = _twisted_rows(md, n1).packing.order, _theta_root(theta, n1, 0), []
        m = math.lcm(n1, order)
        if math.lcm(2, m) % rho.order == 0:
            r, sign = rho.exponent_at(math.lcm(2, m)), 1
            if m % 2:  # rho = zeta_2m^r, and zeta_2m^r = -zeta_m^((r + m) / 2) for odd r
                r, sign = (r + m * (r % 2)) // 2, 1 - 2 * (r % 2)
            e = r * pow(m // order, -1, m // n1) % (m // n1)
            a, g = (r - e * (m // order)) // (m // n1), math.gcd(n1, order)
            one = cyclo.ramanujan_sums(n1)
            for j in range(cyclo.euler_phi(g)):  # Tr(zeta_n1^k) = one[k], one Ramanujan sum
                k = a + j * n1 // g
                rows.append([*cyclo.mapped((1,), 1, order, 1, j * order // g - e),
                             *(sign * one[(s + k) % n1] for s in range(n1))])
        pivots, rows, scale = _echelon(rows, cyclo.euler_phi(order))
        kept = fields[n1, theta] = (order, pivots, [row[:-n1] for row in rows],
                                    [row[-n1:] for row in rows], scale)
    return kept


def _off_field(nu: Cyclotomic, rho: RootOfUnity, n1: int):
    # nu failed its check: rho nu's descent to Q(zeta_n1) raises the DescentError
    cyclo.galois_apply(cyclo.times_root(nu, rho), 1, n1)
    raise cyclo.ConsistencyError(f"a value off its trace field descends to Q(zeta_{n1})")


def _combine(ys, rows) -> list[int]:
    # sum_i ys[i] rows[i]
    return list(map(ys[0].__mul__, rows[0])) if len(rows) == 1 else [
        sum(map(mul, ys, col)) for col in zip(*rows)]


def _entry(md: ModularData, n1: int, b: int, c: int, field):
    # the entry (ints, den) of x = rho nu^b_{n1,1}(c), b = left (x) right~ = left rank +
    # right, read off nu's coordinates in V (field = _trace_field): nu lies in V iff its
    # order divides L and D nu = sum_i y_i B_i, y its numerators at the pivots; then
    # Tr(zeta_n1^s x), s < n1, are sum_i y_i T_i over D times nu's denominator
    left, right = divmod(b, md.rank)
    nu = nu_direct(md, n1, left, right, c)
    order, pivots, basis, traced, scale = field
    if not any(nu._num):
        return [0] * n1, 1
    if order % nu.order == 0:
        num = list(nu._num if nu.order == order else cyclo.mapped(nu._num, nu.order, order))
        ys = list(map(num.__getitem__, pivots))
        if _combine(ys, basis) == (num if scale == 1 else [scale * x for x in num]):
            return _combine(ys, traced), scale * nu._den
    _off_field(nu, _theta_root(md.theta[left] / md.theta[right], n1, 0), n1)


def _entries(md: ModularData, n1: int, b: int, theta: RootOfUnity, powers):
    # [den, row]: the entries (n1, b, c) of md, b of twist theta, over one denominator,
    # in one list per (n1, b) indexed by c; the missing ones of powers are built in order
    table = vars(md).get("_trace_entries") or vars(md).setdefault("_trace_entries", {})
    kept = table.get((n1, b)) or table.setdefault((n1, b), [1, [None] * md.rank])
    den, row = kept
    field = None in row and _trace_field(md, n1, theta)
    for c in powers if field else ():
        if row[c] is None:
            ints, d = _entry(md, n1, b, c, field)
            if den % d:  # a new denominator: the kept entries move to the lcm
                f = d // math.gcd(den, d)
                den = kept[0] = den * f
                row[:] = [t and [f * x for x in t] for t in row]
            row[c] = ints if d == den else [den // d * x for x in ints]
    return kept


def _row_parts(cd: CenterData, group, a, n: int):
    # the terms of sum_b w_b P^b_{n,a}, group = {b: w_b} of one twist: nu_0 = sum_b w_b
    # dim Hom(b, a^n), and per b, for each divisor g < n of n in turn, the part (ints,
    # den) sum_c w_b [a^g : c] entry (n/g, b, c) through the fusion powers a^g
    md, nu0, parts = cd.base, 0, []
    for b, weight in group.items():
        nu0 += weight * hom_dim_under_forgetful(cd, b, a, n)
        for g in range(1, n):
            if n % g == 0:
                powers = {a: 1} if g == 1 and isinstance(a, int) else power_decompose(md.ring, a, g)
                den, row = _entries(md, n // g, b, cd.theta[b], powers)
                mults = powers.values() if weight == 1 else [weight * m for m in powers.values()]
                parts.append((row[next(iter(powers))] if list(mults) == [1] else [
                    sum(map(mul, mults, col)) for col in zip(*map(row.__getitem__, powers))], den))
    return nu0, parts


def _candidate_counts(
    frame, n: int, nu0: int, parts, describe
) -> tuple[tuple[RootOfUnity, ...], tuple[int, ...]]:
    # the candidates lambda (lambda^n = theta^-1) of the frame (_candidate_frame) and
    # their counts, (1/n) times nu0 plus a trace per part, gated with describe(lambda)
    # as its name. A part (ints, den) of n1 = n/g ints sums entries of x = rho^g nu_{n1,1}:
    # with mu = (lambda rho)^-1 = zeta_n^s it adds Tr(mu^g x) = ints[s mod n1] / den. Only
    # a count that is no non-negative integer becomes a field value, for its message
    (cands, s0), den = frame, math.lcm(1, *map(itemgetter(1), parts))
    sums = [nu0 * den] * n
    for ints, d in parts:
        m = len(ints)
        if d != den:
            ints = [den // d * t for t in ints]
        sums = [t + ints[(s0 - i) % m] for i, t in enumerate(sums)]
    total_den = n * den
    counts = [t // total_den for t in sums]
    if min(counts) < 0 or sum(sums) != total_den * sum(counts):  # the first such count raises
        lam, t = next((lam, t) for lam, t in zip(cands, sums) if t < 0 or t % total_den)
        _require_count(Cyclotomic._make(1, [t], total_den), lambda: describe(lam))
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
    frame = _candidate_frame(cd.base, cd.theta[b], n)
    eigenvalues, multiplicities = _candidate_counts(frame, n, *_row_parts(cd, {b: 1}, a, n), (
        lambda lam: f"multiplicity of {cyclo.format_root(lam)} on Hom({cd.labels[b]}, a^{n})"))
    return SpectrumRow(label=cd.labels[b], eigenvalues=eigenvalues, multiplicities=multiplicities)


def rotation_report(
    cd: CenterData, a: int | ObjectMultiset, n: int, source: str = ""
) -> SpectrumReport:
    # every row's field order is checked before any row's work
    for theta_b in dict.fromkeys(cd.theta):
        _candidate_frame(cd.base, theta_b, n)
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
        frame = _candidate_frame(cd.base, theta, n)
        out.update(zip(*_candidate_counts(frame, n, *_row_parts(cd, group, a, n), (
            lambda omega: f"K at omega = {cyclo.format_root(omega)}"))))
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
        # the eigenvalues prefactor * omega are distinct, so their turn order fixes the
        # row: exponent / order, compared as ints at the lcm of the row's orders
        row = [(prefactor * omega, k) for omega, k in semisimple_K(cd, center_ms, a, n1).items()]
        big = math.lcm(*(ev.order for ev, _ in row))
        row.sort(key=lambda p: p[0].exponent * (big // p[0].order))
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
    read from the trace entries on md that the center's rows share. The two
    counts sum to N, since the omega^-1 sum to 0. fr must be md.ring
    (center.check_ring); c, b or a outside 0..rank-1 is a ValueError.
    """
    check_ring(md, fr)
    for i in (c, b):
        check_index(i, md.rank, "center simple factor")
    row = md.ring.table[b][md.dual[c]]  # N^b_{c-bar,e} for each e
    powers = power_decompose(md.ring, a, 2)
    n_hom = sum(map(mul, map(row.__getitem__, powers), powers.values()))
    theta = md.theta[c] / md.theta[b]
    frame = _candidate_frame(md, theta, 2)
    den, entries = _entries(md, 2, c * md.rank + b, theta, (a,))
    return tuple(zip(*_candidate_counts(frame, 2, n_hom, [(entries[a], den)], (
        lambda omega: f"K^(2) at omega = {cyclo.format_root(omega)}"))))


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
