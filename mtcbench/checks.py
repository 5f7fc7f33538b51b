"""Output checks that do not depend on the run being measured.

Three kinds, all run outside the timed interval:

* identities of the mathematics: every rotation and braid row sums to
  dim Hom(b, a^(x)n), computed from power_decompose and the forgetful
  matrix A; every pair of K^2 values sums to its N-sum; every rotation
  eigenvalue lambda on row b satisfies lambda^n theta_b = 1; a sample of
  indicator-table entries equals nu_general on a separately built center;
* digests of the outputs recorded at the seed code (expected.json, written
  by record_digests.py), wherever the run produced a recorded output;
* the golden rank-12 x6 braid table under tests/golden.

Each check returns None when the output is right and a short reason
otherwise; a failed check counts as a failed unit, never as a crash.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
GOLDEN = HERE.parent / "tests" / "golden" / "haagerup_sigma_x6.txt"
INDICATOR_SAMPLE = 3


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_expected() -> dict:
    if not EXPECTED.is_file():
        return {}
    return json.loads(EXPECTED.read_text())


# ---------------------------------------------------------------------------
# identities


def power(fr, a: int, n: int) -> dict[int, int]:
    from mtckit.fusion_ring import power_decompose

    return power_decompose(fr, a, n)


def center_hom_dim(fr, left: int, right: int, a: int, n: int) -> int:
    """dim Hom((left, right), a^(x)n) through the forgetful matrix
    A[(left, right)][c] = N^c_{left, right}."""
    return sum(fr.table[c][left][right] * mult for c, mult in power(fr, a, n).items())


def n_sum(fr, c: int, b: int, a: int) -> int:
    """sum_e N^b_{c-bar, e} N^e_{a, a}: the total of the two K^2 values."""
    cbar = fr.dual[c]
    return sum(fr.table[b][cbar][e] * fr.table[e][a][a] for e in range(fr.rank))


def _is_root_of(turn: Fraction, n: int, theta) -> bool:
    """lambda^n theta = 1, with lambda = exp(2 pi i turn)."""
    total = turn * n + Fraction(theta.exponent, theta.order)
    return total.denominator == 1


def rotation_row_error(md, fr, left: int, right: int, a: int, n: int, turns, mults) -> str | None:
    want = center_hom_dim(fr, left, right, a, n)
    if sum(mults) != want:
        return f"rotation row sums to {sum(mults)}, dim Hom is {want}"
    theta = md.theta[left] / md.theta[right]
    if not all(_is_root_of(t, n, theta) for t in turns):
        return "rotation eigenvalue is not an n-th root of theta_b^-1"
    return None


def braid_rows_error(fr, a: int, n: int, rows) -> str | None:
    """rows: (base index, multiplicities) pairs."""
    dims = power(fr, a, n)
    for b, mults in rows:
        if sum(mults) != dims.get(b, 0):
            return f"braid row {b} sums to {sum(mults)}, dim Hom is {dims.get(b, 0)}"
    return None


def k2_error(fr, c: int, b: int, a: int, pair_mults) -> str | None:
    want = n_sum(fr, c, b, a)
    if sum(pair_mults) != want:
        return f"K^2 pair sums to {sum(pair_mults)}, N-sum is {want}"
    return None


def indicator_sample_error(check_center, m: int, l: int, values, rng: random.Random) -> str | None:
    """values[row][col] equals nu_general on a center the run did not use."""
    from mtckit.indicators import nu_general

    rows, cols = len(values), len(values[0])
    for _ in range(INDICATOR_SAMPLE):
        b, a = rng.randrange(rows), rng.randrange(cols)
        if values[b][a] != nu_general(check_center, b, m, l, a):
            return f"indicator ({m},{l}) entry ({b},{a}) differs from nu_general"
    return None


# ---------------------------------------------------------------------------
# serializations used for digests of in-process results


def row_text(row) -> str:
    evs = ",".join(f"{e.order}/{e.exponent}" for e in row.eigenvalues)
    return f"{row.label}:{evs}:{','.join(map(str, row.multiplicities))}"


def k2_text(pairs) -> str:
    return ";".join(f"{omega.order}/{omega.exponent}:{k}" for omega, k in pairs)


def report_text(report) -> str:
    return "\n".join(row_text(row) for row in report.rows)


def table_text(table) -> str:
    from mtckit.dataio import format_expr

    return "\n".join(";".join(format_expr(v) for v in row) for row in table.values)


# ---------------------------------------------------------------------------
# CLI output parsing


def _turn(text: str) -> Fraction:
    """Angle, as a fraction of a turn, of a printed root of unity."""
    text = text.strip()
    if text in ("1", "-1"):
        return Fraction(0 if text == "1" else 1, 2)
    if text.startswith("E("):  # structured: E(n) or E(n)^k
        n, _, k = text[2:].partition(")")
        return Fraction(int(k[1:]) if k else 1, int(n)) % 1
    sign = Fraction(1, 2) if text.startswith("-") else Fraction(0)
    p, q = text.lstrip("-")[len("e^(i*pi*"):-1].split("/")
    return (sign + Fraction(int(p), 2 * int(q))) % 1


def parse_spectrum(out: str, fmt: str) -> list[tuple[str, list[Fraction], list[int]]]:
    """(label, eigenvalue turns, multiplicities) per row of a spectrum report."""
    rows = []
    lines = out.splitlines()
    if fmt == "structured":
        label = evs = None
        for line in lines:
            if line.startswith("row "):
                label = line[4:]
            elif line.startswith("  eigenvalues: "):
                evs = [_turn(t) for t in line[15:].split("; ")]
            elif line.startswith("  multiplicities: "):
                rows.append((label, evs, [int(t) for t in line[18:].split("; ")]))
        return rows
    for line in lines[3:]:
        label, evs, mults = (part.strip() for part in line.split(" | "))
        rows.append((label, [_turn(t) for t in evs[1:-1].split(", ")],
                     [int(t) for t in mults[1:-1].split(", ")]))
    return rows


def parse_indicator_values(out: str, fmt: str) -> list[list[str]]:
    if fmt == "structured":
        return [line[10:].split("; ") for line in out.splitlines() if line.startswith("  values: ")]
    rows = []
    for line in out.splitlines()[2:]:
        _, _, rest = line.partition(": ")
        rows.append(rest.split(", "))
    return rows


def parse_fusion(out: str, fmt: str) -> dict[tuple[str, str], dict[str, int]]:
    result = {}
    for line in out.splitlines():
        if fmt == "structured":
            if not line.startswith("fuse "):
                continue
            head, _, terms = line[5:].partition(": ")
            a, b = head.split(" ")
            ms = {}
            for term in filter(None, terms.split("; ")):
                label, _, mult = term.rpartition(":")
                ms[label] = int(mult)
        else:
            head, _, terms = line.partition(" = ")
            a, _, b = head.partition(" (x) ")
            ms = {}
            if terms != "0":
                for term in terms.split(" + "):
                    mult, star, label = term.partition("*")
                    ms[label if star else mult] = int(mult) if star else 1
        result[(a, b)] = ms
    return result


def validation_error(out: str, fmt: str) -> str | None:
    if fmt == "structured":
        lines = out.splitlines()
        ok = "ok: yes" in lines and all(
            line.endswith(": pass") or ": pass (" in line
            for line in lines if line.startswith("check ")
        )
    else:
        ok = bool(out.strip()) and all(line.startswith("pass ") for line in out.splitlines())
    return None if ok else "validation reported a failed relation"


# ---------------------------------------------------------------------------
# one CLI query


class CliChecker:
    """Checks cli-mix outputs against the identities, digests and golden file."""

    def __init__(self, inputs, expected: dict):
        self.inputs = inputs
        self.expected = expected
        self._centers: dict[str, object] = {}
        self._golden = GOLDEN.read_text() if GOLDEN.is_file() else None

    def _center(self, source: str):
        from mtckit.center import deligne_square

        if source not in self._centers:
            self._centers[source] = deligne_square(self.inputs.md[source], self.inputs.fr[source])
        return self._centers[source]

    def error(self, query, out: str) -> str | None:
        from mtckit.dataio import parse_expr

        want = self.expected.get(query.key())
        if want is not None and digest(out) != want:
            return "output digest differs from the recorded one"
        if query.slot == "golden":
            if self._golden is None:
                return f"golden file {GOLDEN} is missing"
            return None if out == self._golden else "differs from the golden x6 table"
        args = query.args
        opts = dict(zip(args, args[1:]))
        fmt = opts.get("--format", "table")
        md = self.inputs.md[query.source]
        fr = self.inputs.fr[query.source]
        kind = args[0]
        if kind == "validate":
            return validation_error(out, fmt)
        if kind == "fusion":
            return self._fusion_error(md, fr, args, parse_fusion(out, fmt))
        if kind == "indicators":
            m, l = int(opts["--m"]), int(opts["--l"])
            values = [[parse_expr(v) for v in row] for row in parse_indicator_values(out, fmt)]
            rng = random.Random(query.key())
            return indicator_sample_error(self._center(query.source), m, l, values, rng)
        rows = parse_spectrum(out, fmt)
        if not rows:
            return "no rows in the output"
        a = md.labels.index(opts["--object"])
        if kind == "rotation":
            n = int(opts["--n"])
            pairs = {f"({x},{y})": (i, j) for i, x in enumerate(md.labels) for j, y in enumerate(md.labels)}
            for label, turns, mults in rows:
                left, right = pairs[label]
                err = rotation_row_error(md, fr, left, right, a, n, turns, mults)
                if err:
                    return err
            return None
        base = [(md.labels.index(label), mults) for label, _, mults in rows]
        if kind == "braid":
            return braid_rows_error(fr, a, int(opts["--n"]), base)
        c = md.unit if "--braid-sigma" in args else md.dual[a]
        for b, mults in base:
            err = k2_error(fr, c, b, a, mults)
            if err:
                return err
        return None

    @staticmethod
    def _fusion_error(md, fr, args, got) -> str | None:
        objs = [args[i + 1] for i, a in enumerate(args) if a == "--object"]
        idx = [md.labels.index(o) for o in objs]
        r = md.rank
        if len(idx) == 1:
            pairs = [(idx[0], b) for b in range(r)]
        elif idx:
            pairs = [(idx[0], idx[1])]
        else:
            pairs = [(a, b) for a in range(r) for b in range(r)]
        if len(got) != len(pairs):
            return f"fusion printed {len(got)} products, expected {len(pairs)}"
        for a, b in pairs:
            want = {md.labels[c]: fr.table[c][a][b] for c in range(r) if fr.table[c][a][b]}
            if got.get((md.labels[a], md.labels[b])) != want:
                return f"fusion {md.labels[a]} (x) {md.labels[b]} differs from the ring"
        return None
