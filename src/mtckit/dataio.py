"""Text formats: the E(n) expression grammar, .mtc modular-data files,
structured report serialization, and the built-in fixture catalog.

Expression grammar (whitespace-insensitive):

    expr     := ['-'] term (('+'|'-') term)*
    term     := rational ('*' root)? | root
    root     := 'E(' posint ')' ('^' int)?
    rational := int ('/' posint)?

E(n) denotes exp(2*pi*i/n); a file denotes exact field elements, so no
float literals exist anywhere in the format.

.mtc files are line-based: `rank N`, `labels ...`, optional `unit LABEL`,
then `S:` followed by rank rows of rank comma-separated expressions, then
`T:` followed by one row of rank comma-separated expressions. Each directive
appears at most once. `#` starts a comment.
"""

from __future__ import annotations

from fractions import Fraction

from . import cyclo, modular_data
from .cyclo import Cyclotomic
from .fusion_ring import FusionRing
from .modular_data import MAX_DIGITS, ModularData, ValidationReport

__all__ = [
    "ExprSyntaxError",
    "FileFormatError",
    "ValidationFailedError",
    "parse_expr",
    "format_expr",
    "format_values",
    "parse_file",
    "format_modular_data",
    "catalog",
    "catalog_ring",
    "CATALOG_NAMES",
    "serialize_report",
]

format_expr = cyclo.format_expr


def format_values(rows) -> list[list[str]]:
    """format_expr of every value in rows; equal values are rendered once."""
    text: dict[Cyclotomic, str] = {}
    return [[text.get(v) or text.setdefault(v, format_expr(v)) for v in row] for row in rows]


class ExprSyntaxError(ValueError):
    """Bad expression text; carries the position and what was expected."""

    def __init__(self, text: str, pos: int, expected: str):
        self.pos = pos
        self.expected = expected
        super().__init__(f"at position {pos}: expected {expected} in {text!r}")


class FileFormatError(ValueError):
    """Structurally bad .mtc file; carries the line number when known."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        prefix = f"line {line_no}: " if line_no else ""
        super().__init__(prefix + message)


class ValidationFailedError(ValueError):
    """A parsed file fails the modular-data relations."""

    def __init__(self, report: ValidationReport):
        self.report = report
        parts = [
            c.name + (f" ({c.detail})" if c.detail else "") for c in report.failed()
        ]
        super().__init__(f"modular-data validation failed: {'; '.join(parts)}")


# ---------------------------------------------------------------------------
# expression parser


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise ExprSyntaxError(self.text, self.pos, f"'{ch}'")

    def integer(self, signed: bool = True) -> int:
        self.skip_ws()
        start = self.pos
        if signed and self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == digits:
            raise ExprSyntaxError(self.text, start, "an integer")
        if self.pos - digits > MAX_DIGITS:
            raise ExprSyntaxError(self.text, digits, f"an integer of at most {MAX_DIGITS} digits")
        return int(self.text[start : self.pos])


def _parse_root(sc: _Scanner) -> Cyclotomic:
    sc.expect("E")
    sc.expect("(")
    start = sc.pos
    n = sc.integer(signed=False)
    if n < 1:
        raise ExprSyntaxError(sc.text, start, "a root order >= 1")
    sc.expect(")")
    k = 1
    if sc.take("^"):
        k = sc.integer()
    return cyclo.root_of_unity(n, k)


def _parse_term(sc: _Scanner) -> Cyclotomic:
    if sc.peek() == "E":
        return _parse_root(sc)
    num = sc.integer()
    den = 1
    if sc.take("/"):
        start = sc.pos
        den = sc.integer(signed=False)
        if den < 1:
            raise ExprSyntaxError(sc.text, start, "a positive denominator")
    coeff = Fraction(num, den)
    if sc.take("*"):
        return _parse_root(sc) * coeff
    return cyclo.from_rational(coeff)


def parse_expr(text: str) -> Cyclotomic:
    """Parse an E(n) expression to an exact value; raises ExprSyntaxError."""
    sc = _Scanner(text)
    negate = sc.take("-")
    value = _parse_term(sc)
    if negate:
        value = -value
    while True:
        if sc.take("+"):
            value = value + _parse_term(sc)
        elif sc.take("-"):
            value = value - _parse_term(sc)
        else:
            break
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise ExprSyntaxError(sc.text, sc.pos, "'+', '-', or end of input")
    return value


# ---------------------------------------------------------------------------
# .mtc files


# Input bounds, checked before any entry is parsed: the work of validation and
# Verlinde grows like rank^4, and a text this long already holds rank-64 data
MAX_RANK = 64
MAX_TEXT_CHARS = 4 << 20


def parse_file(text: str) -> ModularData:
    """Parse and fully validate a .mtc modular-data file.

    Raises FileFormatError (structure, including a directive given twice, or a
    text longer than MAX_TEXT_CHARS or a rank above MAX_RANK, both refused before
    any entry is parsed),
    ExprSyntaxError (entries), ModularDataError (construction), or
    ValidationFailedError (relations).
    """
    if len(text) > MAX_TEXT_CHARS:
        raise FileFormatError(
            0, f"input of {len(text)} characters exceeds the limit of {MAX_TEXT_CHARS}"
        )
    rank: int | None = None
    labels: list[str] | None = None
    unit_token: str | None = None
    s_rows: list[list[Cyclotomic]] = []
    t_row: list[Cyclotomic] | None = None

    lines = text.splitlines()
    i = 0
    seen: dict[str, int] = {}  # directive -> its line

    def next_content_line() -> tuple[int, str] | None:
        nonlocal i
        while i < len(lines):
            raw = lines[i].split("#", 1)[0].strip()
            i += 1
            if raw:
                return i, raw
        return None

    def parse_row(line_no: int, raw: str, expected: int) -> list[Cyclotomic]:
        cells = raw.split(",")
        if len(cells) != expected:
            raise FileFormatError(
                line_no, f"expected {expected} comma-separated entries, got {len(cells)}"
            )
        out = []
        for cell in cells:
            try:
                out.append(parse_expr(cell))
            except ExprSyntaxError as exc:
                raise FileFormatError(line_no, f"bad expression {cell.strip()!r}: {exc}")
        return out

    while True:
        item = next_content_line()
        if item is None:
            break
        line_no, raw = item
        key, _, rest = raw.partition(" ")
        if key in seen:  # a second one would silently replace the first
            raise FileFormatError(line_no, f"directive {key!r} repeats the one on line {seen[key]}")
        seen[key] = line_no
        if key == "rank":
            try:
                rank = int(rest.strip())
            except ValueError:
                rank = 0
            if rank < 1:
                raise FileFormatError(line_no, f"bad rank {rest.strip()!r}")
            if rank > MAX_RANK:
                raise FileFormatError(line_no, f"rank {rank} exceeds the limit of {MAX_RANK}")
        elif key == "labels":
            labels = rest.split()
            for k, label in enumerate(labels, 1):
                if not label.isprintable():
                    raise FileFormatError(line_no, f"label {label!r} is not printable")
                # unit and --object read digits as a 1-based index: "1" is object 1
                if label.isdecimal() and label != str(k):
                    raise FileFormatError(line_no, f"digit label {label!r} is not its index {k}")
        elif key == "unit":
            unit_token = rest.strip()
        elif raw == "S:":
            if rank is None:
                raise FileFormatError(line_no, "rank must come before S:")
            for _ in range(rank):
                item = next_content_line()
                if item is None:
                    raise FileFormatError(line_no, f"S: needs {rank} rows")
                s_rows.append(parse_row(item[0], item[1], rank))
        elif raw == "T:":
            if rank is None:
                raise FileFormatError(line_no, "rank must come before T:")
            item = next_content_line()
            if item is None:
                raise FileFormatError(line_no, "T: needs one row of entries")
            t_row = parse_row(item[0], item[1], rank)
        else:
            raise FileFormatError(line_no, f"unrecognized directive {key!r}")

    if rank is None:
        raise FileFormatError(len(lines), "missing rank")
    if len(s_rows) != rank:
        raise FileFormatError(len(lines), f"S has {len(s_rows)} rows, expected {rank}")
    if t_row is None:
        raise FileFormatError(len(lines), "missing T:")
    if labels is None:
        labels = [str(k + 1) for k in range(rank)]
    if len(labels) != rank:
        raise FileFormatError(seen["labels"], f"{len(labels)} labels for rank {rank}")

    unit = None
    if unit_token is not None:
        if unit_token in labels:
            unit = labels.index(unit_token)
        elif unit_token.isdecimal() and len(unit_token) <= MAX_DIGITS \
                and 1 <= int(unit_token) <= rank:
            unit = int(unit_token) - 1
        else:
            raise FileFormatError(seen["unit"], f"unknown unit {unit_token!r}")

    md = modular_data.construct(labels, s_rows, t_row, unit=unit)
    if not md.report.ok:
        raise ValidationFailedError(md.report)
    return md


def format_modular_data(md: ModularData) -> str:
    """Serialize modular data back to .mtc text (canonical expressions)."""
    lines = [f"rank {md.rank}", "labels " + " ".join(md.labels), f"unit {md.labels[md.unit]}"]
    lines.append("S:")
    for row in md.s:
        lines.append(", ".join(format_expr(v) for v in row))
    lines.append("T:")
    lines.append(", ".join(cyclo.format_root(t) for t in md.theta))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# fixture catalog


CATALOG_NAMES = ("vec", "semion", "toric-code", "fibonacci", "haagerup-center")

_catalog_cache: dict[str, ModularData] = {}


def _legendre(k: int, p: int) -> int:
    t = pow(k, (p - 1) // 2, p)
    return -1 if t == p - 1 else t


def _sqrt13() -> Cyclotomic:
    # the quadratic Gauss sum: sum_k (k|13) zeta_13^k squares to 13
    return cyclo.root_sums((_legendre(k, 13) for k in range(1, 13)), (range(1, 13),), 13)[0]


def _build_vec() -> ModularData:
    return modular_data.construct(["1"], [[cyclo.ONE]], [cyclo.ONE])


def _build_semion() -> ModularData:
    inv_sqrt2 = cyclo.inverse(cyclo.zeta(8) + cyclo.root_of_unity(8, 7))
    s = [[inv_sqrt2, inv_sqrt2], [inv_sqrt2, -inv_sqrt2]]
    return modular_data.construct(["1", "s"], s, [cyclo.ONE, cyclo.zeta(4)])


def _build_toric() -> ModularData:
    half = Fraction(1, 2)
    signs = [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]
    s = [[cyclo.from_rational(half * v) for v in row] for row in signs]
    t = [cyclo.ONE, cyclo.ONE, cyclo.ONE, cyclo.from_rational(-1)]
    return modular_data.construct(["1", "e", "m", "f"], s, t)


def _build_fibonacci() -> ModularData:
    golden = -(cyclo.root_of_unity(5, 2) + cyclo.root_of_unity(5, 3))
    # sqrt(1 + golden^2) = 2 sin(2 pi / 5), positive
    sqrt_d = -cyclo.zeta(4) * (cyclo.zeta(5) - cyclo.root_of_unity(5, 4))
    s0 = cyclo.inverse(sqrt_d)
    s = [[s0, s0 * golden], [s0 * golden, -s0]]
    return modular_data.construct(["1", "tau"], s, [cyclo.ONE, cyclo.root_of_unity(5, 2)])


def _build_haagerup_center() -> ModularData:
    sqrt13 = _sqrt13()
    third = Fraction(1, 3)
    x = (13 - 3 * sqrt13) * Fraction(1, 26)
    y = sqrt13 * Fraction(3, 13)

    def c(j: int) -> Cyclotomic:
        return -y * (cyclo.root_of_unity(13, j) + cyclo.root_of_unity(13, 13 - j))

    one = cyclo.ONE
    cs = [None] + [c(j) for j in range(1, 7)]
    block = [
        [cs[1], cs[2], cs[3], cs[4], cs[5], cs[6]],
        [cs[2], cs[4], cs[6], cs[5], cs[3], cs[1]],
        [cs[3], cs[6], cs[4], cs[1], cs[2], cs[5]],
        [cs[4], cs[5], cs[1], cs[3], cs[6], cs[2]],
        [cs[5], cs[3], cs[2], cs[6], cs[1], cs[4]],
        [cs[6], cs[1], cs[5], cs[2], cs[4], cs[3]],
    ]
    top = [
        [x, 1 - x, one, one, one, one] + [y] * 6,
        [1 - x, x, one, one, one, one] + [-y] * 6,
        [one, one, 2 * one, -one, -one, -one] + [cyclo.ZERO] * 6,
        [one, one, -one, 2 * one, -one, -one] + [cyclo.ZERO] * 6,
        [one, one, -one, -one, -one, 2 * one] + [cyclo.ZERO] * 6,
        [one, one, -one, -one, 2 * one, -one] + [cyclo.ZERO] * 6,
    ]
    bottom = [[y, -y] + [cyclo.ZERO] * 4 + block[i] for i in range(6)]
    s = [[third * v for v in row] for row in top + bottom]
    t = [
        cyclo.ONE,
        cyclo.ONE,
        cyclo.ONE,
        cyclo.ONE,
        cyclo.zeta(3),
        cyclo.root_of_unity(3, 2),
        cyclo.root_of_unity(13, 6),
        cyclo.root_of_unity(13, 11),
        cyclo.root_of_unity(13, 2),
        cyclo.root_of_unity(13, 5),
        cyclo.root_of_unity(13, 7),
        cyclo.root_of_unity(13, 8),
    ]
    labels = [f"x{i}" for i in range(1, 13)]
    return modular_data.construct(labels, s, t)


_BUILDERS = {
    "vec": _build_vec,
    "semion": _build_semion,
    "toric-code": _build_toric,
    "fibonacci": _build_fibonacci,
    "haagerup-center": _build_haagerup_center,
}


def catalog(name: str) -> ModularData:
    """A built-in fixture, fully validated (relations and Verlinde integrality)."""
    md = _catalog_cache.get(name)
    if md is None:
        builder = _BUILDERS.get(name)
        if builder is None:
            raise KeyError(
                f"unknown catalog fixture {name!r}; available: {', '.join(CATALOG_NAMES)}"
            )
        md = builder()
        if not md.report.ok:
            raise ValidationFailedError(md.report)
        md.ring  # integrality is part of the load-time contract
        _catalog_cache[name] = md
    return md


def catalog_ring(name: str) -> FusionRing:
    """The fusion ring of a built-in fixture: catalog(name).ring."""
    return catalog(name).ring


# ---------------------------------------------------------------------------
# structured report serialization


def serialize_report(obj) -> str:
    """Deterministic key/value rendering for reports and tables.

    Eigenvalues and cyclotomic entries are canonical E(n)^k expressions, so
    payloads roundtrip through parse_expr; suitable for golden files.
    """
    from .indicators import IndicatorTable
    from .spectra import SpectrumReport

    lines = ["mtckit-report 1"]
    if isinstance(obj, SpectrumReport):
        lines.append(f"kind: {obj.kind}")
        if obj.source:
            lines.append(f"source: {obj.source}")
        for key, val in obj.params:
            lines.append(f"{key}: {val}")
        lines.append(f"rows: {len(obj.rows)}")
        for row in obj.rows:
            lines.append(f"row {row.label}")
            lines.append(
                "  eigenvalues: "
                + "; ".join(cyclo.format_root(ev) for ev in row.eigenvalues)
            )
            lines.append(
                "  multiplicities: " + "; ".join(str(m) for m in row.multiplicities)
            )
    elif isinstance(obj, IndicatorTable):
        lines.append("kind: indicator-table")
        lines.append(f"m: {obj.m}")
        lines.append(f"l: {obj.l}")
        lines.append("columns: " + " ".join(obj.col_labels))
        lines.append(f"rows: {len(obj.row_labels)}")
        for label, row in zip(obj.row_labels, format_values(obj.values)):
            lines.append(f"row {label}")
            lines.append("  values: " + "; ".join(row))
    elif isinstance(obj, ValidationReport):
        lines.append("kind: validation")
        lines.append(f"ok: {'yes' if obj.ok else 'no'}")
        for check in obj.checks:
            status = "pass" if check.passed else "FAIL"
            detail = f" ({check.detail})" if check.detail else ""
            lines.append(f"check {check.name}: {status}{detail}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return "\n".join(lines) + "\n"
