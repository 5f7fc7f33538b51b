import random
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from mtckit import cyclo, dataio
from mtckit.dataio import (
    CATALOG_NAMES,
    ExprSyntaxError,
    MAX_DIGITS,
    FileFormatError,
    ValidationFailedError,
    catalog,
    catalog_ring,
    format_expr,
    format_modular_data,
    parse_expr,
    parse_file,
    serialize_report,
)
from mtckit.modular_data import derive_invariants, validate

GOLDEN = Path(__file__).parent / "golden"

TORIC_MTC = """\
# Drinfel'd double of Z/2
rank 4
labels 1 e m f
unit 1
S:
1/2, 1/2, 1/2, 1/2
1/2, 1/2, -1/2, -1/2
1/2, -1/2, 1/2, -1/2
1/2, -1/2, -1/2, 1/2
T:
1, 1, 1, -1
"""


class TestParseExpr:
    def test_basic_root(self):
        assert parse_expr("E(4)") == cyclo.zeta(4)

    def test_compound(self):
        want = Fraction(1, 3) * cyclo.root_of_unity(13, 2) - cyclo.root_of_unity(13, 11)
        assert parse_expr("1/3*E(13)^2 - E(13)^11") == want

    def test_whitespace_insensitive(self):
        assert parse_expr(" 1/3 * E( 13 )^2-E(13)^11 ") == parse_expr(
            "1/3*E(13)^2 - E(13)^11"
        )

    def test_leading_negative_root(self):
        assert parse_expr("-E(5)") == -cyclo.zeta(5)
        assert parse_expr("-1/2") == Fraction(-1, 2)

    def test_negative_exponent(self):
        assert parse_expr("E(5)^-1") == cyclo.zeta(5) ** 4

    def test_e_zero_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("E(0)")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("1/3*")
        assert info.value.pos == 4
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("E(4) + + 1")
        assert "expected" in str(info.value)

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("E(4) E(4)")

    def test_gauss_sum_encoding(self):
        text = " + ".join(
            f"E(13)^{k}" if oracles.legendre(k, 13) == 1 else f"-E(13)^{k}"
            for k in range(1, 13)
        ).replace("+ -", "- ")
        val = parse_expr(text)
        assert val * val == 13


class TestRoundtrip:
    def test_random_values(self):
        rng = random.Random(71)
        for _ in range(60):
            n = rng.choice([1, 3, 4, 5, 8, 12, 13, 36, 100])
            x = cyclo.ZERO
            for j in range(cyclo.euler_phi(n)):
                if rng.random() < 0.5:
                    x = x + Fraction(rng.randint(-9, 9), rng.randint(1, 6)) * cyclo.root_of_unity(n, j)
            assert parse_expr(format_expr(x)) == x

    def test_print_is_stable(self):
        x = parse_expr("1/3*E(13)^2 - E(13)^11")
        assert format_expr(parse_expr(format_expr(x))) == format_expr(x)

    def test_haagerup_entries_roundtrip(self, fixture_data):
        md, _ = fixture_data["haagerup-center"]
        for row in md.s:
            for v in row:
                assert parse_expr(format_expr(v)) == v


class TestParseFile:
    def test_vec(self):
        md = parse_file("rank 1\nS:\n1\nT:\n1\n")
        assert md.rank == 1 and md.labels == ("1",)

    def test_toric_literal(self, fixture_data):
        md = parse_file(TORIC_MTC)
        want, _ = fixture_data["toric-code"]
        assert md == want

    def test_haagerup_roundtrip_value_for_value(self, fixture_data):
        want, _ = fixture_data["haagerup-center"]
        md = parse_file(format_modular_data(want))
        assert md.labels == want.labels and md.unit == want.unit
        assert md.s == want.s and md.theta == want.theta

    def test_dimension_mismatch(self):
        with pytest.raises(FileFormatError):
            parse_file("rank 2\nS:\n1, 0\n0, 1, 0\nT:\n1, 1\n")

    def test_missing_rank(self):
        with pytest.raises(FileFormatError):
            parse_file("S:\n1\nT:\n1\n")

    def test_bad_expression_names_line(self):
        with pytest.raises(FileFormatError) as info:
            parse_file("rank 1\nS:\n1//2\nT:\n1\n")
        assert info.value.line_no == 3

    def test_validation_failure_is_distinct(self, fixture_data):
        md, _ = fixture_data["toric-code"]
        text = format_modular_data(md)
        # two fermions make the Gauss sum vanish: construction still succeeds
        # but (ST)^3 = xi S^2 cannot hold
        bad = text.replace("T:\n1, 1, 1, -1", "T:\n1, -1, -1, 1")
        with pytest.raises(ValidationFailedError) as info:
            parse_file(bad)
        assert any(not c.passed for c in info.value.report.checks)

    @pytest.mark.parametrize("rank", ("0", "-2"))
    def test_rank_below_one_is_refused_at_its_line(self, rank):
        with pytest.raises(FileFormatError, match=f"bad rank '{rank}'") as info:
            parse_file(f"# a comment\nrank {rank}\nS:\n1\nT:\n1\n")
        assert info.value.line_no == 2

    def test_unknown_directive(self):
        with pytest.raises(FileFormatError):
            parse_file("rang 1\nS:\n1\nT:\n1\n")

    @pytest.mark.parametrize("directive, extra", (
        ("rank", "rank 2"),
        ("labels", "labels a b"),
        ("unit", "unit 1"),
        ("S:", "S:\n1, 1\n1, -1"),
        # a second T: used to win: these are the anti-semion twists
        ("T:", "T:\n1, -E(4)"),
    ))
    def test_repeated_directive_is_refused_at_its_line(self, fixture_data, directive, extra):
        text = format_modular_data(fixture_data["semion"][0])  # one line per directive
        first = text.splitlines().index(next(
            line for line in text.splitlines() if line.partition(" ")[0] == directive)) + 1
        lines = text.count("\n")
        with pytest.raises(FileFormatError) as info:
            parse_file(text + extra + "\n")
        assert info.value.line_no == lines + 1
        assert str(info.value) == (
            f"line {lines + 1}: directive {directive!r} repeats the one on line {first}")

    @pytest.mark.parametrize("old, new, message", (
        ("unit 1\n", "unit 5\n", "line 3: unknown unit '5'"),
        ("labels 1 s\n", "labels 1 s x\n", "line 2: 3 labels for rank 2"),
        # a superscript digit passes str.isdigit() but int() refuses it
        ("unit 1\n", "unit \u00b2\n", "line 3: unknown unit '\u00b2'"),
        # "1" would name the second object here, and "unit 1" the first
        ("labels 1 s\n", "labels s 1\n", "line 2: digit label '1' is not its index 2"),
    ))
    def test_a_bad_unit_or_label_count_names_its_directive(self, fixture_data, old, new, message):
        # semion's 8-line text: the error used to name its last line
        text = format_modular_data(fixture_data["semion"][0])
        with pytest.raises(FileFormatError) as info:
            parse_file(text.replace(old, new))
        assert str(info.value) == message

    @pytest.mark.parametrize("label", ("a\x00", "\x1bx", "s\x7f"))
    def test_a_label_with_a_control_character_is_refused(self, fixture_data, label):
        text = format_modular_data(fixture_data["semion"][0])
        with pytest.raises(FileFormatError) as info:
            parse_file(text.replace("labels 1 s\n", f"labels {label} s\n"))
        assert str(info.value) == f"line 2: label {label!r} is not printable"

    def test_a_unit_index_longer_than_int_converts_is_an_unknown_unit(self, fixture_data):
        # the longest index int() converts parses; one digit more is refused before int()
        text = format_modular_data(fixture_data["semion"][0])
        md = parse_file(text.replace("unit 1\n", "unit " + "0" * (MAX_DIGITS - 1) + "1\n"))
        assert md.unit == 0
        token = "0" * MAX_DIGITS + "1"
        with pytest.raises(FileFormatError) as info:
            parse_file(text.replace("unit 1\n", f"unit {token}\n"))
        assert str(info.value) == f"line 3: unknown unit {token!r}"

    def test_digit_labels_that_are_their_own_index_parse(self, fixture_data):
        md = parse_file(format_modular_data(fixture_data["semion"][0]).replace(
            "labels 1 s\n", "labels 1 2\n"))
        assert md.labels == ("1", "2") and md.index_of("2") == 1

    def test_a_superscript_digit_is_an_expression_error_on_its_line(self, fixture_data):
        text = format_modular_data(fixture_data["semion"][0])
        with pytest.raises(FileFormatError) as info:
            parse_file(text.replace("S:\n1/2*E(8) - 1/2*E(8)^3, ", "S:\n\u00b2, "))
        assert info.value.line_no == 5
        with pytest.raises(ExprSyntaxError, match="at position 2: expected an integer"):
            parse_expr("E(\u00b2)")

    def test_an_over_long_integer_names_its_line(self, fixture_data):
        text = format_modular_data(fixture_data["semion"][0])
        at_limit = "1" * dataio.MAX_DIGITS
        md = parse_file(text.replace("T:\n1, ", f"T:\n{at_limit}/{at_limit}, "))
        assert md.theta == fixture_data["semion"][0].theta
        over = at_limit + "1"
        with pytest.raises(FileFormatError) as info:
            parse_file(text.replace("T:\n1, ", f"T:\n{over}, "))
        assert info.value.line_no == 8
        assert str(info.value).endswith(
            f"at position 0: expected an integer of at most {dataio.MAX_DIGITS} digits "
            f"in {over!r}")
        with pytest.raises(ExprSyntaxError, match="at position 2: expected an integer of at most"):
            parse_expr(f"1/{over}")


class TestCatalog:
    def test_names(self):
        assert set(CATALOG_NAMES) == {
            "vec", "semion", "toric-code", "fibonacci", "haagerup-center",
        }

    def test_unknown(self):
        with pytest.raises(KeyError):
            catalog("ising")

    def test_every_fixture_validates_and_is_integral(self):
        for name in CATALOG_NAMES:
            md = catalog(name)
            assert validate(md).ok, name
            catalog_ring(name)  # would raise ModularityError if not integral

    def test_the_ring_is_kept_on_the_data(self):
        for name in CATALOG_NAMES:
            md = catalog(name)
            assert md.ring is md.ring, name
            assert catalog_ring(name) is md.ring, name

    def test_vec_and_fibonacci_shapes(self):
        assert catalog("vec").rank == 1
        fib = catalog("fibonacci")
        assert fib.rank == 2
        assert fib.theta[fib.index_of("tau")] == cyclo.RootOfUnity(5, 2)

    def test_haagerup_conductor(self):
        md = catalog("haagerup-center")
        assert md.rank == 12
        assert derive_invariants(md).conductor == 39

    def test_haagerup_floats_match_closed_forms(self, fixture_data):
        md, _ = fixture_data["haagerup-center"]
        want = oracles.haagerup_s_float()
        for i in range(12):
            for j in range(12):
                got = md.s[i][j].to_complex()
                assert abs(got.imag) < 1e-9
                assert abs(got.real - want[i][j]) < 1e-9, (i, j)


class TestSerializeReport:
    def test_haagerup_sigma_golden(self, fixture_data):
        from mtckit import spectra

        md, _ = fixture_data["haagerup-center"]
        rep = spectra.braid_jm_spectrum(md, md.index_of("x6"), 2, 0, 0)  # sigma_i
        rep = spectra.SpectrumReport(
            kind="braid-sigma", source="catalog:haagerup-center",
            params=(("object", "x6"),), rows=rep.rows,
        )
        assert serialize_report(rep) == (GOLDEN / "haagerup_sigma_x6.txt").read_text()

    def test_empty_report(self):
        from mtckit.spectra import SpectrumReport

        rep = SpectrumReport(kind="rotation", source="", params=(), rows=())
        text = serialize_report(rep)
        assert text.startswith("mtckit-report 1\n")
        assert "rows: 0" in text

    def test_indicator_table(self, fixture_centers):
        from mtckit.indicators import gfs_matrix

        table = gfs_matrix(fixture_centers["semion"], 2, 1)
        text = serialize_report(table)
        assert "kind: indicator-table" in text
        for line in text.splitlines():
            if line.startswith("  values: "):
                for token in line.split(": ", 1)[1].split("; "):
                    parse_expr(token)

    def test_formatting_a_table_constructs_no_descent_error(self, fixture_data, monkeypatch):
        # a fresh center, so no value has met reduced() before
        from mtckit.center import deligne_square
        from mtckit.indicators import gfs_matrix

        table = gfs_matrix(deligne_square(*fixture_data["haagerup-center"]), 5, 2)
        made = []
        original = cyclo.DescentError.__init__

        def counting(self, *args):
            made.append(args)
            original(self, *args)

        monkeypatch.setattr(cyclo.DescentError, "__init__", counting)
        text = serialize_report(table)
        assert text.count("\n  values: ") == 144
        assert made == []

    def test_a_table_renders_each_distinct_value_once(self, fixture_data, monkeypatch, capsys):
        from mtckit import cli
        from mtckit.center import deligne_square
        from mtckit.indicators import gfs_matrix

        table = gfs_matrix(deligne_square(*fixture_data["haagerup-center"]), 7, -2)
        distinct = len({v for row in table.values for v in row})
        rendered = []

        def counting(x):
            rendered.append(x)
            return format_expr(x)

        monkeypatch.setattr(dataio, "format_expr", counting)
        text = serialize_report(table)
        assert len(rendered) == distinct < 40
        assert text.count("\n  values: ") == 144
        rendered.clear()
        assert cli.main(["indicators", "catalog:haagerup-center", "--m", "7", "--l", "-2"]) == 0
        assert len(rendered) == distinct
        assert capsys.readouterr().out.count("\n(") == 144
        # equal values in other representations are one value and one text
        one = cyclo.from_rational(1)
        rendered.clear()
        assert dataio.format_values([[one, one.embedded(8)], [cyclo.ZERO, one]]) == [
            ["1", "1"], ["0", "1"]]
        assert len(rendered) == 2

    def test_validation_report(self, fixture_data):
        md, _ = fixture_data["vec"]
        text = serialize_report(validate(md))
        assert "kind: validation" in text and "ok: yes" in text

    def test_unknown_type(self):
        with pytest.raises(TypeError):
            serialize_report(42)
