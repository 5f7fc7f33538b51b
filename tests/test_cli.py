import os
import subprocess
import sys
from pathlib import Path

import pytest

from mtckit import cli

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_vec(capsys):
    code, out, _ = run(capsys, "validate", "catalog:vec")
    assert code == 0
    assert "pass  S unitary" in out


def test_validate_structured_schema(capsys):
    code, out, _ = run(capsys, "validate", "catalog:toric-code", "--format", "structured")
    assert code == 0
    assert out.startswith("mtckit-report 1\nkind: validation\nok: yes\n")


def test_report_haagerup_sigma_x6(capsys):
    code, out, _ = run(
        capsys, "report", "catalog:haagerup-center", "--braid-sigma", "--object", "x6"
    )
    assert code == 0
    assert "x6     | (e^(i*pi*1/3), -e^(i*pi*1/3))     | (0, 2)" in out
    assert "x10    | (e^(i*pi*2/39), -e^(i*pi*2/39))   | (0, 1)" in out
    assert out.count("\n") == 15  # title + header + rule + 12 rows


def test_report_structured_matches_golden(capsys):
    code, out, _ = run(
        capsys,
        "report", "catalog:haagerup-center", "--braid-sigma", "--object", "x6",
        "--format", "structured",
    )
    assert code == 0
    assert out == (GOLDEN / "haagerup_sigma_x6.txt").read_text()


def test_byte_determinism(capsys):
    args = ("report", "catalog:toric-code", "--braid-sigma-triple", "--object", "f")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_object_by_index_matches_label(capsys):
    _, by_label, _ = run(capsys, "report", "catalog:haagerup-center", "--braid-sigma", "--object", "x6")
    _, by_index, _ = run(capsys, "report", "catalog:haagerup-center", "--braid-sigma", "--object", "6")
    assert by_label == by_index


def test_fusion_pair(capsys):
    code, out, _ = run(capsys, "fusion", "catalog:toric-code", "--object", "e", "--object", "m")
    assert code == 0
    assert out == "e (x) m = f\n"


def test_fusion_rejects_a_third_object(capsys):
    code, out, err = run(
        capsys, "fusion", "catalog:semion", "--object", "s", "--object", "1", "--object", "s"
    )
    assert code == 2
    assert out == ""
    assert err == "error: fusion takes at most two --object, got 3\n"


def test_fusion_full_table_structured(capsys):
    code, out, _ = run(capsys, "fusion", "catalog:semion", "--format", "structured")
    assert code == 0
    assert out.startswith("mtckit-report 1\nkind: fusion\n")
    assert "fuse s s: 1:1" in out


def test_fusion_haagerup_x6(capsys):
    code, out, _ = run(capsys, "fusion", "catalog:haagerup-center", "--object", "x6", "--object", "x6")
    assert code == 0
    assert out == "x6 (x) x6 = x1 + 2*x2 + x3 + x4 + x5 + 2*x6 + x7 + x8 + x9 + x10 + x11 + x12\n"


def test_indicators_table(capsys):
    code, out, _ = run(capsys, "indicators", "catalog:semion", "--m", "2", "--l", "1")
    assert code == 0
    assert "(1,1): 1, -1" in out


def test_indicators_structured(capsys):
    code, out, _ = run(
        capsys, "indicators", "catalog:toric-code", "--m", "1", "--l", "0",
        "--format", "structured",
    )
    assert code == 0
    assert out.startswith("mtckit-report 1\nkind: indicator-table\n")


def test_rotation_single_row(capsys):
    code, out, _ = run(
        capsys, "rotation", "catalog:toric-code", "--object", "e", "--n", "2",
        "--b", "1,1",
    )
    assert code == 0
    assert "(1, -1)" in out and "(1, 0)" in out


def test_rotation_all_rows_structured(capsys):
    code, out, _ = run(
        capsys, "rotation", "catalog:semion", "--object", "s", "--n", "2",
        "--format", "structured",
    )
    assert code == 0
    assert out.startswith("mtckit-report 1\nkind: rotation\n")
    assert "rows: 4" in out


def test_braid_toric(capsys):
    code, out, _ = run(capsys, "braid", "catalog:toric-code", "--object", "e", "--n", "2")
    assert code == 0
    assert "braid-jm" in out
    # one eigenvalue with multiplicity 1 on the unit row, zero rows elsewhere
    assert "1      | (1, -1)" in out


def test_braid_under_flag(capsys):
    code_over, over, _ = run(capsys, "braid", "catalog:semion", "--object", "s", "--n", "2")
    code_under, under, _ = run(
        capsys, "braid", "catalog:semion", "--object", "s", "--n", "2", "--under"
    )
    assert code_over == code_under == 0
    assert over != under


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, _ = run(
        capsys, "validate", "catalog:vec", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert "pass  S unitary" in target.read_text()


def test_unknown_catalog_is_usage_error(capsys):
    code, _, err = run(capsys, "validate", "catalog:ising")
    assert code == 2
    assert "unknown catalog" in err


def test_bad_file_syntax_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.mtc"
    path.write_text("rank 1\nS:\n1//\nT:\n1\n")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2


def test_failing_relations_exit_one(tmp_path, capsys):
    from mtckit import dataio

    md = dataio.catalog("toric-code")
    text = dataio.format_modular_data(md).replace("T:\n1, 1, 1, -1", "T:\n1, -1, -1, 1")
    path = tmp_path / "broken.mtc"
    path.write_text(text)
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "validation failed" in err


@pytest.mark.parametrize("rank", ("0", "-2"))
def test_rank_below_one_is_usage_error(tmp_path, capsys, rank):
    path = tmp_path / "bad.mtc"
    path.write_text(f"rank {rank}\nS:\n1\nT:\n1\n")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out, err) == (2, "", f"error: line 1: bad rank '{rank}'\n")


def test_repeated_directive_is_usage_error(tmp_path, capsys):
    # a second T: section would turn the semion into the anti-semion
    from mtckit import dataio

    text = dataio.format_modular_data(dataio.catalog("semion"))
    path = tmp_path / "twice.mtc"
    path.write_text(text + "T:\n1, -E(4)\n")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out, err) == (2, "", "error: line 9: directive 'T:' repeats the one on line 7\n")


def test_rank_above_the_bound_is_usage_error(tmp_path, capsys):
    # refused at the rank line, before any S entry is parsed (these are not even valid)
    from mtckit import dataio

    path = tmp_path / "big.mtc"
    path.write_text(f"rank {dataio.MAX_RANK + 1}\nS:\nnot an entry\nT:\n1\n")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out, err) == (
        2, "", f"error: line 1: rank {dataio.MAX_RANK + 1} exceeds the limit of {dataio.MAX_RANK}\n"
    )


def test_text_above_the_bound_is_usage_error(tmp_path, capsys):
    # a valid vec file padded by a comment past the bound is refused before parsing
    from mtckit import dataio

    text = "rank 1\nS:\n1\nT:\n1\n"
    text += "#" * (dataio.MAX_TEXT_CHARS + 1 - len(text)) + "\n"
    path = tmp_path / "long.mtc"
    path.write_text(text)
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out, err) == (
        2, "", f"error: input of {len(text)} characters exceeds the limit of {dataio.MAX_TEXT_CHARS}\n"
    )
    path.write_text(text[: dataio.MAX_TEXT_CHARS - 1] + "\n")  # at the bound it is read
    assert run(capsys, "validate", str(path))[0] == 0


def test_off_field_indicator_value_exits_three(tmp_path, capsys, monkeypatch):
    # a nu_{n,1} value off Q(zeta_n) fails its trace entry's subfield check, at n = 3
    # and at n = 2, where the entry is rational, and so does an off-Q nu_{2,1} of a
    # braid generator's K^2 pair; the data is read from a file, so the catalog's
    # center keeps no patched entry
    from mtckit import cyclo, dataio, spectra

    direct = spectra.nu_direct
    path = tmp_path / "fib.mtc"
    path.write_text(dataio.format_modular_data(dataio.catalog("fibonacci")))
    monkeypatch.setattr(spectra, "nu_direct", lambda *args: direct(*args) + cyclo.zeta(7))
    for argv, field in (
        (("rotation", "--object", "tau", "--n", "3"), "Q(zeta_3)"),
        (("rotation", "--object", "tau", "--n", "2"), "Q(zeta_2)"),
        (("report", "--braid-sigma", "--object", "tau"), "Q(zeta_2)"),
    ):
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (3, ""), argv
        assert err.startswith("error: value of order ") and f"does not descend to {field}" in err


def test_over_long_integer_is_usage_error(tmp_path, capsys):
    # CPython's own int() limit used to escape the file error, losing the line
    from mtckit import dataio

    text = dataio.format_modular_data(dataio.catalog("semion"))
    path = tmp_path / "long.mtc"
    path.write_text(text.replace("T:\n1, ", "T:\n" + "1" * 5000 + ", "))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: line 8: bad expression '111") and err.count("\n") == 1
    assert f"expected an integer of at most {dataio.MAX_DIGITS} digits" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "validate", "no/such/file.mtc")
    assert code == 2


def test_bad_braid_params(capsys):
    code, _, err = run(
        capsys, "braid", "catalog:vec", "--object", "1", "--n", "2", "--l", "1", "--m", "1"
    )
    assert code == 2


def test_unknown_object(capsys):
    # an object argument that names nothing is a usage error
    for argv, message in (
        (("report", "catalog:vec", "--braid-sigma", "--object", "zz"),
         "unknown object 'zz'; labels are 1"),
        (("rotation", "catalog:semion", "--object", "s", "--n", "2", "--b", "s"),
         "--b takes a center simple as 'left,right', got 's'"),
        (("rotation", "catalog:semion", "--object", "s", "--n", "2", "--b", "s,q"),
         "unknown object 'q'"),
        (("fusion", "catalog:semion", "--object", "7"), "object index 7 out of range 1..2"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and message in err, err


def test_bad_max_order_setting_is_usage_error():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, MTCKIT_MAX_ORDER="abc")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "mtckit.cli", "validate", "catalog:semion"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: MTCKIT_MAX_ORDER must be a positive integer, got 'abc'\n"


@pytest.mark.parametrize(
    "argv, order",
    [
        (("rotation", "catalog:haagerup-center", "--object", "x2", "--n", "100000"), 100000),
        (("rotation", "catalog:semion", "--object", "s", "--n", "100000", "--b", "1,1"), 100000),
        (("braid", "catalog:haagerup-center", "--object", "x2", "--n", "100000", "--l", "1"), 99999),
        # row 1 (q = 4) is over the limit while row 0 (q = 1) is not: every
        # row is checked before row 0's minutes of work
        (("rotation", "catalog:semion", "--object", "s", "--n", "3000"), 12000),
    ],
)
def test_huge_n_is_refused_before_any_tensor_power(argv, order):
    # the candidate eigenvalues need Q(zeta_{n q}); without the up-front
    # check a huge n first builds tensor powers for minutes
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env.pop("MTCKIT_MAX_ORDER", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "mtckit.cli", *argv],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: cyclotomic order {order} exceeds the configured limit 10000\n"


def test_huge_tensor_power_is_refused_at_once():
    # n - (l + m) = 1 passes the order check, but a^(l + m) would take 10^9 fusion steps
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env.pop("MTCKIT_MAX_ORDER", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "mtckit.cli", "braid", "catalog:fibonacci", "--object", "tau",
         "--n", "1000000000", "--l", "999999999"],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: tensor power 999999999 exceeds the configured limit 10000\n"


def test_huge_word_is_refused_before_it_is_spelled():
    # (1,0) g^-1 = (2, 99999999999) needs a word of about 5 * 10^10 t tokens:
    # they are counted from the Euclidean quotients and refused before any is
    # spelled. The child runs under a 1 GiB address-space cap, so code that
    # spells them fails at once with a MemoryError traceback (exit 1) instead
    # of exhausting the machine's memory.
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env.pop("MTCKIT_MAX_ORDER", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "mtckit.cli", "indicators", "catalog:semion",
         "--m", "2", "--l", "99999999999"],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=cap,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: SL2(Z) word of 50000000002 tokens exceeds the configured limit 10000\n"
    )


@pytest.mark.parametrize("from_file", (False, True))
def test_validate_reuses_the_load_report(tmp_path, capsys, monkeypatch, from_file):
    from mtckit import dataio, modular_data

    source = "catalog:fibonacci"
    if from_file:
        source = str(tmp_path / "fib.mtc")
        Path(source).write_text(dataio.format_modular_data(dataio.catalog("fibonacci")))
    else:
        # load the fixture inside the query
        monkeypatch.delitem(dataio._catalog_cache, "fibonacci", raising=False)
    calls = []
    original = modular_data.validate

    def counting(md):
        calls.append(md)
        return original(md)

    monkeypatch.setattr(modular_data, "validate", counting)
    code, out, _ = run(capsys, "validate", source)
    assert code == 0
    assert "pass  S unitary" in out
    assert len(calls) == 1


@pytest.mark.parametrize("command", (["fusion"], ["indicators", "--m", "2", "--l", "1"]))
def test_a_file_run_builds_one_ring(tmp_path, capsys, monkeypatch, command):
    # the ring of file data is md.ring, built once whether or not a center needs it
    from mtckit import dataio, fusion_ring

    path = tmp_path / "fib.mtc"
    path.write_text(dataio.format_modular_data(dataio.catalog("fibonacci")))
    calls = []
    original = fusion_ring.verlinde

    def counting(md):
        calls.append(md)
        return original(md)

    monkeypatch.setattr(fusion_ring, "verlinde", counting)
    code, _, _ = run(capsys, command[0], str(path), *command[1:])
    assert code == 0
    assert len(calls) == 1
