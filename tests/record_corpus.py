"""The golden CLI corpus: every subcommand on every fixture, in both formats,
and each documented failure, run in process.

tests/golden/corpus.json maps each argv (shlex-joined) to the sha256 of its
exit code, stdout and stderr; test_corpus.py checks that the CLI still gives
each of them. Re-record the file only on code whose output is known good:

    PYTHONPATH=src python tests/record_corpus.py

File inputs are written by write_inputs into the working directory, and
argv names them relatively, so no path enters an output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

import families
from mtckit import cli, dataio

CORPUS = Path(__file__).parent / "golden" / "corpus.json"

# (source, object) per fixture; the object's n = 1..6 rotations and braids are pinned
SOURCES = (
    ("catalog:vec", "1"),
    ("catalog:semion", "s"),
    ("catalog:toric-code", "e"),
    ("catalog:fibonacci", "tau"),
    ("catalog:haagerup-center", "x6"),
    ("relabeled.mtc", "y2"),
    ("product.mtc", "s.tau"),
)
INDICATOR_PAIRS = ((1, 0), (2, 1), (3, 2), (5, 3), (7, -2), (4, 2), (0, 1))
BRAID_SHAPES = ((2, 0, 0), (3, 1, 0), (3, 0, 1), (4, 1, 1))


def _semion_with(old: str, new: str) -> str:
    # semion's 8-line text: rank, labels, unit, S:, two S rows, T:, the T row
    text = dataio.format_modular_data(dataio.catalog("semion"))
    assert old in text
    return text.replace(old, new)


def inputs() -> dict[str, str]:
    """File name -> .mtc text of every file input the corpus reads."""
    toric = dataio.catalog("toric-code")
    semion, fibonacci = (dataio.catalog(name) for name in ("semion", "fibonacci"))
    return {
        "relabeled.mtc": dataio.format_modular_data(
            families.relabeled(toric, toric.ring, [1, 0, 3, 2])[0]),
        "product.mtc": dataio.format_modular_data(
            families.deligne_product((semion, semion.ring), (fibonacci, fibonacci.ring))[0]),
        # exit 1: toric-code with the twists of another theory
        "broken.mtc": dataio.format_modular_data(toric).replace(
            "T:\n1, 1, 1, -1", "T:\n1, -1, -1, 1"),
        # exit 3: rank-2 data that passes every relation, with N^x_(x,x) = 2/sqrt(3)
        "nonintegral.mtc": "rank 2\nlabels 1 x\nS:\n1/2, 1/2*E(12) + 1/2*E(12)^11\n"
                           "1/2*E(12) + 1/2*E(12)^11, -1/2\nT:\n1, -1\n",
        # exit 2
        "syntax.mtc": "rank 1\nS:\n1//\nT:\n1\n",
        "rank0.mtc": "rank 0\nS:\n1\nT:\n1\n",
        "rank65.mtc": f"rank {dataio.MAX_RANK + 1}\nS:\nnot an entry\nT:\n1\n",
        "twice.mtc": _semion_with("T:\n1, E(4)\n", "T:\n1, E(4)\nT:\n1, -E(4)\n"),
        "unit5.mtc": _semion_with("unit 1\n", "unit 5\n"),
        "labels3.mtc": _semion_with("labels 1 s\n", "labels 1 s x\n"),
        "nul.mtc": _semion_with("labels 1 s\n", "labels a\x00 s\n"),
        "longint.mtc": _semion_with("T:\n1, ", "T:\n" + "1" * 5000 + "/" + "1" * 5000 + ", "),
        # a superscript digit passes str.isdigit() but not int()
        "superscript.mtc": _semion_with("S:\n1/2*E(8) - 1/2*E(8)^3, ", "S:\n\u00b2, "),
        "unit2sup.mtc": _semion_with("unit 1\n", "unit \u00b2\n"),
        # an index longer than int() converts
        "unitlong.mtc": _semion_with("unit 1\n", "unit " + "1" * 5000 + "\n"),
        # the digit label "1" is not the first object, so "unit 1" would be ambiguous
        "shadow.mtc": _semion_with("labels 1 s\n", "labels s 1\n"),
    }


def write_inputs(directory: Path) -> None:
    for name, text in inputs().items():
        (directory / name).write_text(text, encoding="utf-8")


def corpus_argvs() -> list[list[str]]:
    runs = []
    for source, obj in SOURCES:
        runs += [["validate", source], ["fusion", source], ["fusion", source, "--object", obj],
                 ["fusion", source, "--object", obj, "--object", obj]]
        runs += [["indicators", source, "--m", str(m), "--l", str(l)] for m, l in INDICATOR_PAIRS]
        runs += [["rotation", source, "--object", obj, "--n", str(n)] for n in range(1, 7)]
        for n, l, m in BRAID_SHAPES:
            argv = ["braid", source, "--object", obj, "--n", str(n), "--l", str(l), "--m", str(m)]
            runs += [argv, argv + ["--under"]]
        runs += [["report", source, "--braid-sigma", "--object", obj],
                 ["report", source, "--braid-sigma-triple", "--object", obj]]
    runs += [
        ["rotation", "catalog:haagerup-center", "--object", "x6", "--n", "30"],
        ["rotation", "catalog:haagerup-center", "--object", "x6", "--n", "3", "--b", "x2,x6"],
        # exit 1
        ["validate", "broken.mtc"],
        # exit 2
        ["validate", "catalog:ising"],
        ["validate", "no/such/file.mtc"],
        *(["validate", name] for name in (
            "syntax.mtc", "rank0.mtc", "rank65.mtc", "twice.mtc", "unit5.mtc", "labels3.mtc",
            "nul.mtc", "longint.mtc", "superscript.mtc", "unit2sup.mtc", "shadow.mtc",
            "unitlong.mtc")),
        ["fusion", "nul.mtc"],
        ["fusion", "catalog:semion", "--object", "s", "--object", "1", "--object", "s"],
        ["fusion", "catalog:semion", "--object", "7"],
        ["fusion", "catalog:semion", "--object", "1" * 5000],
        ["rotation", "catalog:semion", "--object", "\u00b2", "--n", "2"],
        ["report", "catalog:vec", "--braid-sigma", "--object", "zz"],
        ["rotation", "catalog:semion", "--object", "s", "--n", "2", "--b", "s"],
        ["rotation", "catalog:semion", "--object", "s", "--n", "2", "--b", "s,q"],
        ["rotation", "catalog:semion", "--object", "s", "--n", "3000"],
        ["braid", "catalog:vec", "--object", "1", "--n", "2", "--l", "1", "--m", "1"],
        ["braid", "catalog:fibonacci", "--object", "tau", "--n", "1000000000",
         "--l", "999999999"],
        ["indicators", "catalog:semion", "--m", "2", "--l", "99999999999"],
        # exit 3
        ["fusion", "nonintegral.mtc"],
        ["rotation", "nonintegral.mtc", "--object", "x", "--n", "2"],
    ]
    return [argv + fmt for argv in runs for fmt in ([], ["--format", "structured"])]


def digest(argv: list[str]) -> str:
    """sha256 of the exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


def record() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            write_inputs(Path(tmp))
            return {shlex.join(argv): digest(argv) for argv in corpus_argvs()}
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    corpus = record()
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(corpus)} runs to {CORPUS}", file=sys.stderr)
