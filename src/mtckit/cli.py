"""Command-line interface.

Subcommands: validate, fusion, indicators, rotation, braid, report. Input
is either ``catalog:<name>`` or a path to a .mtc file. Exit codes: 0
success, 1 validation failure, 2 parse/usage error, 3 integrality or
consistency error. Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import cyclo, dataio, fusion_ring, indicators, spectra
from .center import ConsistencyError, center_for
from .cyclo import CycloDomainError
from .dataio import ExprSyntaxError, FileFormatError, ValidationFailedError
from .fusion_ring import ModularityError
from .modular_data import ModularData, ModularDataError
from .spectra import IntegralityError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_INTEGRALITY = 3


def _load_source(source: str) -> tuple[ModularData, str]:
    if source.startswith("catalog:"):
        name = source[len("catalog:") :]
        try:
            return dataio.catalog(name), source
        except KeyError as exc:
            raise FileFormatError(0, str(exc.args[0]))
    with open(source, "r", encoding="utf-8") as handle:
        return dataio.parse_file(handle.read()), source


def _object(md: ModularData, obj: str) -> int:
    # an object argument that names nothing is a usage error, not a
    # validation failure of the input
    try:
        return md.index_of(obj)
    except ModularDataError as exc:
        raise ValueError(str(exc)) from None


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _format_multiset(md: ModularData, ms: dict[int, int]) -> str:
    parts = []
    for c in sorted(ms):
        mult = ms[c]
        if mult == 1:
            parts.append(md.labels[c])
        elif mult:
            parts.append(f"{mult}*{md.labels[c]}")
    return " + ".join(parts) if parts else "0"


def _cmd_validate(args) -> int:
    md, _ = _load_source(args.source)
    report = md.report
    if args.format == "structured":
        _emit(dataio.serialize_report(report), args.out)
    else:
        lines = [
            f"{'pass' if c.passed else 'FAIL'}  {c.name}" + (f"  [{c.detail}]" if c.detail else "")
            for c in report.checks
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if report.ok else EXIT_VALIDATION


def _cmd_fusion(args) -> int:
    if args.object and len(args.object) > 2:
        raise ValueError(f"fusion takes at most two --object, got {len(args.object)}")
    md, source = _load_source(args.source)
    fr = md.ring
    objects = [_object(md, o) for o in args.object] if args.object else None
    if objects and len(objects) == 1:
        pairs = [(objects[0], b) for b in range(md.rank)]
    elif objects:
        pairs = [(objects[0], objects[1])]
    else:
        pairs = [(a, b) for a in range(md.rank) for b in range(md.rank)]
    lines = []
    if args.format == "structured":
        lines.append("mtckit-report 1")
        lines.append("kind: fusion")
        lines.append(f"source: {source}")
        for a, b in pairs:
            ms = fusion_ring.fuse(fr, a, b)
            terms = "; ".join(f"{md.labels[c]}:{ms[c]}" for c in sorted(ms) if ms[c])
            lines.append(f"fuse {md.labels[a]} {md.labels[b]}: {terms}")
    else:
        for a, b in pairs:
            ms = fusion_ring.fuse(fr, a, b)
            lines.append(
                f"{md.labels[a]} (x) {md.labels[b]} = {_format_multiset(md, ms)}"
            )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_indicators(args) -> int:
    md, source = _load_source(args.source)
    cd = center_for(md)
    table = indicators.gfs_matrix(cd, args.m, args.l)
    if args.format == "structured":
        _emit(dataio.serialize_report(table), args.out)
    else:
        lines = [f"indicator table m={args.m} l={args.l}"]
        lines.append("columns: " + " ".join(table.col_labels))
        for label, row in zip(table.row_labels, dataio.format_values(table.values)):
            lines.append(f"{label}: {', '.join(row)}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_rotation(args) -> int:
    md, source = _load_source(args.source)
    cd = center_for(md)
    a = _object(md, args.object)
    if args.b:
        left, comma, right = args.b.partition(",")
        if not comma:
            raise ValueError(f"--b takes a center simple as 'left,right', got {args.b!r}")
        b = cd.pair_index(_object(md, left.strip()), _object(md, right.strip()))
        rows = (spectra.rotation_spectrum(cd, b, a, args.n),)
        report = spectra.SpectrumReport(
            kind="rotation",
            source=source,
            params=(("object", md.labels[a]), ("n", str(args.n)), ("b", cd.labels[b])),
            rows=rows,
        )
    else:
        report = spectra.rotation_report(cd, a, args.n, source=source)
    _emit(spectra.render_report(report, args.format), args.out)
    return EXIT_OK


def _cmd_braid(args) -> int:
    md, source = _load_source(args.source)
    a = _object(md, args.object)
    sign = "under" if args.under else "over"
    report = spectra.braid_jm_spectrum(md, a, args.n, args.l, args.m, sign=sign)
    report = dataclasses.replace(report, source=source)
    _emit(spectra.render_report(report, args.format), args.out)
    return EXIT_OK


def _cmd_report(args) -> int:
    md, source = _load_source(args.source)
    a = _object(md, args.object)
    # sigma_i is the wrapping braid (n, l, m) = (2, 0, 0), sigma_i sigma_{i+1} sigma_i is (3, 1, 0)
    kind, n, l = ("braid-sigma", 2, 0) if args.braid_sigma else ("braid-sigma-triple", 3, 1)
    report = dataclasses.replace(spectra.braid_jm_spectrum(md, a, n, l, 0), kind=kind,
                                 source=source, params=(("object", md.labels[a]),))
    _emit(spectra.render_report(report, args.format), args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtckit",
        description="Exact fusion rules, indicators, and braid/rotation spectra "
        "from modular tensor category data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("source", help="catalog:<name> or a .mtc file path")
        p.add_argument(
            "--format", choices=("table", "structured"), default="table"
        )
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("validate", help="check the modular-data relations")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("fusion", help="Verlinde fusion rules")
    common(p)
    p.add_argument(
        "--object",
        action="append",
        help="restrict to products involving this object (repeat for a single pair)",
    )
    p.set_defaults(func=_cmd_fusion)

    p = sub.add_parser("indicators", help="generalized indicator table for (m, l)")
    common(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.set_defaults(func=_cmd_indicators)

    p = sub.add_parser("rotation", help="rotation eigenvalues and multiplicities")
    common(p)
    p.add_argument("--object", required=True, help="base object (label or 1-based index)")
    p.add_argument("--n", type=int, required=True, help="tensor power")
    p.add_argument("--b", help="center simple as 'left,right'; all rows if omitted")
    p.set_defaults(func=_cmd_rotation)

    p = sub.add_parser("braid", help="spectrum of the wrapping braid on n strands")
    common(p)
    p.add_argument("--object", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--under", action="store_true", help="inverse-crossing family")
    p.set_defaults(func=_cmd_braid)

    p = sub.add_parser("report", help="braid-generator spectrum table")
    common(p)
    p.add_argument("--object", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--braid-sigma", action="store_true", help="generator sigma_i")
    group.add_argument(
        "--braid-sigma-triple",
        action="store_true",
        help="sigma_i sigma_{i+1} sigma_i",
    )
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cyclo.get_order_limit()  # reports a bad MTCKIT_MAX_ORDER as a usage error
        return args.func(args)
    except (ExprSyntaxError, FileFormatError, CycloDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValidationFailedError, ModularDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ModularityError, IntegralityError, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRALITY
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
