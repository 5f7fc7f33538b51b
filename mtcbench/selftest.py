"""Self-test of the tracer: hooks fire, and traced counts repeat exactly.

Usage (from the repository root): python3 mtcbench/selftest.py [SEED]

For each workload it makes two traced runs at one seed and asserts that
the run passed its output checks, that no hook is missing, that every hook
listed for that workload in FIRES recorded work, and that every count and
ratio is identical between the two runs. Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run

# Hooks that must record work on each workload (the README's layer table).
FIRES = {
    "cli-mix": (
        "cli.main.self_s", "dataio.catalog.calls", "dataio.parse_file.self_s",
        "dataio.serialize_report.self_s", "modular_data.construct.self_s",
        "modular_data.validate.calls", "modular_data.derive_invariants.calls",
        "fusion_ring.verlinde.calls", "fusion_ring.power_decompose.calls",
        "center.deligne_square.self_s", "center.apply_s.calls", "center.apply_t.calls",
        "indicators.gfs_matrix.calls", "spectra.render_report.self_s",
        "modular_data.validate.per_catalog_validate_query", "cyclo.mul.calls",
    ),
    "spectra-sweep": (
        "dataio.catalog.calls", "modular_data.validate.calls", "fusion_ring.verlinde.calls",
        "fusion_ring.power_decompose.calls", "indicators.gfs_matrix.calls",
        "indicators.nu_general.calls", "indicators.nu2_direct.calls",
        "spectra.rotation_spectrum.calls", "spectra.semisimple_K.self_s",
        "spectra.k2_pairs.calls", "spectra.braid_jm_spectrum.self_s",
        "cyclo.inverse.calls", "cyclo.galois_apply.calls", "cyclo.descend.calls",
        "cyclo.embed.calls", "cyclo.as_integer.calls", "cyclo.mul.calls", "cyclo.add.calls",
    ),
    "indicator-tables": (
        "dataio.catalog.calls", "fusion_ring.verlinde.calls", "center.deligne_square.self_s",
        "center.apply_s.calls", "center.apply_t.calls", "indicators.gfs_matrix.calls",
        "cyclo.mul.calls", "cyclo.add.calls",
    ),
}
KERNEL = ("cyclo.kernel.calls", "cyclo.kernel.coeff_mults")


def traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", "1"],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=run.DEADLINE_S + 10,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    problems = []
    for workload, hooks in FIRES.items():
        first, second = traced(workload, seed), traced(workload, seed)
        metrics = first["metrics"]
        if not (first["correct"] and second["correct"]):
            problems.append(f"{workload}: output checks failed")
        if metrics["trace.hooks_missing"]["value"]:
            problems.append(f"{workload}: hooks missing")
        required = hooks + (KERNEL if metrics["cyclo.kernel.hooked"]["value"] else ())
        problems += [f"{workload}: {name} recorded nothing" for name in required
                     if not metrics[name]["value"]]
        problems += [
            f"{workload}: {name} differs between runs ({m['value']} vs "
            f"{second['metrics'][name]['value']})"
            for name, m in metrics.items()
            if m["unit"] != "s" and m["value"] != second["metrics"][name]["value"]
        ]
        print(f"{workload}: checked {len(required)} hooks and "
              f"{sum(m['unit'] != 's' for m in metrics.values())} counts", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
