"""Record the expected-output digests in expected.json.

Usage (from the repository root): python3 mtcbench/record_digests.py

Run it only on code whose outputs are known to be right; the benchmark
then checks later outputs against these digests. It records:

* cli-mix: every query of the default seed (0) at the default --seconds;
* spectra-sweep: every rotation row for n = 2, 3, 4 and every K^2 triple,
  one digest per group, plus the braid calls of the default seed;
* indicator-tables: every (m, l) pair the workload can draw.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads

DEFAULT_SEED = 0
DEFAULT_SECONDS = 24.0


def record_cli() -> dict:
    workdir = Path(tempfile.mkdtemp(prefix=".mtcbench-", dir=run.ROOT))
    try:
        runner = run.Run(workdir)
        cycles = workloads.cycle_count("cli-mix", DEFAULT_SECONDS)
        _, plan = run.make_cli_plan(DEFAULT_SEED, cycles, workdir)
        out = {}
        for query in (q for cycle in plan for q in cycle):
            code, stdout, err, _, _ = runner.cli([sys.executable, "-m", "mtckit.cli"] + query.args)
            if code != 0 or err:
                raise SystemExit(f"{query.key()} failed: exit {code} {err}")
            out[query.key()] = checks.digest(stdout)
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def record_sweep(md, fr, cd) -> dict:
    from worker import Sweep

    job = Sweep(md, fr, cd)
    tasks = workloads.sweep_tasks(DEFAULT_SEED)
    out: dict = {"braid": {}}
    groups: dict[str, list[str]] = {}
    for task in tasks:
        text = job.text(task, job.run(task))
        if task[0] == "rot":
            groups.setdefault(f"rot n={task[3]}", []).append(text)
        elif task[0] == "k2":
            groups.setdefault("k2", []).append(text)
        else:
            out["braid"][" ".join(map(str, task[1:]))] = checks.digest(text)
    out.update({name: checks.digest("\n".join(texts)) for name, texts in groups.items()})
    return out


def record_tables(md, fr) -> dict:
    from worker import Tables

    job = Tables(md, fr)
    pairs = sorted({pair for group in workloads.table_pool().values() for pair in group})
    return {f"{m},{l}": checks.digest(job.text((m, l), job.run((m, l)))) for m, l in pairs}


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    from mtckit import center, dataio

    md = dataio.catalog(workloads.HAAGERUP)
    fr = dataio.catalog_ring(workloads.HAAGERUP)
    cd = center.center_for(md, fr)
    expected = {
        "cli-mix": record_cli(),
        "spectra-sweep": record_sweep(md, fr, cd),
        "indicator-tables": record_tables(md, fr),
    }
    checks.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {checks.EXPECTED}")


if __name__ == "__main__":
    main()
