"""In-process worker for spectra-sweep and indicator-tables.

Usage: python3 worker.py WORKLOAD SEED CYCLES MODE

MODE is ``timed`` (warm-up unit, then CYCLES cycles, each unit timed),
``traced`` (the trace plan under the Tracer) or ``plain`` (the trace plan
untraced, for the tracing overhead). Runs in a fresh interpreter with
mtckit on PYTHONPATH and prints one JSON object as its last line.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time

import checks
import workloads
from spans import Tracer

CHECKED_TABLES = 2


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Sweep:
    def __init__(self, md, fr, cd):
        self.md, self.fr, self.cd = md, fr, cd

    def run(self, task):
        from mtckit import spectra

        kind = task[0]
        if kind == "rot":
            return spectra.rotation_spectrum(self.cd, task[1], task[2], task[3])
        if kind == "k2":
            return spectra.k2_pairs(self.md, self.fr, task[1], task[2], task[3])
        _, a, n, l, m, sign = task
        return spectra.braid_jm_spectrum(self.md, a, n, l, m, sign=sign, fr=self.fr)

    def text(self, task, result) -> str:
        if task[0] == "rot":
            return checks.row_text(result)
        if task[0] == "k2":
            return checks.k2_text(result)
        return checks.report_text(result)

    def identity_error(self, task, result) -> str | None:
        md, fr = self.md, self.fr
        if task[0] == "rot":
            _, b, a, n = task
            left, right = self.cd.pair_of(b)
            turns = [e.turn() for e in result.eigenvalues]
            return checks.rotation_row_error(md, fr, left, right, a, n, turns, result.multiplicities)
        if task[0] == "k2":
            _, c, b, a = task
            return checks.k2_error(fr, c, b, a, [k for _, k in result])
        _, a, n, *_ = task
        rows = [(md.labels.index(row.label), row.multiplicities) for row in result.rows]
        return checks.braid_rows_error(fr, a, n, rows)

    def bad_tasks(self, results: dict, texts: dict, expected: dict, seed: int) -> dict:
        """task -> reason, for identity failures and digest mismatches."""
        bad = {}
        for task, result in results.items():
            err = self.identity_error(task, result)
            if err:
                bad[task] = err
        groups: dict[str, list] = {}
        for task in workloads.sweep_tasks(seed):
            if task[0] == "rot":
                groups.setdefault(f"rot n={task[3]}", []).append(task)
            elif task[0] == "k2":
                groups.setdefault("k2", []).append(task)
        for name, tasks in groups.items():
            want = expected.get(name)
            if want is None or not all(t in results for t in tasks):
                continue
            if checks.digest("\n".join(texts[t] for t in tasks)) != want:
                bad.update({t: f"{name} digest differs from the recorded one" for t in tasks})
        braids = expected.get("braid", {})
        for task, text in texts.items():
            want = braids.get(" ".join(map(str, task[1:]))) if task[0] == "braid" else None
            if want is not None and checks.digest(text) != want:
                bad[task] = "braid digest differs from the recorded one"
        return bad


class Tables:
    def __init__(self, md, fr):
        self.md, self.fr = md, fr

    def run(self, pair):
        from mtckit import center, indicators

        return indicators.gfs_matrix(center.deligne_square(self.md, self.fr), pair[0], pair[1])

    def text(self, pair, table) -> str:
        return checks.table_text(table)

    def bad_tasks(self, results: dict, texts: dict, expected: dict, seed: int) -> dict:
        from mtckit import center

        bad = {}
        for pair, text in texts.items():
            want = expected.get(f"{pair[0]},{pair[1]}")
            if want is not None and checks.digest(text) != want:
                bad[pair] = "table digest differs from the recorded one"
        rng = random.Random(seed)
        check_center = center.deligne_square(self.md, self.fr)
        for pair in rng.sample(sorted(results), min(CHECKED_TABLES, len(results))):
            err = checks.indicator_sample_error(check_center, *pair, results[pair].values, rng)
            if err:
                bad[pair] = err
        return bad


def main(argv: list[str]) -> int:
    workload, seed, cycles, mode = argv[0], int(argv[1]), int(argv[2]), argv[3]
    import mtckit
    from mtckit import center, dataio

    tracer = Tracer() if mode == "traced" else None
    if tracer:
        tracer.install()
    start = time.perf_counter()
    md = dataio.catalog(workloads.HAAGERUP)
    fr = dataio.catalog_ring(workloads.HAAGERUP)
    cd = center.center_for(md, fr)
    if workload == "spectra-sweep":
        job = Sweep(md, fr, cd)
        plan = [workloads.sweep_trace_plan(seed)] if mode != "timed" else workloads.sweep_plan(seed, cycles)
        warmup = ("k2", 0, 0, 1)
    else:
        job = Tables(md, fr)
        plan = workloads.table_plan(seed, 1 if mode != "timed" else cycles)
        warmup = plan[0][0]
    if mode == "timed":
        job.run(warmup)
        start = time.perf_counter()

    samples, runs, errors = [], [], {}
    for cycle in plan:
        for task in cycle:
            t0 = time.perf_counter()
            try:
                result = job.run(task)
            except Exception as exc:  # a failing unit is counted, not fatal
                errors[task] = f"{type(exc).__name__}: {exc}"
                result = None
            samples.append(time.perf_counter() - t0)
            runs.append((task, result))
    wall = time.perf_counter() - start
    rss = _rss_mb()
    counters = None
    if tracer:
        tracer.uninstall()
        counters = tracer.counters()

    results: dict = {}
    texts: dict = {}
    for task, result in runs:
        if result is None:
            continue
        text = job.text(task, result)
        if texts.setdefault(task, text) != text:
            errors[task] = "repeated unit gave a different result"
        results.setdefault(task, result)
    expected = checks.load_expected().get(workload, {})
    errors.update(job.bad_tasks(results, texts, expected, seed))
    failed = sum(1 for task, _ in runs if task in errors)
    print(json.dumps({
        "samples": samples,
        "attempted": len(runs),
        "failed": failed,
        "errors": sorted({str(v) for v in errors.values()})[:5],
        "rss_mb": rss,
        "wall_s": wall,
        "backend": getattr(mtckit, "kernel_backend", "absent"),
        "counters": counters,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
