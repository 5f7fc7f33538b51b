"""mtckit benchmark: one command for every workload, timed or traced.

Usage (from the repository root):

    python3 mtcbench/run.py --workload cli-mix|spectra-sweep|indicator-tables \
        --seed N --seconds S --trace 0|1

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload's
trace plan once under the Tracer and once untraced and prints the
per-layer metrics with the tracing overhead. Human-readable lines come
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("cli-mix", "spectra-sweep", "indicator-tables")
SETUP_PROBES = 5
IMPORT_PROBES = 3
DEADLINE_S = 170.0  # every run, traced or not, ends within this
CLI_TIMEOUT_S = 60.0


class Run:
    """Child processes of one benchmark run, all started from ROOT."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
        self.env = env

    def _left(self, cap: float) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark run exceeded its deadline")
        return min(cap, left)

    def python(self, script: str, *args) -> str:
        """Run a script of this directory to completion; its stdout."""
        proc = subprocess.run(
            [sys.executable, str(HERE / script), *map(str, args)],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, check=True,
            timeout=self._left(DEADLINE_S), text=True,
        )
        return proc.stdout

    def probe(self, kind: str, times: int) -> float:
        return statistics.median(float(self.python("probe.py", kind)) for _ in range(times))

    def cli(self, argv: list[str]) -> tuple[int, str, str, float, float]:
        """(exit code, stdout, stderr, wall seconds, peak RSS MB) of one CLI child."""
        err_path = self.workdir / "stderr.txt"
        with open(err_path, "wb") as err_file:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=err_file)
            killer = threading.Timer(self._left(CLI_TIMEOUT_S), proc.kill)
            killer.start()
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out.decode(errors="replace"), err_path.read_text(errors="replace"), \
            wall, usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# metrics


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest nearest-rank percentile with at
    least ten samples above it; the maximum when there are ten or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(setup: float, samples: list[float], wall: float, rss: float) -> dict:
    value, _ = tail(samples)
    return {
        "setup_s": {"value": setup, "unit": "s"},
        "throughput_per_s": {"value": len(samples) / wall, "unit": "1/s"},
        "latency_p50_s": {"value": statistics.median(samples), "unit": "s"},
        "latency_tail_s": {"value": value, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


# ---------------------------------------------------------------------------
# cli-mix


def make_cli_plan(seed: int, cycles: int, workdir: Path):
    import workloads

    inputs = workloads.InputSet()
    plan = workloads.cli_plan(seed, cycles, inputs, workdir)
    for key, text in inputs.text.items():
        (workdir / f"{key}.mtc").write_text(text)
    return inputs, plan


def _cli_failures(run_results, inputs) -> tuple[int, list[str]]:
    import checks

    checker = checks.CliChecker(inputs, checks.load_expected().get("cli-mix", {}))
    failed, reasons = 0, []
    for query, (code, out, err) in run_results:
        if code != 0 or err:
            reason = f"exit {code}: {err.strip()[:200]}"
        else:
            try:
                reason = checker.error(query, out)
            except (ValueError, KeyError, IndexError) as exc:  # unparsable output
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
        if reason:
            failed += 1
            reasons.append(f"{query.key()}: {reason}")
    return failed, reasons


def cli_timed(run: Run, seed: int, cycles: int) -> dict:
    inputs, plan = make_cli_plan(seed, cycles, run.workdir)
    module = [sys.executable, "-m", "mtckit.cli"]
    run.cli(module + plan[0][0].args)  # warm-up: bytecode, page cache
    setup = run.probe("setup-cli", SETUP_PROBES)
    samples, results, rss = [], [], 0.0
    start = time.perf_counter()
    for cycle in plan:
        for query in cycle:
            code, out, err, wall, child_rss = run.cli(module + query.args)
            samples.append(wall)
            results.append((query, (code, out, err)))
            rss = max(rss, child_rss)
    wall = time.perf_counter() - start
    failed, reasons = _cli_failures(results, inputs)
    return {"samples": samples, "wall_s": wall, "rss_mb": rss, "setup_s": setup,
            "attempted": len(samples), "failed": failed, "errors": reasons[:5]}


def cli_traced(run: Run, seed: int) -> dict:
    import spans

    inputs, plan = make_cli_plan(seed, 1, run.workdir)
    queries = plan[0]
    counters_path = run.workdir / "counters.json"
    traced_wall, plain_wall, parts, results = 0.0, 0.0, [], []
    validate_calls, validate_queries = 0, 0
    for query in queries:
        counters_path.unlink(missing_ok=True)
        code, out, err, wall, _ = run.cli(
            [sys.executable, str(HERE / "cli_traced.py"), str(counters_path)] + query.args)
        traced_wall += wall
        results.append((query, (code, out, err)))
        if not counters_path.exists():  # the child died; its exit code fails the query
            continue
        part = json.loads(counters_path.read_text())
        parts.append(part)
        if query.args[0] == "validate" and query.args[1].startswith("catalog:"):
            validate_queries += 1
            validate_calls += part["stats"].get("modular_data.validate", [0])[0]
    for query in queries:
        plain_wall += run.cli([sys.executable, "-m", "mtckit.cli"] + query.args)[3]
    failed, reasons = _cli_failures(results, inputs)
    extra = {
        "cli.import_s": run.probe("import-cli", IMPORT_PROBES),
        "modular_data.validate.per_catalog_validate_query":
            validate_calls / validate_queries if validate_queries else 0.0,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.overhead_s": traced_wall - plain_wall,
    }
    return {"metrics": spans.layer_metrics(spans.combine(parts), extra),
            "attempted": len(queries), "failed": failed, "errors": reasons[:5]}


# ---------------------------------------------------------------------------
# in-process workloads


def worker(run: Run, workload: str, seed: int, cycles: int, mode: str) -> dict:
    return json.loads(run.python("worker.py", workload, seed, cycles, mode).splitlines()[-1])


def inprocess_timed(run: Run, workload: str, seed: int, cycles: int) -> dict:
    result = worker(run, workload, seed, cycles, "timed")
    result["setup_s"] = run.probe("setup", SETUP_PROBES)
    return result


def inprocess_traced(run: Run, workload: str, seed: int) -> dict:
    import spans

    traced = worker(run, workload, seed, 1, "traced")
    plain = worker(run, workload, seed, 1, "plain")
    extra = {
        "cli.import_s": run.probe("import-cli", IMPORT_PROBES),
        "modular_data.validate.per_catalog_validate_query": 0.0,
        "trace.wall_s": traced["wall_s"],
        "trace.untraced_wall_s": plain["wall_s"],
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
    }
    failed = traced["failed"] + plain["failed"]
    return {"metrics": spans.layer_metrics(traced["counters"], extra),
            "attempted": traced["attempted"] + plain["attempted"], "failed": failed,
            "errors": traced["errors"] + plain["errors"]}


# ---------------------------------------------------------------------------


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "mtckit" / "__init__.py").is_file():
        print(f"error: no mtckit sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mtckit
    import workloads

    if Path(mtckit.__file__).resolve().parent != SRC / "mtckit":
        print(f"error: imported mtckit from {mtckit.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    cycles = workloads.cycle_count(args.workload, args.seconds)
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "cycles": 1 if args.trace else cycles, "python": sys.version.split()[0],
        "backend": getattr(mtckit, "kernel_backend", "absent"), "nproc": os.cpu_count(),
        "commit": _commit(),
    }
    print("# " + json.dumps(meta), flush=True)

    workdir = Path(tempfile.mkdtemp(prefix=".mtcbench-", dir=ROOT))
    try:
        run = Run(workdir)
        if args.trace:
            if args.workload == "cli-mix":
                result = cli_traced(run, args.seed)
            else:
                result = inprocess_traced(run, args.workload, args.seed)
            metrics = result["metrics"]
        else:
            if args.workload == "cli-mix":
                result = cli_timed(run, args.seed, cycles)
            else:
                result = inprocess_timed(run, args.workload, args.seed, cycles)
            metrics = end_to_end(result["setup_s"], result["samples"], result["wall_s"], result["rss_mb"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    for reason in result["errors"]:
        print(f"# failed: {reason}")
    for name, metric in metrics.items():
        print(f"{name:52s} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        _, pct = tail(result["samples"])
        print(f"# latency_tail_s is p{pct:.1f} of {len(result['samples'])} samples")
    print(f"{'failed_ratio':52s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
