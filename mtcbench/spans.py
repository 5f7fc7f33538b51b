"""Per-layer tracing by wrapping mtckit functions from outside the package.

A Tracer replaces each hooked function with a wrapper that counts calls
and measures self time: the span's duration minus the time covered by
nested hooked spans. A function bound under several names (for example
``power_decompose`` in ``fusion_ring``, ``indicators`` and ``spectra``) is
replaced in every mtckit module and class namespace that holds it, so a
call is seen whichever name it goes through.

Hooks whose target does not exist are reported as missing instead of
failing, so the trace keeps working when a later version of mtckit moves
or removes a function. The private polynomial kernel is looked up in
``mtckit._poly`` and is reported as unhooked when that module or its
functions are gone.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (module, attribute path, layer metric prefix)
HOOKS = (
    ("mtckit.cli", "main", "cli.main"),
    ("mtckit.dataio", "catalog", "dataio.catalog"),
    ("mtckit.dataio", "parse_file", "dataio.parse_file"),
    ("mtckit.dataio", "serialize_report", "dataio.serialize_report"),
    ("mtckit.modular_data", "construct", "modular_data.construct"),
    ("mtckit.modular_data", "validate", "modular_data.validate"),
    ("mtckit.modular_data", "derive_invariants", "modular_data.derive_invariants"),
    ("mtckit.fusion_ring", "verlinde", "fusion_ring.verlinde"),
    ("mtckit.fusion_ring", "power_decompose", "fusion_ring.power_decompose"),
    ("mtckit.center", "deligne_square", "center.deligne_square"),
    ("mtckit.center", "center_for", "center.center_for"),
    ("mtckit.center", "CenterData.apply_s", "center.apply_s"),
    ("mtckit.center", "CenterData.apply_t", "center.apply_t"),
    ("mtckit.indicators", "gfs_matrix", "indicators.gfs_matrix"),
    ("mtckit.indicators", "nu_general", "indicators.nu_general"),
    ("mtckit.indicators", "nu2_direct", "indicators.nu2_direct"),
    ("mtckit.spectra", "rotation_spectrum", "spectra.rotation_spectrum"),
    ("mtckit.spectra", "semisimple_K", "spectra.semisimple_K"),
    ("mtckit.spectra", "k2_pairs", "spectra.k2_pairs"),
    ("mtckit.spectra", "braid_jm_spectrum", "spectra.braid_jm_spectrum"),
    ("mtckit.spectra", "render_report", "spectra.render_report"),
    ("mtckit.cyclo", "Cyclotomic.__mul__", "cyclo.mul"),
    ("mtckit.cyclo", "Cyclotomic.__add__", "cyclo.add"),
    ("mtckit.cyclo", "Cyclotomic.embedded", "cyclo.embed"),
    ("mtckit.cyclo", "inverse", "cyclo.inverse"),
    ("mtckit.cyclo", "galois_apply", "cyclo.galois_apply"),
    ("mtckit.cyclo", "descend", "cyclo.descend"),
    ("mtckit.cyclo", "as_integer", "cyclo.as_integer"),
    ("mtckit.cyclo", "root_of_unity", "cyclo.root_of_unity"),
)

# Further cyclo entry points, timed only so that cyclo.self_s covers them.
# O(1) accessors such as is_zero are charged to their caller.
CYCLO_OTHER = (
    "Cyclotomic.__sub__",
    "Cyclotomic.__rsub__",
    "Cyclotomic.__neg__",
    "Cyclotomic.__truediv__",
    "Cyclotomic.__rtruediv__",
    "Cyclotomic.__pow__",
    "Cyclotomic.__eq__",
    "Cyclotomic.conjugate",
    "Cyclotomic.reduced",
    "from_rational",
    "recognize",
    "as_root_of_unity",
    "format_expr",
)

KERNEL_MODULE = "mtckit._poly"
KERNEL_FUNCTIONS = ("poly_mul", "poly_mulmod", "poly_reduce")

# metric name -> unit, in report order; BENCHMARK.json lists the same names
LAYER_METRICS = {
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "dataio.catalog.calls": "count",
    "dataio.catalog.self_s": "s",
    "dataio.parse_file.self_s": "s",
    "dataio.serialize_report.self_s": "s",
    "modular_data.construct.self_s": "s",
    "modular_data.validate.calls": "count",
    "modular_data.validate.self_s": "s",
    "modular_data.validate.per_catalog_validate_query": "count",
    "modular_data.derive_invariants.calls": "count",
    "fusion_ring.verlinde.calls": "count",
    "fusion_ring.verlinde.self_s": "s",
    "fusion_ring.power_decompose.calls": "count",
    "fusion_ring.power_decompose.self_s": "s",
    "center.deligne_square.self_s": "s",
    "center.center_for.calls": "count",
    "center.apply_s.calls": "count",
    "center.apply_s.self_s": "s",
    "center.apply_t.calls": "count",
    "center.apply_t.self_s": "s",
    "indicators.gfs_matrix.calls": "count",
    "indicators.gfs_matrix.self_s": "s",
    "indicators.gfs_matrix.hit_ratio": "ratio",
    "indicators.nu_general.calls": "count",
    "indicators.nu_general.self_s": "s",
    "indicators.nu2_direct.calls": "count",
    "indicators.nu2_direct.self_s": "s",
    "spectra.rotation_spectrum.calls": "count",
    "spectra.rotation_spectrum.self_s": "s",
    "spectra.semisimple_K.self_s": "s",
    "spectra.k2_pairs.calls": "count",
    "spectra.k2_pairs.self_s": "s",
    "spectra.braid_jm_spectrum.self_s": "s",
    "spectra.render_report.self_s": "s",
    "cyclo.self_s": "s",
    "cyclo.mul.calls": "count",
    "cyclo.add.calls": "count",
    "cyclo.inverse.calls": "count",
    "cyclo.galois_apply.calls": "count",
    "cyclo.descend.calls": "count",
    "cyclo.embed.calls": "count",
    "cyclo.as_integer.calls": "count",
    "cyclo.embed_per_mul": "ratio",
    "cyclo.max_order": "count",
    "cyclo.inverse.self_s": "s",
    "cyclo.inverse.total_s": "s",
    "cyclo.galois_apply.self_s": "s",
    "cyclo.descend.self_s": "s",
    "cyclo.kernel.hooked": "count",
    "cyclo.kernel.calls": "count",
    "cyclo.kernel.self_s": "s",
    "cyclo.kernel.coeff_mults": "count-computed",
    "trace.hooks_missing": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


def _resolve(owner, path: str):
    """The function at a dotted attribute path, or None."""
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        return vars(owner).get(parts[-1])
    return getattr(owner, parts[-1], None)


def _namespaces():
    """Every mtckit module and every class defined in one."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "mtckit" or name.startswith("mtckit.")):
            continue
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__.startswith("mtckit"):
                yield value


class Stat:
    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


class Tracer:
    """Installs wrappers around mtckit functions and aggregates their spans."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.missing: list[str] = []
        self.kernel_hooked = 0
        self.kernel_calls = 0
        self.kernel_s = 0.0
        self.kernel_mults = 0
        self.cyclo_s = 0.0
        self.max_order = 0
        self.gfs_hits = 0
        self._stack: list[float] = []  # child time accumulated per open span
        self._cyclo_depth = 0
        self._kernel_depth = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module_name, path, metric in HOOKS:
            self._hook(module_name, path, metric, cyclo=metric.startswith("cyclo."))
        for path in CYCLO_OTHER:
            self._hook("mtckit.cyclo", path, "cyclo.other", cyclo=True)
        try:
            kernel = importlib.import_module(KERNEL_MODULE)
        except ImportError:
            kernel = None
        for name in KERNEL_FUNCTIONS:
            fn = getattr(kernel, name, None) if kernel is not None else None
            if callable(fn):
                self._replace(fn, self._kernel_wrapper(fn, name))
                self.kernel_hooked += 1

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _hook(self, module_name: str, path: str, metric: str, cyclo: bool) -> None:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        fn = _resolve(module, path) if module is not None else None
        if not callable(fn):
            self.missing.append(f"{module_name}:{path}")
            return
        stat = self.stats.setdefault(metric, Stat())
        if metric == "indicators.gfs_matrix":
            wrapper = self._gfs_wrapper(fn, stat)
        else:
            wrapper = self._wrapper(fn, stat, cyclo, metric)
        self._replace(fn, wrapper)

    def _replace(self, original, wrapper) -> None:
        for owner in _namespaces():
            for name, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, name, wrapper)
                    self._patched.append((owner, name, original))

    # -- wrappers ------------------------------------------------------------

    def _wrapper(self, fn, stat: Stat, cyclo: bool, metric: str):
        stack = self._stack
        counts_embed = metric == "cyclo.embed"
        tracks_order = metric in ("cyclo.mul", "cyclo.embed", "cyclo.root_of_unity")
        tracer = self

        def wrapper(*args, **kwargs):
            if cyclo:
                tracer._cyclo_depth += 1
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                stat.self_s += dur - child
                stat.total_s += dur
                if cyclo:
                    tracer._cyclo_depth -= 1
                    if not tracer._cyclo_depth:
                        tracer.cyclo_s += dur
                # embedded() returns self unchanged when the order already matches
                if not counts_embed or args[1] != args[0].order:
                    stat.calls += 1
            if tracks_order:
                order = getattr(result, "order", 0)
                if order > tracer.max_order:
                    tracer.max_order = order
            return result

        return wrapper

    def _gfs_wrapper(self, fn, stat: Stat):
        inner = self._wrapper(fn, stat, False, "indicators.gfs_matrix")
        apply_s = self.stats.setdefault("center.apply_s", Stat())
        tracer = self

        def wrapper(*args, **kwargs):
            before = apply_s.calls
            result = inner(*args, **kwargs)
            if apply_s.calls == before:
                tracer.gfs_hits += 1
            return result

        return wrapper

    def _kernel_wrapper(self, fn, name: str):
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._kernel_depth:  # the kernel calling its own parts
                return fn(*args, **kwargs)
            tracer._kernel_depth = 1
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1] += dur
                tracer._kernel_depth = 0
                tracer.kernel_calls += 1
                tracer.kernel_s += dur
                tracer.kernel_mults += _coeff_mults(name, args)
                if not tracer._cyclo_depth:
                    tracer.cyclo_s += dur

        return wrapper

    # -- results -------------------------------------------------------------

    def counters(self) -> dict:
        """Raw aggregates, summable across processes (see combine)."""
        return {
            "stats": {k: [s.calls, s.self_s, s.total_s] for k, s in self.stats.items()},
            "missing": sorted(self.missing),
            "kernel": [self.kernel_hooked, self.kernel_calls, self.kernel_s, self.kernel_mults],
            "cyclo_s": self.cyclo_s,
            "max_order": self.max_order,
            "gfs_hits": self.gfs_hits,
        }


def _coeff_mults(name: str, args) -> int:
    """Coefficient multiplications implied by the argument lengths."""
    if name == "poly_mul":
        return len(args[0]) * len(args[1])
    if name == "poly_mulmod":
        a, b, mod = args[0], args[1], args[2]
        d = len(mod) - 1
        return len(a) * len(b) + max(0, len(a) + len(b) - 1 - d) * d
    p, mod = args[0], args[1]
    d = len(mod) - 1
    return max(0, len(p) - d) * d


def combine(parts: list[dict]) -> dict:
    """Sum the counters of several traced processes."""
    out = {"stats": {}, "missing": [], "kernel": [0, 0, 0.0, 0], "cyclo_s": 0.0,
           "max_order": 0, "gfs_hits": 0}
    for part in parts:
        for key, vals in part["stats"].items():
            acc = out["stats"].setdefault(key, [0, 0.0, 0.0])
            for i, v in enumerate(vals):
                acc[i] += v
        out["missing"] = sorted(set(out["missing"]) | set(part["missing"]))
        kernel = part["kernel"]
        out["kernel"][0] = max(out["kernel"][0], kernel[0])
        for i in (1, 2, 3):
            out["kernel"][i] += kernel[i]
        out["cyclo_s"] += part["cyclo_s"]
        out["max_order"] = max(out["max_order"], part["max_order"])
        out["gfs_hits"] += part["gfs_hits"]
    return out


def layer_metrics(counters: dict, extra: dict) -> dict:
    """The per-layer metrics named in LAYER_METRICS, from combined counters.

    ``extra`` supplies the values measured outside the wrappers: cli.import_s,
    the trace.* wall times and the per-query validate count.
    """
    stats = counters["stats"]

    def get(prefix: str, field: int):
        vals = stats.get(prefix)
        return vals[field] if vals else 0

    values = {}
    for name in LAYER_METRICS:
        prefix, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = get(prefix, 0)
        elif stat == "self_s":
            values[name] = get(prefix, 1)
        elif stat == "total_s":
            values[name] = get(prefix, 2)
    gfs_calls = get("indicators.gfs_matrix", 0)
    mul_calls = get("cyclo.mul", 0)
    hooked, kcalls, kself, kmults = counters["kernel"]
    values.update({
        "indicators.gfs_matrix.hit_ratio": counters["gfs_hits"] / gfs_calls if gfs_calls else 0.0,
        "cyclo.self_s": counters["cyclo_s"],
        "cyclo.embed_per_mul": get("cyclo.embed", 0) / mul_calls if mul_calls else 0.0,
        "cyclo.max_order": counters["max_order"],
        "cyclo.kernel.hooked": hooked,
        "cyclo.kernel.calls": kcalls,
        "cyclo.kernel.self_s": kself,
        "cyclo.kernel.coeff_mults": kmults,
        "trace.hooks_missing": len(counters["missing"]),
    })
    values.update(extra)
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
