"""Source checks on the library: no guard that vanishes under ``python -O``,
no environment knob beyond the documented one, no field sum started
at the order-1 zero, no root-of-unity sum built from field products, no
root of unity entering indicators or spectra as a field value, no
module-level cache beyond the ones that exist, no verlinde call outside
ModularData.ring, no multiplicity summed or gated outside
spectra._candidate_counts, no root shift or Galois step in spectra
outside the failure path spectra._off_field, no indicator in spectra but
the closed form that spectra._entry reads, no control flow through a caught
DescentError, no polynomial kernel reached from outside cyclo and
fusion_ring, no packing in indicators beside center.Contraction, no
per-order constants read outside cyclo, no second index-map or trace route
in cyclo, no word argument to gfs_matrix, and no library name that a hook
of the benchmark's tracer (mtcbench/spans.py) wraps gone missing."""

import ast
import importlib.util
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mtckit"
ALLOWED_ENV = {"MTCKIT_MAX_ORDER"}
# a cache that outlives its data grows with every value a process sees;
# new ones belong on the instance they describe
ALLOWED_MODULE_CACHES = {
    "_catalog_cache",
    "_cyclo_poly_cache",
}
# process settings rebound by cyclo.set_order_limit: configuration, not caches
MODULE_SETTINGS = {"_order_limit", "_order_limit_error"}
_MUTATORS = {"setdefault", "update", "pop", "popitem", "clear", "append", "extend", "add", "insert"}


def _modules():
    paths = sorted(SRC.rglob("*.py"))
    assert paths, SRC
    for path in paths:
        yield path.relative_to(SRC.parent), ast.parse(path.read_text(), filename=str(path))


def _is_environ(node):
    # os.environ, or a bare environ imported from os
    if isinstance(node, ast.Attribute):
        return node.attr == "environ" and isinstance(node.value, ast.Name) and node.value.id == "os"
    return isinstance(node, ast.Name) and node.id == "environ"


def _env_reads(tree):
    """(line, key or None) for each use of os.environ or os.getenv.

    The key is the literal variable name when there is one; any other use,
    such as iterating the mapping or a computed key, reads as None.
    """
    keyed = set()
    for node in ast.walk(tree):
        key = None
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            if isinstance(func, ast.Attribute) and (
                (func.attr in ("get", "pop", "setdefault") and _is_environ(func.value))
                or (func.attr == "getenv" and isinstance(func.value, ast.Name) and func.value.id == "os")
            ):
                key = node.args[0]
                keyed.add(id(func.value))
        elif isinstance(node, ast.Subscript) and _is_environ(node.value):
            key = node.slice
            keyed.add(id(node.value))
        if key is not None:
            name = key.value if isinstance(key, ast.Constant) else None
            yield node.lineno, name
    for node in ast.walk(tree):
        if _is_environ(node) and id(node) not in keyed:
            yield node.lineno, None


def test_no_assert_statements():
    found = [
        f"{path}:{node.lineno}"
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert is removed under python -O; raise instead: {found}"


def test_only_documented_environment_reads():
    found = [
        f"{path}:{line} {name}"
        for path, tree in _modules()
        for line, name in _env_reads(tree)
        if name not in ALLOWED_ENV
    ]
    assert not found, f"environment reads other than {sorted(ALLOWED_ENV)}: {found}"


def _is_zero_constant(node):
    # ZERO, or cyclo.ZERO
    if isinstance(node, ast.Attribute):
        return node.attr == "ZERO" and isinstance(node.value, ast.Name) and node.value.id == "cyclo"
    return isinstance(node, ast.Name) and node.id == "ZERO"


def _zero_started_sums(tree):
    """Lines that start a field sum at ZERO: sum(..., ZERO) or a bare
    ``name = ZERO`` inside a function, the accumulator of a hand-written loop."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum":
            start = node.args[1:2] + [k.value for k in node.keywords if k.arg == "start"]
            if any(_is_zero_constant(v) for v in start):
                yield node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Assign)
                    and all(isinstance(t, ast.Name) for t in inner.targets)
                    and _is_zero_constant(inner.value)
                ):
                    yield inner.lineno


def test_no_sums_started_at_zero():
    found = sorted(
        {f"{path}:{line}" for path, tree in _modules() for line in _zero_started_sums(tree)}
    )
    assert not found, f"start exact sums with cyclo.dot, not at the order-1 ZERO: {found}"


def _is_dot(func):
    # dot, or cyclo.dot
    if isinstance(func, ast.Attribute):
        return func.attr == "dot" and isinstance(func.value, ast.Name) and func.value.id == "cyclo"
    return isinstance(func, ast.Name) and func.id == "dot"


def _is_root_value_call(node):
    """Whether node is a call of ``.value()`` (a RootOfUnity entering the
    field) or of ``root_of_unity(...)``, bare or dotted."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr in ("value", "root_of_unity")
    return isinstance(func, ast.Name) and func.id == "root_of_unity"


def _makes_root_value(node):
    """Whether a root-of-unity value is built anywhere inside node."""
    return any(_is_root_value_call(inner) for inner in ast.walk(node))


def _root_sums_by_products(tree):
    """Lines of dot calls with an argument that builds root-of-unity values."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _is_dot(node.func):
            args = node.args + [k.value for k in node.keywords]
            if any(_makes_root_value(arg) for arg in args):
                yield node.lineno


def test_no_root_sums_by_field_products():
    found = sorted(
        {f"{path}:{line}" for path, tree in _modules() for line in _root_sums_by_products(tree)}
    )
    assert not found, f"sum root-of-unity multiples with cyclo.root_sums, not cyclo.dot: {found}"


def test_indicators_and_spectra_take_roots_as_index_shifts():
    # a root of unity reaches a value in these modules only as an exponent:
    # cyclo.times_root or cyclo.root_sums, never as a field value
    found = [
        f"{path}:{node.lineno}"
        for path, tree in _modules()
        if path.name in ("indicators.py", "spectra.py")
        for node in ast.walk(tree)
        if _is_root_value_call(node)
    ]
    assert not found, f"root-of-unity field values (.value(), root_of_unity): {found}"


def _module_names(tree):
    names = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _is_functools_cache(node):
    # lru_cache / cache, bare or called, plain or as functools.<name>
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("lru_cache", "cache")


def _module_caches(tree):
    """(line, name) for module state that functions write: a name rebound
    under ``global``, a module-level container stored into by subscript or
    by a mutating method, and each functools cache decorator."""
    top = _module_names(tree)
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for deco in func.decorator_list:
            if _is_functools_cache(deco):
                yield func.lineno, func.name
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                yield from ((node.lineno, name) for name in node.names)
            targets = []
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _MUTATORS:
                    targets = [node.func]
            for target in targets:
                owner = getattr(target, "value", None)
                if isinstance(target, (ast.Subscript, ast.Attribute)) and isinstance(owner, ast.Name):
                    if owner.id in top:
                        yield node.lineno, owner.id


def test_no_new_module_caches():
    found = sorted(
        {
            f"{path}:{line} {name}"
            for path, tree in _modules()
            for line, name in _module_caches(tree)
            if name not in ALLOWED_MODULE_CACHES | MODULE_SETTINGS
        }
    )
    assert not found, f"keep caches on the instance they describe, not in the module: {found}"


def test_module_cache_guard_sees_each_kind():
    source = """
import functools
_rows = {}
_seen = []
_last = None
LIMITS = {"a": 1}

def build(md):
    global _last
    _rows[md] = 1
    _seen.append(md)
    _last = md
    local = {}
    local[md] = 2

@functools.lru_cache(maxsize=None)
def cached(n):
    return LIMITS["a"] + n
"""
    found = {name for _, name in _module_caches(ast.parse(source))}
    assert found == {"_rows", "_seen", "_last", "cached"}
    # every allowed name is still found, so the allowlists hold no dead name
    live = {name for _, tree in _modules() for _, name in _module_caches(tree)}
    assert live == ALLOWED_MODULE_CACHES | MODULE_SETTINGS


def _calls_by_scope(tree, name):
    """The scope of each call of name, bare or dotted: the dotted path of the
    classes and functions around the call, "" at module level."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call):
                func = child.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called == name:
                    yield scope
            yield from visit(child, inner)

    yield from visit(tree, "")


def test_the_fusion_ring_has_one_home():
    # a ModularData's fusion ring is md.ring; any other verlinde call would
    # build a second ring for data that already has one
    calls = [
        (path.name, scope)
        for path, tree in _modules()
        if path.name != "fusion_ring.py"
        for scope in _calls_by_scope(tree, "verlinde")
    ]
    assert calls == [("modular_data.py", "ModularData.ring")], (
        f"verlinde called outside ModularData.ring: {calls}"
    )
    source = """
fr = verlinde(md)

def ring_of(md):
    return fusion_ring.verlinde(md)

class ModularData:
    def ring(self):
        return verlinde(self)
"""
    found = list(_calls_by_scope(ast.parse(source), "verlinde"))
    assert found == ["", "ring_of", "ModularData.ring"]


def test_one_routine_sums_and_gates_every_multiplicity():
    # rotation rows, K rows and K^2 pairs are each an inverse DFT of an
    # indicator sequence, summed as integer traces; only the shared routine
    # gates them, so no caller builds candidates or a message path of its own,
    # and no multiplicity is summed as field values
    tree = ast.parse((SRC / "spectra.py").read_text())
    scopes = list(_calls_by_scope(tree, "_require_count"))
    assert scopes == ["_candidate_counts"], f"_require_count called from {scopes}"
    for name in ("root_sums", "dot"):
        scopes = list(_calls_by_scope(tree, name))
        assert scopes == [], f"{name} called from {scopes}"


def test_only_trace_entries_take_a_galois_step():
    # every term of a rotation row, K row or K^2 pair is a trace entry, read off
    # nu's coordinates in its trace field with no root shift and no descent; only
    # _off_field, which rebuilds an entry that failed that check, shifts by a root
    # and descends, for the DescentError's order, target and witness
    tree = ast.parse((SRC / "spectra.py").read_text())
    for name in ("galois_apply", "times_root", "descend"):
        scopes = list(_calls_by_scope(tree, name))
        assert scopes == ([] if name == "descend" else ["_off_field"]), (
            f"{name} called from {scopes}")


def test_rows_read_one_closed_form():
    # every trace entry of a rotation row, K row, braid or K^2 pair is built from
    # indicators.nu_direct in _entry, and kept in one table on the modular data:
    # spectra reaches neither SL2(Z) route, and the center keeps no entries
    tree = ast.parse((SRC / "spectra.py").read_text())
    for name in ("nu_general", "gfs_matrix", "nu2_direct"):
        scopes = list(_calls_by_scope(tree, name))
        assert scopes == [], f"{name} called from {scopes}"
    scopes = list(_calls_by_scope(tree, "nu_direct"))
    assert scopes == ["_entry"], f"nu_direct called from {scopes}"
    found = [
        f"{path}:{node.lineno}"
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_trace_cache"
    ]
    assert not found, f"a trace table on the center: {found}"


def _kernel_uses(tree):
    """(line, what) for each import from the _poly kernel, relative or by the
    package name, and each name or attribute poly_reduce."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "_poly":
            yield node.lineno, "import"
        elif isinstance(node, ast.Import) and any(
            alias.name.split(".")[-1] == "_poly" for alias in node.names
        ):
            yield node.lineno, "import"
        elif isinstance(node, ast.alias) and node.name == "poly_reduce":
            yield node.lineno, "poly_reduce"
        elif getattr(node, "id", None) == "poly_reduce" or getattr(node, "attr", None) == "poly_reduce":
            yield node.lineno, "poly_reduce"


def test_the_kernel_is_reached_through_cyclo():
    # every embedding, Galois map and root shift of stored numerators is cyclo.mapped,
    # so only cyclo and fusion_ring (packed associativity rows) import the kernel, and
    # only cyclo names poly_reduce
    found = sorted(
        f"{path}:{line} {what}"
        for path, tree in _modules()
        for line, what in _kernel_uses(tree)
        if path.name != "_poly.py"
        and not (path.name == "cyclo.py" or (path.name == "fusion_ring.py" and what == "import"))
    )
    assert not found, f"the polynomial kernel used outside cyclo: {found}"
    source = """
from ._poly import poly_pack
from mtckit._poly import poly_reduce
import mtckit._poly
row = poly_reduce(p, mod)
row = cyclo.poly_reduce(p, mod)
"""
    assert sorted(_kernel_uses(ast.parse(source))) == [
        (2, "import"), (3, "import"), (3, "poly_reduce"), (4, "import"),
        (5, "poly_reduce"), (6, "poly_reduce"),
    ]


def test_one_fusion_contraction():
    # every contraction through the fusion tensor is center.Contraction: indicators
    # packs no cells of its own, and only cyclo reads its per-order constants
    found = [
        f"{path}:{scope or '<module>'} Packing"
        for path, tree in _modules()
        if path.name == "indicators.py"
        for scope in _calls_by_scope(tree, "Packing")
    ] + [
        f"{path}:{getattr(node, 'lineno', '?')} _order_constants"
        for path, tree in _modules()
        if path.name != "cyclo.py"
        for node in ast.walk(tree)
        if "_order_constants" in (getattr(node, "id", None), getattr(node, "attr", None),
                                  getattr(node, "name", None))
    ]
    assert not found, f"a second fusion contraction or packing bound: {found}"


def _descent_handlers(tree):
    """Lines of except clauses that list DescentError, bare or dotted, alone
    or in a tuple."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            names = {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node.type)
                if isinstance(n, (ast.Name, ast.Attribute))
            }
            if "DescentError" in names:
                yield node.lineno


def test_no_caught_descent_errors():
    # a failed descent is an answer of cyclo.descend, not a branch: code that
    # asks whether x lies in Q(zeta_m) reads it off the prime steps
    found = sorted(
        {f"{path}:{line}" for path, tree in _modules() for line in _descent_handlers(tree)}
    )
    assert not found, f"except clauses naming DescentError: {found}"
    source = """
try:
    pass
except DescentError:
    pass
except (ValueError, cyclo.DescentError):
    pass
except:
    pass
"""
    assert list(_descent_handlers(ast.parse(source))) == [4, 6]


def test_one_route_per_job_in_the_library():
    # index maps and traces have one library route each (cyclo.mapped, and the
    # Ramanujan sums the trace fields read); their term-by-term forms are test
    # oracles, and gfs_matrix runs sl2_word(m, l) only
    from mtckit import cyclo
    from mtckit.indicators import gfs_matrix

    assert not hasattr(cyclo, "index_map") and not hasattr(cyclo, "traces")
    assert list(inspect.signature(gfs_matrix).parameters) == ["cd", "m", "l"]


def test_every_benchmark_hook_resolves():
    # the benchmark's per-layer metrics wrap library functions by name; a
    # hook whose target is gone records nothing instead of failing
    spec = importlib.util.spec_from_file_location("mtcbench_spans", ROOT / "mtcbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        assert tracer.kernel_hooked == len(spans.KERNEL_FUNCTIONS)
    finally:
        tracer.uninstall()
