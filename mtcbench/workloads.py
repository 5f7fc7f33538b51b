"""Seeded plans for the three workloads.

A plan is a list of cycles and a cycle a list of units. Every cycle has the
same composition of unit kinds, and within a kind the seed only picks among
inputs of similar cost, so two seeds give runs of similar total work while
mtckit still sees different inputs. The number of cycles follows from
--seconds and the cycle time measured at the seed code (NOMINAL_CYCLE_S),
so a run does a fixed amount of work: a faster program finishes sooner and
every run of one plan samples the same latency percentiles.
"""

from __future__ import annotations

import hashlib
import math
import random

NOMINAL_CYCLE_S = {"cli-mix": 10.0, "spectra-sweep": 9.0, "indicator-tables": 9.2}

# The traced run does one cycle; on spectra-sweep that cycle is thinned to
# a quarter of its rotation and K^2 tasks plus TRACE_BRAIDS braid calls.
TRACE_STRIDE = 4
TRACE_BRAIDS = 2

HAAGERUP = "haagerup-center"
SMALL = ("semion", "toric-code", "fibonacci")


def cycle_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


def _rng(workload: str, seed: int, salt: str = "") -> random.Random:
    digest = hashlib.sha256(f"{workload}/{seed}/{salt}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# ---------------------------------------------------------------------------
# indicator-tables


def _word_groups() -> dict[str, list[tuple[int, int]]]:
    """Coprime (m, l) with 2 <= m and a 3-8 token word containing s, keyed by
    the word without its leading t/T tokens (those are the cheap apply_t
    passes made last, so one key means one cost class)."""
    from mtckit.indicators import sl2_word

    groups: dict[str, list[tuple[int, int]]] = {}
    for m in range(2, 9):
        for l in range(-12, 13):
            if math.gcd(m, l) != 1:
                continue
            word = "".join(sl2_word(m, l).tokens)
            if 3 <= len(word) <= 8 and "s" in word:
                groups.setdefault(word.lstrip("tT"), []).append((m, l))
    return groups


# One table per core in every cycle: six one-s words (about 0.6-0.9 s each
# at the seed), a two-s word (about 1.8 s) and a three-s word (about 2.7 s).
# Eight per cycle puts the median and the tail percentile of a three-cycle
# run on different samples.
TABLE_CORES = ("stt", "sttt", "stttt", "sttttt", "stttttt", "sttttttt", "sTTsTTT", "sssTT")


def table_pool() -> dict[str, list[tuple[int, int]]]:
    groups = _word_groups()
    return {core: groups[core] for core in TABLE_CORES}


def table_plan(seed: int, cycles: int) -> list[list[tuple[int, int]]]:
    rng = _rng("indicator-tables", seed)
    pool = table_pool()
    plan = []
    for _ in range(cycles):
        cycle = [rng.choice(pool[core]) for core in TABLE_CORES]
        rng.shuffle(cycle)
        plan.append(cycle)
    return plan


# ---------------------------------------------------------------------------
# spectra-sweep

OVER_SHAPES = ((2, 0, 0), (2, 1, 0), (2, 0, 1), (3, 0, 0), (3, 1, 0), (3, 0, 1),
               (3, 1, 1), (3, 2, 0), (3, 0, 2))
# Under-crossing calls rebuild the reversed data (about 0.2 s each at the
# seed), so they set the sweep's tail; a fixed count per shape keeps the
# tail percentile inside their cluster whatever the seed.
UNDER_SHAPES = ((3, 0, 0), (3, 1, 0), (3, 0, 1), (3, 1, 1))
OVER_BRAIDS = 8
UNDER_PER_SHAPE = 3


def sweep_braids(seed: int, rank: int = 12) -> list[tuple]:
    """Seeded braid_jm_spectrum calls (a, n, l, m, sign); a is never the unit."""
    rng = _rng("spectra-sweep", seed, "braids")
    over = [rng.choice(OVER_SHAPES) + ("over",) for _ in range(OVER_BRAIDS)]
    under = [shape + ("under",) for shape in UNDER_SHAPES for _ in range(UNDER_PER_SHAPE)]
    return [("braid", rng.randrange(1, rank)) + call for call in over + under]


def sweep_tasks(seed: int, rank: int = 12) -> list[tuple]:
    """Every rotation row (b, a, n), every K^2 triple, and the braid sample."""
    rot = [("rot", b, a, n) for n in (2, 3, 4) for b in range(rank * rank) for a in range(rank)]
    k2 = [("k2", c, b, a) for c in range(rank) for b in range(rank) for a in range(rank)]
    return rot + k2 + sweep_braids(seed, rank)


def sweep_plan(seed: int, cycles: int) -> list[list[tuple]]:
    rng = _rng("spectra-sweep", seed)
    tasks = sweep_tasks(seed)
    plan = []
    for _ in range(cycles):
        cycle = list(tasks)
        rng.shuffle(cycle)
        plan.append(cycle)
    return plan


def sweep_trace_plan(seed: int) -> list[tuple]:
    tasks = sweep_tasks(seed)
    rot = [t for t in tasks if t[0] == "rot"][::TRACE_STRIDE]
    k2 = [t for t in tasks if t[0] == "k2"][::TRACE_STRIDE]
    braids = [t for t in tasks if t[0] == "braid"]
    over = [t for t in braids if t[5] == "over"][:TRACE_BRAIDS]
    under = [t for t in braids if t[5] == "under"][:TRACE_BRAIDS]
    cycle = rot + k2 + over + under
    _rng("spectra-sweep", seed, "trace").shuffle(cycle)
    return cycle


# ---------------------------------------------------------------------------
# cli-mix


class Query:
    """One CLI invocation: argv after ``python -m mtckit.cli``, plus what the
    checker needs to know about its input."""

    def __init__(self, slot: str, args: list[str], source: str, path: str | None = None):
        self.slot = slot
        self.args = args
        self.source = source  # fixture key: catalog name or generated-file id
        self.path = path  # the generated .mtc file, when the input is one

    def key(self) -> str:
        """Identity for the digest table; a generated file by its content id."""
        return " ".join(f"file:{self.source}" if a == self.path else a for a in self.args)


def _fmt(rng: random.Random) -> list[str]:
    return ["--format", rng.choice(("table", "structured"))]


class InputSet:
    """The fixtures a cli-mix plan draws from: catalog data plus generated
    relabelings and Deligne products, built once per plan."""

    def __init__(self):
        from mtckit import dataio

        self.md = {name: dataio.catalog(name) for name in (HAAGERUP,) + SMALL}
        self.fr = {name: dataio.catalog_ring(name) for name in (HAAGERUP,) + SMALL}
        self.text: dict[str, str] = {}

    def _add(self, md, fr) -> str:
        from mtckit import dataio

        text = dataio.format_modular_data(md)
        key = "gen-" + hashlib.sha256(text.encode()).hexdigest()[:12]
        self.md[key] = md
        self.fr[key] = fr
        self.text[key] = text
        return key

    def relabel(self, name: str, rng: random.Random) -> str:
        """The fixture with its simples permuted and renamed."""
        from mtckit.fusion_ring import FusionRing
        from mtckit.modular_data import ModularData

        md, fr = self.md[name], self.fr[name]
        r = md.rank
        perm = list(range(r))
        rng.shuffle(perm)  # new index i holds old object perm[i]
        back = {old: new for new, old in enumerate(perm)}
        prefix = rng.choice(("v", "obj", "q"))
        new_md = ModularData(
            labels=tuple(f"{prefix}{i + 1}" for i in range(r)),
            s=tuple(tuple(md.s[perm[i]][perm[j]] for j in range(r)) for i in range(r)),
            theta=tuple(md.theta[perm[i]] for i in range(r)),
            unit=back[md.unit],
            dual=tuple(back[md.dual[perm[i]]] for i in range(r)),
        )
        new_fr = FusionRing(
            rank=r,
            unit=new_md.unit,
            dual=new_md.dual,
            table=tuple(
                tuple(tuple(fr.table[perm[c]][perm[a]][perm[b]] for b in range(r)) for a in range(r))
                for c in range(r)
            ),
        )
        return self._add(new_md, new_fr)

    def product(self, left: str, right: str) -> str:
        """The Deligne product of two fixtures: S and T are tensor products."""
        from mtckit.fusion_ring import FusionRing
        from mtckit.modular_data import ModularData

        m1, m2 = self.md[left], self.md[right]
        f1, f2 = self.fr[left], self.fr[right]
        r1, r2 = m1.rank, m2.rank
        pairs = [(a, b) for a in range(r1) for b in range(r2)]
        index = {p: i for i, p in enumerate(pairs)}
        md = ModularData(
            labels=tuple(f"{m1.labels[a]}.{m2.labels[b]}" for a, b in pairs),
            s=tuple(tuple(m1.s[a][c] * m2.s[b][d] for c, d in pairs) for a, b in pairs),
            theta=tuple(m1.theta[a] * m2.theta[b] for a, b in pairs),
            unit=index[(m1.unit, m2.unit)],
            dual=tuple(index[(m1.dual[a], m2.dual[b])] for a, b in pairs),
        )
        fr = FusionRing(
            rank=r1 * r2,
            unit=md.unit,
            dual=md.dual,
            table=tuple(
                tuple(tuple(f1.table[c][a][a2] * f2.table[d][b][b2] for a2, b2 in pairs)
                      for a, b in pairs)
                for c, d in pairs
            ),
        )
        return self._add(md, fr)


# indicators on the catalog data: one-s words with similar CLI cost
CLI_INDICATOR_PAIRS = ((2, 1), (2, 3), (2, 5), (2, 7), (2, 9), (2, 11), (4, 1), (5, 1), (6, 1))
# braid shapes (n, l, m) with n - l - m = 2 unwrapped strands, which need the
# center's indicator tables, and with n - l - m = 1, which need none
CLI_BRAID_SHAPES = ((2, 0, 0), (3, 1, 0), (3, 0, 1))
CLI_LIGHT_BRAID_SHAPES = ((2, 1, 0), (2, 0, 1), (3, 1, 1), (3, 2, 0), (3, 0, 2))
PRODUCTS = (("semion", "toric-code"), ("semion", "fibonacci"), ("toric-code", "fibonacci"),
            ("semion", "semion"), ("fibonacci", "fibonacci"))
GOLDEN_ARGS = ["report", f"catalog:{HAAGERUP}", "--braid-sigma", "--object", "x6",
               "--format", "structured"]


def _any_query(rng: random.Random, source_arg: str, md) -> list[str]:
    """A random subcommand with valid parameters for a small input."""
    labels = md.labels
    obj = rng.choice(labels[1:] if len(labels) > 1 else labels)
    kind = rng.choice(("validate", "fusion", "report", "braid", "rotation", "indicators"))
    if kind == "validate":
        return ["validate", source_arg] + _fmt(rng)
    if kind == "fusion":
        return ["fusion", source_arg, "--object", obj] + _fmt(rng)
    if kind == "report":
        flag = rng.choice(("--braid-sigma", "--braid-sigma-triple"))
        return ["report", source_arg, flag, "--object", obj] + _fmt(rng)
    if kind == "braid":
        n, l, m = rng.choice(CLI_BRAID_SHAPES)
        extra = ["--under"] if rng.random() < 0.5 else []
        return ["braid", source_arg, "--object", obj, "--n", str(n), "--l", str(l),
                "--m", str(m)] + extra + _fmt(rng)
    if kind == "rotation":
        return ["rotation", source_arg, "--object", obj, "--n", str(rng.choice((2, 3)))] + _fmt(rng)
    m, l = rng.choice(((2, 1), (3, 1), (3, 2), (4, 1)))
    return ["indicators", source_arg, "--m", str(m), "--l", str(l)] + _fmt(rng)


def cli_cycle(rng: random.Random, inputs: InputSet, workdir) -> list[Query]:
    """Twelve queries: nine on the rank-12 catalog fixture (one of them the
    golden x6 braid table), one on a small catalog fixture, one on a
    relabeled rank-12 file and one on a Deligne product file.

    Costs at the seed fall in three groups: about 0.15 s (small fixture,
    product), 0.45-0.75 s (six queries that only load the rank-12 data or
    need no indicator table) and 1.1-1.8 s (four that build tables). Over
    two cycles the median and the tail percentile (the 14th of 24) both
    fall inside the middle group, not on the edge of one."""
    h = f"catalog:{HAAGERUP}"
    md = inputs.md[HAAGERUP]
    objs = md.labels[1:]  # x1 is the unit
    q: list[Query] = []
    q.append(Query("validate", ["validate", h] + _fmt(rng), HAAGERUP))
    fusion_objs = rng.sample(objs, rng.choice((0, 1, 2)))
    q.append(Query("fusion", ["fusion", h] + [x for o in fusion_objs for x in ("--object", o)] + _fmt(rng), HAAGERUP))
    q.append(Query("golden", list(GOLDEN_ARGS), HAAGERUP))
    flag = rng.choice(("--braid-sigma", "--braid-sigma-triple"))
    q.append(Query("report", ["report", h, flag, "--object", rng.choice(objs)] + _fmt(rng), HAAGERUP))
    m, l = rng.choice(CLI_INDICATOR_PAIRS)
    q.append(Query("indicators", ["indicators", h, "--m", str(m), "--l", str(l)] + _fmt(rng), HAAGERUP))
    left, right = rng.choice(objs), rng.choice(objs)
    q.append(Query("rotation-b", ["rotation", h, "--object", rng.choice(objs), "--n",
                                  str(rng.choice((2, 3))), "--b", f"{left},{right}"] + _fmt(rng), HAAGERUP))
    q.append(Query("rotation", ["rotation", h, "--object", rng.choice(objs), "--n",
                                str(rng.choice((2, 3)))] + _fmt(rng), HAAGERUP))
    for slot, shapes, extra in (("braid", CLI_LIGHT_BRAID_SHAPES, []),
                                ("braid-under", CLI_BRAID_SHAPES, ["--under"])):
        n, l, m = rng.choice(shapes)
        q.append(Query(slot, ["braid", h, "--object", rng.choice(objs), "--n", str(n), "--l", str(l),
                              "--m", str(m)] + extra + _fmt(rng), HAAGERUP))
    small = rng.choice(SMALL)
    q.append(Query("small", _any_query(rng, f"catalog:{small}", inputs.md[small]), small))

    key = inputs.relabel(HAAGERUP, rng)
    path = str(workdir / f"{key}.mtc")
    rel = inputs.md[key]
    kind = rng.choice(("validate", "fusion", "report"))
    if kind == "validate":
        args = ["validate", path] + _fmt(rng)
    elif kind == "fusion":
        args = ["fusion", path, "--object", rng.choice(rel.labels)] + _fmt(rng)
    else:
        args = ["report", path, "--braid-sigma", "--object", rng.choice(rel.labels)] + _fmt(rng)
    q.append(Query("relabel", args, key, path))

    # rank at most 8: toric-code is never squared
    left, right = rng.choice(PRODUCTS)
    key = inputs.product(left, right)
    path = str(workdir / f"{key}.mtc")
    q.append(Query("product", _any_query(rng, path, inputs.md[key]), key, path))
    rng.shuffle(q)
    return q


def cli_plan(seed: int, cycles: int, inputs: InputSet, workdir) -> list[list[Query]]:
    rng = _rng("cli-mix", seed)
    return [cli_cycle(rng, inputs, workdir) for _ in range(cycles)]
