"""Seeded corpus generators, one per workload.

Every job is plain data (lists, tuples, dicts, strings, ints) so that the
timed region builds its own periodlab objects. Generation is pure Python
and calls nothing in periodlab, so a change to the library or to its tests
cannot change the corpus.

Runs with different seeds must be comparable, so the structure of every
input (graph shapes, edges, labels, gap sets, forbidden words, realize
requests and horizons) is drawn once from a fixed generator seed per
workload, with cost-driving parameters on fixed ladders and random inputs
banded by their closed-path count. The seed renames every vertex and edge
and sets the order of the jobs; it does not change what a job costs.
Drawing the structure from the seed instead moved the median job time by
up to 15% between seeds, more than half the benchmark's bound.
"""

from __future__ import annotations

import random


def structure_rng(workload: str) -> random.Random:
    """The generator every seed of ``workload`` draws its inputs from."""
    return random.Random(f"{workload}:structure")


def seed_tag(seed: int) -> str:
    """Prefix the seed gives every vertex and edge name."""
    return f"seed{seed}_"


def relabel(tag: str, vertices, edges):
    """Prefix vertex names and edge ids with ``tag``; labels are kept. A
    shared prefix keeps the names' relative order."""
    return ([tag + v for v in vertices],
            [(tag + s, tag + t, tag + e, *rest) for (s, t, e, *rest) in edges])


def closed_path_total(vertices, edges, N: int) -> int:
    """Sum of tr(A^n) for n <= N by repeated sparse products: the closed
    paths the corpus bands count (independent of periodlab)."""
    idx = {v: i for i, v in enumerate(vertices)}
    succ = [[] for _ in vertices]
    for s, t, *_ in edges:
        succ[idx[s]].append(idx[t])
    total = 0
    for start in range(len(vertices)):
        vec = [0] * len(vertices)
        vec[start] = 1
        for _ in range(N):
            nxt = [0] * len(vertices)
            for u, c in enumerate(vec):
                if c:
                    for t in succ[u]:
                        nxt[t] += c
            vec = nxt
            total += vec[start]
    return total


# -- library: zeta -----------------------------------------------------------

ZETA_SMALL = 60
ZETA_LARGE_SIZES = (30, 34, 38, 42, 46, 50, 54, 58)
ZETA_LARGE_REPEATS = 3
ZETA_TERMS = 40
ZETA_SERIES = 13


def small_matrix_graph(rng: random.Random, n: int = 5):
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            if rng.randint(0, 1):
                edges.append((f"v{i}", f"v{j}", f"e{len(edges)}"))
    return vertices, edges


def cycle_cluster(rng: random.Random, nv: int):
    """Exactly ``nv`` vertices shaped like periodlab.realize's SFT graphs:
    a ring of nv // 3 vertices with three cycles attached at ring vertices."""
    k = 3
    ring = nv // 3
    rest = nv - ring
    cuts = sorted(rng.sample(range(1, rest), k - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [rest])]
    vertices = [f"r{i}" for i in range(ring)]
    edges = [(f"r{i}", f"r{(i + 1) % ring}", f"r.e{i}") for i in range(ring)]
    for c, extra in enumerate(parts):
        anchor = f"r{rng.randrange(ring)}"
        prev = anchor
        for j in range(extra):
            v = f"a{c}.{j}"
            vertices.append(v)
            edges.append((prev, v, f"a{c}.e{j}"))
            prev = v
        edges.append((prev, anchor, f"a{c}.e{extra}"))
    return vertices, edges


def zeta_groups(tag: str) -> list:
    rng = structure_rng("zeta")
    small = [("small_matrix", {"graph": relabel(tag, *small_matrix_graph(rng))})
             for _ in range(ZETA_SMALL)]
    large = [("realization_graph", {"graph": relabel(tag, *cycle_cluster(rng, nv))})
             for nv in ZETA_LARGE_SIZES for _ in range(ZETA_LARGE_REPEATS)]
    return [small, large]


# -- library: sofic ----------------------------------------------------------

SOFIC_HORIZON = 10
SOFIC_PATH_BANDS = ((100, 1000), (1000, 3000), (3000, 6000), (6000, 10000))
# (d, tau) requests whose realize_sofic presentations have 102-739 vertices
SOFIC_REALIZE_CELLS = ((1, 1), (1, 2), (1, 4), (1, 5), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4))
SOFIC_REALIZE_HORIZONS = (12, 16, 20)
GAP_HORIZON = 14
GAP_PATH_BANDS = ((1, 300), (300, 1500), (1500, 4000))


def random_presentation(rng: random.Random, nv: int, alphabet: str = "01"):
    """Random nondeterministic presentation on ``nv`` states: each state reads
    each symbol with probability 3/4 to a random target, and with
    probability 1/5 to a second one. Returns (vertices, [(src, dst, id,
    label)]); at least one edge."""
    while True:
        vertices = [f"s{i}" for i in range(nv)]
        edges = []
        for v in vertices:
            for a in alphabet:
                if rng.random() < 0.75:
                    edges.append((v, f"s{rng.randrange(nv)}", f"e{len(edges)}", a))
                    if rng.random() < 0.2:
                        edges.append((v, f"s{rng.randrange(nv)}", f"e{len(edges)}", a))
        if edges:
            return vertices, edges


def random_gap_set(rng: random.Random, N: int, lo: int, hi: int):
    """Nonempty gap set: up to three finite gaps below 10 and, half the
    time, one progression (a, r) with a <= 6 and r <= 4. Resampled until
    its standard presentation has between lo and hi closed paths up to N."""
    while True:
        finite = sorted(rng.sample(range(0, 10), rng.randint(0, 3)))
        progressions = []
        if rng.random() < 0.5 or not finite:
            progressions.append((rng.randint(0, 6), rng.randint(1, 4)))
        if lo <= closed_path_total(*gap_graph(finite, progressions), N) < hi:
            return finite, progressions


def gap_graph(finite, progressions):
    """Unlabeled standard gap-shift presentation: a root with a return path
    of m + 1 edges per finite gap m, and per progression (a, r) a path of a
    edges into an r-cycle that returns to the root."""
    vertices, edges = ["root"], []
    for m in finite:
        path = ["root"] + [f"f{m}.{j}" for j in range(1, m + 1)] + ["root"]
        vertices += path[1:-1]
        edges += [(u, v, f"f{m}.{j}") for j, (u, v) in enumerate(zip(path, path[1:]))]
    for a, r in progressions:
        path = ["root"] + [f"p{a}.{r}.{j}" for j in range(1, a + 1)]
        loop = [path[-1]] + [f"p{a}.{r}.c{j}" for j in range(1, r)] + [path[-1]]
        vertices += path[1:] + loop[1:-1]
        edges += [(u, v, f"p{a}.{r}.z{j}") for j, (u, v) in enumerate(zip(path, path[1:]))]
        edges += [(u, v, f"p{a}.{r}.cz{j}") for j, (u, v) in enumerate(zip(loop, loop[1:]))]
        edges.append((path[-1], "root", f"p{a}.{r}.one"))
    return vertices, edges


def banded_presentation(rng: random.Random, states, N: int, lo: int, hi: int):
    """Random presentation (states drawn from ``states``) whose closed paths
    up to N number between lo and hi: the band pins the cost of the witness
    sweep, which enumerates those paths."""
    while True:
        vertices, edges = random_presentation(rng, rng.choice(states))
        if lo <= closed_path_total(vertices, edges, N) < hi:
            return vertices, edges


def sofic_groups(tag: str) -> list:
    rng = structure_rng("sofic")
    pres = [
        ("presentation", {"labeled": relabel(tag, *banded_presentation(
            rng, (2, 3, 4, 5), SOFIC_HORIZON, lo, hi)), "N": SOFIC_HORIZON})
        for lo, hi in SOFIC_PATH_BANDS
        for _ in range(12)
    ]
    real = [
        ("realize_sofic", {"finite": [f for f in (5, 7) if f % d][:tau % 3],
                           "components": [(d, tau)], "N": N})
        for d, tau in SOFIC_REALIZE_CELLS
        for N in SOFIC_REALIZE_HORIZONS
    ]
    gaps = []
    for lo, hi in GAP_PATH_BANDS:
        for _ in range(10):
            finite, progressions = random_gap_set(rng, GAP_HORIZON, lo, hi)
            gaps.append(("gap_set", {"finite": finite, "progressions": progressions,
                                     "N": GAP_HORIZON}))
    return [pres, real, gaps]


def library_corpus(seed: int) -> list:
    """Direct library calls: zeta functions and sofic presentations, each
    class spread evenly through the pass."""
    groups = zeta_groups(seed_tag(seed)) + sofic_groups(seed_tag(seed))
    order = random.Random(f"library:{seed}")
    for group in groups:
        order.shuffle(group)
    return interleave(groups)


# -- cli ---------------------------------------------------------------------

CLI_HORIZON = 12
CLI_LABELED_HORIZON = 10
CLI_PATH_BANDS = ((1, 500), (500, 2000), (2000, 6000), (6000, 20000))
CLI_LABELED_BANDS = ((1, 300), (300, 1000), (1000, 3000))
CLI_SPEC_BANDS = ((1, 200), (200, 1000), (1000, 9000))
CLI_REALIZE_CELLS = ((1, 3), (1, 4), (1, 5), (1, 7), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2))


def random_multigraph(rng: random.Random, nv: int, ne: int):
    """(vertices, edges) with uniformly random endpoints."""
    vertices = [f"v{i}" for i in range(nv)]
    edges = [
        (f"v{rng.randrange(nv)}", f"v{rng.randrange(nv)}", f"e{k}")
        for k in range(ne)
    ]
    return vertices, edges


def forbidden_spec(rng: random.Random):
    """Binary alphabet and 1-4 distinct forbidden words of length <= 4."""
    alphabet = "01"
    words = set()
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(2, 4) if rng.random() < 0.85 else 1
        words.add(tuple(rng.choice(alphabet) for _ in range(k)))
    return list(alphabet), sorted(words)


def banded_graph(rng: random.Random, N: int, lo: int, hi: int):
    """Random multigraph on 2-8 vertices with between lo and hi closed
    paths up to N, so the CLI's brute-force oracle does a fixed amount of
    work per band and stays far below its budget."""
    while True:
        nv = rng.randint(2, 8)
        vertices, edges = random_multigraph(rng, nv, rng.randint(nv, 2 * nv))
        if lo <= closed_path_total(vertices, edges, N) < hi:
            return vertices, edges


def block_graph(alphabet, forbidden):
    """(vertices, edges) of the SFT's higher-block presentation: allowed
    (L-1)-blocks joined by allowed L-blocks, L the longest forbidden word
    (at least 2). Written here so the corpus filter does not use periodlab."""
    L = max([2] + [len(w) for w in forbidden])

    def allowed(block):
        return not any(block[i : i + len(w)] == w
                       for w in forbidden for i in range(len(block) - len(w) + 1))

    blocks = [()]
    for _ in range(L - 1):
        blocks = [b + (a,) for b in blocks for a in alphabet]
    vertices = [b for b in blocks if allowed(b)]
    keep = set(vertices)
    edges = [(b, b[1:] + (a,), b + (a,)) for b in vertices for a in alphabet
             if allowed(b + (a,)) and b[1:] + (a,) in keep]
    return vertices, edges


def banded_spec(rng: random.Random, N: int, lo: int, hi: int):
    """Binary forbidden-word spec whose shift has between lo and hi closed
    paths up to N (at most 2^(N+1) - 2 over two symbols)."""
    while True:
        alphabet, forbidden = forbidden_spec(rng)
        if lo <= closed_path_total(*block_graph(alphabet, forbidden), N) < hi:
            return alphabet, forbidden


def graph_json(vertices, edges) -> dict:
    return {"vertices": vertices,
            "edges": [{"id": e, "from": s, "to": t} for (s, t, e) in edges]}


def labeled_json(vertices, edges) -> dict:
    return {"vertices": vertices,
            "edges": [{"id": e, "from": s, "to": t, "label": a}
                      for (s, t, e, a) in edges]}


def descriptor_json(finite, comps) -> dict:
    return {"finite": finite,
            "components": [{"d": d, "threshold": t, "extras": []} for (d, t) in comps],
            "certified": True}


def cycle_json(tag: str, k: int) -> dict:
    return graph_json(*relabel(tag, [f"c{i}" for i in range(k)],
                               [(f"c{i}", f"c{(i + 1) % k}", f"c.e{i}") for i in range(k)]))


def full_shift_json(tag: str, m: int) -> dict:
    return graph_json(*relabel(tag, ["v"], [("v", "v", f"s{i}") for i in range(m)]))


def cli_corpus(seed: int) -> list:
    """CLI jobs as (class, {"argv": [...], "files": {name: json}, ...}).
    File names in argv are relative to the work directory the runner
    writes the files to."""
    rng, tag, order = structure_rng("cli"), seed_tag(seed), random.Random(f"cli:{seed}")
    h = str(CLI_HORIZON)
    classes = []

    def job(cls, files, argv, **extra):
        classes.append((cls, {"files": files, "argv": argv, **extra}))

    for i, (lo, hi) in enumerate(CLI_PATH_BANDS * 4):
        name = f"graph{i}.json"
        job("analyze_graph",
            {name: graph_json(*relabel(tag, *banded_graph(rng, CLI_HORIZON, lo, hi)))},
            ["analyze", "--input", name, "--horizon", h])
    for i, (lo, hi) in enumerate(CLI_SPEC_BANDS * 4):
        alphabet, forbidden = banded_spec(rng, CLI_HORIZON, lo, hi)
        name = f"forbidden{i}.json"
        job("analyze_forbidden", {name: {"alphabet": alphabet, "forbidden": forbidden}},
            ["analyze", "--input", name, "--horizon", h])
    hl = str(CLI_LABELED_HORIZON)
    for i, (lo, hi) in enumerate(CLI_LABELED_BANDS * 4):
        name = f"labeled{i}.json"
        pres = banded_presentation(rng, (2, 3, 4), CLI_LABELED_HORIZON, lo, hi)
        job("analyze_labeled", {name: labeled_json(*relabel(tag, *pres))},
            ["analyze", "--input", name, "--horizon", hl])
    for i, (lo, hi) in enumerate(GAP_PATH_BANDS * 4):
        finite, progressions = random_gap_set(rng, CLI_HORIZON, lo, hi)
        name = f"gap{i}.json"
        job("analyze_gap", {name: {"finite": finite,
                                   "progressions": [{"a": a, "r": r} for a, r in progressions]}},
            ["analyze", "--input", name, "--horizon", h])
    for i, (lo, hi) in enumerate(CLI_LABELED_BANDS * 3):
        name = f"layers{i}.json"
        pres = banded_presentation(rng, (2, 3, 4), CLI_LABELED_HORIZON, lo, hi)
        job("layers", {name: labeled_json(*relabel(tag, *pres))},
            ["layers", "--input", name, "--horizon", hl])
    # realize requests come from fixed ladders, so their cost does not move
    # with the seed
    for target in ("irreducible_sft", "reducible_sft", "irreducible_sofic",
                   "arbitrary_subshift", "period_set_variant"):
        for i, (d, tau) in enumerate(CLI_REALIZE_CELLS):
            if target in ("irreducible_sft", "period_set_variant"):
                finite = []  # keeps the set closed under multiples
            else:
                finite = [f for f in (5, 7) if f % d][: i % 2]
            name = f"{target}{i}.json"
            job("realize_" + target, {name: descriptor_json(finite, [(d, tau)])},
                ["realize", "--input", name, "--target", target, "--horizon", h])
    for i in range(12):
        k = rng.randint(1, 6)
        m = rng.randint(2, 4)
        files = {f"x{i}.json": cycle_json(tag, k), f"y{i}.json": full_shift_json(tag, m)}
        job("embed_check", files, ["embed-check", f"x{i}.json", f"y{i}.json", "--horizon", h],
            cycle=k, shift=m)
    order.shuffle(classes)
    return classes


# -- shared ------------------------------------------------------------------


def interleave(groups: list) -> list:
    """Merge job lists so that every prefix keeps roughly the overall class
    proportions (largest-remainder round robin)."""
    total = sum(len(g) for g in groups)
    taken = [0] * len(groups)
    out = []
    for step in range(1, total + 1):
        best = max(
            range(len(groups)),
            key=lambda i: (len(groups[i]) * step / total - taken[i], -i),
        )
        out.append(groups[best][taken[best]])
        taken[best] += 1
    return out


CORPORA = {
    "library": library_corpus,
    "cli": cli_corpus,
}

# What each corpus holds besides its class counts, for the run record.
PARAMETERS = {
    "library": {
        "zeta": {"small": "5x5 0/1 matrices", "large_sizes": ZETA_LARGE_SIZES,
                 "large_repeats": ZETA_LARGE_REPEATS, "terms": ZETA_TERMS,
                 "series": ZETA_SERIES},
        "sofic": {"horizon": SOFIC_HORIZON, "path_bands": SOFIC_PATH_BANDS,
                  "realize_cells": SOFIC_REALIZE_CELLS,
                  "realize_horizons": SOFIC_REALIZE_HORIZONS, "gap_horizon": GAP_HORIZON,
                  "gap_path_bands": GAP_PATH_BANDS},
    },
    "cli": {"horizon": CLI_HORIZON, "labeled_horizon": CLI_LABELED_HORIZON,
            "path_bands": CLI_PATH_BANDS, "labeled_bands": CLI_LABELED_BANDS,
            "spec_bands": CLI_SPEC_BANDS,
            "realize_cells": CLI_REALIZE_CELLS},
}


def describe(jobs: list) -> dict:
    """Job count per input class."""
    out: dict = {}
    for cls, _ in jobs:
        out[cls] = out.get(cls, 0) + 1
    return out
