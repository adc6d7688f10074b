"""Workload definitions: the op lists, their seeded inputs and their output checks.

Each op is one ``nielsen`` command line, run through ``nielsen.cli.main``.
An op carries the number of Nielsen-graph tuples it handles (fixed per op
and seed, the numerator of ``states_per_s``) and a check of its stdout built
from closed forms and theorem flags. This module never imports ``nielsen``:
the set-up probes time that import, and the inputs are the benchmark's own.

The seed varies only inputs whose work size is provably fixed:

* F_2 and Heisenberg roots are images of a fixed generating pair under an
  automorphism. An automorphism of G acts on N_n(G) as a graph automorphism,
  so every ball size is seed-invariant. For F_2 the automorphism is a
  signed letter permutation composed with a signed entry permutation, which
  also keeps every word length in the ball, so the work is the same too.
* the relabelling of the Q8 multiplication table,
* the 100 euclid roots.

N_2(Z) and D_inf roots stay fixed: their ball sizes depend on the root.
The ``cover --seed`` sample seed stays fixed too: rejection sampling and the
sizes of the sampled entries made 200 samples cost up to half as much again
from one seed to the next.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable

WORKLOADS = ("ball_infinite", "finite_classes", "certify_roundtrip")

# label propagation replaced union-find above this many tuples at the
# commit that defined the benchmark; the traced run counts calls per side
COMPONENTS_SWITCH = 300_000

# Ball sizes recorded from the program at the commit that defined the
# benchmark. They are Aut-invariant, so they hold for every seed.
F2_BALLS = (1, 11, 76, 406, 1776, 7008, 26328, 96536)
HEIS_BALLS = (1, 11, 76, 406, 1708, 6260, 21032, 67064)
N3Z_BALLS = (1, 6, 26, 82, 258, 810, 2598, 8230)
HEIS_CHEEGER = (1708, 10280)  # best ball of radius < 5: B_4 and its cut edges

# the sample seed of every cover op
COVER_SEED = 1

# Q8 on the signed units 1, -1, i, -i, j, -j, k, -k
Q8_TABLE = (
    (0, 1, 2, 3, 4, 5, 6, 7),
    (1, 0, 3, 2, 5, 4, 7, 6),
    (2, 3, 1, 0, 6, 7, 5, 4),
    (3, 2, 0, 1, 7, 6, 4, 5),
    (4, 5, 7, 6, 1, 0, 2, 3),
    (5, 4, 6, 7, 0, 1, 3, 2),
    (6, 7, 4, 5, 3, 2, 1, 0),
    (7, 6, 5, 4, 2, 3, 0, 1),
)

INTEGERS = '{"kind":"Integers"}'


@dataclass
class Op:
    """One CLI invocation with its fixed tuple count and its output check.

    ``check(stdout, files)`` returns a list of problems; ``files`` maps each
    path in ``outputs`` to the text the op wrote there.
    """

    name: str
    argv: list[str]
    tuples: int
    check: Callable[[str, dict], list[str]]
    seeded: bool = False
    outputs: tuple[str, ...] = ()
    reference: str = "python"   # the calibrate kernel whose speed the op's time is normalised by


@dataclass
class Workload:
    name: str
    seed: int
    tiny: bool
    ops: list[Op] = field(default_factory=list)

    def specs(self) -> tuple[list, list]:
        """Every group and epimorphism JSON the ops name, deduplicated."""
        groups, epis = {}, {}
        for op in self.ops:
            for flag, bucket in (("--group", groups), ("--pi", epis)):
                if flag in op.argv:
                    text = op.argv[op.argv.index(flag) + 1]
                    bucket.setdefault(text, json.loads(text))
        return list(groups.values()), list(epis.values())


# -- closed forms --------------------------------------------------------


def n2z_ball(r: int) -> int:
    """|B_r| of N_2(Z) at (1, 1): 9 * 2**(r-1) for r >= 2."""
    return (1, 7)[r] if r < 2 else 9 * 2 ** (r - 1)


def dinf_ball(r: int) -> int | None:
    """|B_r| of N_2(D_inf) at the reflection pair: 12r - 8 for r >= 3."""
    return 12 * r - 8 if r >= 3 else None


def spanning_tuples(p: int, d: int, n: int) -> int:
    """Number of n-tuples spanning F_p^d."""
    return math.prod(p**n - p**i for i in range(d))


def generating_tuples(p: int, d: int, frattini: int, n: int) -> int:
    """Generating n-tuples of a p-group with Frattini quotient F_p^d and
    Frattini subgroup of order ``frattini`` (Burnside basis theorem)."""
    return spanning_tuples(p, d, n) * frattini**n


def coprime_tuples(w: int, k: int) -> int:
    """Number of k-tuples in [1, w]^k with gcd 1 (Moebius inversion)."""
    mu = [1] * (w + 1)
    is_comp = [False] * (w + 1)
    primes: list[int] = []
    for i in range(2, w + 1):
        if not is_comp[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > w:
                break
            is_comp[i * p] = True
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    return sum(mu[d] * (w // d) ** k for d in range(1, w + 1))


def forest_vertices(n: int, w: int) -> int:
    """Image vertices scanned by ``forest verify``: one positive gcd-1 block
    per zero set of size at most n - 2."""
    return sum(math.comb(n, z) * coprime_tuples(w, n - z) for z in range(n - 1))


def forest_components(n: int) -> int:
    return sum(math.comb(n, z) * 2 ** (n - z) for z in range(n - 1))


# -- seeded inputs -------------------------------------------------------


def _word_inverse(w: str) -> str:
    return w[::-1].swapcase()


def f2_root(rng: random.Random) -> list[str]:
    """Image of the pair (ab, b) under a seeded length-preserving automorphism."""
    pair = ["ab", "b"]
    letters = rng.sample("ab", 2)
    signs = [rng.random() < 0.5 for _ in range(2)]
    image = {}
    for src, dst, flip in zip("ab", letters, signs):
        image[src] = dst.upper() if flip else dst
        image[src.upper()] = dst if flip else dst.upper()
    pair = ["".join(image[c] for c in w) for w in pair]
    if rng.random() < 0.5:
        pair.reverse()
    return [_word_inverse(w) if rng.random() < 0.5 else w for w in pair]


def _heis_mul(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])


def _heis_inv(a):
    return (-a[0], -a[1], a[0] * a[1] - a[2])


def heisenberg_root(rng: random.Random, steps: int = 6) -> list[list[int]]:
    """Image of the standard pair under a seeded word of Nielsen moves."""
    g = [(1, 0, 0), (0, 1, 0)]
    for _ in range(steps):
        kind = rng.choice("RLI")
        i = rng.randrange(2)
        if kind == "I":
            g[i] = _heis_inv(g[i])
            continue
        h = g[1 - i] if rng.random() < 0.5 else _heis_inv(g[1 - i])
        g[i] = _heis_mul(g[i], h) if kind == "R" else _heis_mul(h, g[i])
    return [list(x) for x in g]


def relabelled_q8(rng: random.Random) -> dict:
    sigma = list(range(8))
    rng.shuffle(sigma)
    table = [[0] * 8 for _ in range(8)]
    for a in range(8):
        for b in range(8):
            table[sigma[a]][sigma[b]] = sigma[Q8_TABLE[a][b]]
    return {"kind": "FiniteCayley", "table": table, "identity": sigma[0]}


def euclid_roots(rng: random.Random, count: int, bound: int = 10_000) -> list[list[int]]:
    roots = []
    while len(roots) < count:
        t = [rng.randint(-bound, bound) for _ in range(3)]
        if math.gcd(*t) == 1:
            roots.append(t)
    return roots


# -- checks --------------------------------------------------------------


def _report(stdout: str) -> tuple[dict | None, list[str]]:
    try:
        obj = json.loads(stdout)
    except json.JSONDecodeError as e:
        return None, [f"stdout is not one JSON report: {e}"]
    if not isinstance(obj, dict) or not str(obj.get("tool", "")).startswith("nielsen "):
        return None, ["report lacks the tool field"]
    return obj, []


def _expect(obj: dict, **fields) -> list[str]:
    return [f"{k} = {obj.get(k)!r}, expected {v!r}" for k, v in fields.items() if obj.get(k) != v]


def _json_check(fn):
    """Wrap a check of the parsed report into a check of raw stdout."""

    def check(stdout: str, files: dict) -> list[str]:
        obj, problems = _report(stdout)
        return problems if obj is None else fn(obj)

    return check


def _profile_check(expected: list[int | None], root=None):
    """Growth profile against closed-form sizes; None entries are unconstrained."""

    def fn(obj):
        prof = obj.get("profile") or obj.get("balls")
        if not isinstance(prof, list) or len(prof) != len(expected):
            return [f"profile has {len(prof or [])} radii, expected {len(expected)}"]
        out = []
        for r, want in enumerate(expected):
            if prof[r][0] != r or (want is not None and prof[r][1] != want):
                out.append(f"|B_{r}| = {prof[r][1]}, expected {want}")
        if root is not None and obj.get("root") != root:
            out.append("root not echoed")
        return out

    return fn


def _ratio_check(obj) -> list[str]:
    size, boundary = obj.get("set_size"), obj.get("boundary_edges")
    if not (isinstance(size, int) and size > 0 and isinstance(boundary, int)):
        return ["malformed isoperimetric report"]
    if obj["ratio_num"] * size != boundary * obj["ratio_den"] or math.gcd(obj["ratio_num"], obj["ratio_den"]) != 1:
        return ["ratio is not boundary/size in lowest terms"]
    return []


def _components_check(order: int, n: int, generating: int, classes: int):
    def fn(obj):
        out = _expect(obj, n=n, total_tuples=order**n, generating_tuples=generating, components=classes)
        if sum(obj.get("sizes", [])) != generating or len(obj.get("representatives", [])) != classes:
            out.append("class sizes or representatives do not match the class count")
        return out

    return fn


def _tame_check(aut_order: int, index: int):
    def fn(obj):
        out = _expect(obj, ok=True, aut_order=aut_order, index=index, num_components=index,
                      components_isomorphic=True, cayley_match=True)
        if obj.get("component_sizes") != [aut_order // index] * index:
            out.append("component sizes differ from the tame subgroup order")
        return out

    return fn


def _forest_check(n: int, w: int):
    def fn(obj):
        out = _expect(obj, n=n, window=w, acyclic=True, coverage_ok=True, descent_ok=True,
                      components_checked=forest_components(n), vertices_checked=forest_vertices(n, w))
        if not isinstance(obj.get("min_interior_degree"), int) or obj["min_interior_degree"] < 3:
            out.append("interior forest degree below 3")
        return out

    return fn


def _dot_check(header: str, nodes: int, edges: int):
    """A DOT document with exactly this many node and edge lines."""

    def check(stdout: str, files: dict) -> list[str]:
        lines = stdout.splitlines()
        if not lines or lines[0] != header or lines[-1] != "}":
            return [f"not a DOT document opening with {header!r}"]
        got_edges = sum(1 for ln in lines if " -- " in ln)
        got_nodes = sum(1 for ln in lines if ln.endswith("];")) - got_edges
        if (got_nodes, got_edges) != (nodes, edges):
            return [f"{got_nodes} nodes and {got_edges} edges, expected {nodes} and {edges}"]
        return []

    return check


def _export_jsonl_check(r: int, path: str):
    def check(stdout: str, files: dict) -> list[str]:
        if stdout:
            return ["export with --output wrote to stdout"]
        text = files.get(path)
        if text is None:
            return ["export file missing"]
        rows = text.count("\n")
        frontier = text.count('"adj": null')
        if (rows, rows - frontier) != (n2z_ball(r), n2z_ball(r - 1)):
            return [f"{rows} rows with {rows - frontier} expanded, expected {n2z_ball(r)} and {n2z_ball(r - 1)}"]
        return []

    return check


def _cover_check(pi: dict, samples: int, lifted: int | None):
    def fn(obj):
        return _expect(obj, pi=pi, n=2, checked=samples, moves=10, violations=0, lifted=lifted,
                       unreached=None if lifted is None else 0)

    return fn


def _euclid_check(root: list[int]):
    def fn(obj):
        out = _expect(obj, root=root, verified=True, result=[1] + [0] * (len(root) - 1))
        if obj.get("length") != len(obj.get("word", ())):
            out.append("word length disagrees with the word")
        return out

    return fn


# -- workloads -------------------------------------------------------------


def _op(name, argv, tuples, check, seeded=False, outputs=(), reference="python"):
    return Op(name, [str(a) for a in argv], tuples, check, seeded, tuple(outputs), reference)


def _ball_infinite(seed: int, tiny: bool) -> list[Op]:
    rng = random.Random(f"ball_infinite:{seed}")
    f2 = f2_root(rng)
    heis = heisenberg_root(rng)
    r_n2z, r_heis, r_f2, r_dinf, r_n3z, r_sweep, r_heis_ch, k = (
        (4, 3, 3, 20, 3, 4, 3, 6) if tiny else (12, 6, 5, 500, 7, 11, 5, 20)
    )
    heis_ball = [HEIS_BALLS[r] for r in range(r_heis + 1)]

    def explore_heis(obj):
        out = _profile_check(heis_ball, heis)(obj)
        return out + _expect(obj, vertices=heis_ball[-1], expanded=heis_ball[-2], truncated=False)

    def cheeger_heis(obj):
        # ball isoperimetry is Aut-invariant: the best ball is one of B_0..B_{r-1}
        out = _ratio_check(obj)
        if obj.get("set_size") not in HEIS_BALLS[:r_heis_ch]:
            out.append(f"set size {obj.get('set_size')} is not a ball size")
        if not tiny:
            out += _expect(obj, set_size=HEIS_CHEEGER[0], boundary_edges=HEIS_CHEEGER[1])
        return out

    def spectral(obj):
        out = _expect(obj, k=k, m=10, root=[1, 1])
        a_k = obj.get("a_k")
        if not isinstance(a_k, int) or a_k <= 0 or abs(obj.get("rho_hat", 0) - a_k ** (1 / k) / 10) > 1e-12:
            out.append("rho_hat is not a_k**(1/k)/m")
        return out

    return [
        _op("growth_n2z", ["growth", "--group", INTEGERS, "--root", "[1,1]", "--radius", r_n2z],
            n2z_ball(r_n2z),
            _json_check(_profile_check([1, None] + [n2z_ball(r) for r in range(2, r_n2z + 1)], [1, 1]))),
        _op("explore_heisenberg", ["explore", "--group", '{"kind":"Heisenberg"}', "--root", json.dumps(heis),
                                   "--radius", r_heis],
            heis_ball[-1], _json_check(explore_heis), seeded=True),
        _op("growth_f2", ["growth", "--group", '{"kind":"FreeGroup","d":2}', "--root", json.dumps(f2),
                          "--radius", r_f2],
            F2_BALLS[r_f2], _json_check(_profile_check(list(F2_BALLS[: r_f2 + 1]), f2)), seeded=True),
        _op("growth_dinf", ["growth", "--group", '{"kind":"InfiniteDihedral"}', "--root", "[[0,1],[1,1]]",
                            "--radius", r_dinf],
            dinf_ball(r_dinf), _json_check(_profile_check([1] + [dinf_ball(r) for r in range(1, r_dinf + 1)]))),
        _op("growth_n3z", ["growth", "--group", INTEGERS, "--root", "[1,0,0]", "--radius", r_n3z],
            N3Z_BALLS[r_n3z], _json_check(_profile_check(list(N3Z_BALLS[: r_n3z + 1]), [1, 0, 0]))),
        _op("cheeger_sweep_n2z", ["cheeger", "--strategy", "sweep", "--group", INTEGERS, "--root", "[1,1]",
                                  "--radius", r_sweep],
            n2z_ball(r_sweep), _json_check(_ratio_check)),
        _op("cheeger_balls_heisenberg", ["cheeger", "--group", '{"kind":"Heisenberg"}', "--root", json.dumps(heis),
                                         "--radius", r_heis_ch],
            HEIS_BALLS[r_heis_ch], _json_check(cheeger_heis), seeded=True),
        # closed walks of length k stay in the ball of radius k/2 + 1
        _op("spectral_n2z", ["spectral", "--group", INTEGERS, "--root", "[1,1]", "--k", k],
            n2z_ball(k // 2 + 1), _json_check(spectral)),
    ]


def _finite_classes(seed: int, tiny: bool) -> list[Op]:
    rng = random.Random(f"finite_classes:{seed}")
    q8 = relabelled_q8(rng)
    # Pak n = d(G) + 1: connected for these solvable groups (Dunwoody)
    n_b23, n_q8, n_z9, p_tame = (2, 3, 2, 5) if tiny else (3, 4, 6, 5)
    b23 = '{"kind":"BurnsideB23"}'
    z7sq = '{"kind":"FiniteAbelianExp","m":7,"d":2}'
    zp_tame = json.dumps({"kind": "FiniteAbelianExp", "m": p_tame, "d": 2})
    gl2 = generating_tuples(p_tame, 2, 1, 2)
    return [
        _op("components_b23", ["components", "--group", b23, "--n", n_b23], 27**n_b23,
            _json_check(_components_check(27, n_b23, generating_tuples(3, 2, 3, n_b23), 1))),
        _op("components_q8", ["components", "--group", json.dumps(q8), "--n", n_q8], 8**n_q8,
            _json_check(_components_check(8, n_q8, generating_tuples(2, 2, 2, n_q8), 1)), seeded=True),
        _op("components_z9", ["components", "--group", '{"kind":"FiniteAbelianExp","m":9,"d":1}', "--n", n_z9],
            9**n_z9, _json_check(_components_check(9, n_z9, generating_tuples(3, 1, 3, n_z9), 1)),
            reference="numpy" if 9**n_z9 > COMPONENTS_SWITCH else "python"),
        # Diaconis-Graham: N_2((Z/7)^2) has phi(7)/2 = 3 classes
        _op("components_z7sq", ["components", "--group", z7sq, "--n", 2], 49**2,
            _json_check(_components_check(49, 2, generating_tuples(7, 2, 1, 2), 3))),
        _op("tame_b23", ["tame", "--group", b23, "--d", 2], generating_tuples(3, 2, 3, 2),
            _json_check(_tame_check(generating_tuples(3, 2, 3, 2), 1))),
        _op(f"tame_z{p_tame}sq", ["tame", "--group", zp_tame, "--d", 2], gl2,
            _json_check(_tame_check(gl2, (p_tame - 1) // 2))),
    ]


def _certify_roundtrip(seed: int, tiny: bool, tmpdir: str) -> list[Op]:
    rng = random.Random(f"certify_roundtrip:{seed}")
    roots = euclid_roots(rng, 5 if tiny else 100)
    w3, w2, w_dot, samples, r_jsonl, r_dot = (4, 10, 4, 20, 4, 3) if tiny else (12, 100, 14, 200, 10, 10)
    fragment = f"{tmpdir}/n2z_ball.jsonl"
    tree = coprime_tuples(w_dot, 3)
    project = {"domain": {"d": 2, "kind": "FreeAbelian"}, "e": 1, "rule": "project"}
    abelianize = {"domain": {"kind": "Heisenberg"}, "rule": "abelianize"}
    mod = {"domain": {"d": 2, "kind": "FreeAbelian"}, "m": 5, "rule": "mod"}

    def cover(name, pi, extra=(), lifted=None):
        argv = ["cover", "verify", "--pi", json.dumps(pi, sort_keys=True), "--n", 2, "--samples", samples,
                "--seed", COVER_SEED, *extra]
        return _op(name, argv, samples * 10 + (lifted or 0),
                   _json_check(_cover_check(pi, samples, lifted)))

    ops = [
        _op("forest_verify_n3", ["forest", "verify", "--n", 3, "--window", w3], forest_vertices(3, w3),
            _json_check(_forest_check(3, w3))),
        _op("forest_verify_n2", ["forest", "verify", "--n", 2, "--window", w2], forest_vertices(2, w2),
            _json_check(_forest_check(2, w2))),
        # a tree on the positive gcd-1 triples of the window: V nodes, V - 1 edges
        _op("forest_dot_ppp", ["forest", "--n", 3, "--window", w_dot, "--pattern", "+++"], tree,
            _dot_check("graph forest_component {", tree, tree - 1)),
        _op("export_jsonl_n2z", ["export", "--format", "jsonl", "--group", INTEGERS, "--root", "[1,1]",
                                 "--radius", r_jsonl, "--output", fragment],
            n2z_ball(r_jsonl), _export_jsonl_check(r_jsonl, fragment), outputs=(fragment,)),
        # (1,0),(1,1) generates Z^2 and projects onto the fragment root (1,1)
        cover("cover_project", project, ["--fragment", fragment, "--seed-tuple", "[[1,0],[1,1]]"],
              lifted=n2z_ball(r_jsonl)),
        cover("cover_abelianize", abelianize),
        cover("cover_mod", mod),
        _op("export_dot_n2z", ["export", "--format", "dot", "--group", INTEGERS, "--root", "[1,1]",
                               "--radius", r_dot],
            # every vertex of B_{r-1} is expanded and lists one dart per move
            n2z_ball(r_dot), _dot_check("graph nielsen {", n2z_ball(r_dot), 10 * n2z_ball(r_dot - 1))),
    ]
    for k, root in enumerate(roots):
        ops.append(_op(f"euclid_{k:03d}", ["euclid", "--root", json.dumps(root)], 1,
                       _json_check(_euclid_check(root)), seeded=True))
    return ops


def build(name: str, seed: int, tmpdir: str, tiny: bool = False) -> Workload:
    """The op list of a workload; ``tiny`` shrinks every size for self-tests."""
    if name == "ball_infinite":
        ops = _ball_infinite(seed, tiny)
    elif name == "finite_classes":
        ops = _finite_classes(seed, tiny)
    elif name == "certify_roundtrip":
        ops = _certify_roundtrip(seed, tiny, tmpdir)
    else:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    return Workload(name, seed, tiny, ops)
