"""Amenability lab: boundary ratios, walk counts, spectral estimates."""

from fractions import Fraction

import numpy as np
import pytest

from nielsen.amenability import (
    cheeger_search,
    closed_walks,
    iso_ratio,
    spectral_estimate,
)
from nielsen.errors import ResourceCapError, UsageError
from nielsen.explore import ball, fragment_from_jsonl
from nielsen.groups import (
    DEFAULT_VERTEX_CAP,
    BurnsideB23,
    FiniteAbelianExp,
    FiniteCayley,
    FreeGroup,
    Heisenberg,
    InfiniteDihedral,
    Integers,
)

from conftest import dihedral_table
from oracles import brute_force_closed_walks, reference_closed_walks

Z = Integers()
D = InfiniteDihedral()
DINF_ROOT = ((0, 1), (1, 1))


def test_iso_singleton_at_ones():
    frag = ball(Z, (1, 1), 2)
    rep = iso_ratio(frag, [(1, 1)])
    assert rep.size == 1 and rep.boundary == 10
    assert rep.ratio == Fraction(10)


def test_iso_whole_finite_graph_is_zero():
    frag = ball(Z, (1,), 3)
    rep = iso_ratio(frag, [(1,), (-1,)])
    assert rep.ratio == 0


def test_iso_members_by_key():
    frag = ball(Z, (1, 1), 2)
    ball1 = frag.ball_indices(1)
    assert iso_ratio(frag, [frag.keys[v] for v in ball1]) == iso_ratio(frag, ball1)
    with pytest.raises(UsageError):
        iso_ratio(frag, [frag.keys[0] + b"\x00"])  # trailing byte
    with pytest.raises(UsageError):
        iso_ratio(frag, [Z.encode_element(7) * 2])  # a tuple outside the fragment
    F = FreeGroup(2)
    frag = ball(F, F.standard_generators(), 1)
    with pytest.raises(UsageError, match="not present"):
        iso_ratio(frag, [b"\x04\x00\x00\x00\xff\xff\xff\x7f"])  # word length 2^31 - 1, no letters


def test_iso_members_by_numpy_index():
    frag = ball(Z, (1, 1), 2)
    k = len(frag.ball_indices(1))
    assert iso_ratio(frag, np.arange(k)) == iso_ratio(frag, list(range(k)))
    assert iso_ratio(frag, np.flatnonzero(frag.depths <= 1)) == iso_ratio(frag, frag.ball_indices(1))


@pytest.mark.parametrize("member", [True, False, np.True_, 0.0, 1.5, np.float64(1), [1, 1], None, "00"])
def test_iso_refuses_members_that_are_not_indices_keys_or_tuples(member):
    frag = ball(Z, (1, 1), 2)
    with pytest.raises(UsageError, match="not a vertex index, key or tuple"):
        iso_ratio(frag, [0, member])


def test_iso_requires_expanded_members():
    frag = ball(Z, (1, 1), 1)
    with pytest.raises(UsageError):
        iso_ratio(frag, [(2, 1)])  # frontier vertex
    with pytest.raises(UsageError):
        iso_ratio(frag, [])


def test_iso_complement_symmetry():
    # finite graph: N_2 of Z/2 has 3 vertices, fully expanded at radius 3
    G = FiniteAbelianExp(2, 1)
    frag = ball(G, ((1,), (0,)), 4)
    assert all(frag.expanded)
    all_idx = set(range(len(frag)))
    for size in (1, 2):
        from itertools import combinations

        for sub in combinations(all_idx, size):
            s = set(sub)
            a = iso_ratio(frag, s)
            b = iso_ratio(frag, all_idx - s)
            assert a.boundary == b.boundary


def test_walk_counts_basics():
    aks = closed_walks(Z, (1, 1), 4)
    assert aks[0] == 1
    assert aks[1] == 0  # no move fixes (1,1)
    assert aks[2] >= 10
    aks = closed_walks(Z, (1,), 6)
    assert aks == [1, 0, 1, 0, 1, 0, 1]  # two-vertex I-edge graph
    loops = closed_walks(Z, (1, 0), 2)
    assert loops[1] == 5  # R/L on the zero slot and I_2 fix (1, 0)


def test_walk_counts_match_brute_force():
    for group, root in ((Z, (1, 1)), (D, DINF_ROOT)):
        assert closed_walks(group, root, 6) == brute_force_closed_walks(group, root, 6)


@pytest.mark.parametrize("group,root", [(Z, (1, 1)), (D, DINF_ROOT)], ids=["N2Z", "D_inf"])
def test_walk_counts_past_int64_match_the_row_sum_oracle(group, root):
    # m = 10 moves, so the DP's counts turn into Python ints at k = 19 (10^19 >= 2^63)
    assert closed_walks(group, root, 20) == reference_closed_walks(group, root, 20)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 19, 20, 21])
@pytest.mark.parametrize("group,root", [(Z, (1, 1)), (D, DINF_ROOT)], ids=["N2Z", "D_inf"])
def test_walk_counts_by_halves_match_the_row_sum_oracle(group, root, k):
    # the DP by halves runs ceil(k/2) steps; the oracle runs k steps over a ball one layer wider
    counts = closed_walks(group, root, k)
    assert counts == reference_closed_walks(group, root, k)
    if k:
        assert spectral_estimate(group, root, k).a_k == counts[k]


def test_walk_counts_by_halves_on_heisenberg_and_past_int64_on_a_finite_group():
    H = Heisenberg()
    root = H.standard_generators()
    counts = closed_walks(H, root, 8)
    assert counts == reference_closed_walks(H, root, 8)
    assert [spectral_estimate(H, root, k).a_k for k in range(1, 9)] == counts[1:]
    # Z/3 as a table: 8 vertices, so the counts pass 2^63 at k = 19 and the dots well before k = 40
    z3 = FiniteCayley([[0, 1, 2], [1, 2, 0], [2, 0, 1]], 0)
    counts = closed_walks(z3, (1, 0), 40)
    assert counts == reference_closed_walks(z3, (1, 0), 40)
    assert counts[40] > 2**63
    assert spectral_estimate(z3, (1, 0), 40).a_k == counts[40]
    assert spectral_estimate(z3, (1, 0), 39).a_k == counts[39]


def test_walks_window_precondition():
    with pytest.raises(UsageError) as err:
        closed_walks(Z, (1, 1), 12, window=2)
    assert "distance 5" in str(err.value)
    # a window that does contain the needed ball is accepted
    assert closed_walks(Z, (1, 1), 4, window=30) == closed_walks(Z, (1, 1), 4)


def test_window_that_blocks_only_at_distance_half_k_is_accepted():
    # on N_2(Z) at (1, 1) the largest entry within distance d is Fibonacci F_{d+2}: window 5
    # holds every vertex within distance 3 and blocks some at distance 4 = k/2, which the
    # walks of length 8 reach but never leave
    assert ball(Z, (1, 1), 5, window=5).truncated_at == 4
    assert closed_walks(Z, (1, 1), 8, window=5) == closed_walks(Z, (1, 1), 8)
    assert spectral_estimate(Z, (1, 1), 8, window=5) == spectral_estimate(Z, (1, 1), 8)
    with pytest.raises(UsageError, match="distance 3 of the root"):
        closed_walks(Z, (1, 1), 8, window=4)
    with pytest.raises(UsageError, match="distance 4 of the root"):
        closed_walks(Z, (1, 1), 9, window=5)


def test_walk_dp_past_the_cap_is_refused_before_its_ball():
    # N_1(Z) has two vertices: k x 2 over the cap is refused, k x 2 at it runs
    with pytest.raises(ResourceCapError, match="walk DP of 2500001 steps"):
        closed_walks(Z, (1,), DEFAULT_VERTEX_CAP // 2 + 1)
    assert closed_walks(Z, (1,), 20) == [1, 0] * 10 + [1]
    with pytest.raises(ResourceCapError, match="walk DP"):
        closed_walks(Z, (1, 1), 10**100)


def test_spectral_estimates():
    with pytest.raises(UsageError):
        spectral_estimate(Z, (1, 1), 0)
    est = spectral_estimate(Z, (1,), 8)
    assert est.m == 1 and est.a_k == 1 and est.rho_hat == 1.0
    ez = spectral_estimate(Z, (1, 1), 16)
    ed = spectral_estimate(D, DINF_ROOT, 16)
    assert 0 <= ez.rho_hat <= 1 + 1e-12 and 0 <= ed.rho_hat <= 1 + 1e-12
    assert ed.rho_hat > ez.rho_hat
    assert "limsup" in ed.note


def test_cheeger_search_balls():
    best = cheeger_search(ball(Z, (1, 1), 9), "balls")
    assert best.ratio >= Fraction(1, 5)
    big = cheeger_search(ball(D, DINF_ROOT, 20), "balls")
    small = cheeger_search(ball(D, DINF_ROOT, 40), "balls")
    assert small.ratio < big.ratio  # linear growth: ratios decay toward 0
    assert small.ratio < Fraction(1, 5)
    assert "upper bound" in small.description


@pytest.mark.parametrize(
    "group,root",
    [(FiniteCayley(dihedral_table(4), 0), (2, 1)), (BurnsideB23(), ((1, 0, 0), (0, 1, 0)))],
    ids=["D4", "B23"],
)
@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_cheeger_balls_match_iso_ratio(group, root, radius):
    # the D4 fragments have loops and multi-edges, which the incremental cut
    # count must handle exactly as the direct recount does
    frag = ball(group, root, radius)
    best = None
    for r in range(max(frag.depths) + 1):
        idxs = frag.ball_indices(r)
        if all(frag.expanded[v] for v in idxs):
            rep = iso_ratio(frag, idxs, description=f"ball r={r} (upper bound on h)")
            if best is None or rep.ratio < best.ratio:
                best = rep
    assert cheeger_search(frag, "balls") == best


def test_cheeger_search_sweep():
    frag = ball(Z, (1, 1), 6)
    best = cheeger_search(frag, "sweep")
    assert best.ratio > 0
    # sweep on the two-vertex graph reaches the zero-ratio full set
    whole = cheeger_search(ball(Z, (1,), 3), "sweep")
    assert whole.ratio == 0
    with pytest.raises(UsageError):
        cheeger_search(frag, "spectral")


@pytest.mark.parametrize("strategy", ["balls", "sweep"])
def test_cheeger_search_on_an_imported_fragment(strategy):
    for frag in (ball(Z, (1, 1), 5), ball(D, DINF_ROOT, 8), ball(FiniteCayley(dihedral_table(4), 0), (2, 1), 3)):
        clone = fragment_from_jsonl(frag.group, frag.n, frag.to_jsonl())
        assert cheeger_search(clone, strategy) == cheeger_search(frag, strategy)


def test_sweep_matches_direct_recount():
    frag = ball(Z, (1, 1), 5)
    order = sorted(range(len(frag)), key=lambda v: (frag.depths[v], frag.keys[v]))
    prefix = [v for v in order if frag.expanded[v]][:40]
    rep = iso_ratio(frag, prefix)
    best = cheeger_search(frag, "sweep")
    assert best.ratio <= rep.ratio
