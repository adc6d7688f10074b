"""Tame lab: automorphism enumeration, move-induced subgroup, class structure."""

import math
import random

import numpy as np
import pytest

from nielsen import orbits
from nielsen.errors import ResourceCapError, UsageError
from nielsen.groups import BurnsideB23, FiniteAbelianExp, FiniteCayley, FiniteTable
from nielsen.tame import (
    NotRelativelyFreeError,
    _closure,
    _steps,
    aut_group,
    move_automorphisms,
    tame_subgroup,
    verify_component_structure,
)

from conftest import cyclic_table, dihedral_table, direct_product_table, relabelled_table
from oracles import closure_by_frontier, rows_by_search, tame_reference


def test_aut_counts():
    assert aut_group(FiniteAbelianExp(5, 1), 1).order == 4
    assert aut_group(FiniteAbelianExp(3, 2), 2).order == 48
    assert aut_group(FiniteAbelianExp(2, 1), 1).order == 1
    # |Aut B(2,3)|: generating pairs = (pairs with independent images mod
    # the center) = 48 * 9
    assert aut_group(BurnsideB23(), 2).order == 432


def test_tuple_automorphism_bijection_counts():
    for group, d in ((FiniteAbelianExp(5, 1), 1), (FiniteAbelianExp(3, 2), 2), (BurnsideB23(), 2)):
        act = aut_group(group, d)
        assert len(act.positions) == act.order
        assert len({tuple(p) for p in act.perms.tolist()}) == act.order


def test_move_images_are_automorphisms():
    act = aut_group(BurnsideB23(), 2)
    gens = move_automorphisms(act)
    assert len(gens) == 10
    for row in gens.values():
        assert sorted(act.perms[row].tolist()) == list(range(27))


def test_tame_subgroup_cyclic5():
    act = aut_group(FiniteAbelianExp(5, 1), 1)
    rep = tame_subgroup(act)
    assert rep.tame_order == 2 and rep.index == 2  # only negation is induced
    assert sum(act.tame_flags) == 2


def test_tame_subgroup_elementary():
    rep = tame_subgroup(aut_group(FiniteAbelianExp(3, 2), 2))
    assert rep.index == 1  # dets mod 3 are all +-1


def test_tame_subgroup_mod5_rank2_determinant_oracle():
    # tame matrices over (Z/5)^2 are those with det = +-1 mod 5; the unit
    # group has order 4, so the index is 2
    act = aut_group(FiniteAbelianExp(5, 2), 2)
    rep = tame_subgroup(act)
    assert rep.aut_order == 480  # |GL_2(F_5)| = (25-1)(25-5)
    assert rep.tame_order == 240 and rep.index == 2
    # membership matches the determinant criterion automorphism by
    # automorphism, not just by counts
    elems = list(act.table.elements)
    for perm, flag in zip(act.perms, act.tame_flags):
        c1 = elems[perm[act.table.index[(1, 0)]]]
        c2 = elems[perm[act.table.index[(0, 1)]]]
        det = (c1[0] * c2[1] - c1[1] * c2[0]) % 5
        assert flag == (det in (1, 4))


def test_not_relatively_free_reports_discrepancy():
    s3 = FiniteCayley(dihedral_table(3), 0)
    with pytest.raises(NotRelativelyFreeError) as err:
        aut_group(s3, 2)
    assert err.value.generating == 18
    assert err.value.extending == 6  # |Aut S_3| = |Inn S_3| = 6
    with pytest.raises(UsageError):
        aut_group(FiniteAbelianExp(3, 2), 3)  # d is not the rank


def test_automorphism_array_is_capped():
    # 289^2 tuples fit the cap, but |GL_2(F_17)| x 289 entries do not
    with pytest.raises(ResourceCapError, match="automorphism array of 78336 x 289"):
        aut_group(FiniteAbelianExp(17, 2), 2)


def test_automorphism_array_is_refused_before_any_orbit_edge(monkeypatch):
    # the generating count is known from the orbit sizes; the classes, and
    # with them every orbit edge, are never built
    calls = []
    monkeypatch.setattr(orbits, "classes", lambda generating: calls.append(generating))
    with pytest.raises(ResourceCapError, match="automorphism array of 78336 x 289"):
        aut_group(FiniteAbelianExp(17, 2), 2)
    assert calls == []


def _relabelled_z3sq() -> FiniteCayley:
    perm = list(range(9))
    random.Random(31).shuffle(perm)
    return FiniteCayley(relabelled_table(direct_product_table(cyclic_table(3), cyclic_table(3)), perm), perm[0])


ROW_CASES = {
    "B23": (BurnsideB23(), 2),
    "Z5^2": (FiniteAbelianExp(5, 2), 2),
    "Z2^3": (FiniteAbelianExp(2, 3), 3),
    "relabelled Z3^2": (_relabelled_z3sq(), 2),
}


@pytest.mark.parametrize("case", ROW_CASES)
def test_dense_rows_match_the_search_on_every_tuple(case):
    group, d = ROW_CASES[case]
    act = aut_group(group, d)
    cols = np.unravel_index(np.arange(act.table.order**d), (act.table.order,) * d)
    rows = act.rows(cols)
    assert np.array_equal(rows, rows_by_search(act, cols))
    generating = act.table.closure(np.array(cols).T).all(axis=1)
    assert (rows >= 0).tolist() == generating.tolist()  # -1 exactly off the generating tuples
    assert np.array_equal(rows[generating], np.arange(act.order))
    for k in (0, len(rows) // 2, np.flatnonzero(generating)[-1]):  # one tuple, as move_automorphisms asks
        assert int(act.rows(tuple(int(c[k]) for c in cols))) == rows[k]


@pytest.mark.parametrize("case", ROW_CASES)
def test_step_closure_matches_the_frontier_bfs(case):
    group, d = ROW_CASES[case]
    act = aut_group(group, d)
    identity = int(act.rows(act.base))
    rng = np.random.default_rng(7)
    gen_sets = [list(move_automorphisms(act).values())]
    gen_sets += [rng.integers(0, act.order, size=k).tolist() for k in (1, 1, 2, 3)]
    for gens in gen_sets:
        steps = _steps(act, gens)
        subgroup = closure_by_frontier(act, gens)
        assert np.array_equal(_closure(steps, identity), subgroup)
        # from another row phi the same steps reach the coset phi o H
        phi = int(rng.integers(act.order))
        members = np.flatnonzero(subgroup)
        coset = np.zeros(act.order, dtype=bool)
        coset[act.rows(act.perms[phi][act.perms[members][:, list(act.base)]].T)] = True
        assert np.array_equal(_closure(steps, phi), coset)


def test_component_structure_reports():
    rep = verify_component_structure(FiniteAbelianExp(5, 1), 1)
    assert rep.num_components == 2 and rep.component_sizes == [2, 2]
    assert rep.index == 2 and rep.ok

    rep = verify_component_structure(FiniteAbelianExp(3, 2), 2)
    assert rep.num_components == 1 and rep.component_sizes == [48]
    assert rep.tame_order == 48 and rep.ok

    rep = verify_component_structure(BurnsideB23(), 2)
    assert rep.num_components == rep.index
    assert all(s == rep.tame_order for s in rep.component_sizes)
    assert rep.components_isomorphic and rep.cayley_match and rep.ok


def test_component_structure_with_multiple_classes():
    # (Z/5)^2 splits into two classes; the isomorphism and Cayley checks
    # must hold across both
    rep = verify_component_structure(FiniteAbelianExp(5, 2), 2)
    assert rep.num_components == 2
    assert rep.component_sizes == [240, 240]
    assert rep.ok


@pytest.mark.parametrize("group", [BurnsideB23(), FiniteAbelianExp(5, 2)], ids=["B23", "Z5^2"])
def test_component_structure_walks_the_lattice_once(group, monkeypatch):
    calls = []
    generating = FiniteTable.generating

    def counted(self, cols):
        calls.append(len(cols))
        return generating(self, cols)

    monkeypatch.setattr(FiniteTable, "generating", counted)
    assert verify_component_structure(group, 2).ok
    assert calls == [2]


def test_trivial_aut_instance():
    rep = verify_component_structure(FiniteAbelianExp(2, 1), 1)
    assert rep.aut_order == 1 and rep.index == 1
    assert rep.num_components == 1 and rep.component_sizes == [1]


def test_index_times_tame_order_is_aut_order():
    for group, d in (
        (FiniteAbelianExp(5, 1), 1),
        (FiniteAbelianExp(8, 1), 1),
        (FiniteAbelianExp(3, 2), 2),
        (BurnsideB23(), 2),
    ):
        rep = tame_subgroup(aut_group(group, d))
        assert rep.tame_order * rep.index == rep.aut_order


ORACLE_CASES = {
    "B23": (BurnsideB23(), 2),
    "Z5^2": (FiniteAbelianExp(5, 2), 2),
    "Z6^2": (FiniteAbelianExp(6, 2), 2),
    "Z2^3": (FiniteAbelianExp(2, 3), 3),
    "Z8": (FiniteAbelianExp(8, 1), 1),
    "C8": (FiniteCayley(cyclic_table(8), 0), 1),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_tame_matches_the_tuple_oracle(case):
    group, d = ORACLE_CASES[case]
    ref = tame_reference(group, d)
    act = aut_group(group, d)
    tame_subgroup(act)
    assert [tuple(p) for p in act.perms.tolist()] == ref["perms"]
    assert act.tame_flags.tolist() == ref["tame_flags"]
    assert verify_component_structure(group, d).to_json() == ref["report"]


@pytest.mark.parametrize("table,counts", [(dihedral_table(3), (18, 6)),
                                          (direct_product_table(cyclic_table(2), cyclic_table(4)), (24, 8))],
                         ids=["S3", "Z2xZ4"])
def test_not_relatively_free_matches_the_tuple_oracle(table, counts):
    # on Z/2 x Z/4 some maps along the BFS tree are bijective but are not
    # homomorphisms; |Aut| = 8
    group = FiniteCayley(table, 0)
    with pytest.raises(NotRelativelyFreeError) as ref:
        tame_reference(group, 2)
    with pytest.raises(NotRelativelyFreeError) as err:
        aut_group(group, 2)
    assert (err.value.generating, err.value.extending) == (ref.value.generating, ref.value.extending) == counts


def _gl_order(m: int, d: int) -> int:
    """|GL_d(Z/m)|: the product over prime powers p^e || m of
    p^((e-1) d^2) |GL_d(F_p)|."""
    out, rest, p = 1, m, 2
    while rest > 1:
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        if e:
            out *= p ** ((e - 1) * d * d) * math.prod(p**d - p**i for i in range(d))
        p += 1
    return out


@pytest.mark.parametrize("m,d", [(2, 1), (5, 1), (9, 1), (12, 1), (2, 2), (4, 2), (6, 2), (7, 2), (8, 2),
                                 (11, 2), (13, 2), (2, 3), (3, 3), (2, 4)])
def test_tame_closed_forms(m, d):
    # Aut (Z/m)^d = GL_d(Z/m); the tame subgroup is det = +-1, since
    # elementary matrices generate SL_d(Z/m), so the index is the number of
    # unit pairs {u, -u}; each class is a coset of it
    phi = sum(1 for u in range(1, m) if math.gcd(u, m) == 1)
    rep = verify_component_structure(FiniteAbelianExp(m, d), d)
    index = max(phi // 2, 1)
    assert rep.aut_order == _gl_order(m, d)
    assert rep.index == index and rep.num_components == index
    assert rep.component_sizes == [rep.aut_order // index] * index
    assert rep.ok
