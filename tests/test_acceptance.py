"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every expected value is either exact combinatorics checked elsewhere in the
suite or a frozen measurement re-derived here from scratch. Ratios are exact
Fractions; no floating tolerance enters any criterion except the rho_hat
comparison of criterion 11, which compares two exact integer root
expressions through floats far apart.
"""

import math
import time
from fractions import Fraction

from conftest import pak_battery, seeded
from nielsen.amenability import (
    closed_walks,
    iso_ratio,
    spectral_estimate,
)
from nielsen.covering import projection, push, verify_star_bijection, verify_surjectivity_on_fragment
from nielsen.explore import ball, components, euclid_reduce, growth_profile
from nielsen.forest import verify_forest
from nielsen.groups import (
    BurnsideB23,
    FiniteAbelianExp,
    FiniteCayley,
    FreeAbelian,
    InfiniteDihedral,
    Integers,
)
from nielsen.moves import I, R, eval_word
from nielsen.tame import verify_component_structure
from oracles import brute_force_closed_walks

Z = Integers()
DINF = InfiniteDihedral()
DINF_REFLECTIONS = ((0, 1), (1, 1))   # the two-reflection generating pair
DINF_PRESENTATION = ((0, 1), (1, 0))  # a reflection with the translation


def _report(num, text, t0):
    print(f"ACCEPTANCE {num} PASS ({time.perf_counter() - t0:.2f}s): {text}")


def test_criterion_01_one_generator_integer_graph():
    t0 = time.perf_counter()
    frag = ball(Z, (1,), 5)
    assert set(frag.states) == {(1,), (-1,)}
    assert all(frag.expanded)
    assert frag.moves == (I(1),)
    for v in range(2):
        assert frag.darts[v] == [1 - v]  # connected by the I edge
    _report(1, "N_1(Z) = {1,-1} with only I-labeled edges, connected", t0)


def test_criterion_02_euclid_certificates():
    t0 = time.perf_counter()
    rng = seeded(0xACC2)
    checked = 0
    for n in (2, 3):
        done = 0
        while done < 500:
            t = tuple(rng.randint(-(10**4), 10**4) for _ in range(n))
            if math.gcd(*t) != 1:
                continue
            word = euclid_reduce(t)
            assert eval_word(Z, t, word) == (1,) + (0,) * (n - 1)
            done += 1
        checked += done
    assert checked == 1000
    _report(2, f"{checked} Euclid certificates verified on entries up to 1e4", t0)


def test_criterion_03_forest_verification():
    t0 = time.perf_counter()
    for n, window in ((2, 30), (3, 12)):
        rep = verify_forest(n, window)
        assert rep.acyclic
        assert rep.min_interior_degree >= 3
        assert rep.descent_ok
        assert rep.coverage_ok
    _report(3, "forest acyclic, degree >= 3, descent, coverage on (2,30) and (3,12)", t0)


def test_criterion_04_cheeger_ball_bound():
    t0 = time.perf_counter()
    frag = ball(Z, (1, 1), 12)
    bound = Fraction(1, 5)
    tested = 0
    prof = dict(growth_profile(frag))
    for r in range(12):
        if prof[r] > 10**4:
            break
        rep = iso_ratio(frag, frag.ball_indices(r), f"ball r={r}")
        assert rep.ratio >= bound, f"ball r={r}: {rep.ratio} < 1/5"
        tested += 1
    assert tested >= 10 and prof[tested] > 10**4  # family exhausted |S| <= 1e4
    _report(4, f"all {tested} balls with |S| <= 1e4 have exact ratio >= 1/5", t0)


def test_criterion_05_growth_dichotomy():
    t0 = time.perf_counter()
    prof_d = dict(growth_profile(ball(DINF, DINF_REFLECTIONS, 41)))
    for r in range(5, 41):
        assert prof_d[r + 1] - prof_d[r] <= 64, f"shell at r={r}"
    prof_z = dict(growth_profile(ball(Z, (1, 1), 13)))
    for r in range(4, 13):
        assert Fraction(prof_z[r + 1], prof_z[r]) >= Fraction(13, 10), f"ratio at r={r}"
    _report(5, "D_inf shells <= 64 for r in [5,40]; Z ratios >= 1.3 for r in [4,12]", t0)


def test_criterion_06_move_word_identities():
    t0 = time.perf_counter()
    import test_moves

    count = 0
    for n in range(0, 21):
        for (lr, lw), (rr, rw) in test_moves.identity_pairs(n):
            assert eval_word(DINF, lr, lw) == eval_word(DINF, rr, rw)
            count += 1
    assert count == 8 * 21 - 1  # the last identity starts at n = 1
    _report(6, f"all {count} dihedral move-word identities hold exactly", t0)


def test_criterion_07_quasi_line_vertex_classification():
    t0 = time.perf_counter()
    a, b = DINF_PRESENTATION
    moves = (R(1, 2, 1), R(1, 2, -1), R(2, 1, 1), R(2, 1, -1), I(1), I(2))
    frag = ball(DINF, (a, b), 20, moves=moves)

    def classify(state):
        (t1, e1), (t2, e2) = state
        if e1 == 1 and e2 == 0 and abs(t2) == 1:
            return "reflection-with-unit"          # (a b^n, b^+-1)
        if e1 == 0 and abs(t1) == 1 and e2 == 1:
            return "unit-with-reflection"          # (b^+-1, a b^n)
        if e1 == 1 and e2 == 1 and t2 == t1 + 1:
            return "adjacent-reflections-up"       # distance-1 families 1 and 3
        if e1 == 1 and e2 == 1 and t1 == t2 + 1:
            return "adjacent-reflections-down"     # distance-1 families 2 and 4
        return None

    kinds = {}
    for state in frag.states:
        kind = classify(state)
        assert kind is not None, f"unclassified vertex {state}"
        kinds[kind] = kinds.get(kind, 0) + 1
    assert len(kinds) == 4
    _report(7, f"all {len(frag)} vertices of the degree-8 ball B_20 classified", t0)


def test_criterion_08_covering_verification():
    t0 = time.perf_counter()
    pi = projection(FreeAbelian(2), 1)
    star = verify_star_bijection(pi, 2, samples=1000, seed=8)
    assert star.checked == 1000 and star.ok

    frag = ball(Z, (1, 1), 6)
    lift = verify_surjectivity_on_fragment(pi, frag, ((1, 0), (0, 1)))
    assert lift.ok and lift.total == len(frag)

    root = ((1, 0), (0, 1))
    up = closed_walks(FreeAbelian(2), root, 12)
    down = closed_walks(Z, push(pi, root), 12)
    assert all(x <= y for x, y in zip(up, down))
    _report(8, f"star commutation at 1000 tuples, {lift.total} lifts, walk bound k<=12", t0)


def test_criterion_09_component_structure_exhaustive():
    t0 = time.perf_counter()
    rep = verify_component_structure(FiniteAbelianExp(5, 1), 1)
    assert rep.num_components == 2 and rep.component_sizes == [2, 2] and rep.index == 2
    assert rep.ok
    rep = verify_component_structure(FiniteAbelianExp(3, 2), 2)
    assert rep.num_components == 1 and rep.component_sizes == [48]
    assert rep.ok
    rep = verify_component_structure(BurnsideB23(), 2)
    assert rep.num_components == rep.index
    assert all(s == rep.tame_order for s in rep.component_sizes)
    assert rep.cayley_match and rep.components_isomorphic and rep.ok
    b23 = (rep.num_components, rep.tame_order)
    _report(9, f"Z/5, (Z/3)^2 and B(2,3) class structures match; B(2,3): {b23[0]} class(es) of size {b23[1]}", t0)


def test_criterion_10_evans_and_pak_instances():
    t0 = time.perf_counter()
    rep = components(BurnsideB23(), 3)
    assert rep.num_components == 1  # nilpotent of rank 2: connected for n = 3

    lines = []
    for name, table in pak_battery():
        group = FiniteCayley(table, 0)
        r = group.rank()
        n = r + (group.order - 1).bit_length()  # least n >= r + log2(order)
        rep = components(group, n)
        assert rep.num_components == 1, f"{name} disconnected at n={n}"
        lines.append(f"{name}:n={n}")
    _report(10, "N_3(B(2,3)) connected; battery connected at n = rank + ceil(log2 |G|): " + " ".join(lines), t0)


def test_criterion_11_kesten_sanity():
    t0 = time.perf_counter()
    for group, root in ((Z, (1, 1)), (DINF, DINF_REFLECTIONS)):
        assert closed_walks(group, root, 6) == brute_force_closed_walks(group, root, 6)
    ez = spectral_estimate(Z, (1, 1), 16)
    ed = spectral_estimate(DINF, DINF_REFLECTIONS, 16)
    for est in (ez, ed):
        assert 0.0 <= est.rho_hat <= 1.0 + 1e-12
    assert ed.rho_hat > ez.rho_hat
    _report(11, f"DP = brute force (k<=6); rho_hat(D_inf)={ed.rho_hat:.4f} > rho_hat(Z)={ez.rho_hat:.4f} at k=16", t0)
