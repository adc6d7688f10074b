"""Covering kit: rule catalogue, star commutation, path lifting, walk bounds."""

import random
from collections import Counter

import numpy as np
import pytest

from nielsen import covering
from nielsen.amenability import closed_walks
from nielsen.covering import (
    Epimorphism,
    abelianization,
    epimorphism_from_json,
    finite_quotient,
    identity_epi,
    mod_reduction,
    projection,
    push,
    random_generating_tuples,
    reflection_bit,
    verify_star_bijection,
    verify_surjectivity_on_fragment,
)
from nielsen.errors import ResourceCapError, UsageError, VerificationError
from nielsen.explore import ball
from nielsen.groups import (
    BurnsideB23,
    FiniteAbelianExp,
    FiniteCayley,
    FreeAbelian,
    FreeGroup,
    Heisenberg,
    InfiniteDihedral,
    Integers,
)
from nielsen.moves import eval_word, move_set

from conftest import cyclic_table, dihedral_table, quaternion_table, seeded
from oracles import (
    homomorphism_failure_by_pairs,
    homomorphism_failure_by_samples,
    lift_reference,
    sample_generating_tuple,
    star_bijection_reference,
)


def sample_one(group, n, rng, size=12, tries=10000):
    """One sample from the sampler's one entry point."""
    return random_generating_tuples(group, n, rng, 1, size, tries)[0]


def test_push_examples():
    pi = projection(FreeAbelian(2), 1)
    assert push(pi, ((2, 1), (1, 1))) == (2, 1)
    pi = reflection_bit()
    assert push(pi, (((0, 1)), ((1, 0)))) == ((1,), (0,))
    pi = mod_reduction(Integers(), 5)
    assert push(pi, (7, 3)) == ((2,), (3,))


def test_push_requires_generating():
    pi = projection(FreeAbelian(2), 1)
    with pytest.raises(UsageError):
        push(pi, ((2, 0), (0, 1)))


def test_rule_json_round_trip():
    for pi in (
        identity_epi(Integers()),
        projection(FreeAbelian(3), 2),
        mod_reduction(FreeAbelian(2), 4),
        reflection_bit(),
        abelianization(),
        finite_quotient(FiniteCayley(dihedral_table(3), 0), [0, 2, 4]),
    ):
        clone = epimorphism_from_json(pi.to_json())
        assert clone.to_json() == pi.to_json()
        assert clone.codomain == pi.codomain
    with pytest.raises(UsageError):
        epimorphism_from_json({"rule": "project", "domain": {"kind": "FreeAbelian", "d": 2}})
    with pytest.raises(UsageError):
        epimorphism_from_json({"rule": "nope", "domain": {"kind": "Integers"}})


def test_a_rule_that_is_not_a_string_is_refused_by_name():
    # a bare table lookup would raise TypeError on the unhashable ones
    for rule in (["mod"], {"a": 1}, None, 5, True):
        with pytest.raises(UsageError) as e:
            epimorphism_from_json({"rule": rule, "domain": {"kind": "Integers"}})
        assert str(e.value) == f"unknown epimorphism rule {rule!r}"


def test_epimorphism_refusal_texts():
    Z = {"kind": "Integers"}
    for obj, text in (
        ({"rule": "nope", "domain": Z}, "unknown epimorphism rule 'nope'"),
        ({"rule": "identity", "domain": Z, "x": 1}, "unknown epimorphism fields: ['x']"),
        ({"rule": "mod", "domain": Z}, "missing epimorphism fields: ['m']"),
    ):
        with pytest.raises(UsageError) as e:
            epimorphism_from_json(obj)
        assert str(e.value) == text


def test_finite_quotient_validation():
    D6 = FiniteCayley(dihedral_table(3), 0)  # S_3: rotations at even indices
    pi = finite_quotient(D6, [0, 2, 4])
    assert pi.codomain.order == 2
    with pytest.raises(UsageError):
        finite_quotient(D6, [0, 1])  # <flip> of order 2 is not normal in S_3
    with pytest.raises(UsageError):
        finite_quotient(D6, [0, 2])  # not closed under multiplication


def test_epimorphism_fields_are_validated():
    s3 = {"kind": "FiniteCayley", "table": dihedral_table(3), "identity": 0}
    for normal in (5, None, [[0]], [True, 2, 4], [0, 2, 4.0]):
        with pytest.raises(UsageError, match="finite_quotient 'normal'|FiniteCayley element"):
            epimorphism_from_json({"rule": "finite_quotient", "domain": s3, "normal": normal})
    for e in (True, 1.0, "1", None):
        with pytest.raises(UsageError, match="projection target rank e must be an int"):
            epimorphism_from_json({"rule": "project", "domain": {"kind": "FreeAbelian", "d": 2}, "e": e})
    with pytest.raises(UsageError, match="samples must be >= 0"):
        verify_star_bijection(identity_epi(Integers()), 2, samples=-1)


def test_star_check_refuses_a_tuple_shorter_than_n():
    # moves are range-checked against the tuple itself, not against n
    with pytest.raises(UsageError, match=r"move R\+:1,2 out of range for tuple length 1"):
        verify_star_bijection(identity_epi(Integers()), 2, tuples=[(1,)])


def test_finite_quotient_keeps_its_messages():
    # the messages of the element-level checks, which went through N in
    # increasing order, each element's inverse before its products; in S_3
    # rotations are at even indices and flips at odd ones
    D6 = FiniteCayley(dihedral_table(3), 0)
    for subset, text in (([], "must contain the identity"),
                         ([0, 2], "not closed under inverses"),
                         ([2, 1, 0], "not closed under multiplication"),  # 1 * 2 is a flip; 2^-1 = 4
                         ([0, 1, 3], "not closed under multiplication"),
                         ([0, 1], "not normal")):
        with pytest.raises(UsageError, match=text):
            finite_quotient(D6, subset)
    pi = finite_quotient(FiniteCayley(cyclic_table(6), 0), [3, 0, 0])
    assert pi.params == {"normal": [0, 3]}
    assert pi.codomain.table.tolist() == cyclic_table(3)
    assert [pi.apply(g) for g in range(6)] == [0, 1, 2, 0, 1, 2]


def _law_outcome(domain, codomain, fn):
    """The homomorphism message the constructor raises for fn, or None."""
    try:
        Epimorphism("map", domain, codomain, fn, {})
    except VerificationError as e:
        return None if "not surjective" in str(e) else str(e)
    return None


LAW_DOMAINS = {
    "S3": FiniteCayley(dihedral_table(3), 0),
    "Q8": FiniteCayley(quaternion_table(), 0),
    "Z6": FiniteCayley(cyclic_table(6), 0),
    "Z2^2": FiniteAbelianExp(2, 2),
    "B23": BurnsideB23(),
}


@pytest.mark.parametrize("name", LAW_DOMAINS)
def test_homomorphism_check_names_the_first_bad_pair(name):
    # the identity twisted by every transposition of two elements; only
    # the swaps of two nonzero vectors of (Z/2)^2 are automorphisms
    group = LAW_DOMAINS[name]
    elements = list(group.elements())
    assert _law_outcome(group, group, lambda g: g) is None
    failures = 0
    for k, a in enumerate(elements):
        for b in elements[k + 1:]:
            fn = {a: b, b: a}.get
            twisted = lambda g: fn(g, g)
            expected = homomorphism_failure_by_pairs("map", group, group, twisted)
            assert _law_outcome(group, group, twisted) == expected
            failures += expected is not None
    assert failures == len(elements) * (len(elements) - 1) // 2 - (3 if name == "Z2^2" else 0)


def test_homomorphism_check_on_a_quotient_codomain():
    # the sign map of S_3 with one value flipped breaks the law
    s3 = LAW_DOMAINS["S3"]
    sign = finite_quotient(s3, [0, 2, 4])
    assert _law_outcome(s3, sign.codomain, sign.apply) is None
    for flipped in range(6):
        fn = lambda g: sign.apply(g) ^ (g == flipped)
        expected = homomorphism_failure_by_pairs("map", s3, sign.codomain, fn)
        assert expected is not None and _law_outcome(s3, sign.codomain, fn) == expected


def test_homomorphism_check_caps_the_table():
    # (Z/2)^12 has 2^24 pairs, over the default cap
    with pytest.raises(ResourceCapError, match="multiplication table of 4096\\^2 entries exceeds cap"):
        identity_epi(FiniteAbelianExp(2, 12))


def test_projection_of_rank1_is_integers():
    pi = projection(FreeAbelian(2), 1)
    assert pi.codomain == Integers()
    pi = projection(FreeAbelian(3), 2)
    assert pi.codomain == FreeAbelian(2)


def test_star_commutation_z2_to_z():
    pi = projection(FreeAbelian(2), 1)
    report = verify_star_bijection(pi, 2, samples=1000, seed=3)
    assert report.checked == 1000 and report.moves == 10
    assert report.ok


def test_star_commutation_examples():
    pi = mod_reduction(Integers(), 5)
    report = verify_star_bijection(pi, 1, tuples=[(1,)])
    assert report.ok  # I_1 commutes: -1 mod 5 = 4
    assert verify_star_bijection(identity_epi(Integers()), 2, samples=50).ok
    assert verify_star_bijection(abelianization(), 2, samples=100).ok
    assert verify_star_bijection(reflection_bit(), 2, samples=100).ok


def test_lift_ball_in_integer_graph():
    pi = projection(FreeAbelian(2), 1)
    frag = ball(Integers(), (1, 1), 6)
    report = verify_surjectivity_on_fragment(pi, frag, ((1, 0), (0, 1)))
    assert report.total == len(frag)
    assert report.ok and not report.unreached


def test_lift_full_finite_codomain():
    pi = reflection_bit()
    Z2 = FiniteAbelianExp(2, 1)
    frag = ball(Z2, ((1,), (0,)), 4)
    assert all(frag.expanded)
    report = verify_surjectivity_on_fragment(pi, frag, ((0, 1), (1, 1)))
    assert report.ok and report.total == 3


def test_lift_radius_zero():
    pi = projection(FreeAbelian(2), 1)
    frag = ball(Integers(), (1, 0), 0)
    report = verify_surjectivity_on_fragment(pi, frag, ((1, 0), (0, 1)))
    assert report.ok and report.lifted == 1


def test_lift_unreached_when_seed_elsewhere():
    # N_1(Z/5) is disconnected: a fragment of one class cannot be reached
    # from a seed pushing into the other
    pi = mod_reduction(Integers(), 5)
    Z5 = FiniteAbelianExp(5, 1)
    frag = ball(Z5, ((2,),), 3)
    report = verify_surjectivity_on_fragment(pi, frag, (1,))
    assert not report.ok and report.lifted == 0


def test_covering_walk_inequality():
    pi = projection(FreeAbelian(2), 1)
    root = ((1, 0), (0, 1))
    up = closed_walks(FreeAbelian(2), root, 12)
    down = closed_walks(Integers(), push(pi, root), 12)
    assert all(a <= b for a, b in zip(up, down))
    pi = abelianization()
    root = ((1, 0, 0), (0, 1, 0))
    up = closed_walks(Heisenberg(), root, 8)
    down = closed_walks(FreeAbelian(2), push(pi, root), 8)
    assert all(a <= b for a, b in zip(up, down))


def test_push_commutes_with_words():
    pi = projection(FreeAbelian(2), 1)
    rng = seeded(0xC07E)
    moves = move_set(2)
    for _ in range(50):
        t = sample_one(FreeAbelian(2), 2, rng, size=5)
        word = tuple(rng.choice(moves) for _ in range(rng.randint(0, 50)))
        lhs = push(pi, eval_word(FreeAbelian(2), t, word))
        rhs = eval_word(Integers(), push(pi, t), word)
        assert lhs == rhs


# drawn before the integer-vector kinds shared one base class: the sampler
# must keep its random stream and its generation test must keep its verdicts
SAMPLED_TUPLES = {
    FreeAbelian(2): [((-3, 2), (-10, 7)), ((6, -7), (-1, 1)), ((4, -5), (3, -4))],
    InfiniteDihedral(): [((-1, 0), (11, 1)), ((1, 0), (-1, 1)), ((5, 1), (4, 1))],
    Heisenberg(): [((-3, -4, 10), (-7, -9, 3)), ((-2, 3, 9), (3, -5, 10)), ((9, 5, -7), (2, 1, 11))],
    FiniteAbelianExp(3, 2): [((1, 1), (0, 1)), ((0, 1), (1, 1)), ((0, 2), (2, 1))],
    BurnsideB23(): [((1, 1, 0), (1, 2, 1)), ((0, 2, 0), (1, 0, 1)), ((2, 1, 1), (2, 0, 2))],
    # drawn before these kinds derived random_element from their draw rule
    Integers(): [(1, -11), (-4, -9), (-11, -10)],
    FiniteCayley(quaternion_table(), 0): [(4, 7), (4, 3), (2, 4)],
}


@pytest.mark.parametrize("group", SAMPLED_TUPLES, ids=lambda g: g.kind)
def test_random_generating_tuple_is_fixed_by_seed(group):
    assert [sample_one(group, 2, seeded(s)) for s in range(3)] == SAMPLED_TUPLES[group]


SAMPLER_CASES = [
    *((g, n) for n in (2, 3) for g in (
        FreeAbelian(2), Heisenberg(), InfiniteDihedral(), FiniteAbelianExp(3, 2), BurnsideB23(), FreeGroup(2),
    )),
    (FreeAbelian(3), 4),
    # decoded in blocks; Integers decided one candidate at a time, the Q8 table a block at a time
    (Integers(), 1),
    (Integers(), 2),
    (FiniteCayley(quaternion_table(), 0), 2),
    # decoded in blocks and decided a block at a time; n keeps each id unique
    (FiniteAbelianExp(5, 2), 4),
    # each coordinate reads more than one 32-bit word: one candidate at a time
    (FiniteAbelianExp(2**32 + 15, 2), 5),
]


@pytest.mark.parametrize(("group", "n"), SAMPLER_CASES, ids=lambda c: c if isinstance(c, int) else c.kind)
def test_sampler_matches_the_reference_sampler(group, n):
    # same tuples and the same number of draws: the next random word agrees too
    def stream(sample, seed):
        rng = seeded(seed)
        return [sample(group, n, rng) for _ in range(3)], rng.getrandbits(64)

    for seed in range(32):
        assert stream(sample_one, seed) == stream(sample_generating_tuple, seed)


def _draws(sample, group, n, rng, runs, **kw):
    """``runs`` samples, or the message that stopped them, then the next 64 bits."""
    out = []
    try:
        for _ in range(runs):
            out.append(sample(group, n, rng, **kw))
    except UsageError as e:
        out.append(str(e))
    return out, rng.getrandbits(64)


@pytest.mark.parametrize(
    ("group", "n", "size"),
    [
        # the widest block: every minor below 2 * (2^31 - 1)^2 < 2^63
        (FreeAbelian(2), 3, 2**31 - 1),
        (Heisenberg(), 3, 2**31 - 1),
        # 2^32 and 2^32 + 1 values: more than one word a draw
        (FiniteAbelianExp(2**32, 2), 2, 12),
        (FreeAbelian(2), 3, 2**31),
        # a rank-3 lattice: one candidate at a time
        (FreeAbelian(3), 4, 2**31 - 1),
        (Integers(), 2, 2**31 - 1),
        # a block of draws whose minors may leave int64: one candidate at a time
        (FiniteAbelianExp(2**32 - 5, 2), 2, 12),
        (FiniteAbelianExp(2**31 + 11, 2), 3, 12),
    ],
    ids=lambda c: c.kind if hasattr(c, "kind") else str(c),
)
def test_sampler_matches_the_reference_sampler_on_wide_draws(group, n, size):
    for seed in range(32):
        ours = _draws(sample_one, group, n, seeded(seed), 3, size=size)
        assert ours == _draws(sample_generating_tuple, group, n, seeded(seed), 3, size=size)


@pytest.mark.parametrize(("group", "n"), SAMPLER_CASES, ids=lambda c: c if isinstance(c, int) else c.kind)
def test_a_run_of_samples_matches_the_reference_sampler(group, n):
    # one stream of candidates for all of them: the samples after the first
    # come from the block that held the one before
    for seed in range(8):
        rng = seeded(seed)
        ours = random_generating_tuples(group, n, rng, 9), rng.getrandbits(64)
        assert ours == _draws(sample_generating_tuple, group, n, seeded(seed), 9)


@pytest.mark.parametrize(("group", "n"), SAMPLER_CASES, ids=lambda c: c if isinstance(c, int) else c.kind)
def test_sampled_entries_pass_check_element(group, n):
    # the star check runs no check_element on the sampler's own tuples
    for seed in range(8):
        for t in random_generating_tuples(group, n, seeded(seed), 9):
            assert tuple(map(group.check_element, t)) == t


@pytest.mark.parametrize(
    ("group", "n", "size"),
    [(FreeAbelian(2), 2, 12), (Heisenberg(), 2, 12), (Integers(), 2, 12), (Integers(), 1, 0),
     (InfiniteDihedral(), 2, 12), (FiniteAbelianExp(2, 2), 2, 12)],
    ids=lambda c: c.kind if hasattr(c, "kind") else str(c),
)
def test_too_few_tries_fail_as_the_reference_sampler_does(group, n, size):
    # the same error after the same number of candidates, with the same state after it
    for tries in (0, 1, 3, 40):
        for seed in range(16):
            ref = _draws(sample_generating_tuple, group, n, seeded(seed), 6, size=size, tries=tries)
            assert _draws(sample_one, group, n, seeded(seed), 6, size=size, tries=tries) == ref
            rng = seeded(seed)
            try:
                ours = random_generating_tuples(group, n, rng, 6, size, tries)
            except UsageError as e:
                ours = [*ref[0][:-1], str(e)]  # the samples before it are not returned
            assert (ours, rng.getrandbits(64)) == ref


class _ByRandom(random.Random):
    """randrange then scales random(), not the bits of getrandbits."""

    def random(self):
        return super().random()


class _LowBits(random.Random):
    """getrandbits(k) keeps the low k bits of a word, not the top ones."""

    def random(self):
        return super().random()

    def getrandbits(self, k):
        return super().getrandbits(32) & ((1 << k) - 1) if k <= 32 else super().getrandbits(k)


@pytest.mark.parametrize("kind", [_ByRandom, _LowBits], ids=lambda k: k.__name__)
@pytest.mark.parametrize(("group", "n"), [(FreeAbelian(2), 2), (Integers(), 2), (FiniteAbelianExp(5, 2), 2)],
                         ids=lambda c: c if isinstance(c, int) else c.kind)
def test_other_generators_draw_one_candidate_at_a_time(kind, group, n):
    for seed in range(8):
        rng = kind(seed)
        ours = random_generating_tuples(group, n, rng, 3), rng.getrandbits(64)
        assert ours == _draws(sample_generating_tuple, group, n, kind(seed), 3)


@pytest.mark.parametrize("group", [FreeAbelian(2), FreeGroup(2)], ids=lambda g: g.kind)
def test_zero_samples_draw_nothing(group, monkeypatch):
    # FreeAbelian(2) draws decode from words, FreeGroup(2) draws one by one
    monkeypatch.setattr(group, "random_element", lambda rng, size: pytest.fail("drew an element"))
    rng = seeded(5)
    before = rng.getstate()
    rng.getrandbits = lambda k: pytest.fail("drew a block of words")
    assert random_generating_tuples(group, 2, rng, 0) == []
    assert covering._random_stack(group, rng, 0, 12).size == 0
    assert rng.getstate() == before


def test_abelianize_needs_the_heisenberg_group_itself():
    with pytest.raises(UsageError):
        abelianization(BurnsideB23())


# -- the stack checks against their one-at-a-time references ----------------

S3 = FiniteCayley(dihedral_table(3), 0)  # rotations at even indices
STAR_RULES = {
    "identity-Z": (identity_epi(Integers()), 2),
    "identity-F2": (identity_epi(FreeGroup(2)), 2),
    "identity-Q8": (identity_epi(FiniteCayley(quaternion_table(), 0)), 2),
    "project-Z3": (projection(FreeAbelian(3), 2), 3),
    "mod-Z": (mod_reduction(Integers(), 5), 2),
    "mod-Z2": (mod_reduction(FreeAbelian(2), 4), 2),
    "reflection": (reflection_bit(), 2),
    "abelianize": (abelianization(), 2),
    "quotient-S3": (finite_quotient(S3, [0, 2, 4]), 2),
}

# generating tuples with entries past 2^31 (past 2^63 for some): object stacks
BIG = 2**31
WIDE_TUPLES = {
    "identity-Z": [(BIG, BIG + 1), (-BIG, 1), (2**70, 1), (2, 3)],
    "project-Z3": [((1, 2**40, 0), (0, 1, 2**35), (0, 0, 1)), ((1, 0, 0), (0, 1, 0), (0, 0, 1))],
    "mod-Z": [(BIG, BIG + 1), (2**64, 2**64 + 1)],
    # the second: sums of two entries past 2^63, which int64 stacks would wrap
    "mod-Z2": [((2**32 + 1, 2**32), (2**32, 2**32 - 1)), ((2**62 + 1, 2**62), (2**62, 2**62 - 1)),
               ((1, 2**40), (0, 1))],
    "reflection": [((2**40, 1), (2**40 + 1, 1)), ((1, 0), (-(2**50), 1))],
    "abelianize": [((1, 2**40, 2**62), (0, 1, -(2**45))), ((1, 0, 0), (0, 1, 0))],
}


def _break(epi: Epimorphism) -> Epimorphism:
    """The rule, on elements and on stacks, with an image coordinate 1 sent
    to 0 (coordinate 0 of a vector kind) and a table index flipped in its
    last bit: no longer a homomorphism."""
    fn = epi._fn
    if isinstance(epi.codomain, (FreeAbelian, FiniteAbelianExp)):
        epi._fn = lambda g: (lambda y: (y[0] - (y[0] == 1), *y[1:]))(fn(g))
    elif isinstance(epi.codomain, FiniteCayley):
        epi._fn = lambda g: fn(g) ^ 1
    else:
        epi._fn = lambda g: (lambda y: y - (y == 1))(fn(g))
    return epi


def _star(check, epi, n, **kw):
    """The report of a star check, or the error it raised."""
    try:
        rep = check(epi, n, **kw)
    except (UsageError, VerificationError) as e:
        return type(e), str(e)
    return rep.to_json(), rep.violations


@pytest.mark.parametrize("name", STAR_RULES)
def test_star_check_matches_the_reference(name):
    epi, n = STAR_RULES[name]
    for seed in range(3):
        tuples = random_generating_tuples(epi.domain, n, seeded(seed), 40)
        expected = _star(star_bijection_reference, epi, n, tuples=tuples)
        assert expected[0]["checked"] == 40 and not expected[1]
        assert _star(verify_star_bijection, epi, n, samples=40, seed=seed) == expected
        assert _star(verify_star_bijection, epi, n, tuples=tuples) == expected
    tuples = WIDE_TUPLES.get(name, [])
    assert _star(verify_star_bijection, epi, n, tuples=tuples) == _star(star_bijection_reference, epi, n, tuples=tuples)


@pytest.mark.parametrize("name", [k for k in STAR_RULES if k != "identity-F2"])
def test_star_check_lists_the_violations_of_the_reference(name):
    epi, n = STAR_RULES[name]
    broken = _break(epimorphism_from_json(epi.to_json()))
    seen = set()
    for seed in range(4):
        tuples = random_generating_tuples(epi.domain, n, seeded(seed), 30) + WIDE_TUPLES.get(name, [])
        expected = _star(star_bijection_reference, broken, n, tuples=tuples)
        assert _star(verify_star_bijection, broken, n, tuples=tuples) == expected
        seen.add(expected[0] if expected[0] is VerificationError else bool(expected[1]))
    assert seen & {VerificationError, True}  # the broken rule was caught


def test_star_check_raises_the_first_refusal_of_the_reference():
    epi, n = STAR_RULES["identity-Z"]
    good = [(2, 3), (5, -7)]
    for bad in ([(2, 4)], [("x", 1)], [(True, 1)], [(1,)], [()], [(2, 3, 4)], [(1, 0), (3, 4, 6)]):
        for tuples in (bad + good, good + bad, good + bad + [(4, 6)], good + [(2, 4)] + bad):
            expected = _star(star_bijection_reference, epi, n, tuples=tuples)
            assert _star(verify_star_bijection, epi, n, tuples=tuples) == expected
    # an image that does not generate, after a domain tuple that does not
    broken = _break(epimorphism_from_json(epi.to_json()))
    for tuples in ([(1, 2), (2, 4)], [(2, 4), (1, 2)], [(3, 5), (1, 2)]):
        expected = _star(star_bijection_reference, broken, n, tuples=tuples)
        assert expected[0] in (UsageError, VerificationError)
        assert _star(verify_star_bijection, broken, n, tuples=tuples) == expected


def _lift(check, epi, frag, seed_tuple):
    try:
        rep = check(epi, frag, seed_tuple)
    except (UsageError, VerificationError) as e:
        return type(e), str(e)
    return rep.total, rep.lifted, rep.unreached


LIFT_CASES = {
    "root": (projection(FreeAbelian(2), 1), ball(Integers(), (1, 1), 6), ((1, 0), (1, 1))),
    "not-root": (projection(FreeAbelian(2), 1), ball(Integers(), (1, 1), 6), ((3, 1), (2, 1))),
    "outside": (projection(FreeAbelian(2), 1), ball(Integers(), (1, 1), 4), ((40, 1), (39, 1))),
    "window": (projection(FreeAbelian(2), 1), ball(Integers(), (1, 1), 8, window=5), ((2, 1), (1, 1))),
    "past-guard": (projection(FreeAbelian(2), 1), ball(Integers(), (BIG, BIG + 1), 4), ((BIG, 1), (BIG + 1, 1))),
    "abelianize": (abelianization(), ball(FreeAbelian(2), ((1, 0), (0, 1)), 4), ((1, 0, 2**40), (0, 1, 0))),
    "free": (identity_epi(FreeGroup(2)), ball(FreeGroup(2), ((1, 2), (2,)), 3), ((1, 2), (2,))),
    "quotient": (finite_quotient(S3, [0, 2, 4]), ball(FiniteCayley(cyclic_table(2), 0), (1, 0), 3), (1, 2)),
    "mod-wide": (mod_reduction(FreeAbelian(2), 5), ball(FiniteAbelianExp(5, 2), ((1, 0), (0, 1)), 3),
                 ((1, 5 * 2**60), (0, 1))),
    "mod-n3": (mod_reduction(Integers(), 5), ball(FiniteAbelianExp(5, 1), ((1,), (0,), (0,)), 3), (1, 5, 10)),
}


@pytest.mark.parametrize("name", LIFT_CASES)
def test_lift_matches_the_reference(name):
    epi, frag, seed_tuple = LIFT_CASES[name]
    expected = _lift(lift_reference, epi, frag, seed_tuple)
    assert _lift(verify_surjectivity_on_fragment, epi, frag, seed_tuple) == expected
    if name == "outside":
        assert expected[1] == 0 and len(expected[2]) == len(frag)
    elif name != "window":
        assert expected[1] == expected[0] > 1


@pytest.mark.parametrize("name", ["root", "not-root", "window", "abelianize", "past-guard", "mod-wide"])
def test_lift_lifts_the_tuples_of_the_reference(name):
    # the rule counts the domain elements it pushes: each lifted vertex's
    # entries once, so another parent for some vertex shows as another count
    epi, frag, seed_tuple = LIFT_CASES[name]
    fn = epi._fn
    counts = {}
    for check in (lift_reference, verify_surjectivity_on_fragment):
        pushed = counts[check] = Counter()

        def counting(g):
            pushed.update(zip(*g.tolist()) if isinstance(g, np.ndarray) else [g])
            return fn(g)

        epi._fn = counting
        try:
            check(epi, frag, seed_tuple)
        finally:
            epi._fn = fn
    assert counts[verify_surjectivity_on_fragment] == counts[lift_reference]


def test_lift_refuses_a_vertex_that_pushes_wrong_as_the_reference_does():
    # one domain element, (3, 1), now pushes onto 4: the lifts through it no
    # longer push onto their vertices, while the seed still does
    pi = projection(FreeAbelian(2), 1)
    pi._fn = lambda g: g[0] + ((g[0] == 3) & (g[1] == 1))
    frag = ball(Integers(), (1, 1), 5)
    expected = _lift(lift_reference, pi, frag, ((1, 0), (1, 1)))
    assert expected == (VerificationError, "lifted tuple does not push onto its fragment vertex")
    assert _lift(verify_surjectivity_on_fragment, pi, frag, ((1, 0), (1, 1))) == expected


@pytest.mark.parametrize("group", [Integers(), FreeAbelian(1), FreeAbelian(2), FreeAbelian(3), Heisenberg()],
                         ids=lambda g: repr(g.spec_json()))
def test_law_check_draws_are_those_of_random_element(group, monkeypatch):
    ref = random.Random(covering._HOM_SEED)
    expected = [group.random_element(ref, 12) for _ in range(2 * covering._HOM_SAMPLE)]
    monkeypatch.setattr(group, "random_element", lambda rng, size: pytest.fail("drawn one at a time"))
    rng = random.Random(covering._HOM_SEED)
    stack = covering._random_stack(group, rng, 2 * covering._HOM_SAMPLE, 12)
    assert covering._elements(group, stack) == expected
    assert rng.getrandbits(64) == ref.getrandbits(64)  # left where the draws one by one leave it


@pytest.mark.parametrize("domain", [FreeAbelian(3), Heisenberg()], ids=lambda g: g.kind)
def test_law_check_names_the_one_broken_pair(domain):
    rng = random.Random(covering._HOM_SEED)
    draws = [domain.random_element(rng, 12) for _ in range(2 * covering._HOM_SAMPLE)]
    pairs = list(zip(draws[0::2], draws[1::2]))
    products = [domain.mul(a, b) for a, b in pairs]
    # a late pair whose product is no other pair's product and no drawn element
    k = next(k for k in range(700, len(pairs)) if products.count(products[k]) == 1 and products[k] not in draws
             and products[k] not in domain.standard_generators())
    s = products[k]
    # the first two coordinates, except one more at s: broken at pair k alone
    fn = lambda g: (g[0], g[1] + ((g[0] == s[0]) & (g[1] == s[1]) & (g[2] == s[2])))
    expected = f"rule map is not a homomorphism at {pairs[k][0]!r}, {pairs[k][1]!r}"
    assert homomorphism_failure_by_samples("map", domain, FreeAbelian(2), fn) == expected
    assert _law_outcome(domain, FreeAbelian(2), fn) == expected


def test_law_check_on_drawn_elements_names_the_first_broken_pair():
    # the infinite dihedral group draws two widths, so its pairs are drawn by
    # random_element; the reflection bit flipped at (5, 0) breaks many pairs
    domain, codomain = InfiniteDihedral(), FiniteAbelianExp(2, 1)
    fn = lambda g: (g[1] ^ ((g[0] == 5) & (g[1] == 0)),)
    expected = homomorphism_failure_by_samples("map", domain, codomain, fn)
    assert expected is not None and _law_outcome(domain, codomain, fn) == expected
    assert _law_outcome(domain, codomain, lambda g: (g[1],)) is None
