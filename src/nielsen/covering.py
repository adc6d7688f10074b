"""Epimorphisms between supported groups and covering-map verification.

The entrywise map on tuples induced by an epimorphism G -> H sends N_n(G)
into N_n(H), commutes with every move, and maps vertex stars bijectively.
This module carries a closed catalogue of epimorphism rules (so that the
homomorphism and surjectivity checks stay decidable), verifies the star
commutation on samples, and lifts codomain fragments back along the map.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceCapError, UsageError, VerificationError, count_text
from .explore import GraphFragment
from .groups import (
    DEFAULT_VERTEX_CAP,
    FiniteAbelianExp,
    FiniteCayley,
    FiniteTable,
    FreeAbelian,
    Group,
    Heisenberg,
    InfiniteDihedral,
    Integers,
    IntVectorGroup,
    State,
    group_from_json,
)
from .moves import apply_move, move_set

_HOM_SAMPLE = 1000
_HOM_SEED = 0x5EED


class Epimorphism:
    """A surjective homomorphism from a fixed rule catalogue.

    Rules: ``identity``; ``project`` (Z^d onto the first e coordinates);
    ``mod`` (coordinatewise reduction of Z or Z^d mod m); ``reflection``
    (infinite dihedral onto Z/2 by the reflection bit); ``abelianize``
    (Heisenberg onto Z^2); ``finite_quotient`` (FiniteCayley by a listed
    normal subgroup).
    """

    def __init__(self, rule: str, domain: Group, codomain: Group, fn, params: dict):
        self.rule = rule
        self.domain = domain
        self.codomain = codomain
        self._fn = fn
        self.params = params
        self._validate()

    def apply(self, g):
        return self._fn(g)

    def to_json(self) -> dict:
        out = {"rule": self.rule, "domain": self.domain.spec_json()}
        out.update(self.params)
        return out

    def _validate(self):
        if self.domain.is_finite:
            self._validate_on_tables()
        else:
            rng = random.Random(_HOM_SEED)
            for _ in range(_HOM_SAMPLE):
                a, b = self.domain.random_element(rng, 12), self.domain.random_element(rng, 12)
                if self.apply(self.domain.mul(a, b)) != self.codomain.mul(self.apply(a), self.apply(b)):
                    raise VerificationError(f"rule {self.rule} is not a homomorphism at {a!r}, {b!r}")
        gens = self.domain.standard_generators()
        images = tuple(self.apply(g) for g in gens)
        if not self.codomain.is_generating(images):
            raise VerificationError(f"rule {self.rule} is not surjective: generator images do not generate")

    def _validate_on_tables(self):
        """The law on all pairs of a finite domain at once: f(a*b) against
        f(a)*f(b) on the two multiplication tables; the first failing pair
        in row-major order over ``elements()`` is named."""
        order = max(self.domain.order, self.codomain.order)
        if order**2 > DEFAULT_VERTEX_CAP:
            raise ResourceCapError(
                f"multiplication table of {count_text(order)}^2 entries exceeds cap {DEFAULT_VERTEX_CAP}"
            )
        dom, cod = FiniteTable.of(self.domain), FiniteTable.of(self.codomain)
        image = np.array([cod.index[self.apply(a)] for a in dom.elements], dtype=np.intp)
        bad = np.flatnonzero(image[dom.table] != cod.table[image[:, None], image])
        if bad.size:
            a, b = divmod(int(bad[0]), dom.order)
            raise VerificationError(
                f"rule {self.rule} is not a homomorphism at {dom.elements[a]!r}, {dom.elements[b]!r}"
            )


def identity_epi(group: Group) -> Epimorphism:
    return Epimorphism("identity", group, group, lambda g: g, {})


def projection(domain: Group, e: int) -> Epimorphism:
    if isinstance(domain, Integers):
        d = 1
    elif isinstance(domain, FreeAbelian):
        d = domain.d
    else:
        raise UsageError("project rule needs an Integers or FreeAbelian domain")
    if not isinstance(e, int) or isinstance(e, bool):
        raise UsageError(f"projection target rank e must be an int, got {e!r}")
    if not 1 <= e <= d:
        raise UsageError(f"projection target rank e={e} must satisfy 1 <= e <= {d}")
    if e == 1:
        codomain = Integers()
        fn = (lambda g: g) if d == 1 else (lambda g: g[0])
    else:
        codomain = FreeAbelian(e)
        fn = lambda g: g[:e]
    return Epimorphism("project", domain, codomain, fn, {"e": e})


def mod_reduction(domain: Group, m: int) -> Epimorphism:
    if isinstance(domain, Integers):
        d = 1
        fn = lambda g: (g % m,)
    elif isinstance(domain, FreeAbelian):
        d = domain.d
        fn = lambda g: tuple(x % m for x in g)
    else:
        raise UsageError("mod rule needs an Integers or FreeAbelian domain")
    return Epimorphism("mod", domain, FiniteAbelianExp(m, d), fn, {"m": m})


def reflection_bit(domain: Group | None = None) -> Epimorphism:
    domain = domain or InfiniteDihedral()
    if not isinstance(domain, InfiniteDihedral):
        raise UsageError("reflection rule needs the InfiniteDihedral domain")
    return Epimorphism("reflection", domain, FiniteAbelianExp(2, 1), lambda g: (g[1],), {})


def abelianization(domain: Group | None = None) -> Epimorphism:
    domain = domain or Heisenberg()
    if domain != Heisenberg():  # BurnsideB23 shares the class but not the law
        raise UsageError("abelianize rule needs the Heisenberg domain")
    return Epimorphism("abelianize", domain, FreeAbelian(2), lambda g: (g[0], g[1]), {})


def finite_quotient(domain: Group, normal: list[int]) -> Epimorphism:
    """The quotient by a listed normal subgroup N, checked and built on the
    domain's table array: closure, inverses and conjugates are gathers, and
    the cosets gN are numbered in the order of their least elements."""
    if not isinstance(domain, FiniteCayley):
        raise UsageError("finite_quotient rule needs a FiniteCayley domain")
    if not isinstance(normal, list):
        raise UsageError("finite_quotient 'normal' must be a list of element indices")
    sub = sorted({domain.check_element(x) for x in normal})
    tab, inv = domain.table, FiniteTable.of(domain).inverses
    member = np.zeros(domain.order, dtype=bool)
    member[sub] = True
    if not member[domain.id_index]:
        raise UsageError("normal subgroup must contain the identity")
    # the first element of N, in increasing order, with its inverse or a
    # product outside N names the failure
    bad_inv = ~member[inv[sub]]
    bad = bad_inv | ~member[tab[np.ix_(sub, sub)]].all(axis=1)
    if bad.any():
        broken = "inverses" if bad_inv[bad.argmax()] else "multiplication"
        raise UsageError(f"listed subset is not closed under {broken}")
    if not member[tab[tab[:, sub], inv[:, None]]].all():
        raise UsageError("listed subgroup is not normal")
    reps, coset = np.unique(tab[:, sub].min(axis=1), return_inverse=True)
    coset_of = coset.tolist()
    codomain = FiniteCayley(coset[tab[np.ix_(reps, reps)]].tolist(), coset_of[domain.id_index])
    return Epimorphism("finite_quotient", domain, codomain, lambda g: coset_of[g], {"normal": sub})


def epimorphism_from_json(obj: dict) -> Epimorphism:
    if not isinstance(obj, dict) or "rule" not in obj or "domain" not in obj:
        raise UsageError("epimorphism JSON must carry 'rule' and 'domain'")
    domain = group_from_json(obj["domain"])
    rule = obj["rule"]
    extra = {k: v for k, v in obj.items() if k not in ("rule", "domain")}
    if rule == "identity":
        _expect_params(extra, set())
        return identity_epi(domain)
    if rule == "project":
        _expect_params(extra, {"e"})
        return projection(domain, extra["e"])
    if rule == "mod":
        _expect_params(extra, {"m"})
        return mod_reduction(domain, extra["m"])
    if rule == "reflection":
        _expect_params(extra, set())
        return reflection_bit(domain)
    if rule == "abelianize":
        _expect_params(extra, set())
        return abelianization(domain)
    if rule == "finite_quotient":
        _expect_params(extra, {"normal"})
        return finite_quotient(domain, extra["normal"])
    raise UsageError(f"unknown epimorphism rule {rule!r}")


def _expect_params(extra: dict, allowed: set):
    unknown = set(extra) - allowed
    if unknown:
        raise UsageError(f"unknown epimorphism fields: {sorted(unknown)}")
    missing = allowed - set(extra)
    if missing:
        raise UsageError(f"missing epimorphism fields: {sorted(missing)}")


def push(epi: Epimorphism, state: State) -> State:
    """Entrywise image of a generating tuple; generating in the codomain."""
    state = tuple(epi.domain.check_element(g) for g in state)
    if not epi.domain.is_generating(state):
        raise UsageError(f"{state!r} does not generate the domain group")
    image = tuple(epi.apply(g) for g in state)
    if not epi.codomain.is_generating(image):
        raise VerificationError("epimorphism image of a generating tuple fails to generate")
    return image


@dataclass
class StarReport:
    checked: int
    moves: int
    violations: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {"checked": self.checked, "moves": self.moves, "violations": len(self.violations)}


# 32-bit words in the first block of draws and in the largest, 64 KiB
_FIRST_BLOCK, _LAST_BLOCK = 64, 1 << 14


def random_generating_tuple(group: Group, n: int, rng: random.Random, size: int = 12, tries: int = 10000) -> State:
    """The first of up to ``tries`` candidate n-tuples of ``random_element``
    draws that generates the group; UsageError if none does."""
    return random_generating_tuples(group, n, rng, 1, size, tries)[0]


def random_generating_tuples(
    group: Group, n: int, rng: random.Random, count: int, size: int = 12, tries: int = 10000
) -> list[State]:
    """``count`` calls of ``random_generating_tuple`` in a row: the generating
    candidates of one stream of candidates, in order.

    When every coordinate is ``start + rng.randrange(width)`` with one width
    below 2^32 and ``rng`` is a plain ``random.Random``, the candidates are
    decoded from blocks of its 32-bit words, the words those draws would
    read, and decided a block at a time. The generator is left just past the
    last sample, or the last candidate tried, so the tuples and the state
    afterwards are those of drawing one candidate at a time.
    """
    draws = set(group.draws(size) or ())
    if len(draws) == 1 and n > 0 and tries > 0 and type(rng) is random.Random:
        (start, width), = draws
        if 0 < width < 1 << 32:
            return _samples_in_blocks(group, n, rng, count, tries, start, width)
    return [_sample_one_by_one(group, n, rng, size, tries) for _ in range(count)]


def _sample_one_by_one(group: Group, n: int, rng: random.Random, size: int, tries: int) -> State:
    random_element = group.random_element
    for _ in range(tries):
        cand = tuple([random_element(rng, size) for _ in range(n)])
        if group.is_generating(cand):
            return cand
    raise UsageError(f"could not sample a generating {n}-tuple in {tries} tries")


def _samples_in_blocks(
    group: Group, n: int, rng: random.Random, count: int, tries: int, start: int, width: int
) -> list[State]:
    """``randrange(width)`` is ``_randbelow(width)``: the top ``k`` bits of
    one word, k = width.bit_length(), drawn again while they reach
    ``width``. ``getrandbits(32 * N)`` holds the next N words, least
    significant first, so a block of words decodes at once. The state is
    saved before each block; the stream ends inside the block that completes
    its last candidate, and ``rng`` is put back to that block's start and
    moved on by exactly the words through that candidate."""
    if isinstance(group, IntVectorGroup):
        shape, state = (n, group.width), lambda c: tuple(map(tuple, c))
    else:
        shape, state = (n,), tuple
    per = math.prod(shape)  # draws per candidate
    shift = 32 - width.bit_length()
    out: list[State] = []
    carry = np.empty(0, dtype=np.int64)  # draws kept but not yet in a whole candidate
    since = 0  # candidates tried after the last sample, before candidate last + 1 of the block
    words = _FIRST_BLOCK
    while len(out) < count:
        saved = rng.getstate()
        block = np.frombuffer(rng.getrandbits(32 * words).to_bytes(4 * words, "little"), dtype="<u4") >> shift
        kept = np.flatnonzero(block < width)
        through = kept[per - 1 - len(carry) :: per] + 1  # words read through each whole candidate
        vals = np.concatenate((carry, block[kept]))
        whole = len(vals) // per
        cands = (vals[: whole * per] + start).reshape(whole, *shape)
        verdict = group.is_generating_each(cands)
        if verdict is None:
            hits = (j for j in range(whole) if group.is_generating(state(cands[j].tolist())))
        else:
            hits = np.flatnonzero(verdict).tolist()
        last = -1  # the candidate of this block that gave the last sample
        for j in hits:
            if since + j - last > tries:
                break
            out.append(state(cands[j].tolist()))
            since, last = 0, j
            if len(out) == count:
                _rewind(rng, saved, int(through[j]))
                return out
        if last + tries - since < whole:
            _rewind(rng, saved, int(through[last + tries - since]))
            raise UsageError(f"could not sample a generating {n}-tuple in {tries} tries")
        since += whole - 1 - last
        carry = vals[whole * per :]
        words = min(2 * words, _LAST_BLOCK)
    return out


def _rewind(rng: random.Random, state: tuple, words: int) -> None:
    """Put ``rng`` at ``state`` moved on by ``words`` 32-bit words."""
    rng.setstate(state)
    rng.getrandbits(32 * words)


def verify_star_bijection(
    epi: Epimorphism,
    n: int,
    samples: int = 1000,
    seed: int = 1,
    tuples: list[State] | None = None,
) -> StarReport:
    """Check push(apply(t, s)) == apply(push(t), s) for every move at each sample.

    With one dart per move label on both sides, commutation makes the star
    map a label-preserving bijection; any violation indicates a bug, since
    the property is a theorem.
    """
    moves = move_set(n)
    if tuples is None:
        if samples < 0:
            raise UsageError(f"samples must be >= 0, got {samples}")
        if samples > DEFAULT_VERTEX_CAP:  # every sample is held in the list
            raise ResourceCapError(f"{samples} samples exceed cap {DEFAULT_VERTEX_CAP}")
        tuples = random_generating_tuples(epi.domain, n, random.Random(seed), samples)
    report = StarReport(checked=len(tuples), moves=len(moves))
    for t in tuples:
        image = push(epi, t)
        for mv in moves:
            lhs = tuple(epi.apply(g) for g in apply_move(epi.domain, t, mv))
            rhs = apply_move(epi.codomain, image, mv)
            if lhs != rhs:
                report.violations.append({"tuple": repr(t), "move": mv.text()})
    return report


@dataclass
class LiftReport:
    total: int
    lifted: int
    unreached: list[str]

    @property
    def ok(self) -> bool:
        return self.lifted == self.total

    def to_json(self) -> dict:
        return {"total": self.total, "lifted": self.lifted, "unreached": len(self.unreached)}


def verify_surjectivity_on_fragment(epi: Epimorphism, frag: GraphFragment, seed_tuple: State) -> LiftReport:
    """Lift every fragment vertex along the covering by replaying move words.

    BFS from push(seed) inside the fragment (descending only darts of
    expanded vertices) lifts each reached vertex to a domain tuple pushing
    onto it; vertices the BFS cannot reach are reported as unreached, which
    cannot happen when the codomain graph is connected and the fragment is a
    ball around push(seed)'s component.
    """
    if frag.group != epi.codomain:
        raise UsageError("fragment group does not match the epimorphism codomain")
    seed_tuple = tuple(epi.domain.check_element(g) for g in seed_tuple)
    if len(seed_tuple) != frag.n:
        raise UsageError("seed tuple length does not match the fragment")
    start_state = push(epi, seed_tuple)
    start = frag.index.get(start_state)
    lifts: dict[int, State] = {}
    unreached = []
    if start is not None:
        lifts[start] = seed_tuple
        queue = [start]
        qpos = 0
        darts, expanded = frag.darts.tolist(), frag.expanded.tolist()
        while qpos < len(queue):
            v = queue[qpos]
            qpos += 1
            if not expanded[v]:
                continue
            for k, w in enumerate(darts[v]):
                if w not in lifts:
                    lifts[w] = apply_move(epi.domain, lifts[v], frag.moves[k])
                    queue.append(w)
    for v in range(len(frag)):
        if v in lifts:
            if tuple(epi.apply(g) for g in lifts[v]) != frag.states[v]:
                raise VerificationError("lifted tuple does not push onto its fragment vertex")
        else:
            unreached.append(frag.keys[v].hex())
    return LiftReport(total=len(frag), lifted=len(lifts), unreached=unreached)

