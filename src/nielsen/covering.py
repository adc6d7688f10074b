"""Epimorphisms between supported groups and covering-map verification.

The entrywise map on tuples induced by an epimorphism G -> H sends N_n(G)
into N_n(H), commutes with every move, and maps vertex stars bijectively.
This module carries a closed catalogue of epimorphism rules (so that the
homomorphism and surjectivity checks stay decidable), verifies the star
commutation on samples, and lifts codomain fragments back along the map.

The checks run on element stacks: one array per tuple entry, with axis 0
the coordinate. A fixed-width kind stacks (width, N) int64 coordinates, or
Python ints in an object array once an entry reaches 2^31 in absolute value,
so that one product of two entries stays exact; ``FreeGroup`` stacks its
words in a 1-D object array, its law run on each element by
``np.frompyfunc``. Every kind's law and every rule's map run on stacks as on
elements, so the star check makes one ``apply_move`` per move and side on
all samples at once, the lift one per move on each BFS layer, and the law
check on an infinite domain one law call per side on its 1000 seeded pairs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from types import SimpleNamespace

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
    _firsts,
    group_from_json,
)
from .moves import apply_move, move_set

_HOM_SAMPLE = 1000
_HOM_SEED = 0x5EED
# int64 stacks keep every entry below this in absolute value: one product of
# two entries, plus two more, stays exact
_STACK_BOUND = 2**31
# samples checked at once by the star check: bounds its arrays
_STAR_CHUNK = 1 << 13


class Epimorphism:
    """A surjective homomorphism from a fixed rule catalogue.

    Rules: ``identity``; ``project`` (Z^d onto the first e coordinates);
    ``mod`` (coordinatewise reduction of Z or Z^d mod m); ``reflection``
    (infinite dihedral onto Z/2 by the reflection bit); ``abelianize``
    (Heisenberg onto Z^2); ``finite_quotient`` (FiniteCayley by a listed
    normal subgroup). Each rule's map runs on elements and on stacks.
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
            self._validate_on_samples()
        gens = self.domain.standard_generators()
        images = tuple(self.apply(g) for g in gens)
        if not self.codomain.is_generating(images):
            raise VerificationError(f"rule {self.rule} is not surjective: generator images do not generate")

    def _validate_on_samples(self):
        """The law on 1000 seeded pairs of an infinite domain, one law call
        per side: f(a*b) against f(a)*f(b) on the stacks of the pairs, drawn
        a, b, a, b, ... from one seeded stream; the first failing pair is
        named."""
        draws = _random_stack(self.domain, random.Random(_HOM_SEED), 2 * _HOM_SAMPLE, 12)
        a, b = draws[..., 0::2], draws[..., 1::2]
        lhs = _image(self, _law(self.domain).mul(a, b))
        bad = np.flatnonzero(_differ(lhs, _law(self.codomain).mul(_image(self, a), _image(self, b))))
        if bad.size:
            k = int(bad[0])
            a, b = _elements(self.domain, a)[k], _elements(self.domain, b)[k]
            raise VerificationError(f"rule {self.rule} is not a homomorphism at {a!r}, {b!r}")

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
    codomain = FiniteCayley(coset[tab[np.ix_(reps, reps)]].tolist(), coset.item(domain.id_index))
    fn = lambda g: coset[g] if isinstance(g, np.ndarray) else coset.item(g)
    return Epimorphism("finite_quotient", domain, codomain, fn, {"normal": sub})


# rule -> (constructor, the fields it takes after the domain), as groups._KINDS
_RULES = {
    "identity": (identity_epi, ()),
    "project": (projection, ("e",)),
    "mod": (mod_reduction, ("m",)),
    "reflection": (reflection_bit, ()),
    "abelianize": (abelianization, ()),
    "finite_quotient": (finite_quotient, ("normal",)),
}


def epimorphism_from_json(obj: dict) -> Epimorphism:
    if not isinstance(obj, dict) or "rule" not in obj or "domain" not in obj:
        raise UsageError("epimorphism JSON must carry 'rule' and 'domain'")
    domain = group_from_json(obj["domain"])
    rule = obj["rule"]
    if not isinstance(rule, str) or rule not in _RULES:
        raise UsageError(f"unknown epimorphism rule {rule!r}")
    make, fields = _RULES[rule]
    extra, need = set(obj) - {"rule", "domain"}, set(fields)
    if extra - need:
        raise UsageError(f"unknown epimorphism fields: {sorted(extra - need)}")
    if need - extra:
        raise UsageError(f"missing epimorphism fields: {sorted(need - extra)}")
    return make(domain, *(obj[f] for f in fields))


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
    """``random_generating_tuples`` with ``count=1``; nothing in the package
    or its tests calls it, it stays as the layer ``bench/tracer.py`` wraps."""
    return random_generating_tuples(group, n, rng, 1, size, tries)[0]


def random_generating_tuples(
    group: Group, n: int, rng: random.Random, count: int, size: int = 12, tries: int = 10000
) -> list[State]:
    """The first ``count`` generating n-tuples of one stream of candidates of
    ``random_element`` draws, each within ``tries`` candidates of the one
    before it; UsageError if one is not.

    When the draws decode (``_uniform``), the candidates are decoded from
    the blocks of ``_decoded`` and decided a block at a time. The stream
    ends inside the block that completes its last candidate, and ``rng`` is
    put back to that block's start and moved on by exactly its words through
    that candidate, so the tuples and the state afterwards are those of
    drawing one candidate at a time.
    """
    uniform = _uniform(group, rng, size)
    if uniform is None or n == 0 or tries <= 0 or count == 0:
        return [_sample_one_by_one(group, n, rng, size, tries) for _ in range(count)]
    if isinstance(group, IntVectorGroup):
        shape, state = (n, group.width), lambda c: tuple(map(tuple, c))
    else:
        shape, state = (n,), tuple
    per = math.prod(shape)  # draws per candidate
    out: list[State] = []
    carry = np.empty(0, dtype=np.int64)  # draws kept but not yet in a whole candidate
    since = 0  # candidates tried after the last sample, before candidate last + 1 of the block
    for drawn, read, begun in _decoded(rng, *uniform, _FIRST_BLOCK):
        through = read[per - 1 - len(carry) :: per]  # the block's words through each whole candidate
        vals = np.concatenate((carry, drawn))
        whole = len(vals) // per
        cands = vals[: whole * per].reshape(whole, *shape)
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
                _rewind(rng, begun, int(through[j]))
                return out
        if last + tries - since < whole:
            _rewind(rng, begun, int(through[last + tries - since]))
            raise UsageError(f"could not sample a generating {n}-tuple in {tries} tries")
        since += whole - 1 - last
        carry = vals[whole * per :]


def _sample_one_by_one(group: Group, n: int, rng: random.Random, size: int, tries: int) -> State:
    random_element = group.random_element
    for _ in range(tries):
        cand = tuple([random_element(rng, size) for _ in range(n)])
        if group.is_generating(cand):
            return cand
    raise UsageError(f"could not sample a generating {n}-tuple in {tries} tries")


def _random_stack(group: Group, rng: random.Random, count: int, size: int) -> np.ndarray:
    """The stack of ``count`` calls of ``random_element(rng, size)``, with
    ``rng`` left where they leave it: decoded from the blocks of
    ``_decoded`` when the draws decode (``_uniform``), ``rng`` then put
    back to the start of the block that holds the last draw and moved on by
    its words through that draw."""
    uniform = _uniform(group, rng, size)
    if uniform is None or count == 0:
        return _stack(group, [group.random_element(rng, size) for _ in range(count)])
    need, parts = count * group.width, []
    for drawn, read, begun in _decoded(rng, *uniform, 2 * need + _FIRST_BLOCK):  # more than half of all words are kept
        parts.append(drawn[:need])
        need -= len(parts[-1])
        if not need:
            _rewind(rng, begun, int(read[len(parts[-1]) - 1]))
            return np.concatenate(parts).reshape(count, group.width).T


def _uniform(group: Group, rng: random.Random, size: int) -> tuple[int, int] | None:
    """The (start, width) of the draws when they decode: every coordinate of
    ``random_element(rng, size)`` is ``start + rng.randrange(width)`` with
    one width below 2^32, and ``rng`` is a plain ``random.Random``; None
    when they do not."""
    draws = set(group.draws(size) or ())
    if len(draws) == 1 and type(rng) is random.Random:
        (start, width), = draws
        if 0 < width < 1 << 32:
            return start, width
    return None


def _decoded(rng: random.Random, start: int, width: int, words: int):
    """The draws ``start + rng.randrange(width)`` held in ``rng``'s 32-bit
    words, a block at a time: the first block of ``words`` words, each next
    one twice as large, up to ``_LAST_BLOCK``. Yields the draws of each
    block, as int64, for each the number of the block's words read through
    it, and ``rng``'s state at the block's start.

    ``randrange(width)`` is ``_randbelow(width)``: the top ``k`` bits of one
    word, k = width.bit_length(), drawn again while they reach ``width``.
    ``getrandbits(32 * N)`` holds the next N words, least significant first,
    so a block of words decodes at once."""
    shift = 32 - width.bit_length()
    while True:
        state = rng.getstate()
        block = np.frombuffer(rng.getrandbits(32 * words).to_bytes(4 * words, "little"), dtype="<u4") >> shift
        kept = np.flatnonzero(block < width)
        yield block[kept].astype(np.int64) + start, kept + 1, state
        words = min(2 * words, _LAST_BLOCK)


def _rewind(rng: random.Random, state: tuple, words: int) -> None:
    """Put ``rng`` at ``state`` moved on by ``words`` 32-bit words."""
    rng.setstate(state)
    rng.getrandbits(32 * words)


# -- element stacks ---------------------------------------------------------


def _stack(group: Group, elements: list) -> np.ndarray:
    """The stack of one tuple entry: the (width, N) coordinates of a
    fixed-width kind, int64 while every entry stays below 2^31 in absolute
    value and Python ints otherwise; a 1-D object array for a kind without a
    width."""
    if group.width is None:
        return np.fromiter(elements, dtype=object, count=len(elements))
    try:
        return _bounded(np.array(elements, dtype=np.int64).reshape(len(elements), group.width).T)
    except OverflowError:
        return np.array(elements, dtype=object).reshape(len(elements), group.width).T


def _bounded(stack: np.ndarray) -> np.ndarray:
    """An int64 stack as Python ints once an entry reaches 2^31 in absolute value."""
    if stack.dtype != object and stack.size and not (-_STACK_BOUND < stack.min() and stack.max() < _STACK_BOUND):
        return stack.astype(object)
    return stack


def _elements(group: Group, stack: np.ndarray) -> list:
    """The elements of a stack, in the kind's normal form."""
    if group.width is None:
        return stack.tolist()
    rows = stack.tolist()
    return list(zip(*rows)) if isinstance(group, IntVectorGroup) else rows[0]


def _law(group: Group):
    """The law on stacks: the kind's own, or for a kind without a width its
    law on each element of object arrays."""
    if group.width is not None:
        return group
    return SimpleNamespace(mul=np.frompyfunc(group.mul, 2, 1), inv=np.frompyfunc(group.inv, 1, 1))


def _image(epi: Epimorphism, stack) -> np.ndarray:
    """The rule on a domain stack (or on the entry ``apply_move`` makes), as
    a codomain stack."""
    out = np.asarray(epi.apply(stack))
    return out if epi.codomain.width is None else _bounded(out.reshape(epi.codomain.width, -1))


def _differ(a, b) -> np.ndarray:
    """For each position of two stacks of one kind: do their elements differ?"""
    ne = np.asarray(a) != np.asarray(b)
    return ne if ne.ndim == 1 else ne.any(axis=0)


def _generating(group: Group, stacks: list) -> np.ndarray:
    """``is_generating`` on the tuple at each position of the stacks: one
    ``is_generating_each`` call on their int64 block where the kind has one,
    else tuple by tuple."""
    verdict = None
    if group.width is not None and all(s.dtype != object for s in stacks):
        block = np.stack(stacks).transpose(2, 0, 1)  # (tuples, entries, width)
        verdict = group.is_generating_each(block if isinstance(group, IntVectorGroup) else block[:, :, 0])
    if verdict is None:
        verdict = [group.is_generating(t) for t in zip(*(_elements(group, s) for s in stacks))]
    return np.asarray(verdict, dtype=bool)


def _pushed(epi: Epimorphism, tuples: list[State], n: int, sampled: bool) -> tuple[tuple, tuple]:
    """The stacks of the tuples' first n entries and of their images.

    Every tuple must pass ``push`` and hold the n entries the moves read.
    Given tuples run ``push`` and the moves one at a time, so the first tuple
    they refuse raises what they raise. Tuples the sampler drew are n-tuples
    of in-range entries that it found generating, so only their images are
    tested, on the stacks; the first that fails runs ``push`` to raise."""
    if not sampled:
        moves = move_set(n)
        for t in tuples:
            push(epi, t)
            for mv in moves:
                apply_move(epi.domain, t, mv)
    dom = tuple(_stack(epi.domain, [t[e] for t in tuples]) for e in range(n))
    img = tuple(_image(epi, s) for s in dom)
    if sampled and not (ok := _generating(epi.codomain, img)).all():
        push(epi, tuples[int(ok.argmin())])  # raises what push raises
    return dom, img


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
    the property is a theorem. The samples are checked ``_STAR_CHUNK`` at a
    time: one ``apply_move`` per move on the domain stacks and one on the
    pushed stacks, and the rule pushes only the entry the move changes
    (``Move.entry``), as the others push onto the pushed stacks' own.
    Violations are listed in (sample, move) order.
    """
    moves = move_set(n)
    sampled = tuples is None
    if sampled:
        if samples < 0:
            raise UsageError(f"samples must be >= 0, got {samples}")
        if samples * len(moves) > DEFAULT_VERTEX_CAP:  # every sample is held, and checked at every move
            raise ResourceCapError(f"{samples} samples exceed cap {DEFAULT_VERTEX_CAP} on samples x {len(moves)} moves")
        tuples = random_generating_tuples(epi.domain, n, random.Random(seed), samples)
    report = StarReport(checked=len(tuples), moves=len(moves))
    dom_law, cod_law = _law(epi.domain), _law(epi.codomain)
    for at in range(0, len(tuples), _STAR_CHUNK):
        part = tuples[at : at + _STAR_CHUNK]
        dom, img = _pushed(epi, part, n, sampled)
        bad = np.zeros((len(moves), len(part)), dtype=bool)
        for k, mv in enumerate(moves):
            e = mv.entry
            bad[k] = _differ(_image(epi, apply_move(dom_law, dom, mv)[e]), apply_move(cod_law, img, mv)[e])
        for s, k in zip(*np.nonzero(bad.T)):
            report.violations.append({"tuple": repr(part[s]), "move": moves[k].text()})
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
    ball around push(seed)'s component. The BFS runs a layer at a time: a
    vertex's parent is the first (queue position, move) that reaches it, each
    move is applied once per layer to the stacks of the parents it lifts,
    and each layer's lifts are pushed and compared with the fragment's rows.
    """
    if frag.group != epi.codomain:
        raise UsageError("fragment group does not match the epimorphism codomain")
    seed_tuple = tuple(epi.domain.check_element(g) for g in seed_tuple)
    if len(seed_tuple) != frag.n:
        raise UsageError("seed tuple length does not match the fragment")
    start = _vertex_of(frag, push(epi, seed_tuple))
    lifted = np.zeros(len(frag), dtype=bool)
    if start is not None:
        law, m = _law(epi.domain), len(frag.moves)
        layer, stacks = np.array([start]), tuple(_stack(epi.domain, [g]) for g in seed_tuple)
        lifted[start] = True
        while True:
            if any(_differ(_image(epi, s), v).any() for s, v in zip(stacks, _vertex_stacks(frag, layer))):
                raise VerificationError("lifted tuple does not push onto its fragment vertex")
            parents = np.flatnonzero(frag.expanded[layer])
            targets = frag.darts[layer[parents]].ravel()  # in (queue position, move) order
            at = np.flatnonzero(~lifted[targets])
            order = np.argsort(targets[at], kind="stable")
            at = np.sort(at[order[_firsts(targets[at[order]])]])  # where each new vertex is first reached
            if not len(at):
                break
            layer = targets[at]
            lifted[layer] = True
            src, move = np.divmod(at, m)
            stacks = _moved(law, stacks, parents[src], move, frag.moves)
    unreached = np.flatnonzero(~lifted)
    keys = frag.law.keys(frag.rows[unreached]) if unreached.size else []
    return LiftReport(total=len(frag), lifted=int(lifted.sum()), unreached=[k.hex() for k in keys])


def _moved(law, stacks: tuple, parents: np.ndarray, move: np.ndarray, moves) -> tuple:
    """The stacks of lift k = the lift at ``parents[k]`` moved by
    ``moves[move[k]]``: one ``apply_move`` per move, on the parents it takes."""
    taking = [np.flatnonzero(move == k) for k in range(len(moves))]
    parts = [apply_move(law, tuple(s[..., parents[i]] for s in stacks), mv) for i, mv in zip(taking, moves) if len(i)]
    back = np.argsort(np.concatenate(taking))
    return tuple(
        _bounded(np.concatenate([np.asarray(p[e]) for p in parts], axis=-1)[..., back]) for e in range(len(stacks))
    )


def _vertex_of(frag: GraphFragment, state: State) -> int | None:
    """The vertex of a tuple, found among the fragment's rows; None if none."""
    from . import layers  # loaded with every fragment

    if isinstance(frag.law, layers._Interned):
        row = [frag.law.ids.get(g, -1) for g in state]
    else:
        row = frag.law.row(state)
        if not all(-(2**31) <= x < 2**31 for x in row):  # rows are int32
            return None
    hit = np.flatnonzero((frag.rows == np.array(row, dtype=np.int32)).all(axis=1))
    return int(hit[0]) if hit.size else None


def _vertex_stacks(frag: GraphFragment, vertices: np.ndarray) -> list:
    """The codomain stacks of fragment vertices, read from their rows:
    coordinates, or the ids of the elements an interned law keeps."""
    from . import layers

    rows = frag.rows[vertices]
    if isinstance(frag.law, layers._Interned):
        return [_stack(frag.group, [frag.law.elements[i] for i in col]) for col in rows.T.tolist()]
    return list(rows.reshape(len(rows), frag.n, frag.group.width).transpose(1, 2, 0))
