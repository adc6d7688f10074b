"""Isoperimetric ratios, exact closed-walk counts and spectral estimates.

Conventions fixed here:

* walk counts a_k enumerate label sequences from move_set(n)**k returning to
  the root; with one dart per move the graph is exactly m-regular and the
  Kesten quotient (1/m) * a_k**(1/k) is literal,
* boundary size counts unordered cut edges (one per dart pair across the
  cut); loops never count,
* every ratio is an exact Fraction, converted to float only for display.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ResourceCapError, UsageError, count_text
from .explore import GraphFragment, ball
from .groups import DEFAULT_VERTEX_CAP, Group, State, _firsts, _fold
from .moves import move_set


@dataclass
class IsoReport:
    size: int
    boundary: int
    ratio: Fraction
    description: str

    def to_json(self) -> dict:
        return {
            "set_size": self.size,
            "boundary_edges": self.boundary,
            "ratio_num": self.ratio.numerator,
            "ratio_den": self.ratio.denominator,
            "ratio": float(self.ratio),
            "set": self.description,
        }


@dataclass
class SpectralEstimate:
    k: int
    a_k: int
    m: int
    rho_hat: float
    note: str = "finite-k sample of a limsup; not a bound on the spectral radius in either direction"

    def to_json(self) -> dict:
        return {"k": self.k, "a_k": self.a_k, "m": self.m, "rho_hat": self.rho_hat, "note": self.note}


def iso_ratio(frag: GraphFragment, members, description: str = "custom") -> IsoReport:
    """Boundary-to-size ratio of a vertex set whose members are all expanded.

    A member is a vertex index (an int or numpy integer, not a bool), a
    tuple, or a key of ``frag.keys``, looked up exactly and never parsed;
    any other member is a UsageError. Counts darts from S into the
    complement; since each unordered cut edge has exactly one endpoint in S,
    this counts cut edges once each, with multi-edge multiplicity. Loops
    never cross the cut.
    """
    idxs = set()
    by_key = None
    for m in members:
        if isinstance(m, (int, np.integer)) and not isinstance(m, bool):
            idx = int(m)
            if not 0 <= idx < len(frag):
                raise UsageError(f"vertex index {idx} out of range")
        elif isinstance(m, bytes):
            if by_key is None:
                by_key = {key: v for v, key in enumerate(frag.keys)}
            idx = by_key.get(m)
            if idx is None:
                raise UsageError("vertex key not present in fragment")
        elif isinstance(m, tuple):
            idx = frag.vertex_index(m)
        else:
            raise UsageError(f"member {m!r} of S is not a vertex index, key or tuple")
        idxs.add(idx)
    if not idxs:
        raise UsageError("iso_ratio requires a nonempty set")
    rows = np.fromiter(idxs, dtype=np.intp, count=len(idxs))
    if not frag.expanded[rows].all():
        raise UsageError("every member of S must be expanded in the fragment")
    inside = np.zeros(len(frag), dtype=bool)
    inside[rows] = True
    boundary = int(np.count_nonzero(~inside[frag.darts[rows]]))
    return IsoReport(size=len(idxs), boundary=boundary, ratio=Fraction(boundary, len(idxs)), description=description)


def closed_walks(group: Group, root: State, k_max: int, window: int | None = None) -> list[int]:
    """Exact counts a_0..a_{k_max} of closed move sequences based at root.

    Each move's inverse is a move, so a_{i+j} = sum_v w_i(v) w_j(v), where
    w_t(v) counts the walks of length t from the root to v. The DP pushes w_t
    along the darts for h = ceil(k_max/2) steps over the radius-h ball, whose
    vertices within distance h-1 the window must let expand, and takes
    a_{2t} = w_t.w_t and a_{2t-1} = w_t.w_{t-1} as each w_t is made: int64
    while m^k bounds a count of length k, Python ints after. A DP of more
    than the vertex cap in k_max x ball vertices is refused before the ball
    outgrows it, and an even k_max before the DP when a_k >= m^(k/2) (a move
    word, then its inverse) has too many digits to print.
    """
    return _walks(group, root, k_max, window, every=True)


def _walks(group: Group, root: State, k_max: int, window: int | None, every: bool) -> list[int]:
    """``closed_walks``, or with ``every`` false [a_{k_max}] by one dot product."""
    if k_max < 0:
        raise UsageError("k_max must be >= 0")
    need, half = k_max // 2, (k_max + 1) // 2
    budget = DEFAULT_VERTEX_CAP // max(k_max, 1)
    try:
        frag = ball(group, root, half, window=window, cap=budget)
    except ResourceCapError:
        raise ResourceCapError(f"walk DP of {count_text(k_max)} steps x over {budget} vertices "
                               f"exceeds cap {DEFAULT_VERTEX_CAP}") from None
    if frag.truncated:  # the window blocked a vertex within distance half - 1
        raise UsageError(f"window {window} too small for walks of length {k_max}: every vertex within "
                         f"distance {half - 1} of the root must lie inside the window")
    m = len(frag.moves)
    # m >= 10 for n >= 2, so m^e past the digit limit e already prints too long;
    # Pythons before 3.10.7 have no limit, read as 0
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if k_max % 2 == 0 and not count_text(m ** min(need, limit)).isdigit():
        raise ResourceCapError(f"a_{k_max} >= {m}^{need} has too many digits to print")
    # the darts of the expanded vertices sorted once by target into runs of sources
    rows = np.flatnonzero(frag.expanded)
    targets = frag.darts[rows].ravel()
    order = np.argsort(targets, kind="stable")
    starts = np.flatnonzero(_firsts(targets[order]))
    heads, sources = targets[order[starts]], rows[order // m]
    ends = np.searchsorted(frag.depths, np.arange(half + 1), side="right")  # w_t lives on ends[t] (depth order)
    w = np.zeros(len(frag), dtype=np.int64)
    w[0] = 1  # the root
    out = [1]
    for t in range(1, half + 1):
        if m**t >= 2**63 and w.dtype != object:
            w = w.astype(object)
        runs = np.searchsorted(heads, ends[t])  # the runs into vertices within distance t
        darts = starts[runs] if runs < len(starts) else len(sources)
        prev, w = w, np.zeros_like(w)
        w[heads[:runs]] = np.add.reduceat(prev[sources[:darts]], starts[:runs])
        for k, v, size in ((2 * t - 1, prev, ends[t - 1]), (2 * t, w, ends[t])):
            if k == k_max or every and k < k_max:  # a_k = w_t.v, int64 while m^k bounds its sums
                dtype = np.int64 if m**k < 2**63 else object
                out.append(int(w[:size].astype(dtype, copy=False) @ v[:size].astype(dtype, copy=False)))
    return out if every else out[-1:]


def spectral_estimate(group: Group, root: State, k: int, window: int | None = None) -> SpectralEstimate:
    """Kesten-style estimate (1/m) * a_k**(1/k) from the exact walk count:
    the walk DP of ``closed_walks``, with the one dot product of a_k."""
    if k < 1:
        raise UsageError("spectral estimate requires k >= 1 (a_k**(1/k) is undefined for k = 0)")
    m = len(move_set(len(root)))
    a_k = _walks(group, root, k, window, every=False)[0]
    text = count_text(a_k)
    if not text.isdigit():
        raise ResourceCapError(f"a_{k} = {text} has too many digits to print")
    rho = 0.0 if a_k == 0 else math.exp(math.log(a_k) / k) / m
    return SpectralEstimate(k=k, a_k=a_k, m=m, rho_hat=rho)


def cheeger_search(frag: GraphFragment, strategy: str = "balls") -> IsoReport:
    """Minimize |boundary|/|S| over a family of candidate sets.

    Both families are prefixes of the vertex order, (depth, key) in every
    fragment, that end before the first unexpanded vertex: ``sweep`` takes
    every such prefix, ``balls`` those that end a BFS layer (the fully
    expanded balls). Adding vertex v to the prefix cuts its darts to later
    vertices and joins those to earlier ones, so the cuts are one cumulative
    sum; dart symmetry makes each equal ``iso_ratio``'s. The first prefix of
    least ratio wins. A finite search yields an upper bound on the
    isoperimetric constant only; the report's description says which set
    attained it.
    """
    if strategy not in ("balls", "sweep"):
        raise UsageError(f"unknown strategy {strategy!r}; use 'balls' or 'sweep'")
    size = int(np.argmin(frag.expanded)) if not frag.expanded.all() else len(frag)
    v = np.arange(size)[:, None]
    out = frag.darts[:size]
    cut = np.cumsum(_fold(np.add, out > v, np.int64) - _fold(np.add, out < v, np.int64))
    if strategy == "balls":
        ends = np.flatnonzero(np.append(frag.depths[1:], -1)[:size] != frag.depths[:size])
    else:
        ends = np.arange(size)
    if not len(ends):
        if strategy == "balls":
            raise UsageError("no fully expanded ball available")
        raise UsageError("no expanded vertices available for the sweep")
    # floats pick the candidates, Fractions the exact first minimum
    approx = cut[ends] / (ends + 1)
    best = min(
        ends[approx <= approx.min() * (1 + 1e-9)].tolist(),
        key=lambda e: (Fraction(int(cut[e]), e + 1), e),
    )
    if strategy == "balls":
        description = f"ball r={frag.depths[best]} (upper bound on h)"
    else:
        description = f"sweep prefix of {best + 1} vertices (upper bound on h)"
    return IsoReport(size=best + 1, boundary=int(cut[best]), ratio=Fraction(int(cut[best]), best + 1),
                     description=description)
