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
from dataclasses import dataclass
from fractions import Fraction

from .errors import UsageError
from .explore import GraphFragment, ball, state_from_key
from .groups import Group, State
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
    note: str = (
        "finite-k sample of a limsup; not a bound on the spectral radius in either direction"
    )

    def to_json(self) -> dict:
        return {"k": self.k, "a_k": self.a_k, "m": self.m, "rho_hat": self.rho_hat, "note": self.note}


def iso_ratio(frag: GraphFragment, members, description: str = "custom") -> IsoReport:
    """Boundary-to-size ratio of a vertex set whose members are all expanded.

    Counts darts from S into the complement; since each unordered cut edge
    has exactly one endpoint in S, this counts cut edges once each, with
    multi-edge multiplicity. Loops never cross the cut.
    """
    idxs = set()
    for m in members:
        if isinstance(m, int):
            idx = m
            if not 0 <= idx < len(frag):
                raise UsageError(f"vertex index {idx} out of range")
        elif isinstance(m, bytes):
            idx = frag.index.get(state_from_key(frag.group, frag.n, m))
            if idx is None or frag.keys[idx] != m:
                raise UsageError("vertex key not present in fragment")
        else:
            idx = frag.vertex_index(tuple(m))
        idxs.add(idx)
    if not idxs:
        raise UsageError("iso_ratio requires a nonempty set")
    boundary = 0
    for v in idxs:
        if not frag.expanded[v]:
            raise UsageError("every member of S must be expanded in the fragment")
        for w in frag.darts[v]:
            if w not in idxs:
                boundary += 1
    return IsoReport(size=len(idxs), boundary=boundary, ratio=Fraction(boundary, len(idxs)), description=description)


def closed_walks(group: Group, root: State, k_max: int, window: int | None = None) -> list[int]:
    """Exact counts a_0..a_{k_max} of closed move sequences based at root.

    A closed walk of length k stays within distance floor(k/2) of the root,
    so the dynamic program runs over the ball of radius floor(k_max/2)+1 in
    which all vertices within floor(k_max/2) are expanded. If the window
    blocks expansion within that radius, the computation refuses.
    """
    if k_max < 0:
        raise UsageError("k_max must be >= 0")
    need = k_max // 2
    frag = ball(group, root, need + 1, window=window)
    if frag.truncated_at is not None and frag.truncated_at <= need:
        raise UsageError(
            f"window {window} too small for walks of length {k_max}: "
            f"every vertex within distance {need} of the root must lie inside the window"
        )
    root_idx = 0
    counts = [0] * len(frag)
    counts[root_idx] = 1
    out = [1]
    for _ in range(k_max):
        nxt = [0] * len(frag)
        for v, c in enumerate(counts):
            if c == 0:
                continue
            darts = frag.darts[v]
            if darts is None:
                continue  # frontier mass cannot return in the remaining steps
            for w in darts:
                nxt[w] += c
        counts = nxt
        out.append(counts[root_idx])
    return out


def spectral_estimate(
    group: Group,
    root: State,
    k: int,
    window: int | None = None,
) -> SpectralEstimate:
    """Kesten-style estimate (1/m) * a_k**(1/k) from the exact walk count."""
    if k < 1:
        raise UsageError("spectral estimate requires k >= 1 (a_k**(1/k) is undefined for k = 0)")
    n = len(root)
    m = len(move_set(n))
    a_k = closed_walks(group, root, k, window=window)[k]
    rho = 0.0 if a_k == 0 else math.exp(math.log(a_k) / k) / m
    return SpectralEstimate(k=k, a_k=a_k, m=m, rho_hat=rho)


def cheeger_search(frag: GraphFragment, strategy: str = "balls") -> IsoReport:
    """Minimize |boundary|/|S| over a family of candidate sets.

    Both families are prefixes of the vertex order, (depth, key) in every
    fragment, that end before the first unexpanded vertex: ``sweep`` takes
    every such prefix, ``balls`` those that end a BFS layer (the fully
    expanded balls). The cut is counted incrementally; dart symmetry makes
    each count equal ``iso_ratio``'s. A finite search yields an upper bound
    on the isoperimetric constant only; the report's description says which
    set attained it.
    """
    if strategy not in ("balls", "sweep"):
        raise UsageError(f"unknown strategy {strategy!r}; use 'balls' or 'sweep'")
    in_set = [False] * len(frag)
    boundary = 0
    best: IsoReport | None = None
    for v in range(len(frag)):
        if not frag.expanded[v]:
            break
        size = v + 1
        in_set[v] = True
        for w in frag.darts[v]:
            if w == v:
                continue
            boundary += -1 if in_set[w] else 1
        if strategy == "balls":
            r = frag.depths[v]
            if size < len(frag) and frag.depths[size] == r:
                continue
            description = f"ball r={r} (upper bound on h)"
        else:
            description = f"sweep prefix of {size} vertices (upper bound on h)"
        ratio = Fraction(boundary, size)
        if best is None or ratio < best.ratio:
            best = IsoReport(size=size, boundary=boundary, ratio=ratio, description=description)
    if best is None:
        if strategy == "balls":
            raise UsageError("no fully expanded ball available")
        raise UsageError("no expanded vertices available for the sweep")
    return best
