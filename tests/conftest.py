import random

import pytest

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


def seeded(seed: int) -> random.Random:
    return random.Random(seed)


def cyclic_table(k: int) -> list[list[int]]:
    return [[(a + b) % k for b in range(k)] for a in range(k)]


def direct_product_table(t1: list[list[int]], t2: list[list[int]]) -> list[list[int]]:
    n1, n2 = len(t1), len(t2)
    out = [[0] * (n1 * n2) for _ in range(n1 * n2)]
    for a1 in range(n1):
        for a2 in range(n2):
            for b1 in range(n1):
                for b2 in range(n2):
                    out[a1 * n2 + a2][b1 * n2 + b2] = t1[a1][b1] * n2 + t2[a2][b2]
    return out


def dihedral_table(k: int) -> list[list[int]]:
    """Dihedral group of order 2k; element i*2+s encodes rotation^i * flip^s."""
    def mul(a, b):
        i, s = divmod(a, 2)
        j, t = divmod(b, 2)
        rot = (i + j) % k if s == 0 else (i - j) % k
        return rot * 2 + (s ^ t)

    return [[mul(a, b) for b in range(2 * k)] for a in range(2 * k)]


def quaternion_table() -> list[list[int]]:
    """Q8 as the signed units 1, -1, i, -i, j, -j, k, -k: element 2*u + s is
    unit u of 1, i, j, k with sign bit s. Units multiply as u XOR v, with a
    sign for i*i, j*j, k*k and for j*i, k*j, i*k."""
    def mul(a, b):
        (u, s), (v, t) = divmod(a, 2), divmod(b, 2)
        flip = 0 < u and 0 < v and (u == v or (v - u) % 3 == 2)
        return (u ^ v) * 2 + (s ^ t ^ flip)

    return [[mul(a, b) for b in range(8)] for a in range(8)]


def relabelled_table(table: list[list[int]], perm: list[int]) -> list[list[int]]:
    """The same group with element a renamed perm[a] (its identity too)."""
    out = [[0] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, ab in enumerate(row):
            out[perm[a]][perm[b]] = perm[ab]
    return out


def elementary_abelian_table(d: int) -> list[list[int]]:
    """The Cayley table of (Z/2)^d, built as a direct product."""
    table = cyclic_table(2)
    for _ in range(d - 1):
        table = direct_product_table(table, cyclic_table(2))
    return table


def pak_battery() -> list[tuple[str, list[list[int]]]]:
    """Criterion 10's groups (Evans, Pak), as Cayley tables."""
    return [
        ("Z/2", cyclic_table(2)),
        ("Z/3", cyclic_table(3)),
        ("Z/4", cyclic_table(4)),
        ("Z/2xZ/2", direct_product_table(cyclic_table(2), cyclic_table(2))),
        ("Z/5", cyclic_table(5)),
        ("Z/6", cyclic_table(6)),
        ("S3", dihedral_table(3)),
        ("Z/8", cyclic_table(8)),
        ("D4", dihedral_table(4)),
        ("Q8", quaternion_table()),
        ("Z/9", cyclic_table(9)),
        ("Z/2xZ/4", direct_product_table(cyclic_table(2), cyclic_table(4))),
        ("Z/3xZ/3", direct_product_table(cyclic_table(3), cyclic_table(3))),
        ("Z/16", cyclic_table(16)),
    ]


@pytest.fixture(scope="session")
def all_groups():
    """One instance of every kind, with a tuple length that generates easily."""
    return [
        (Integers(), 2),
        (FreeAbelian(2), 3),
        (InfiniteDihedral(), 2),
        (FiniteCayley(cyclic_table(6), 0), 2),
        (Heisenberg(), 3),
        (FiniteAbelianExp(3, 2), 2),
        (BurnsideB23(), 2),
        (FreeGroup(2), 2),
    ]
