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
    cyclic_table,
    direct_product_table,
)


def seeded(seed: int) -> random.Random:
    return random.Random(seed)


def elementary_abelian_table(d: int) -> list[list[int]]:
    """The Cayley table of (Z/2)^d, built as a direct product."""
    table = cyclic_table(2)
    for _ in range(d - 1):
        table = direct_product_table(table, cyclic_table(2))
    return table


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
