"""The map search behind colouring, homomorphism and isomorphism search:
its search order, pinned by exact node counts, and its depth."""

from __future__ import annotations

import pytest

from wellspread import (
    LabeledGraph,
    ResourceCap,
    build_circular,
    build_interlacing,
    build_kneser,
    build_q,
    build_schrijver,
    enumerate_maximal_independent_sets,
    find_homomorphism,
    find_isomorphism,
    find_proper_coloring,
)
from wellspread.homomorphism import _hom_search

# (search, nodes it needs, whether it finds a map).  A change of vertex order,
# candidate order or symmetry breaking moves these counts; the DSATUR turns in
# `is_t_colorable` and the chi_c cost depend on them.
PINS = [
    ("hom Q(17,8) -> K_{17/8}", lambda b: _hom_search(build_q(17, 8), build_circular(17, 8), b),
     8208, True),
    ("hom Q(13,5) -> K_{5/2}", lambda b: _hom_search(build_q(13, 5), build_circular(5, 2), b),
     116, False),
    ("4-colour SG(9,3)", lambda b: find_proper_coloring(build_schrijver(9, 3), 4, b),
     8980, False),
    ("3-colour I(10,3)", lambda b: find_proper_coloring(build_interlacing(10, 3), 3, b),
     9, False),
    ("5-colour KG(7,2)", lambda b: find_proper_coloring(build_kneser(7, 2), 5, b),
     18, True),
    ("iso Q(14,4) -> K_{7/2}", lambda b: find_isomorphism(build_q(14, 4), build_circular(7, 2), b),
     7, True),
    ("iso Q(13,4) -> K_{13/4}", lambda b: find_isomorphism(build_q(13, 4), build_circular(13, 4), b),
     13, True),
]


@pytest.mark.parametrize("search,nodes,found", [p[1:] for p in PINS], ids=[p[0] for p in PINS])
def test_search_order_pins(search, nodes, found):
    assert (search(nodes) is not None) == found
    with pytest.raises(ResourceCap):
        search(nodes - 1)


def test_isomorphism_deeper_than_the_recursion_limit():
    m = find_isomorphism(build_q(1201, 600), build_circular(1201, 600))
    assert m is not None and len(m.mapping) == 1201


def test_homomorphism_deeper_than_the_recursion_limit():
    m = find_homomorphism(build_circular(1201, 600), build_circular(3, 1))
    assert m is not None and set(m.mapping.values()) == {0, 1, 2}


def test_maximal_sets_deeper_than_the_recursion_limit():
    edgeless = LabeledGraph(labels=tuple(range(1500)), adj=(0,) * 1500)
    assert enumerate_maximal_independent_sets(edgeless) == [tuple(range(1500))]
