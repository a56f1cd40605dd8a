"""Every fast step map equals its one-step definition.

`promote` and `evacuate` slide on plain rows, the toggle sweeps toggle plain rows,
poset promotion toggles a label list and K-promotion switches a label
list; each builds one validated object at the end.  The enumerations of
linear extensions and increasing tableaux keep their minimal elements up
to date instead of rescanning, and must yield the same lists in order.  These tests compare
them with the chains of public one-step definitions kept in `util`, over
the acceptance ranges and on degenerate inputs.
"""

import pytest

from promotab.dynamics import (
    dual_evacuate,
    evacuate,
    evacuate_via_toggles,
    partial_promote,
    promote,
    promote_inverse,
    promote_via_toggles,
    toggle,
)
from promotab.ktableaux import IncreasingTableau, enumerate_increasing, k_promote, k_promote_inverse
from promotab.posets import (
    FinitePoset,
    LinearExtension,
    build_cominuscule,
    linear_extensions,
    poset_evacuate,
    poset_promote,
    poset_promote_inverse,
    poset_toggle,
)
from promotab.shapes import Tableau, enumerate_ssyt
from util import (
    chain,
    descending,
    dual_triangular,
    enumerate_increasing_by_rescan,
    k_promote_by_switches,
    k_promote_inverse_by_switches,
    linear_extensions_by_rescan,
    partial_promote_by_definition,
    partitions_up_to,
    promote_by_rectify,
    sweep,
    triangular_chain,
)

C09_FAMILIES = (
    ("rectangle", 3, 4),
    ("shifted_staircase", 4),
    ("propeller", 5),
    ("cayley",),
    ("freudenthal",),
)
K_SYSTEMS = [("rectangle", 2, n, q) for n in range(1, 6) for q in range(2 * n)] + [("rectangle", 3, 4, 3)]

CHAIN_POSET = FinitePoset(4, [(1, 2), (2, 3), (3, 4)])
DEGENERATE_POSETS = (FinitePoset(0, []), FinitePoset(1, []), CHAIN_POSET, FinitePoset(3, []))


def check_tableau_steps(t: Tableau, memo: dict) -> None:
    k = t.ceiling
    assert promote(t) == promote_by_rectify(t)
    assert promote_via_toggles(t) == sweep(toggle, t, k - 1, memo)
    assert promote_inverse(t) == chain(toggle, t, descending(k), memo)
    evacuation = triangular_chain(toggle, t, k, memo)
    assert evacuate_via_toggles(t) == evacuation
    # the slide route to evacuation is independent of the toggle product
    assert evacuate(t) == evacuation
    if t.is_rectangular:
        assert dual_evacuate(t) == chain(toggle, t, dual_triangular(k), memo)


def check_poset_steps(t: LinearExtension, memo: dict) -> None:
    d = t.poset.size
    assert poset_promote(t) == sweep(poset_toggle, t, d - 1, memo)
    assert poset_promote_inverse(t) == chain(poset_toggle, t, descending(d), memo)
    assert poset_evacuate(t) == triangular_chain(poset_toggle, t, d, memo)


def check_k_steps(t: IncreasingTableau) -> None:
    assert k_promote(t) == k_promote_by_switches(t)
    assert k_promote_inverse(t) == k_promote_inverse_by_switches(t)


def test_tableau_steps_equal_slides_and_toggle_chains():
    checked = 0
    for shape in partitions_up_to(8):
        for k in range(6):
            memo: dict = {}
            for t in enumerate_ssyt(shape, k):
                check_tableau_steps(t, memo)
                checked += 1
    assert checked == 23_204


@pytest.mark.parametrize("family", C09_FAMILIES, ids=lambda f: f[0])
def test_poset_steps_equal_toggle_chains_and_enumeration_is_unchanged(family):
    p = build_cominuscule(*family)
    extensions = list(linear_extensions(p))
    assert extensions == list(linear_extensions_by_rescan(p))
    memo: dict = {}
    for t in extensions:
        check_poset_steps(t, memo)


@pytest.mark.parametrize("system", K_SYSTEMS, ids=lambda s: f"{s[1]}x{s[2]}-q{s[3]}")
def test_k_steps_equal_switch_chains_and_enumeration_is_unchanged(system):
    kind, m, n, q = system
    p = build_cominuscule(kind, m, n)
    tableaux = list(enumerate_increasing(p, q))
    assert tableaux == list(enumerate_increasing_by_rescan(p, q))
    for t in tableaux:
        check_k_steps(t)


@pytest.mark.parametrize(
    "t",
    [
        Tableau((), 0),
        Tableau((), 3),
        Tableau([[1, 1, 1]], 1),
        Tableau([[1], [2], [3]], 3),
        Tableau([[1, 2, 2, 4, 5]], 5),
        Tableau([[2], [4], [5]], 5),
        Tableau([[1, 1], [2, 2]], 2),
    ],
    ids=repr,
)
def test_degenerate_tableaux(t):
    check_tableau_steps(t, {})
    for i in range(1, t.ceiling + 1):
        assert partial_promote(t, i) == partial_promote_by_definition(t, i)
    stages = chain(partial_promote_by_definition, promote_by_rectify(t), descending(t.ceiling), {})
    assert evacuate(t) == stages


@pytest.mark.parametrize("p", DEGENERATE_POSETS, ids=repr)
def test_degenerate_posets(p):
    extensions = list(linear_extensions(p))
    assert extensions == list(linear_extensions_by_rescan(p))
    for t in extensions:
        check_poset_steps(t, {})


@pytest.mark.parametrize(
    "p, labels",
    [
        (FinitePoset(0, []), ()),
        (FinitePoset(1, []), (1,)),
        (FinitePoset(3, []), (1, 1, 1)),
        (CHAIN_POSET, (1, 2, 3, 4)),
        (FinitePoset(3, [(1, 2), (1, 3)]), (1, 2, 2)),
    ],
    ids=lambda v: repr(v),
)
def test_degenerate_increasing_tableaux(p, labels):
    t = IncreasingTableau(p, labels)
    check_k_steps(t)
    for q in range(p.size + 1):
        assert list(enumerate_increasing(p, q)) == list(enumerate_increasing_by_rescan(p, q))
