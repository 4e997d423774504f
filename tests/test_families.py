import random

import pytest

from kdom import complete, complete_bipartite, cycle, friendship, join, path, remove_matching, wheel
from kdom.families import (
    Atom,
    Attach,
    Bipartite,
    Complement,
    FamilyParseError,
    Join,
    MinusMatching,
    Union,
    build_family,
    parse_family,
    print_family,
)
from kdom.isomorphism import canonical_graph6


def test_atoms():
    assert build_family("K5") == complete(5)
    assert build_family("P4") == path(4)
    assert build_family("C6") == cycle(6)
    assert build_family("W5") == wheel(5)
    assert build_family("F2") == friendship(2)
    assert build_family("K{2,3}") == complete_bipartite(2, 3)


def test_spec_examples():
    g = build_family("C4(P2,2P3,P4,P3)")
    assert g.n == 14
    assert build_family("join(K1,P4)") == join(complete(1), path(4))
    octa = build_family("minus_matching(K6,perfect)")
    assert octa == remove_matching(complete(6), [(0, 1), (2, 3), (4, 5)])
    assert all(octa.degree(v) == 4 for v in range(6))


def test_sum_is_join_alias():
    assert parse_family("sum(K2,P3)") == parse_family("join(K2,P3)")


def test_whitespace_insensitive_case_sensitive():
    assert parse_family(" join ( K1 , P4 ) ") == parse_family("join(K1,P4)")
    with pytest.raises(FamilyParseError):
        parse_family("k5")
    with pytest.raises(FamilyParseError):
        parse_family("C3(p2,0,0)")


def test_attach_parsing():
    expr = parse_family("C3(2P2,0,0)")
    assert expr == Attach(Atom("C", 3), ((2, 2), None, None))
    assert build_family("C3(2P2,0,0)").n == 5
    assert build_family("P3(0,P3,0)").degree(1) == 3


def test_parse_errors_carry_offsets():
    with pytest.raises(FamilyParseError) as err:
        parse_family("join(K1,P4")
    assert err.value.offset == 10
    with pytest.raises(FamilyParseError) as err:
        parse_family("C3(P2,0)")  # slot count mismatch
    assert err.value.offset == 2
    with pytest.raises(FamilyParseError):
        parse_family("C3(P2,0,0,0)")
    with pytest.raises(FamilyParseError):
        parse_family("frobnicate(K3)")
    with pytest.raises(FamilyParseError):
        parse_family("K3)")
    with pytest.raises(FamilyParseError):
        parse_family("minus_matching(K5,half)")
    with pytest.raises(FamilyParseError):
        parse_family("C3(P2,0,1P)")
    with pytest.raises(FamilyParseError):
        parse_family("P{2,3}")
    with pytest.raises(FamilyParseError):
        parse_family("K3 K4")


def test_evaluation_errors():
    with pytest.raises(ValueError):
        build_family("C2")
    with pytest.raises(ValueError):
        build_family("C3(P1,0,0)")
    with pytest.raises(ValueError):
        build_family("minus_matching(K5,perfect)")
    with pytest.raises(ValueError):
        build_family("join(K40,K40)")


def random_expr(rng, depth=0):
    roll = rng.random()
    if depth >= 3 or roll < 0.35:
        letter = rng.choice(["K", "P", "C", "W", "F"])
        lo = {"K": 1, "P": 1, "C": 3, "W": 4, "F": 1}[letter]
        if letter == "K" and rng.random() < 0.3:
            return Bipartite(rng.randint(1, 3), rng.randint(1, 3))
        return Atom(letter, rng.randint(lo, lo + 3))
    if roll < 0.5:
        return Complement(random_expr(rng, depth + 1))
    if roll < 0.65:
        return Union(random_expr(rng, depth + 1), random_expr(rng, depth + 1))
    if roll < 0.8:
        return Join(random_expr(rng, depth + 1), random_expr(rng, depth + 1))
    if roll < 0.9:
        return MinusMatching(random_expr(rng, depth + 1), rng.choice([0, 1, 2, "perfect"]))
    base = Atom("C", rng.randint(3, 5))
    slots = tuple(
        None if rng.random() < 0.5 else (rng.randint(1, 2), rng.randint(2, 4))
        for _ in range(base.n)
    )
    return Attach(base, slots)


def test_print_parse_round_trip():
    rng = random.Random(40)
    for _ in range(300):
        expr = random_expr(rng)
        assert parse_family(print_family(expr)) == expr


def test_t6_figure_is_the_six_vertex_wheel():
    assert canonical_graph6(build_family("W6")) == canonical_graph6(wheel(6))
