import random

import pytest

from kdom import (
    attach_pendant_paths,
    complement,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    friendship,
    greedy_matching,
    join,
    path,
    remove_matching,
    wheel,
)
from kdom.families import FamilyParseError, build_family
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
    assert build_family("sum(K2,P3)") == build_family("join(K2,P3)")


def test_whitespace_insensitive_case_sensitive():
    assert build_family(" join ( K1 , P4 ) ") == build_family("join(K1,P4)")
    with pytest.raises(FamilyParseError):
        build_family("k5")
    with pytest.raises(FamilyParseError):
        build_family("C3(p2,0,0)")


def test_attach_parsing():
    assert build_family("C3(2P2,0,0)") == attach_pendant_paths(cycle(3), [(0, 2, 2)])
    assert build_family("P3(0,P3,0)").degree(1) == 3


def test_parse_errors_carry_offsets():
    with pytest.raises(FamilyParseError) as err:
        build_family("join(K1,P4")
    assert err.value.offset == 10
    with pytest.raises(FamilyParseError) as err:
        build_family("C3(P2,0)")  # slot count mismatch
    assert err.value.offset == 2
    with pytest.raises(FamilyParseError):
        build_family("C3(P2,0,0,0)")
    with pytest.raises(FamilyParseError):
        build_family("frobnicate(K3)")
    with pytest.raises(FamilyParseError):
        build_family("K3)")
    with pytest.raises(FamilyParseError):
        build_family("minus_matching(K5,half)")
    with pytest.raises(FamilyParseError):
        build_family("C3(P2,0,1P)")
    with pytest.raises(FamilyParseError):
        build_family("P{2,3}")
    with pytest.raises(FamilyParseError):
        build_family("K3 K4")
    # input that stops early names the end of input, at the text's length
    for text in ("C4(", "K{2,", "complement(", "C4(P2,P3,P4,P5", "", "minus_matching(K5,", "C3(2"):
        with pytest.raises(FamilyParseError, match="found end of input") as err:
            build_family(text)
        assert err.value.offset == len(text)
        assert "None" not in str(err.value)
    # a digit run too long for int() is refused at its offset, naming its length
    with pytest.raises(FamilyParseError, match="integer of 5000 digits") as err:
        build_family("P" + "9" * 5000)
    assert err.value.offset == 1
    assert build_family("P0000000062") == build_family("P62")
    # only ASCII digits and letters make tokens: str.isdigit admits "²" and
    # "①", which int() refuses, and "٣", which int() reads as 3
    for text, offset in (("K²", 1), ("C①", 1), ("K٣", 1), ("K{2,٣}", 4)):
        with pytest.raises(FamilyParseError, match="unexpected character") as err:
            build_family(text)
        assert err.value.offset == offset, text
    # a name starts with an ASCII letter, so "_" cannot begin one
    for text, offset in (("_K3", 0), ("join(K1,_P4)", 8)):
        with pytest.raises(FamilyParseError, match="unexpected character '_'") as err:
            build_family(text)
        assert err.value.offset == offset, text
    # any Unicode whitespace separates tokens
    assert build_family("\xa0K5") == build_family("K5\x1c") == build_family("K5")
    assert build_family("join(K1,\u3000P4)") == build_family("join(K1,P4)")


def test_evaluation_errors():
    with pytest.raises(ValueError):
        build_family("C2")
    with pytest.raises(ValueError):
        build_family("C3(P1,0,0)")
    with pytest.raises(ValueError):
        build_family("minus_matching(K5,perfect)")
    with pytest.raises(ValueError):
        build_family("join(K40,K40)")
    with pytest.raises(ValueError, match="cycle requires"):
        build_family("union(C2,K3")  # the bad atom is read before the missing ')'


ATOMS = {"K": complete, "P": path, "C": cycle, "W": wheel, "F": friendship}


def _apply(build, *args):
    """build(*args), or the ValueError that an argument carries or build raises."""
    for arg in args:
        if isinstance(arg, ValueError):
            return arg
    try:
        return build(*args)
    except ValueError as exc:
        return exc


def random_case(rng, depth=0):
    """(DSL text, the graph it denotes or the ValueError building it raises),
    built by calling the kdom.graphs constructors directly."""
    roll = rng.random()
    if depth >= 3 or roll < 0.35:
        letter = rng.choice(["K", "P", "C", "W", "F"])
        lo = {"K": 1, "P": 1, "C": 3, "W": 4, "F": 1}[letter]
        if letter == "K" and rng.random() < 0.3:
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            return f"K{{{m},{n}}}", complete_bipartite(m, n)
        n = rng.randint(lo, lo + 3)
        return f"{letter}{n}", ATOMS[letter](n)
    if roll < 0.5:
        text, g = random_case(rng, depth + 1)
        return f"complement({text})", _apply(complement, g)
    if roll < 0.8:
        name, build = ("union", disjoint_union) if roll < 0.65 else ("join", join)
        left, g = random_case(rng, depth + 1)
        right, h = random_case(rng, depth + 1)
        return f"{name}({left},{right})", _apply(build, g, h)
    if roll < 0.9:
        text, g = random_case(rng, depth + 1)
        size = rng.choice([0, 1, 2, "perfect"])

        def minus(g):
            return remove_matching(g, greedy_matching(g, size))

        return f"minus_matching({text},{size})", _apply(minus, g)
    n = rng.randint(3, 5)
    slots = [None if rng.random() < 0.5 else (rng.randint(1, 2), rng.randint(2, 4)) for _ in range(n)]
    text = ",".join("0" if s is None else (f"P{s[1]}" if s[0] == 1 else f"{s[0]}P{s[1]}") for s in slots)
    specs = [(v, *s) for v, s in enumerate(slots) if s]
    return f"C{n}({text})", attach_pendant_paths(cycle(n), specs)


def test_random_texts_build_their_graphs():
    rng = random.Random(40)
    errors = 0
    for _ in range(300):
        text, want = random_case(rng)
        if isinstance(want, ValueError):
            errors += 1
            with pytest.raises(ValueError) as err:
                build_family(text)
            assert str(err.value) == str(want), text
        else:
            assert build_family(text) == want, text
    assert 0 < errors < 300


def test_t6_figure_is_the_six_vertex_wheel():
    assert canonical_graph6(build_family("W6")) == canonical_graph6(wheel(6))
