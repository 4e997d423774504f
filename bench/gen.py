"""Seeded input for the invariants-random workload, and a graph6 codec.

The codec is written here rather than imported from kdom so that the
program under test receives a file it did not produce, and so that the
output checks in checks.py decode the inputs without trusting kdom.

Graphs are G(n, p) draws, redrawn until connected. The design is
stratified: every file holds GRAPHS_PER_CELL graphs for each pair of a
vertex count in N_RANGE and a density class in DENSITIES, so only the
edges depend on the seed. That keeps the work per file nearly the same
from seed to seed (see NOTES.md for why n stops at 18).
"""

import random

N_RANGE = range(12, 19)
# name -> edge probability for n vertices; "deg3" keeps the average degree near 3
DENSITIES = {
    "deg3": lambda n: 3 / (n - 1),
    "p0.3": lambda n: 0.3,
    "p0.5": lambda n: 0.5,
    "p0.8": lambda n: 0.8,
}
GRAPHS_PER_CELL = 24


def graph6_encode(n, rows):
    """graph6 of a graph on n <= 62 vertices given as adjacency bitmasks."""
    bits = [(rows[j] >> i) & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k : k + 6])), 2)) for k in range(0, len(bits), 6)
    )
    return chr(63 + n) + body


def graph6_decode(text):
    """(n, rows) of a single-byte-size graph6 string; raises ValueError."""
    n = ord(text[0]) - 63
    if not 0 <= n <= 62:
        raise ValueError(f"graph6 size byte out of range in {text!r}")
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    if len(text) - 1 != (len(pairs) + 5) // 6:
        raise ValueError(f"graph6 body has the wrong length in {text!r}")
    bits = []
    for ch in text[1:]:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise ValueError(f"graph6 byte out of range in {text!r}")
        bits += [(val >> k) & 1 for k in range(5, -1, -1)]
    rows = [0] * n
    for (i, j), bit in zip(pairs, bits):
        if bit:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return n, rows


def component(rows, start, removed=0):
    """Bitmask of the vertices reachable from start without entering `removed`."""
    seen = frontier = 1 << start
    while frontier:
        reach = 0
        for v, row in enumerate(rows):
            if (frontier >> v) & 1:
                reach |= row
        frontier = reach & ~removed & ~seen
        seen |= frontier
    return seen


def random_connected(rng, n, p):
    """A connected G(n, p) graph as adjacency bitmasks."""
    while True:
        rows = [0] * n
        for j in range(1, n):
            for i in range(j):
                if rng.random() < p:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        if component(rows, 0) == (1 << n) - 1:
            return rows


def generate(seed):
    """graph6 lines of the invariants-random input for one seed."""
    rng = random.Random(seed)
    lines = []
    for n in N_RANGE:
        for density in DENSITIES.values():
            for _ in range(GRAPHS_PER_CELL):
                lines.append(graph6_encode(n, random_connected(rng, n, density(n))))
    return lines

