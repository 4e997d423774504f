"""Immutable bitmask graphs and the standard small-graph families.

Vertices are the integers 0..n-1 and adjacency is one int bitmask per
vertex, so a graph fits in a tuple of at most 62 ints.  Graphs are value
objects: construction validates, instances never change, and equality is
labeled bit equality.  Canonical forms live in kdom.isomorphism.
"""

from itertools import repeat

MAX_VERTICES = 62


def iter_bits(mask):
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices):
    """Pack an iterable of vertex indices into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def as_mask(n, subset):
    """Normalize a vertex subset (bitmask int or iterable) to a bitmask within 0..n-1."""
    # a vertex outside 0..n-1 packs as bit n, so the check below refuses it before a huge shift
    m = subset if isinstance(subset, int) else mask_of(v if 0 <= v < n else n for v in subset)
    if m < 0 or m >> n:
        raise ValueError(f"vertex subset {subset!r} not contained in 0..{n - 1}")
    return m


class Graph:
    """Simple undirected graph on at most 62 labeled vertices."""

    __slots__ = ("n", "adj")

    def __init__(self, n, adj):
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        adj = tuple(adj)
        if len(adj) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(adj)}")
        for v, row in enumerate(adj):
            if row < 0 or row >> n:
                raise ValueError(f"neighbor bits of vertex {v} out of range")
            if (row >> v) & 1:
                raise ValueError(f"loop at vertex {v}")
        for v, row in enumerate(adj):
            for u in iter_bits(row >> (v + 1) << (v + 1)):
                if not (adj[u] >> v) & 1:
                    raise ValueError(f"adjacency not symmetric at {{{v},{u}}}")
        self.n = n
        self.adj = adj

    @classmethod
    def from_edges(cls, n, edges):
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    def _check_vertex(self, v):
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside 0..{self.n - 1}")

    def neighbors(self, v):
        self._check_vertex(v)
        return tuple(iter_bits(self.adj[v]))

    def degree(self, v):
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def has_edge(self, u, v):
        self._check_vertex(u)
        self._check_vertex(v)
        return bool((self.adj[u] >> v) & 1)

    def edges(self):
        out = []
        for v in range(self.n):
            for u in iter_bits(self.adj[v] >> (v + 1) << (v + 1)):
                out.append((v, u))
        return out

    def edge_count(self):
        return sum(row.bit_count() for row in self.adj) // 2

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges()})"


# ---------------------------------------------------------------------------
# Families


def path(n):
    """P_n: vertices 0..n-1, edges {i, i+1}."""
    if n < 1:
        raise ValueError("path requires n >= 1")
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n):
    """C_n: P_n plus the closing edge {n-1, 0}."""
    if n < 3:
        raise ValueError("cycle requires n >= 3")
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def complete(n):
    """K_n."""
    if n < 0:
        raise ValueError("complete requires n >= 0")
    full = (1 << n) - 1
    return Graph(n, (full & ~(1 << v) for v in range(n)))


def complete_bipartite(m, n):
    """K_{m,n}: parts 0..m-1 and m..m+n-1, all cross edges."""
    if m < 0 or n < 0:
        raise ValueError("complete_bipartite requires nonnegative part sizes")
    return join(Graph(m, repeat(0, m)), Graph(n, repeat(0, n)))


def wheel(n):
    """Wheel on n vertices: hub n-1 joined to every vertex of cycle(n-1)."""
    if n < 4:
        raise ValueError("wheel requires n >= 4")
    return join(cycle(n - 1), complete(1))


def friendship(n):
    """F_n: n triangles sharing the hub vertex 0; 2n+1 vertices."""
    if n < 1:
        raise ValueError("friendship requires n >= 1")
    return join(complete(1), Graph.from_edges(2 * n, ((2 * i, 2 * i + 1) for i in range(n))))


def complement(g):
    """Flip every non-loop pair."""
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full & ~row & ~(1 << v) for v, row in enumerate(g.adj)))


def disjoint_union(g, h):
    """Graphs side by side; h's vertices are shifted up by g.n."""
    if g.n + h.n > MAX_VERTICES:
        raise ValueError(f"union of {g.n}+{h.n} vertices exceeds cap {MAX_VERTICES}")
    rows = list(g.adj) + [row << g.n for row in h.adj]
    return Graph(g.n + h.n, rows)


def join(g, h):
    """Disjoint union plus every cross edge (the sum G+H in older texts)."""
    u = disjoint_union(g, h)
    left = (1 << g.n) - 1
    right = ((1 << h.n) - 1) << g.n
    rows = [row | (right if v < g.n else left) for v, row in enumerate(u.adj)]
    return Graph(u.n, rows)


def remove_matching(g, matching):
    """Delete a set of pairwise disjoint edges from g."""
    rows = list(g.adj)
    used = 0
    for u, v in matching:
        if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
            raise ValueError(f"({u},{v}) is not an edge of the graph")
        pair = (1 << u) | (1 << v)
        if used & pair:
            raise ValueError(f"matching reuses a vertex of ({u},{v})")
        used |= pair
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
    return Graph(g.n, rows)


def greedy_matching(g, size):
    """First matching in lexicographic edge order: size edges, or "perfect".

    On K_n this is {(0,1), (2,3), ...}; on other graphs the greedy scan can
    fail even when a matching of the requested size exists, which raises.
    """
    if size == "perfect":
        if g.n % 2:
            raise ValueError("perfect matching requires an even vertex count")
        target = g.n // 2
    else:
        target = int(size)
        if target < 0:
            raise ValueError("matching size must be nonnegative")
    used = 0
    out = []
    for u, v in g.edges():
        if len(out) == target:
            break
        pair = (1 << u) | (1 << v)
        if not used & pair:
            out.append((u, v))
            used |= pair
    if len(out) < target:
        raise ValueError(f"no greedy matching of size {target} found")
    return out


def attach_pendant_paths(g, specs):
    """Attach pendant paths: specs is a list of (vertex, multiplicity, length).

    Each attachment identifies one endpoint of a fresh P_length with the host
    vertex, adding length-1 new vertices, so the result has
    n(g) + sum(mult * (length - 1)) vertices.  Lengths 0 and 1 are rejected:
    the construction is undefined for them.
    """
    rows = list(g.adj)
    for v, mult, length in specs:
        if not 0 <= v < g.n:
            raise ValueError(f"attachment vertex {v} outside 0..{g.n - 1}")
        if mult < 1:
            raise ValueError(f"attachment multiplicity {mult} must be >= 1")
        if length < 2:
            raise ValueError(f"pendant path length {length} is undefined; need >= 2")
        for _ in range(mult):
            prev = v
            for _ in range(length - 1):
                new = len(rows)
                if new >= MAX_VERTICES:
                    raise ValueError(f"attachment exceeds vertex cap {MAX_VERTICES}")
                rows.append(0)
                rows[prev] |= 1 << new
                rows[new] |= 1 << prev
                prev = new
    return Graph(len(rows), rows)


# ---------------------------------------------------------------------------
# Basic invariants


def component(g, v):
    """Bitmask of the vertices in the component of v."""
    g._check_vertex(v)
    seen = frontier = 1 << v
    while frontier:
        acc = 0
        for u in iter_bits(frontier):
            acc |= g.adj[u]
        frontier = acc & ~seen
        seen |= frontier
    return seen


def components(g):
    """Bitmasks of g's components, in the order of their lowest vertices."""
    parts = []
    left = (1 << g.n) - 1
    while left:
        part = component(g, (left & -left).bit_length() - 1)
        parts.append(part)
        left ^= part
    return parts


def is_connected(g):
    """True when g has one component; degenerate n <= 1 counts as connected."""
    return g.n <= 1 or component(g, 0) == (1 << g.n) - 1


def min_degree(g):
    if g.n == 0:
        raise ValueError("min_degree of the empty graph is undefined")
    return min(row.bit_count() for row in g.adj)


def max_degree(g):
    if g.n == 0:
        raise ValueError("max_degree of the empty graph is undefined")
    return max(row.bit_count() for row in g.adj)


# ---------------------------------------------------------------------------
# graph6 interchange (single-byte size form, n <= 62)


def graph6_encode(g):
    """Encode as graph6: chr(63+n), then the upper triangle in column-major
    order ((0,1),(0,2),(1,2),(0,3),...) packed big-endian into 6-bit groups,
    each emitted as chr(63+value)."""
    out = [chr(63 + g.n)]
    acc = 0
    nbits = 0
    for j in range(1, g.n):
        col = g.adj[j]
        for i in range(j):
            acc = (acc << 1) | ((col >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        out.append(chr(63 + acc))
    return "".join(out)


_G6_BITS = {63 + v: f"{v:06b}" for v in range(64)}  # a body byte as its six bits, for str.translate


def graph6_decode(text):
    """Decode a single-byte-size graph6 string; strict about length, byte
    range, and zero padding bits."""
    s = text.strip()
    if not s:
        raise ValueError("empty graph6 string")
    if s[0] == "~":
        raise ValueError("multi-byte graph6 size forms (n > 62) are not supported")
    n = ord(s[0]) - 63
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"graph6 size byte {s[0]!r} out of range")
    npairs = n * (n - 1) // 2
    body = s[1:]
    expected = (npairs + 5) // 6
    if len(body) != expected:
        raise ValueError(f"graph6 body has {len(body)} bytes, expected {expected}")
    bits = body.translate(_G6_BITS)
    if len(bits) != 6 * expected:  # a byte outside "?".."~" stays one character
        bad = next(ch for ch in body if not "?" <= ch <= "~")
        raise ValueError(f"graph6 byte {bad!r} out of range")
    if "1" in bits[npairs:]:
        raise ValueError("nonzero padding bits in graph6 string")
    rows = [0] * n
    for j in range(1, n):  # column j holds the pairs (0,j), (1,j), ..., (j-1,j)
        rows[j] = int(bits[j * (j - 1) // 2 : j * (j + 1) // 2][::-1], 2)
        for i in iter_bits(rows[j]):
            rows[i] |= 1 << j
    return Graph(n, rows)


# ---------------------------------------------------------------------------
# Edge-list text format: first line "n", then one "u v" pair per line


def _decimal(word):
    """The value of an ASCII decimal numeral; int() also takes signs, "_" and other scripts' digits."""
    if not word or word.strip("0123456789"):
        raise ValueError(word)
    return int(word)


def parse_edge_list(text):
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge-list input")
    try:
        n = _decimal(lines[0])
    except ValueError:
        raise ValueError(f"first edge-list line must be the vertex count, got {lines[0]!r}") from None
    edges = []
    for ln in lines[1:]:
        try:
            u, v = map(_decimal, ln.split())
        except ValueError:
            raise ValueError(f"bad edge-list line {ln!r}") from None
        edges.append((u, v))
    return Graph.from_edges(n, edges)
