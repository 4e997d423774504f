"""A small DSL for the graph families: parsing, printing, evaluation.

Grammar (whitespace-insensitive, family letters case-sensitive):

    expr := atom | func "(" args ")" | atom "(" slot {"," slot} ")"
    atom := "K" int | "K{" int "," int "}" | "P" int | "C" int
          | "W" int | "F" int
    func := complement(expr) | union(expr, expr) | join(expr, expr)
          | sum(expr, expr)                  # alias of join
          | minus_matching(expr, int | "perfect")
    slot := "0" | [int] "P" int              # e.g. 0, P3, 2P3

An atom followed by a slot list is the pendant-path attachment notation;
the slot count must equal the atom's vertex count, as in C4(P2,2P3,P4,P3).
Functions nest at most MAX_NESTING deep.  Parse errors carry the byte
offset of the offending token.
"""

from dataclasses import dataclass

from . import graphs as _g

FUNCTIONS = ("complement", "union", "join", "sum", "minus_matching")
FAMILY_LETTERS = ("K", "P", "C", "W", "F")
MAX_NESTING = 100  # functions inside functions; keeps parsing and evaluation off the recursion limit


class FamilyParseError(ValueError):
    """Syntax or arity error, with the byte offset where it happened."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Atom:
    letter: str
    n: int


@dataclass(frozen=True)
class Bipartite:
    m: int
    n: int


@dataclass(frozen=True)
class Complement:
    expr: object


@dataclass(frozen=True)
class Union:
    left: object
    right: object


@dataclass(frozen=True)
class Join:
    left: object
    right: object


@dataclass(frozen=True)
class MinusMatching:
    expr: object
    size: object  # int or "perfect"


@dataclass(frozen=True)
class Attach:
    base: object  # Atom or Bipartite
    slots: tuple  # one entry per base vertex: None or (multiplicity, length)


def atom_vertex_count(node):
    if isinstance(node, Bipartite):
        return node.m + node.n
    if node.letter == "F":
        return 2 * node.n + 1
    return node.n


# ---------------------------------------------------------------------------
# Tokenizer


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalpha() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif ch in "(){},":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise FamilyParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise FamilyParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse_expr(self, depth=0):
        kind, value, offset = self.peek()
        if kind != "name":
            raise FamilyParseError(f"expected a family or function name, found {value!r}", offset)
        if value in FUNCTIONS:
            if depth == MAX_NESTING:
                raise FamilyParseError(f"functions nested deeper than {MAX_NESTING}", offset)
            return self.parse_func(depth + 1)
        if value in FAMILY_LETTERS:
            atom = self.parse_atom()
            if self.peek()[0] == "(":
                return self.parse_attach(atom)
            return atom
        raise FamilyParseError(f"unknown name {value!r}", offset)

    def parse_func(self, depth):
        _, name, offset = self.next()
        self.expect("(")
        if name == "complement":
            inner = self.parse_expr(depth)
            self.expect(")")
            return Complement(inner)
        if name in ("union", "join", "sum"):
            left = self.parse_expr(depth)
            self.expect(",")
            right = self.parse_expr(depth)
            self.expect(")")
            return Union(left, right) if name == "union" else Join(left, right)
        # minus_matching
        inner = self.parse_expr(depth)
        self.expect(",")
        kind, value, off = self.next()
        if kind == "int":
            size = value
        elif kind == "name" and value == "perfect":
            size = "perfect"
        else:
            raise FamilyParseError(f"expected a matching size or 'perfect', found {value!r}", off)
        self.expect(")")
        return MinusMatching(inner, size)

    def parse_atom(self):
        _, letter, offset = self.next()
        if self.peek()[0] == "{":
            if letter != "K":
                raise FamilyParseError(f"only K takes a {{m,n}} part, not {letter!r}", offset)
            self.next()
            m = self.expect("int")[1]
            self.expect(",")
            n = self.expect("int")[1]
            self.expect("}")
            atom = Bipartite(m, n)
        else:
            kind, value, off = self.next()
            if kind != "int":
                raise FamilyParseError(f"expected a size after {letter!r}", off)
            atom = Atom(letter, value)
        count = atom_vertex_count(atom)
        if count > _g.MAX_VERTICES:
            raise FamilyParseError(
                f"{print_family(atom)} has {count} vertices, above the cap {_g.MAX_VERTICES}", offset
            )
        return atom

    def parse_attach(self, atom):
        open_off = self.peek()[2]
        self.expect("(")
        slots = [self.parse_slot()]
        while self.peek()[0] == ",":
            self.next()
            slots.append(self.parse_slot())
        self.expect(")")
        want = atom_vertex_count(atom)
        if len(slots) != want:
            raise FamilyParseError(
                f"attachment lists {len(slots)} slots but the base has {want} vertices", open_off
            )
        return Attach(atom, tuple(slots))

    def parse_slot(self):
        kind, value, offset = self.next()
        if kind == "int" and value == 0 and self.peek()[0] in (",", ")"):
            return None
        if kind == "int":
            mult = value
            kind, value, offset = self.next()
        else:
            mult = 1
        if kind != "name" or value != "P":
            raise FamilyParseError(f"expected a slot like 0, P3 or 2P3, found {value!r}", offset)
        length = self.expect("int")[1]
        return (mult, length)


def parse_family(text):
    """Parse DSL text into an expression tree."""
    parser = _Parser(text)
    expr = parser.parse_expr()
    parser.expect("end")
    return expr


def print_family(expr):
    """Canonical text for an expression tree; parse(print(e)) == e."""
    if isinstance(expr, Atom):
        return f"{expr.letter}{expr.n}"
    if isinstance(expr, Bipartite):
        return f"K{{{expr.m},{expr.n}}}"
    if isinstance(expr, Complement):
        return f"complement({print_family(expr.expr)})"
    if isinstance(expr, Union):
        return f"union({print_family(expr.left)},{print_family(expr.right)})"
    if isinstance(expr, Join):
        return f"join({print_family(expr.left)},{print_family(expr.right)})"
    if isinstance(expr, MinusMatching):
        return f"minus_matching({print_family(expr.expr)},{expr.size})"
    if isinstance(expr, Attach):
        slots = ",".join(
            "0" if s is None else (f"P{s[1]}" if s[0] == 1 else f"{s[0]}P{s[1]}")
            for s in expr.slots
        )
        return f"{print_family(expr.base)}({slots})"
    raise TypeError(f"not a family expression: {expr!r}")


def evaluate(expr):
    """Build the graph an expression denotes."""
    if isinstance(expr, Atom):
        builders = {
            "K": _g.complete,
            "P": _g.path,
            "C": _g.cycle,
            "W": _g.wheel,
            "F": _g.friendship,
        }
        return builders[expr.letter](expr.n)
    if isinstance(expr, Bipartite):
        return _g.complete_bipartite(expr.m, expr.n)
    if isinstance(expr, Complement):
        return _g.complement(evaluate(expr.expr))
    if isinstance(expr, Union):
        return _g.disjoint_union(evaluate(expr.left), evaluate(expr.right))
    if isinstance(expr, Join):
        return _g.join(evaluate(expr.left), evaluate(expr.right))
    if isinstance(expr, MinusMatching):
        g = evaluate(expr.expr)
        return _g.remove_matching(g, _g.greedy_matching(g, expr.size))
    if isinstance(expr, Attach):
        base = evaluate(expr.base)
        specs = [
            (v, mult, length)
            for v, slot in enumerate(expr.slots)
            if slot is not None
            for mult, length in (slot,)
        ]
        return _g.attach_pendant_paths(base, specs)
    raise TypeError(f"not a family expression: {expr!r}")


def build_family(text):
    """parse_family then evaluate, in one step."""
    return evaluate(parse_family(text))
