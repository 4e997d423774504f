"""A small DSL for the graph families, parsed and built in one pass.

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
Functions nest at most MAX_NESTING deep.

The recursive-descent parser calls the kdom.graphs constructors as it
reads, so every parse step returns a Graph and no expression tree is kept.
Tokens are ASCII and match one pattern, _TOKEN, so "K²" is a syntax
error.  Syntax errors raise FamilyParseError with the offset of the
offending token, an index into the text (the byte offset for ASCII text);
a constructor's own ValueError (C2, a matching that does not fit, a union
above the vertex cap) passes through unchanged.  With two faults in one
input, the first one read is reported.
"""

import re

from . import graphs as _g

FUNCTIONS = ("complement", "union", "join", "sum", "minus_matching")
ATOM_BUILDERS = {
    "K": _g.complete,
    "P": _g.path,
    "C": _g.cycle,
    "W": _g.wheel,
    "F": _g.friendship,
}
MAX_NESTING = 100  # functions inside functions; keeps the parser off the recursion limit
MAX_INT_DIGITS = 100  # keeps int() off Python's 4300-digit conversion limit
# a name, an integer, punctuation, or else an unexpected character; [0-9], since \d
# also admits "٣"; whitespace matches no group, and \s is exactly str.isspace
_TOKEN = re.compile(r"([A-Za-z][A-Za-z_]*)|([0-9]+)|([(){},])|(\S)")


class FamilyParseError(ValueError):
    """Syntax or arity error, with the offset (an index into the text) where it happened."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def _check_cap(label, count, offset):
    """Refuse an atom above the vertex cap before anything is allocated for it."""
    if count > _g.MAX_VERTICES:
        raise FamilyParseError(f"{label} has {count} vertices, above the cap {_g.MAX_VERTICES}", offset)


def _found(kind, value):
    """A token as an error message names it."""
    return "end of input" if kind == "end" else repr(value)


# ---------------------------------------------------------------------------
# Tokenizer


def _tokenize(text):
    tokens = []
    for match in _TOKEN.finditer(text):
        name, digits, punct, other = match.groups()
        i = match.start()
        if name:
            tokens.append(("name", name, i))
        elif digits:
            if len(digits) > MAX_INT_DIGITS:
                raise FamilyParseError(f"integer of {len(digits)} digits, above the limit {MAX_INT_DIGITS}", i)
            tokens.append(("int", int(digits), i))
        elif punct:
            tokens.append((punct, punct, i))
        else:
            raise FamilyParseError(f"unexpected character {other!r}", i)
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
            raise FamilyParseError(f"expected {kind!r}, found {_found(tok[0], tok[1])}", tok[2])
        return tok

    def parse_expr(self, depth=0):
        kind, value, offset = self.peek()
        if kind != "name":
            raise FamilyParseError(f"expected a family or function name, found {_found(kind, value)}", offset)
        if value in FUNCTIONS:
            if depth == MAX_NESTING:
                raise FamilyParseError(f"functions nested deeper than {MAX_NESTING}", offset)
            return self.parse_func(depth + 1)
        if value in ATOM_BUILDERS:
            base = self.parse_atom()
            if self.peek()[0] == "(":
                return self.parse_attach(base)
            return base
        raise FamilyParseError(f"unknown name {value!r}", offset)

    def parse_func(self, depth):
        name = self.next()[1]
        self.expect("(")
        g = self.parse_expr(depth)
        if name == "complement":
            self.expect(")")
            return _g.complement(g)
        self.expect(",")
        if name == "minus_matching":
            kind, size, offset = self.next()
            if kind != "int" and (kind, size) != ("name", "perfect"):
                raise FamilyParseError(f"expected a matching size or 'perfect', found {_found(kind, size)}", offset)
            self.expect(")")
            return _g.remove_matching(g, _g.greedy_matching(g, size))
        h = self.parse_expr(depth)
        self.expect(")")
        return _g.disjoint_union(g, h) if name == "union" else _g.join(g, h)

    def parse_atom(self):
        _, letter, offset = self.next()
        if self.peek()[0] != "{":
            kind, n, off = self.next()
            if kind != "int":
                raise FamilyParseError(f"expected a size after {letter!r}", off)
            _check_cap(f"{letter}{n}", 2 * n + 1 if letter == "F" else n, offset)
            return ATOM_BUILDERS[letter](n)
        if letter != "K":
            raise FamilyParseError(f"only K takes a {{m,n}} part, not {letter!r}", offset)
        self.next()
        m = self.expect("int")[1]
        self.expect(",")
        n = self.expect("int")[1]
        self.expect("}")
        _check_cap(f"K{{{m},{n}}}", m + n, offset)
        return _g.complete_bipartite(m, n)

    def parse_attach(self, base):
        open_off = self.peek()[2]
        self.expect("(")
        slots = [self.parse_slot()]
        while self.peek()[0] == ",":
            self.next()
            slots.append(self.parse_slot())
        self.expect(")")
        if len(slots) != base.n:
            raise FamilyParseError(
                f"attachment lists {len(slots)} slots but the base has {base.n} vertices", open_off
            )
        return _g.attach_pendant_paths(base, [(v, *slot) for v, slot in enumerate(slots) if slot])

    def parse_slot(self):
        """None for "0", else (multiplicity, length)."""
        kind, value, offset = self.next()
        if kind == "int" and value == 0 and self.peek()[0] in (",", ")"):
            return None
        if kind == "int":
            mult = value
            kind, value, offset = self.next()
        else:
            mult = 1
        if kind != "name" or value != "P":
            raise FamilyParseError(f"expected a slot like 0, P3 or 2P3, found {_found(kind, value)}", offset)
        length = self.expect("int")[1]
        return (mult, length)


def build_family(text):
    """The graph that DSL text denotes, built as the parser reads it."""
    parser = _Parser(text)
    g = parser.parse_expr()
    parser.expect("end")
    return g
