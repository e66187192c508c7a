"""Element-expression grammar: parsing and deterministic printing.

Terms are scalar-weighted words in family generators; `(x)` separates tensor
slots and binds looser than `*` but parenthesized subexpressions may hold full
tensor sums, so `1/2*(1 (x) 1 + g (x) g)` works.  Scalar literals are
integers, fractions `a/b`, and roots of unity `z{M}^k`.  A scalar of an R
spec (``parse_scalar``) is any expression of this grammar that names no
generator.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .hopf import HopfData, HopfError, Tensor


class ExprError(ValueError):
    def __init__(self, message: str, pos: int | None = None):
        super().__init__(message if pos is None else f"{message} (at position {pos})")
        self.pos = pos


_TOKEN = re.compile(
    r"""\s*(?:
        (?P<tensor>\(x\))
      | (?P<root>z\d+(?:\^-?\d+)?)
      | (?P<int>\d+)
      | (?P<name>[A-Za-z][A-Za-z0-9]*(?:\{\d+(?:,\d+)*\})?)
      | (?P<op>[\^*/+\-()])
    )""",
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            if text[pos:].strip() == "":
                break
            raise ExprError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start()))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over: sum of '*'-joined factors, '(x)' at the top of
    each parenthesis level, 2 or 3 tensor slots."""

    def __init__(self, h: HopfData, tokens):
        self.h = h
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    # values are field scalars or Tensors (an element of H has one leg).
    # '+'/'-' bind loosest, then '(x)', then '*'.
    def parse_tensorexpr(self):
        kind, val, pos = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.take()
            negate = val == "-"
        acc = self.parse_tensorterm()
        if negate:
            acc = -acc
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                term = self.parse_tensorterm()
                if val == "-":
                    term = -term
                acc = self._add(acc, term, pos)
            else:
                return acc

    def parse_tensorterm(self):
        parts = [self.parse_term()]
        while self.peek()[0] == "tensor":
            self.take()
            parts.append(self.parse_term())
        if len(parts) == 1:
            return parts[0]
        if len(parts) > 3:
            raise ExprError("at most three tensor slots", self.peek()[2])
        out = self._as_elem(parts[0])
        for p in parts[1:]:
            out = out.tensor(self._as_elem(p))
        return out

    def parse_term(self):
        acc = self.parse_factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.take()
                acc = self._mul(acc, self.parse_factor(), pos)
            elif kind == "op" and val == "/":
                self.take()
                div = self.parse_factor()
                if isinstance(div, Tensor):
                    raise ExprError("division only by scalars", pos)
                if not div:
                    raise ExprError("division by zero", pos)
                acc = self._mul(acc, self.h.field.one / div, pos)
            else:
                return acc

    def parse_factor(self):
        kind, val, pos = self.take()
        if kind == "int":
            return self.h.field.from_int(int(val))
        if kind == "root":
            m = re.fullmatch(r"z(\d+)(?:\^(-?\d+))?", val)
            order, exp = int(m.group(1)), int(m.group(2) or 1)
            return self.h.field.make_root(order) ** exp
        if kind == "name":
            return self._generator_power(val, pos)
        if kind == "op" and val == "(":
            inner = self.parse_tensorexpr()
            kind2, val2, pos2 = self.take()
            if not (kind2 == "op" and val2 == ")"):
                raise ExprError("expected ')'", pos2)
            return inner
        if kind == "op" and val in "+-":
            factor = self.parse_factor()
            return -factor if val == "-" else factor
        raise ExprError(f"unexpected token {val!r}", pos)

    def _generator_power(self, name: str, pos: int):
        exp = 1
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind2, val2, pos2 = self.take()
            if kind2 != "int":
                raise ExprError("expected integer exponent", pos2)
            exp = int(val2)
        base = self._resolve_generator(name, pos)
        return base**exp

    def _resolve_generator(self, name: str, pos: int) -> Tensor:
        h = self.h
        if name in h.generators:
            return h.gen(name)
        m = re.fullmatch(r"([A-Za-z][A-Za-z0-9]*)\{(\d+(?:,\d+)*)\}", name)
        if m:
            stem, idxs = m.group(1), m.group(2).split(",")
            acc = h.unit()
            for i in idxs:
                sub = f"{stem}{i}"
                if sub not in h.generators:
                    raise ExprError(f"unknown generator {sub!r}", pos)
                acc = acc * h.gen(sub)
            return acc
        raise ExprError(f"unknown generator {name!r}", pos)

    def _as_elem(self, v) -> Tensor:
        if not isinstance(v, Tensor):
            return self.h.unit().scaled(v)
        if v.legs != 1:
            raise ExprError("tensor slot must be an algebra element")
        return v

    def _add(self, a, b, pos):
        try:
            if not isinstance(a, Tensor) and isinstance(b, Tensor):
                a = self.h.unit_tensor(b.legs).scaled(a)
            if not isinstance(b, Tensor) and isinstance(a, Tensor):
                b = self.h.unit_tensor(a.legs).scaled(b)
            return a + b
        except HopfError as exc:  # mismatched arity
            raise ExprError(f"cannot add values: {exc}", pos)

    def _mul(self, a, b, pos):
        a_t = isinstance(a, Tensor)
        b_t = isinstance(b, Tensor)
        try:
            if a_t and b_t:
                return a * b
            if a_t:
                return a.scaled(b)
            if b_t:
                return b.scaled(a)
            return a * b
        except HopfError as exc:  # mismatched arity
            raise ExprError(f"cannot multiply values: {exc}", pos)


def _parse(h: HopfData, text: str):
    """The value of the whole text: a field scalar, or a Tensor when it
    names a generator or a tensor slot."""
    p = _Parser(h, _tokenize(text))
    out = p.parse_tensorexpr()
    kind, val, pos = p.peek()
    if kind != "end":
        raise ExprError(f"trailing input {val!r}", pos)
    return out


def parse_element(h: HopfData, text: str):
    """Parse to a Tensor over h, an element of H when it has one leg; bare
    scalars become multiples of 1."""
    out = _parse(h, text)
    if not isinstance(out, Tensor):
        return h.unit().scaled(out)
    return out


def parse_scalar(h: HopfData, text: str):
    """A scalar of h's field: an expression of the grammar that names no
    generator and no tensor slot."""
    out = _parse(h, text)
    if isinstance(out, Tensor):
        raise ExprError(f"{text.strip()!r} is not a scalar")
    return out


# -- printing ---------------------------------------------------------------


def _scalar_terms(field, c) -> list[tuple[Fraction, str]]:
    """Decompose a scalar into (rational, root-power-suffix) monomials."""
    if hasattr(c, "coeffs"):  # cyclotomic
        out = []
        m = field.order
        for k, q in enumerate(c.coeffs):
            if q:
                out.append((q, "" if k == 0 else (f"z{m}" if k == 1 else f"z{m}^{k}")))
        return out
    # prime field
    return [(Fraction(c.val), "")]


def _format_term(q: Fraction, root: str, word: str, first: bool) -> str:
    sign = "-" if q < 0 else "+"
    q = abs(q)
    factors = []
    if q != 1 or (root == "" and word == ""):
        factors.append(str(q))
    if root:
        factors.append(root)
    if word:
        factors.append(word)
    body = "*".join(factors)
    if first:
        return body if sign == "+" else f"-{body}"
    return f" {sign} {body}"


def format_tensor(t: Tensor) -> str:
    """A tensor in the expression grammar: each basis tensor as its legs'
    labels joined by (x) inside parentheses, an element of H (one leg) as
    its bare label, so that ``parse_element`` reads it back."""
    h = t.parent
    if not t.coeffs:
        return "0"
    parts = []
    for idx in sorted(t.coeffs):
        if t.legs == 1:
            word = "" if h.labels[idx] == "1" else h.labels[idx]
        else:
            word = "(" + " (x) ".join(h.labels[i] for i in t._split(idx)) + ")"
        for q, root in _scalar_terms(h.field, t.coeffs[idx]):
            parts.append(_format_term(q, root, word, not parts))
    return "".join(parts)
