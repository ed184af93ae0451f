"""Text syntax for forms: parser and canonical printer.

Grammar (the wedge token is ``/\\`` so ``^`` stays scalar exponentiation):

    form   := ["-"] term (("+" | "-") term)*
    term   := atom (("*" | "/\\") atom)*
    atom   := NUMBER ["/" NUMBER] | VAR ["^" NUMBER] | BASIS | "(" form ")"
    VAR    := x<i> | y<i>          BASIS := dx<i> | dy<i>

NUMBER and <i> are ASCII digits.  Both ``*`` and ``/\\`` are the exterior
product, but a chain of atoms joined by ``*`` may contain at most one atom
of positive form degree; scalar atoms multiply into its polynomial
coefficient.  A zero denominator and parentheses nested deeper than
``MAX_NESTING`` are parse errors, and an error quotes at most eight
characters of the text it names.  The printer reads a form's int
numerators directly and emits every term as ``(coefficient)*basis`` with a
canonical ordering, and ``parse(print(f))`` returns a form equal to ``f``
exactly; a number past the interpreter's int-string limit does not print.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .forms import Form, wedge
from .scalars import coordinate_name, named_terms


class ParseError(ValueError):
    """Syntax or range error, carrying the source column."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column + 1})")
        self.column = column


# each level of parentheses costs three parser frames, well inside the
# interpreter's recursion limit
MAX_NESTING = 100

_TOKEN = re.compile(r"\s*(?:(?P<num>[0-9]+)|(?P<name>[A-Za-z]+[0-9]+)"
                    r"|(?P<wedge>/\\)|(?P<op>[-+*^/()]))")


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        match = _TOKEN.match(src, pos)
        if match is None:
            rest = src[pos:].lstrip()
            if rest:
                raise ParseError(f"unrecognized input {rest[:8]!r}", len(src) - len(rest))
            break
        pos = match.end()
        kind = match.lastgroup  # the one alternative that matched
        tokens.append(("op" if kind == "wedge" else kind, match.group(kind), match.start(kind)))
    tokens.append(("end", "", len(src)))
    return tokens


def _int(digits: str, col: int) -> int:
    """``int(digits)``; past the interpreter's int-string digit limit, a parse error."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"number of {len(digits)} digits is too long", col) from None


class _Parser:
    def __init__(self, src: str, n: int):
        self.src = src
        self.n = n
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_op(self, op: str) -> None:
        kind, value, col = self.next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}, found {value or 'end of input'!r}", col)

    # form := ["-"] term (("+"|"-") term)*; a leading "-" subtracts from zero
    def parse_form(self) -> Form:
        total = Form.zero(self.n, 0) if self._peek_is_op("-") else self.parse_term()
        while True:
            kind, value, col = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                term = self.parse_term()
                try:
                    total = total + term if value == "+" else total - term
                except ValueError:
                    raise ParseError("cannot add forms of different degree", col) from None
            else:
                return total

    # term := atom (("*" | "/\") atom)*; both operators wedge, and one
    # "*"-chain may hold at most one atom of positive degree
    def parse_term(self) -> Form:
        value = self.parse_atom()
        chain_degree = value.degree  # of the atoms since the last "/\"
        while True:
            kind, token, _ = self.peek()
            if kind != "op" or token not in ("*", "/\\"):
                return value
            self.next()
            atom_col = self.peek()[2]
            atom = self.parse_atom()
            if token == "/\\":
                chain_degree = 0
            elif atom.degree > 0 and chain_degree > 0:
                raise ParseError("two positive-degree factors joined by '*'; use '/\\'",
                                 atom_col)
            chain_degree += atom.degree
            value = wedge(value, atom)

    def parse_atom(self) -> Form:
        kind, value, col = self.next()
        if kind == "num":
            numerator = _int(value, col)
            if self._peek_is_op("/"):
                self.next()
                dkind, dvalue, dcol = self.next()
                if dkind != "num":
                    raise ParseError("expected a denominator", dcol)
                denominator = _int(dvalue, dcol)
                if denominator == 0:
                    raise ParseError("division by zero", dcol)
                return Form.const(self.n, Fraction(numerator, denominator))
            return Form.const(self.n, numerator)
        if kind == "name":
            return self._named_atom(value, col)
        if kind == "op" and value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", col)
            self.depth += 1
            inner = self.parse_form()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ParseError(f"unexpected {value or 'end of input'!r}", col)

    def _named_atom(self, name: str, col: int) -> Form:
        match = re.fullmatch(r"(dx|dy|x|y)([0-9]+)", name)
        if match is None:
            raise ParseError(f"unknown symbol {name[:8]!r}", col)
        head, index = match.group(1), _int(match.group(2), col + len(match.group(1)))
        if not 1 <= index <= self.n:
            raise ParseError(f"{name[:8]!r} out of range for chart dimension n={self.n}", col)
        if head == "dx":
            return Form.dx(self.n, index)
        if head == "dy":
            return Form.dy(self.n, index)
        power = 1
        if self._peek_is_op("^"):
            self.next()
            pkind, pvalue, pcol = self.next()
            if pkind != "num":
                raise ParseError("expected an integer exponent", pcol)
            power = _int(pvalue, pcol)
        expo = [0] * (2 * self.n)
        expo[index - 1 if head == "x" else self.n + index - 1] = power
        return Form._reduced(self.n, 0, {(): {tuple(expo): 1}}, 1)

    def _peek_is_op(self, op: str) -> bool:
        kind, value, _ = self.peek()
        return kind == "op" and value == op


def parse_form(src: str, n: int) -> Form:
    """Parse a form expression on the chart of dimension n."""
    parser = _Parser(src, n)
    result = parser.parse_form()
    kind, value, col = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input {value[:8]!r}", col)
    return result


# ---------- printing ----------

def _scalar_text(n: int, num: dict, den: int) -> str:
    """Text of the polynomial ``sum(num[m] x^m) / den``."""
    bits: list[str] = []
    try:
        for coeff, factors in named_terms(n, num, den):
            magnitude = abs(coeff)
            text = "*".join(([str(magnitude)] if magnitude != 1 or not factors else []) + factors)
            sign = "-" if coeff < 0 else "+"
            bits.append(f"{sign} {text}" if bits else text if coeff > 0 else f"-{text}")
    except ValueError:  # str() of an int past the interpreter's int-string limit
        raise ValueError("coefficient or exponent too long to print") from None
    return " ".join(bits) or "0"


def print_form(form: Form) -> str:
    """Canonical text of a form; parse(print(f), f.n) == f exactly."""
    if not isinstance(form, Form):
        raise TypeError(f"print_form prints a Form, got a {type(form).__name__}; fiber "
                        "forms print entry by entry (cli._form_json)")
    n, num, den = form.n, form.num, form.den
    if form.degree == 0 or not num:
        return _scalar_text(n, num.get((), {}), den)
    one = {(0,) * (2 * n): den}  # the numerators of a unit coefficient
    chunks = []
    for idx in sorted(num):
        basis = "/\\".join("d" + coordinate_name(n, c) for c in idx)
        chunks.append(basis if num[idx] == one else f"({_scalar_text(n, num[idx], den)})*{basis}")
    return " + ".join(chunks)
