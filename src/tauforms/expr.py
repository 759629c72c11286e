"""A small expression language over the modular calculus.

Grammar (standard precedence, left associative, ^ binds tightest):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := '-' factor | atom ('^' INT)?
    atom    := INT ('/' INT)? | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Atoms: E2 E4 E6 E8 E10 E12 E14 Delta, rational literals p/q, Ek(k).
Functions: D(e[, j]), RC(f, g, n), Serre(f, m), Ppoly(k, f).

One pass checks the whole expression and then builds it: ``_compile`` gives
each node its static weight and a builder made from its operands' builders,
so mismatched weights in '+'/'-', quasimodular operands of RC/Serre/Ppoly
and bad literals are rejected with positions before any series is made.
"""

from __future__ import annotations

from .arith import Rat, Record, rat_str
from .calculus import rankin_cohen, serre
from .forms import Form, delta, e2, eisenstein, one
from .poincare import eval_modular_seed


class ExprError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at column {pos + 1})")
        self.pos = pos


_ATOMS = {"E2": 2, "E4": 4, "E6": 6, "E8": 8, "E10": 10, "E12": 12, "E14": 14, "Delta": 12}
_FUNCTIONS = {"D", "RC", "Serre", "Ppoly", "Ek"}


# -- tokens -----------------------------------------------------------------


class Token(Record):
    kind: str  # NAME INT OP END
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(Token("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("NAME", text[i:j], i))
            i = j
            continue
        if ch in "+-*^()/,":
            out.append(Token("OP", ch, i))
            i += 1
            continue
        raise ExprError(f"unexpected character {ch!r}", i)
    out.append(Token("END", "", len(text)))
    return out


# -- syntax tree ------------------------------------------------------------


class Num(Record):
    value: Rat
    pos: int = 0
    _nocompare = ("pos",)


class Atom(Record):
    name: str
    pos: int = 0
    _nocompare = ("pos",)


class Call(Record):
    name: str
    args: tuple
    pos: int = 0
    _nocompare = ("pos",)


class BinOp(Record):
    op: str
    left: object
    right: object
    pos: int = 0
    _nocompare = ("pos",)


class Neg(Record):
    operand: object
    pos: int = 0
    _nocompare = ("pos",)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ExprError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ExprError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self):
        node = self.term()
        while self.peek().text in ("+", "-"):
            op = self.next()
            node = BinOp(op.text, node, self.term(), op.pos)
        return node

    def term(self):
        node = self.factor()
        while self.peek().text == "*":
            op = self.next()
            node = BinOp("*", node, self.factor(), op.pos)
        return node

    def factor(self):
        tok = self.peek()
        if tok.text == "-":
            self.next()
            return Neg(self.factor(), tok.pos)
        node = self.atom()
        if self.peek().text == "^":
            op = self.next()
            etok = self.next()
            if etok.kind != "INT":
                raise ExprError("exponent must be a literal integer >= 0", etok.pos)
            node = BinOp("^", node, Num(Rat(int(etok.text)), etok.pos), op.pos)
        return node

    def atom(self):
        tok = self.next()
        if tok.kind == "INT":
            if self.peek().text == "/":
                self.next()
                den = self.next()
                if den.kind != "INT":
                    raise ExprError("denominator must be a literal integer", den.pos)
                if int(den.text) == 0:
                    raise ExprError("zero denominator", den.pos)
                return Num(Rat(int(tok.text), int(den.text)), tok.pos)
            return Num(Rat(int(tok.text)), tok.pos)
        if tok.kind == "NAME":
            if self.peek().text == "(":
                if tok.text not in _FUNCTIONS:
                    raise ExprError(f"unknown function {tok.text!r}", tok.pos)
                self.next()
                args = [self.expr()]
                while self.peek().text == ",":
                    self.next()
                    args.append(self.expr())
                self.expect(")")
                return Call(tok.text, tuple(args), tok.pos)
            if tok.text in _ATOMS:
                return Atom(tok.text, tok.pos)
            raise ExprError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.text == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ExprError(f"unexpected token {tok.text or 'end of input'!r}", tok.pos)


def parse(text: str):
    """Parse the expression language; raises :class:`ExprError` with positions."""
    return _Parser(tokenize(text)).parse()


def to_text(node) -> str:
    """Print a syntax tree back to parsable text (normalized spacing)."""
    if isinstance(node, Num):
        return rat_str(node.value)
    if isinstance(node, Atom):
        return node.name
    if isinstance(node, Call):
        return f"{node.name}({', '.join(to_text(a) for a in node.args)})"
    if isinstance(node, Neg):
        return f"-({to_text(node.operand)})"
    if isinstance(node, BinOp):
        if node.op == "^":
            return f"({to_text(node.left)})^{to_text(node.right)}"
        return f"({to_text(node.left)} {node.op} {to_text(node.right)})"
    raise TypeError(f"not a syntax node: {node!r}")


# -- checking and building ----------------------------------------------------


class WeightInfo(Record):
    weight: int
    quasimodular: bool

    def __str__(self):
        tag = " (quasimodular)" if self.quasimodular else ""
        return f"weight {self.weight}{tag}"


def _expect_int_literal(node, what: str):
    if not isinstance(node, Num) or node.value.denominator != 1:
        pos = getattr(node, "pos", 0)
        raise ExprError(f"{what} must be a literal integer", pos)
    return int(node.value.numerator)


def _modular(weight: int, node) -> WeightInfo:
    """The type of an RC or Serre node: modular of ``weight``, which cannot be 2 (of constants)."""
    if weight == 2:
        raise ExprError(f"{node.name} of constants has weight 2, which carries no modular forms", node.pos)
    return WeightInfo(weight, False)


def annotate(node) -> WeightInfo:
    """Static weight/kind of an expression; raises on inconsistency."""
    return _compile(node)[0]


def evaluate(node, prec: int) -> Form:
    """Exact q-expansion of a weight-checked expression."""
    return _compile(node)[1](prec)


def _compile(node):
    """Check ``node`` and everything below it, in source order, and return its
    :class:`WeightInfo` with a ``build(prec) -> Form`` made from its operands' builds."""
    if isinstance(node, Num):
        return WeightInfo(0, False), lambda prec: one(prec).scale(node.value)
    if isinstance(node, Atom):
        if node.name == "E2":
            return WeightInfo(2, True), e2
        if node.name == "Delta":
            return WeightInfo(12, False), delta
        k = _ATOMS[node.name]
        return WeightInfo(k, False), lambda prec: eisenstein(k, prec)
    if isinstance(node, Neg):
        info, build = _compile(node.operand)
        return info, lambda prec: build(prec).scale(-1)
    if isinstance(node, BinOp) and node.op in ("+", "-", "*", "^"):
        lw, left = _compile(node.left)
        if node.op == "^":
            e = _expect_int_literal(node.right, "exponent")
            if e < 0:
                raise ExprError("exponent must be >= 0", node.pos)
            return WeightInfo(lw.weight * e, lw.quasimodular and e > 0), lambda prec: left(prec) ** e
        rw, right = _compile(node.right)
        quasimodular = lw.quasimodular or rw.quasimodular
        if node.op == "*":
            return WeightInfo(lw.weight + rw.weight, quasimodular), lambda prec: left(prec) * right(prec)
        if lw.weight != rw.weight:
            raise ExprError(f"weight mismatch {lw.weight} vs {rw.weight}", node.pos)
        if node.op == "+":
            return WeightInfo(lw.weight, quasimodular), lambda prec: left(prec) + right(prec)
        return WeightInfo(lw.weight, quasimodular), lambda prec: left(prec) - right(prec)
    if not isinstance(node, Call):
        raise TypeError(f"not a syntax node: {node!r}")
    name, args = node.name, node.args
    if name == "Ek":
        if len(args) != 1:
            raise ExprError("Ek takes one argument: Ek(k)", node.pos)
        k = _expect_int_literal(args[0], "Eisenstein weight")
        if k % 2 or k < 4:
            raise ExprError(f"Ek needs even k >= 4 (use E2 for weight 2), got {k}", node.pos)
        return WeightInfo(k, False), lambda prec: eisenstein(k, prec)
    if name == "D":
        if len(args) not in (1, 2):
            raise ExprError("D takes D(f) or D(f, j)", node.pos)
        inner, f = _compile(args[0])
        j = _expect_int_literal(args[1], "derivative order") if len(args) == 2 else 1
        if j < 0:
            raise ExprError("derivative order must be >= 0", node.pos)
        return WeightInfo(inner.weight + 2 * j, j > 0 or inner.quasimodular), lambda prec: f(prec).derive(j)
    if name == "RC":
        if len(args) != 3:
            raise ExprError("RC takes RC(f, g, n)", node.pos)
        (fw, f), (gw, g) = _compile(args[0]), _compile(args[1])
        n = _expect_int_literal(args[2], "bracket order")
        if fw.quasimodular or gw.quasimodular:
            raise ExprError("RC requires modular operands (no E2 content)", node.pos)
        if n < 0:
            raise ExprError("bracket order must be >= 0", node.pos)
        return _modular(fw.weight + gw.weight + 2 * n, node), lambda prec: rankin_cohen(f(prec), g(prec), n)
    if name == "Serre":
        if len(args) != 2:
            raise ExprError("Serre takes Serre(f, m)", node.pos)
        fw, f = _compile(args[0])
        m = _expect_int_literal(args[1], "Serre order")
        if fw.quasimodular:
            raise ExprError("Serre requires a modular operand (no E2 content)", node.pos)
        if m < 0:
            raise ExprError("Serre order must be >= 0", node.pos)
        return _modular(fw.weight + 2 * m, node), lambda prec: serre(f(prec), m)
    if name == "Ppoly":
        if len(args) != 2:
            raise ExprError("Ppoly takes Ppoly(k, f)", node.pos)
        k = _expect_int_literal(args[0], "averaging weight")
        fw, f = _compile(args[1])
        if fw.quasimodular:
            raise ExprError("Ppoly requires a modular seed", node.pos)
        if k - fw.weight < 4:
            raise ExprError(
                f"averaging weight {k} too small for a weight-{fw.weight} seed (need k - w >= 4)",
                node.pos,
            )
        if (k - fw.weight) % 2:
            raise ExprError(f"averaging weight {k} minus seed weight {fw.weight} is odd", node.pos)
        return WeightInfo(k, False), lambda prec: eval_modular_seed(f(prec), k)
    raise ExprError(f"unknown function {name!r}", node.pos)
