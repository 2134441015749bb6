"""A small expression language over conformal multivectors.

Grammar (loosest to tightest binding, all binary operators left
associative):

    additive        +  -
    geometric       *
    wedge/contract  ^  |
    unary           ~  !  -          (reverse, grade involution, negate)
    primary         number | blade | name | name(args) | ( expr )

Blade literals start with ``e`` followed by generators in strictly
ascending order: digits 1-3 for the Euclidean directions and ``+``/``-``
(or the digit aliases 4/5) for the two extra directions, e.g. ``e12``,
``e1+``, ``e123+-``, ``e45``.  A trailing run of ``+``/``-`` characters
is absorbed into the blade token, so ``e1+e2`` is a malformed
juxtaposition: write ``e1 + e2`` to add.

Names resolve to constants (``e0``, ``einf``, ``E``, ``I3``, ``I5``) or
constructor calls; ``,`` and ``;`` both separate call arguments.  Every
successful evaluation yields a plain multivector.
"""

from __future__ import annotations

import math
import re

from .algebra import Multivector, exp_special, format_multivector, versor_inverse
from .conformal import (
    ALG,
    E,
    I3,
    I5,
    e0,
    einf,
    embed_point,
    make_circle,
    make_flat_point,
    make_line,
    make_plane_opns,
    make_point_pair,
    make_sphere_opns,
    sphere_ipns,
)
from .errors import DomainError, ParseError, UnboundNameError
from . import versor as _versor

_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_BLADE_BODY = re.compile(r"e[1-5]*\Z")
_OPS = set("~!^|*+-(),;")


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.col})"


def tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos, line, col = 0, 1, 1
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch == "\n":
            pos += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            pos += 1
            col += 1
            continue
        m = _NUMBER.match(text, pos)
        if m:
            value = float(m.group())
            if math.isinf(value):
                raise DomainError(f"number {m.group()} at {line}:{col} overflows")
            tokens.append(_Token("number", value, line, col))
            col += m.end() - pos
            pos = m.end()
            continue
        m = _IDENT.match(text, pos)
        if m:
            name = m.group()
            start_col = col
            pos = m.end()
            col += len(name)
            absorbed = ""
            if _BLADE_BODY.match(name):
                while pos < n and text[pos] in "+-":
                    absorbed += text[pos]
                    pos += 1
                    col += 1
            if absorbed or (name != "e" and _BLADE_BODY.match(name)):
                try:
                    bits = ALG.blade_bits(name + absorbed)
                except ValueError as exc:
                    raise ParseError(str(exc), line, start_col) from exc
                tokens.append(_Token("blade", bits, line, start_col))
            else:
                tokens.append(_Token("name", name, line, start_col))
            continue
        if ch in _OPS:
            tokens.append(_Token("op", ch, line, col))
            pos += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", None, line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    @property
    def tok(self) -> _Token:
        return self.tokens[self.i]

    def _advance(self) -> _Token:
        t = self.tok
        self.i += 1
        return t

    def _expect_op(self, ch: str) -> None:
        t = self.tok
        if t.kind != "op" or t.value != ch:
            raise ParseError(f"expected {ch!r}", t.line, t.col)
        self.i += 1

    def parse(self):
        node = self.additive()
        t = self.tok
        if t.kind != "eof":
            raise ParseError("unexpected trailing input", t.line, t.col)
        return node

    def additive(self):
        node = self.multiplicative()
        while self.tok.kind == "op" and self.tok.value in "+-":
            op = self._advance().value
            node = ("binary", op, node, self.multiplicative())
        return node

    def multiplicative(self):
        node = self.wedge()
        while self.tok.kind == "op" and self.tok.value == "*":
            self._advance()
            node = ("binary", "*", node, self.wedge())
        return node

    def wedge(self):
        node = self.unary()
        while self.tok.kind == "op" and self.tok.value in "^|":
            op = self._advance().value
            node = ("binary", op, node, self.unary())
        return node

    def unary(self):
        t = self.tok
        if t.kind == "op" and t.value in "~!-":
            self._advance()
            return ("unary", t.value, self.unary())
        return self.primary()

    def primary(self):
        t = self._advance()
        if t.kind == "number":
            return ("number", t.value)
        if t.kind == "blade":
            return ("blade", t.value)
        if t.kind == "name":
            if self.tok.kind == "op" and self.tok.value == "(":
                self._advance()
                args = []
                if not (self.tok.kind == "op" and self.tok.value == ")"):
                    args.append(self.additive())
                    while self.tok.kind == "op" and self.tok.value in ",;":
                        self._advance()
                        args.append(self.additive())
                self._expect_op(")")
                return ("call", t.value, args, t.line, t.col)
            return ("name", t.value, t.line, t.col)
        if t.kind == "op" and t.value == "(":
            node = self.additive()
            self._expect_op(")")
            return node
        raise ParseError("expected an operand", t.line, t.col)


def parse(text: str):
    """Parse to an AST; raises ParseError with a 1-based line:col position."""
    return _Parser(tokenize(text)).parse()


# -- evaluation ---------------------------------------------------------------


def _num(v) -> bool:
    return isinstance(v, float)


def _mv(v) -> bool:
    return isinstance(v, Multivector)


def _want(cond: bool, name: str, signature: str):
    if not cond:
        raise DomainError(f"{name} expects {signature}")


def _vec(args) -> list[float]:
    return [float(a) for a in args]


def _call_point(args):
    _want(len(args) == 3 and all(map(_num, args)), "point", "three numbers x, y, z")
    return embed_point(_vec(args))


def _call_pair(args):
    _want(len(args) == 2 and all(map(_mv, args)), "pair", "two conformal points")
    return make_point_pair(*args).mv


def _call_circle(args):
    _want(len(args) == 3 and all(map(_mv, args)), "circle", "three conformal points")
    return make_circle(*args).mv


def _call_sphere(args):
    if len(args) == 4 and all(map(_mv, args)):
        return make_sphere_opns(*args).mv
    if len(args) == 4 and all(map(_num, args)):
        return sphere_ipns(_vec(args[:3]), float(args[3])).mv
    raise DomainError("sphere expects four conformal points or cx, cy, cz, r")


def _call_line(args):
    _want(len(args) == 2 and all(map(_mv, args)), "line", "two conformal points")
    return make_line(*args).mv


def _call_plane(args):
    if len(args) == 3 and all(map(_mv, args)):
        return make_plane_opns(*args).mv
    if len(args) == 4 and all(map(_num, args)):
        return _versor.reflector_plane(_vec(args[:3]), float(args[3])).mv
    raise DomainError("plane expects three conformal points or nx, ny, nz, d")


def _call_flat_point(args):
    if len(args) == 1 and _mv(args[0]):
        return make_flat_point(args[0]).mv
    if len(args) == 3 and all(map(_num, args)):
        return make_flat_point(embed_point(_vec(args))).mv
    raise DomainError("flat_point expects a conformal point or x, y, z")


def _call_space(args):
    _want(len(args) == 0, "space", "no arguments")
    return I5


def _call_mirror_plane(args):
    _want(len(args) == 4 and all(map(_num, args)), "mirror_plane", "nx, ny, nz, d")
    return _versor.reflector_plane(_vec(args[:3]), float(args[3])).mv


def _call_mirror_sphere(args):
    _want(len(args) == 4 and all(map(_num, args)), "mirror_sphere", "cx, cy, cz, r")
    return _versor.reflector_sphere(_vec(args[:3]), float(args[3])).mv


def _call_mirror_point(args):
    _want(len(args) == 3 and all(map(_num, args)), "mirror_point", "x, y, z")
    return _versor.reflector_point(_vec(args)).mv


def _call_mirror_line(args):
    if len(args) == 1 and _mv(args[0]):
        return _versor.reflector_line(args[0]).mv
    if len(args) == 2 and all(map(_mv, args)):
        return _versor.reflector_line(make_line(*args)).mv
    raise DomainError("mirror_line expects a line or two conformal points")


def _call_rotor(args):
    _want(len(args) == 2 and _mv(args[0]) and _num(args[1]), "rotor", "a bivector and an angle")
    return _versor.rotor(args[0], float(args[1])).mv


def _call_translator(args):
    _want(len(args) == 3 and all(map(_num, args)), "translator", "three numbers tx, ty, tz")
    return _versor.translator(_vec(args)).mv


def _call_motor(args):
    _want(
        len(args) == 5 and _mv(args[0]) and all(map(_num, args[1:])),
        "motor",
        "a bivector, an angle, and tx, ty, tz",
    )
    return _versor.motor(args[0], float(args[1]), _vec(args[2:])).mv


def _call_scalor(args):
    if len(args) == 1 and _num(args[0]):
        return _versor.scalor(float(args[0])).mv
    if len(args) == 4 and all(map(_num, args)):
        return _versor.scalor(float(args[0]), _vec(args[1:])).mv
    raise DomainError("scalor expects s or s, cx, cy, cz")


def _call_apply(args):
    _want(
        len(args) == 3 and _mv(args[0]) and _mv(args[1]) and isinstance(args[2], str),
        "apply",
        "a versor, a multivector, and motion or reflection",
    )
    v = _versor.make_versor(args[0], allow_null=True)
    return _versor.apply(v, args[1], args[2])


def _call_dual(args):
    _want(len(args) == 1 and _mv(args[0]), "dual", "one multivector")
    return args[0].dual()


def _call_inv(args):
    _want(len(args) == 1 and _mv(args[0]), "inv", "one invertible versor")
    return versor_inverse(args[0])


def _call_exp(args):
    _want(len(args) == 1 and _mv(args[0]), "exp", "one bivector with scalar square")
    return exp_special(args[0])


def _call_grade(args):
    _want(
        len(args) == 2 and _mv(args[0]) and _num(args[1]) and float(args[1]).is_integer(),
        "grade",
        "a multivector and an integer grade",
    )
    return args[0].grade(int(args[1]))


_FUNCTIONS = {
    "point": _call_point,
    "pair": _call_pair,
    "circle": _call_circle,
    "sphere": _call_sphere,
    "line": _call_line,
    "plane": _call_plane,
    "flat_point": _call_flat_point,
    "space": _call_space,
    "mirror_plane": _call_mirror_plane,
    "mirror_sphere": _call_mirror_sphere,
    "mirror_point": _call_mirror_point,
    "mirror_line": _call_mirror_line,
    "rotor": _call_rotor,
    "translator": _call_translator,
    "motor": _call_motor,
    "scalor": _call_scalor,
    "apply": _call_apply,
    "dual": _call_dual,
    "inv": _call_inv,
    "exp": _call_exp,
    "grade": _call_grade,
}


def default_env() -> dict:
    """Fresh name table: constants, mode names, and constructor functions."""
    env = {
        "e0": e0,
        "einf": einf,
        "E": E,
        "I3": I3,
        "I5": I5,
        "motion": "motion",
        "reflection": "reflection",
    }
    env.update(_FUNCTIONS)
    return env


def _coerce_pair(a, b):
    if _mv(a) and _num(b):
        return a, ALG.scalar(b)
    if _num(a) and _mv(b):
        return ALG.scalar(a), b
    return a, b


def _eval(node, env):
    kind = node[0]
    if kind == "number":
        return node[1]
    if kind == "blade":
        return ALG.blade(node[1])
    if kind == "name":
        _, name, line, col = node
        if name not in env:
            raise UnboundNameError(f"unbound name {name!r} at {line}:{col}")
        value = env[name]
        if callable(value):
            raise DomainError(f"{name} is a function; call it with (...)")
        return value
    if kind == "call":
        _, name, arg_nodes, line, col = node
        if name not in env:
            raise UnboundNameError(f"unbound name {name!r} at {line}:{col}")
        fn = env[name]
        if not callable(fn):
            raise DomainError(f"{name} is not a function")
        return fn([_eval(a, env) for a in arg_nodes])
    if kind == "unary":
        _, op, inner = node
        v = _eval(inner, env)
        if op == "-":
            return -v
        if not _mv(v):
            v = ALG.scalar(v) if _num(v) else v
        if not _mv(v):
            raise DomainError(f"unary {op} needs a multivector")
        return ~v if op == "~" else v.involute()
    # binary
    _, op, lnode, rnode = node
    a, b = _eval(lnode, env), _eval(rnode, env)
    if isinstance(a, str) or isinstance(b, str):
        raise DomainError("mode names are only valid as the last argument of apply")
    if _num(a) and _num(b):
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        a, b = ALG.scalar(a), ALG.scalar(b)
    else:
        a, b = _coerce_pair(a, b)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "^":
        return a ^ b
    return a | b


def evaluate(node, env=None) -> Multivector:
    """Evaluate an AST to a multivector (numbers become scalars)."""
    value = _eval(node, env if env is not None else default_env())
    if _num(value):
        return ALG.scalar(value)
    if isinstance(value, str):
        raise DomainError("mode names are only valid as the last argument of apply")
    return value


def eval_expression(text: str, env=None) -> Multivector:
    return evaluate(parse(text), env)


def render(mv: Multivector) -> str:
    """Text form whose parse evaluates back to the same coefficients."""
    return format_multivector(mv)
