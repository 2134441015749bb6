"""A small expression language over conformal multivectors.

Grammar (loosest to tightest binding, all binary operators left
associative):

    additive        +  -
    geometric       *
    wedge/contract  ^  |
    unary           ~  !  -          (reverse, grade involution, negate)
    primary         number | blade | name | name(args) | ( expr )

One operator table (``_BINARY`` and ``_UNARY``) holds these operators and
their binding levels; the tokenizer, the parser and the evaluator all read it.
The parser emits a postfix program, its steps in evaluation order, and the
evaluator runs it in one loop over a stack of values. Neither recurses, so no
input depends on Python's recursion limit; brackets nest at most
``MAX_NESTING`` deep.

Blade literals start with ``e`` followed by generators in strictly
ascending order: digits 1-3 for the Euclidean directions and ``+``/``-``
(or the digit aliases 4/5) for the two extra directions, e.g. ``e12``,
``e1+``, ``e123+-``, ``e45``.  A trailing run of ``+``/``-`` characters
is absorbed into the blade token, so ``e1+e2`` is a malformed
juxtaposition: write ``e1 + e2`` to add.

Names resolve to constants (``e0``, ``einf``, ``E``, ``I3``, ``I5``), the
mode names ``motion`` and ``reflection`` (valid only as the last argument of
``apply``), or constructor calls; ``,`` and ``;`` both separate call
arguments.  Each constructor is one row of ``_BUILTINS``: what it expects,
and one constructor per accepted string of argument kinds; any other call
is refused with "<name> expects <what>".  The object constructors (``pair``,
``circle``, ``sphere``, ``line``, ``plane``, ``flat_point``) return the blade
they build, unclassified; their multivector arguments must be conformal
points (``conformal.is_point``).  A closed form (a mirror, ``rotor``,
``translator``, ``motor``, ``scalor``) keeps its exact versor for ``apply``
and ``inv`` (`as_versor`); any other multivector, arithmetic on one included,
goes through ``versor.make_versor``, which takes a null versor only as the
point mirror, under the same rule; it has no inverse, so ``inv`` refuses it.
Arithmetic that overflows to inf or nan is refused.
"""

from __future__ import annotations

import math
import operator
import re
from typing import NamedTuple

import numpy as np

from .algebra import Multivector, exp_special, format_multivector
from .conformal import (
    ALG,
    E,
    I3,
    I5,
    e0,
    einf,
    embed_point,
    make_line,
    plane_vector,
    sphere_vector,
    wedge_points,
)
from .errors import DomainError, ParseError, UnboundNameError
from . import versor as _versor

# The operator table, loosest binding first.  Binary operator -> (binding
# level, function, when its number operands stay numbers: `all` when both are
# numbers, `any` when either is, so that a number scales a multivector, or None
# for never); every binary level is left associative.  Unary operators bind
# tighter than any binary one.
_BINARY = {
    "+": (1, operator.add, all),
    "-": (1, operator.sub, all),
    "*": (2, operator.mul, any),
    "^": (3, operator.xor, None),
    "|": (3, operator.or_, None),
}
_UNARY = {"~": lambda v: ~_as_mv(v), "!": lambda v: _as_mv(v).involute(), "-": operator.neg}

# One token per match, after any blanks.  A blade is an identifier of the
# form e[1-5]* (not bare ``e``) plus the run of +/- signs that follows it.
_TOKEN = re.compile(
    r"[ \t\r]*(?:(?P<newline>\n)"
    r"|(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<blade>e(?=[1-5+-])[1-5]*(?![A-Za-z0-9_])[+-]*)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[" + re.escape("".join(sorted({*_BINARY, *_UNARY, *"(),;"}))) + r"])"
    r"|(?P<eof>\Z)"
    r"|(?P<bad>.))"
)


class _Token(NamedTuple):
    kind: str
    value: object
    line: int
    col: int


def tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos, line, line_start = 0, 1, 0
    kind = None
    while kind != "eof":
        m = _TOKEN.match(text, pos)
        kind = m.lastgroup
        start, pos = m.span(kind)
        if kind == "newline":
            line, line_start = line + 1, pos
            continue
        value, col = text[start:pos], start - line_start + 1
        if kind == "number":
            number = float(value)
            if math.isinf(number):
                raise DomainError(f"number {value} at {line}:{col} overflows")
            value = number
        elif kind == "blade":
            try:
                value = ALG.blade_bits(value)
            except ValueError as exc:
                raise ParseError(str(exc), line, col) from exc
        elif kind == "eof":
            value = None
        elif kind == "bad":
            raise ParseError(f"unexpected character {value!r}", line, col)
        tokens.append(tuple.__new__(_Token, (kind, value, line, col)))  # skips NamedTuple's Python-level __new__
    return tokens


# Brackets (parentheses and call argument lists) nest at most this deep; the
# bracket that opens one level more is a syntax error.
MAX_NESTING = 1000
_UNARY_LEVEL = max(level for level, _, _ in _BINARY.values()) + 1  # tighter than every binary operator


def _is_op(token: _Token, chars: str) -> bool:
    return token.kind == "op" and token.value in chars


def parse(text: str) -> list[tuple]:
    """Parse to a postfix program, the steps `evaluate` runs in order; raises
    ParseError with a 1-based line:col position.

    Operator precedence parsing with stacks of its own, so that no input
    nests Python calls: `operators` holds the pending (binding level,
    operator) pairs, and `brackets` one entry per open bracket: the operator
    depth at which it opened and, for a call, its argument count so far. A
    binary operator emits an "operand" step as it is read, so its left
    operand is checked before the right one runs."""
    tokens = tokenize(text)
    program: list = []
    operators: list = []
    brackets: list = []

    def reduce(floor: int, level: int) -> None:
        # emit pending operators above the open bracket that bind at least as tight as level
        while len(operators) > floor and operators[-1][0] >= level:
            op_level, op = operators.pop()
            program.append(("unary" if op_level == _UNARY_LEVEL else "binary", op))

    def open_bracket(t: _Token, args) -> None:
        if len(brackets) == MAX_NESTING:
            raise ParseError(f"brackets nest deeper than {MAX_NESTING}", t.line, t.col)
        brackets.append((len(operators), args))

    i = 0
    while True:
        # an operand, after any unary operators
        t = tokens[i]
        i += 1
        if t.kind == "op" and t.value in _UNARY:
            operators.append((_UNARY_LEVEL, t.value))
            continue
        if t.kind in ("number", "blade"):
            program.append((t.kind, t.value))
        elif t.kind == "name" and _is_op(tokens[i], "("):
            open_bracket(tokens[i], 0)
            program.append(("function", t.value, t.line, t.col))
            i += 1
            if not _is_op(tokens[i], ")"):
                continue
            i += 1
            brackets.pop()
            program.append(("call", 0))
        elif t.kind == "name":
            program.append(("name", t.value, t.line, t.col))
        elif _is_op(t, "("):
            open_bracket(t, None)
            continue
        else:
            raise ParseError("expected an operand", t.line, t.col)
        # then a binary operator, or the end of a bracket or of the input
        while True:
            t = tokens[i]
            if t.kind == "op" and t.value in _BINARY:
                level = _BINARY[t.value][0]
                reduce(brackets[-1][0] if brackets else 0, level)
                program.append(("operand",))
                operators.append((level, t.value))
                i += 1
                break
            if not brackets:
                reduce(0, 0)
                if t.kind != "eof":
                    raise ParseError("unexpected trailing input", t.line, t.col)
                return program
            floor, args = brackets[-1]
            reduce(floor, 0)
            if args is not None and _is_op(t, ",;"):
                brackets[-1] = (floor, args + 1)
                i += 1
                break
            if not _is_op(t, ")"):
                raise ParseError("expected ')'", t.line, t.col)
            i += 1
            brackets.pop()
            if args is not None:
                program.append(("call", args + 1))


# -- evaluation ---------------------------------------------------------------


def _num(v) -> bool:
    return isinstance(v, float)


def _as_mv(v):
    return ALG.scalar(v) if _num(v) else v


def _kind(v) -> str:
    if isinstance(v, float):
        return "n"
    if isinstance(v, Multivector):
        return "m"
    return "s" if isinstance(v, str) else "?"


class _Carrier(Multivector):
    """A closed form's value: a view of its versor's coefficients that carries the versor to `apply` and `inv`."""

    __slots__ = ("versor",)


def _carry(v: _versor.Versor) -> Multivector:
    value = _Carrier.view(ALG, v.mv.coeffs)
    object.__setattr__(value, "versor", v)
    return value


def as_versor(value: Multivector) -> _versor.Versor:
    """The versor a closed form carries, or else `versor.make_versor` of the multivector."""
    return value.versor if isinstance(value, _Carrier) else _versor.make_versor(value)


# name -> (what it expects, {argument kinds: constructor}).  Kinds are one
# letter per argument: n number, m multivector, s mode name.  A constructor
# answers None to refuse values of the right kinds; a closed form's gives its
# Versor, which the call carries.  Callees are looked up when called (hence
# the lambdas around plain functions), so a module name rebound is honoured.
_BUILTINS = {
    "point": ("three numbers x, y, z", {"nnn": lambda x, y, z: embed_point([x, y, z])}),
    "pair": ("two conformal points", {"mm": lambda p, q: wedge_points(p, q)}),
    "circle": ("three conformal points", {"mmm": lambda p, q, r: wedge_points(p, q, r)}),
    "sphere": ("four conformal points or cx, cy, cz, r", {
        "mmmm": lambda p, q, r, s: wedge_points(p, q, r, s),
        "nnnn": lambda x, y, z, r: sphere_vector([x, y, z], r),
    }),
    "line": ("two conformal points", {"mm": lambda p, q: wedge_points(p, q, with_inf=True)}),
    "plane": ("three conformal points or nx, ny, nz, d", {
        "mmm": lambda p, q, r: wedge_points(p, q, r, with_inf=True),
        "nnnn": lambda x, y, z, d: plane_vector([x, y, z], d),
    }),
    "flat_point": ("a conformal point or x, y, z", {
        "m": lambda p: wedge_points(p, with_inf=True),
        "nnn": lambda x, y, z: wedge_points(embed_point([x, y, z]), with_inf=True),
    }),
    "space": ("no arguments", {"": lambda: I5}),
    "mirror_plane": ("nx, ny, nz, d", {"nnnn": lambda x, y, z, d: _versor.reflector_plane([x, y, z], d)}),
    "mirror_sphere": ("cx, cy, cz, r", {"nnnn": lambda x, y, z, r: _versor.reflector_sphere([x, y, z], r)}),
    "mirror_point": ("x, y, z", {"nnn": lambda x, y, z: _versor.reflector_point([x, y, z])}),
    "mirror_line": ("a line or two conformal points", {
        "m": lambda line: _versor.reflector_line(line),
        "mm": lambda p, q: _versor.reflector_line(make_line(p, q)),
    }),
    "rotor": ("a bivector and an angle", {"mn": lambda b, angle: _versor.rotor(b, angle)}),
    "translator": ("three numbers tx, ty, tz", {"nnn": lambda x, y, z: _versor.translator([x, y, z])}),
    "motor": ("a bivector, an angle, and tx, ty, tz", {"mnnnn": lambda b, angle, x, y, z: _versor.motor(b, angle, [x, y, z])}),
    "scalor": ("s or s, cx, cy, cz", {
        "n": lambda s: _versor.scalor(s),
        "nnnn": lambda s, x, y, z: _versor.scalor(s, [x, y, z]),
    }),
    "apply": ("a versor, a multivector, and motion or reflection", {
        "mms": lambda v, x, mode: _versor.apply(as_versor(v), x, mode),
    }),
    "dual": ("one multivector", {"m": lambda a: a.dual()}),
    "inv": ("one invertible versor", {"m": lambda v: as_versor(v).inverse()}),
    "exp": ("one bivector with scalar square", {"m": lambda b: exp_special(b)}),
    "grade": ("a multivector and an integer grade", {
        "mn": lambda a, k: a.grade(int(k)) if k.is_integer() else None,
    }),
}


def _builtin(name: str):
    """The callable bound to a builtin name: dispatch on the argument kinds."""
    expects, overloads = _BUILTINS[name]

    def call(args):
        constructor = overloads.get("".join(map(_kind, args)))
        value = None if constructor is None else constructor(*args)
        if value is None:
            raise DomainError(f"{name} expects {expects}")
        return _finite(name, _carry(value) if isinstance(value, _versor.Versor) else value)

    return call


_BOUND = {name: _builtin(name) for name in _BUILTINS}


def default_env() -> dict:
    """Fresh name table: constants, mode names, and constructor functions."""
    env = {
        "e0": e0,
        "einf": einf,
        "E": E,
        "I3": I3,
        "I5": I5,
        **{mode: mode for mode in _versor.MODES},
    }
    env.update(_BOUND)
    return env


def _operand(v):
    if isinstance(v, str):
        raise DomainError("mode names are only valid as the last argument of apply")
    return v


def _finite(op: str, value):
    """value, unless overflow made it, or one of its coefficients, inf or nan."""
    if _num(value):
        if not math.isfinite(value):
            raise DomainError(f"'{op}' overflows: it gives {value}")
    elif not np.isfinite(value.coeffs).all():
        raise DomainError(f"'{op}' overflows: it gives {value.coeffs[~np.isfinite(value.coeffs)][0]}")
    return value


def _lookup(step, env):
    """The value bound to a name or called name, checked for its use."""
    kind, name, line, col = step
    if name not in env:
        raise UnboundNameError(f"unbound name {name!r} at {line}:{col}")
    value = env[name]
    if kind == "name" and callable(value):
        raise DomainError(f"{name} is a function; call it with (...)")
    if kind == "function" and not callable(value):
        raise DomainError(f"{name} is not a function")
    return value


def _binary(op: str, a, b):
    """a op b: numbers stay numbers where the table says so, and otherwise become scalars."""
    _, fn, keep = _BINARY[op]
    if not (keep and keep((_num(a), _num(b)))):
        a, b = _as_mv(a), _as_mv(b)
    return _finite(op, fn(a, b))


def _eval(program, env):
    """Run a postfix program on a stack of values, so that no input nests
    Python calls. Operands are evaluated left to right, each checked as soon
    as it is computed; a call's function sits below its arguments."""
    values: list = []
    for step in program:
        kind = step[0]
        if kind == "number":
            values.append(step[1])
        elif kind == "blade":
            values.append(ALG.blade(step[1]))
        elif kind in ("name", "function"):
            values.append(_lookup(step, env))
        elif kind == "operand":
            _operand(values[-1])
        elif kind == "unary":
            values[-1] = _UNARY[step[1]](_operand(values[-1]))
        elif kind == "binary":
            b = _operand(values.pop())
            values[-1] = _binary(step[1], values[-1], b)
        else:  # "call": the arguments are the last values
            start = len(values) - step[1]
            args = values[start:]
            del values[start:]
            values[-1] = values[-1](args)
    return values.pop()


def evaluate(program, env=None) -> Multivector:
    """Evaluate a parsed program to a multivector (numbers become scalars).
    Overflow to inf or nan raises no warning: every step's value goes through
    `_finite`, which refuses it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _as_mv(_operand(_eval(program, env if env is not None else default_env())))


def eval_expression(text: str, env=None) -> Multivector:
    return evaluate(parse(text), env)


def render(mv: Multivector) -> str:
    """Text form whose parse evaluates back to the same coefficients."""
    return format_multivector(mv)
