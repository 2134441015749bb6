"""Dense multivector arithmetic for Clifford algebras Cl(p,q) with p+q <= 8.

A basis blade is encoded as the bitset of the generators it contains, so the
geometric product of blade i and blade j always lands on blade i XOR j; the
sign (reordering swaps plus metric signs of contracted generators) is read
from a table precomputed once per signature.  Multivectors store all 2^n
coefficients densely as float64 and are immutable.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import tolerance
from .errors import (
    DomainError,
    GradeError,
    NotExponentiableError,
    SignatureMismatchError,
)

MAX_DIM = 8


def _popcounts(size: int) -> np.ndarray:
    return np.array([bin(i).count("1") for i in range(size)], dtype=np.int64)


class Algebra:
    """Signature Cl(p,q) with its precomputed product tables.

    Use the cached :func:`algebra` factory so that multivectors from the same
    signature share one instance.
    """

    def __init__(self, p: int, q: int):
        if p < 0 or q < 0 or p + q < 1 or p + q > MAX_DIM:
            raise ValueError(f"unsupported signature Cl({p},{q})")
        self.p = p
        self.q = q
        self.n = p + q
        self.dim = 1 << self.n
        self.metric = np.array([1.0] * p + [-1.0] * q)

        idx = np.arange(self.dim, dtype=np.int64)
        pop = _popcounts(self.dim)
        self.grades = pop
        self.xor_table = idx[:, None] ^ idx[None, :]

        # Reordering sign: parity of swaps needed to merge the generator
        # lists of the two blades into canonical ascending order.
        a = idx[:, None] >> 1
        b = idx[None, :]
        swaps = np.zeros((self.dim, self.dim), dtype=np.int64)
        while a.any():
            swaps += pop[a & b]
            a = a >> 1
        sign = 1 - 2 * (swaps & 1)

        # Metric factor: each generator shared by both blades contracts away
        # and contributes its square.
        common = idx[:, None] & idx[None, :]
        for k in range(self.n):
            if self.metric[k] < 0:
                sign = sign * (1 - 2 * ((common >> k) & 1))
        self.sign_table = sign.astype(np.int8)

        grade_sum = pop[:, None] + pop[None, :]
        grade_diff = pop[None, :] - pop[:, None]
        grade_out = pop[self.xor_table]
        self.outer_sign = np.where(grade_out == grade_sum, self.sign_table, 0).astype(np.int8)
        self.lcont_sign = np.where(grade_out == grade_diff, self.sign_table, 0).astype(np.int8)

        # Gather tables (xor, signs) of `row_product`, by product: signs[i, k] = S[i, i^k]
        self.product_tables = {
            name: (self.xor_table, table[idx[:, None], self.xor_table].astype(np.float64))
            for name, table in (("gp", self.sign_table), ("outer", self.outer_sign), ("lcont", self.lcont_sign))
        }

        self.reverse_signs = np.where(pop * (pop - 1) // 2 % 2 == 0, 1.0, -1.0)
        self.involute_signs = np.where(pop % 2 == 0, 1.0, -1.0)

        # <e_i * ~e_i>_0 per blade; the metric weight of the coefficient
        # inner product sum(k_i * a_i * b_i) = <a * ~b>_0.
        diag = self.sign_table[idx, idx].astype(np.float64)
        self.rev_norm_signs = self.reverse_signs * diag

        # signs of the multiplication matrices: L(m)[k, j] = m[k^j] * S[k^j, j]
        # and R(m)[k, i] = m[k^i] * S[i, k^i]
        self._left_signs = self.sign_table[self.xor_table, idx[None, :]].astype(np.float64)
        self._right_signs = self.sign_table[idx[None, :], self.xor_table].astype(np.float64)

        # Generator display symbols; the conformal signature names its two
        # extra generators e+ and e- (digits 4 and 5 stay valid aliases).
        if (p, q) == (4, 1):
            self.gen_symbols = ["1", "2", "3", "+", "-"]
        else:
            self.gen_symbols = [str(i + 1) for i in range(self.n)]
        self.symbol_to_gen = {s: k for k, s in enumerate(self.gen_symbols)}
        for k in range(self.n):
            self.symbol_to_gen.setdefault(str(k + 1), k)

        self.blade_names = [self.blade_name(bits) for bits in range(self.dim)]
        self.blade_order = sorted(range(self.dim), key=lambda b: (pop[b], b))  # text order: grade, then bitset

    # -- construction helpers ------------------------------------------------

    def mv(self, coeffs) -> "Multivector":
        return Multivector(self, coeffs)

    def zero(self) -> "Multivector":
        return Multivector(self, np.zeros(self.dim), copy=False)

    def scalar(self, value: float) -> "Multivector":
        c = np.zeros(self.dim)
        c[0] = value
        return Multivector(self, c, copy=False)

    def blade(self, bits: int, coeff: float = 1.0) -> "Multivector":
        if not 0 <= bits < self.dim:
            raise ValueError(f"blade bits {bits} out of range")
        c = np.zeros(self.dim)
        c[bits] = coeff
        return Multivector(self, c, copy=False)

    def basis_vector(self, k: int) -> "Multivector":
        if not 0 <= k < self.n:
            raise ValueError(f"generator index {k} out of range")
        return self.blade(1 << k)

    def vector(self, components) -> "Multivector":
        comp = np.asarray(components, dtype=float)
        if comp.shape != (self.n,):
            raise ValueError(f"expected {self.n} vector components")
        c = np.zeros(self.dim)
        for k in range(self.n):
            c[1 << k] = comp[k]
        return Multivector(self, c, copy=False)

    def pseudoscalar(self) -> "Multivector":
        return self.blade(self.dim - 1)

    def blade_name(self, bits: int) -> str:
        if bits == 0:
            return "1"
        return "e" + "".join(self.gen_symbols[k] for k in range(self.n) if bits >> k & 1)

    def blade_bits(self, name: str) -> int:
        """Inverse of `blade_name`, digit aliases included; raises ValueError saying what is wrong."""
        if name == "1":
            return 0
        gens = [self.symbol_to_gen.get(ch) for ch in name[1:]]
        if name[:1] != "e" or not gens or None in gens:
            raise ValueError(f"bad blade name {name!r}")
        if any(a >= b for a, b in zip(gens, gens[1:])):
            raise ValueError(f"blade generators must be strictly ascending in {name!r}")
        return sum(1 << g for g in gens)

    # -- product kernels -----------------------------------------------------

    def product(self, kind: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a * b ("gp"), a ^ b ("outer") or a | b ("lcont") of coefficient rows, by `row_product`."""
        return row_product(a, b, self.product_tables[kind])

    def left_matrix(self, coeffs: np.ndarray) -> np.ndarray:
        """Matrix L with L @ x == coeffs-of(M * X) for X with coefficients x."""
        return coeffs[self.xor_table] * self._left_signs

    def right_matrix(self, coeffs: np.ndarray) -> np.ndarray:
        """Matrix R with R @ x == coeffs-of(X * M) for X with coefficients x."""
        return coeffs[self.xor_table] * self._right_signs

    def __repr__(self) -> str:
        return f"Algebra(p={self.p}, q={self.q})"


def row_product(a: np.ndarray, b: np.ndarray, table: tuple) -> np.ndarray:
    """out[..., j] = sum_i (b[..., xor[i, j]] * a[..., i]) * signs[i, j] for coefficient rows a, b of
    shape (dim,) or (N, dim), which broadcast, and a table (xor, signs) of `Algebra.product_tables` or
    some of its columns. There is one path: a 1-D operand is one row, a one-row operand broadcasts,
    and the rows lie on the last axis, so that numpy's loops run along them. The sum runs over i in
    ascending order, so a row's result does not depend on the rows around it, nor on which other
    columns the table holds."""
    xor, signs = table
    if a.ndim == 2 and (b.ndim == 1 or len(b) < len(a)):  # the terms, formed from b, hold every row
        b = np.broadcast_to(b, a.shape)
    bT = np.ascontiguousarray(b.T) if b.ndim == 2 else b[:, None]
    aT = (bT if a is b else np.ascontiguousarray(a.T))[:, None] if a.ndim == 2 else a[:, None, None]
    terms = bT.take(xor, axis=0)
    terms *= aT
    terms *= signs[:, :, None]
    # numpy sums the outermost axis of the C-ordered terms in plain ascending order, unless it
    # is the only axis left (then pairwise): hence accumulate for a lone output blade of a lone row
    if terms.size == len(terms):
        out = np.add.accumulate(terms, axis=0)[-1].T
    else:
        out = np.add.reduce(terms, axis=0).T
    return out if b.ndim == 2 else out[0]


@lru_cache(maxsize=None)
def algebra(p: int, q: int) -> Algebra:
    return Algebra(p, q)


class Multivector:
    """Immutable dense multivector over a fixed signature.

    Operators: ``*`` geometric product, ``^`` outer product, ``|`` left
    contraction, ``~`` reversion, ``+``/``-`` linear combination, ``/`` by a
    scalar.  Note the Python precedence caveat: ``^`` and ``|`` bind looser
    than ``+`` in Python source, so parenthesize (the expression language in
    :mod:`confga.expr` uses its own, algebra-friendly precedence).
    """

    __slots__ = ("alg", "coeffs")

    def __init__(self, alg: Algebra, coeffs, copy: bool = True):
        arr = np.asarray(coeffs, dtype=np.float64)
        if arr.shape != (alg.dim,):
            raise ValueError(f"expected {alg.dim} coefficients, got shape {arr.shape}")
        if copy:
            arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def view(cls, alg: Algebra, coeffs: np.ndarray) -> "Multivector":
        """A multivector on a read-only float64 array of shape (alg.dim,), unchecked."""
        mv = object.__new__(cls)
        object.__setattr__(mv, "alg", alg)
        object.__setattr__(mv, "coeffs", coeffs)
        return mv

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- basics ----------------------------------------------------------

    def _check_same(self, other: "Multivector") -> None:
        if self.alg is not other.alg:
            raise SignatureMismatchError(
                f"operands from Cl({self.alg.p},{self.alg.q}) and Cl({other.alg.p},{other.alg.q})"
            )

    def _coerce(self, other):
        if isinstance(other, Multivector):
            self._check_same(other)
            return other
        if isinstance(other, (int, float)):
            return self.alg.scalar(float(other))
        return None

    def coeff(self, bits: int) -> float:
        return float(self.coeffs[bits])

    def scalar_part(self) -> float:
        return float(self.coeffs[0])

    def max_abs(self) -> float:
        return float(np.abs(self.coeffs).max())

    def is_zero(self, scale: float | None = None) -> bool:
        s = self.max_abs() if scale is None else scale
        return bool(np.all(np.abs(self.coeffs) <= tolerance.threshold(s)))

    def grades(self) -> frozenset:
        """Grades carrying weight above tolerance (relative to the largest)."""
        thr = tolerance.threshold(self.max_abs())
        present = np.abs(self.coeffs) > thr
        return frozenset(self.alg.grades[present].tolist())

    def parity(self) -> str | None:
        """'even', 'odd', 'mixed', or None for a zero multivector."""
        gs = self.grades()
        if not gs:
            return None
        odd = any(g % 2 for g in gs)
        even = any(g % 2 == 0 for g in gs)
        if odd and even:
            return "mixed"
        return "odd" if odd else "even"

    # -- linear structure --------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Multivector(self.alg, self.coeffs + o.coeffs, copy=False)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Multivector(self.alg, self.coeffs - o.coeffs, copy=False)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Multivector(self.alg, o.coeffs - self.coeffs, copy=False)

    def __neg__(self):
        return Multivector(self.alg, -self.coeffs, copy=False)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self.alg, self.coeffs / float(other), copy=False)
        return NotImplemented

    # -- products ----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self.alg, self.coeffs * float(other), copy=False)
        if isinstance(other, Multivector):
            self._check_same(other)
            return Multivector(self.alg, self.alg.product("gp", self.coeffs, other.coeffs), copy=False)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self.alg, self.coeffs * float(other), copy=False)
        return NotImplemented

    def __xor__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Multivector(self.alg, self.alg.product("outer", self.coeffs, o.coeffs), copy=False)

    def __rxor__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__xor__(self)

    def __or__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Multivector(self.alg, self.alg.product("lcont", self.coeffs, o.coeffs), copy=False)

    def __ror__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__or__(self)

    # -- involutions and projections ----------------------------------------

    def __invert__(self):
        return Multivector(self.alg, self.coeffs * self.alg.reverse_signs, copy=False)

    def involute(self) -> "Multivector":
        return Multivector(self.alg, self.coeffs * self.alg.involute_signs, copy=False)

    def grade(self, k: int) -> "Multivector":
        if not 0 <= k <= self.alg.n:
            raise GradeError(f"grade {k} out of range for Cl({self.alg.p},{self.alg.q})")
        out = np.where(self.alg.grades == k, self.coeffs, 0.0)
        return Multivector(self.alg, out, copy=False)

    def dual(self) -> "Multivector":
        """A* = A * I^-1 with I the unit pseudoscalar."""
        full = self.alg.dim - 1
        i_sq = float(self.alg.sign_table[full, full])
        inv_pseudo = self.alg.blade(full, 1.0 / i_sq)
        return self * inv_pseudo

    # -- comparison / display -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.alg is other.alg and bool(np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((id(self.alg), self.coeffs.tobytes()))

    def __repr__(self) -> str:
        return format_multivector(self)


# -- module-level operations -----------------------------------------------


def scalar_product(a: Multivector, b: Multivector, what: str) -> tuple[float | None, bool]:
    """The one test that a * b is a scalar, and whether it vanishes: (s, vanishes) with
    s = <a b>_0, or None when another coefficient of a b is above
    threshold(max(|s|, max|a| max|b|)), and vanishes = |s| <= threshold(max|a| max|b|).
    A coefficient of a b that overflows is refused with a DomainError naming `what`."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = a.alg.product("gp", a.coeffs, b.coeffs)
    if not np.isfinite(m).all():
        raise DomainError(f"{what} overflows; the largest coefficient is {max(a.max_abs(), b.max_abs())!r}")
    # every a_i b_j is a term of a finite a * b, so max|a| max|b| is finite too
    scale = a.max_abs() * b.max_abs()
    s = float(m[0])
    scalar = np.abs(m[1:]).max() <= tolerance.threshold(max(abs(s), scale))
    return (s if scalar else None), abs(s) <= tolerance.threshold(scale)


def exp_special(b: Multivector) -> Multivector:
    """Exponential of a grade-2 argument whose square is a scalar.

    Three closed-form branches on s = <b*b>_0:
      s = -alpha^2:  cos(alpha) + b * sin(alpha)/alpha
      s = 0:         1 + b
      s = +alpha^2:  cosh(alpha) + b * sinh(alpha)/alpha
    """
    gs = b.grades()
    if gs and gs != frozenset({2}):
        raise NotExponentiableError(f"exp_special needs a grade-2 argument, got grades {sorted(gs)}")
    s, vanishes = scalar_product(b, b, "the square of exp's argument")
    if s is None:
        raise NotExponentiableError("argument squares to a non-scalar; no closed-form branch")
    if vanishes:
        return b.alg.scalar(1.0) + b
    alpha = math.sqrt(abs(s))
    if s < 0:
        return b.alg.scalar(math.cos(alpha)) + b * (math.sin(alpha) / alpha)
    try:
        cosh, sinh = math.cosh(alpha), math.sinh(alpha)
    except OverflowError:  # alpha above about 710
        raise DomainError(f"exp's argument is too large: cosh of sqrt(<b b>_0) = {alpha!r} overflows") from None
    with np.errstate(over="ignore", invalid="ignore"):
        rest = b * (sinh / alpha)
    if not np.isfinite(rest.coeffs).all():  # b's coefficients can be far larger than alpha
        raise DomainError(
            f"exp's argument is too large: b * sinh(alpha)/alpha overflows at alpha = sqrt(<b b>_0) = {alpha!r}"
        )
    return b.alg.scalar(cosh) + rest


# -- canonical text form -----------------------------------------------------


def format_coeff(value: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    s = repr(float(value))
    if s.endswith(".0"):
        s = s[:-2]
    return s


def format_multivector(mv: Multivector) -> str:
    """Signed-term text form, e.g. ``1 - 0.5*e12 + 2*e1+``.

    Exact zero coefficients are dropped; terms are ordered by grade then by
    generator bitset, with blade names in ascending generator order.
    """
    parts: list[str] = []
    for bits in mv.alg.blade_order:
        c = float(mv.coeffs[bits])
        if c == 0.0:
            continue
        mag = abs(c)
        if bits == 0:
            body = format_coeff(mag)
        elif mag == 1.0:
            body = mv.alg.blade_names[bits]
        else:
            body = f"{format_coeff(mag)}*{mv.alg.blade_names[bits]}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    if not parts:
        return "0"
    return " ".join(parts)
