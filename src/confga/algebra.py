"""Dense multivector arithmetic for Clifford algebras Cl(p,q) with p+q <= 8.

A basis blade is encoded as the bitset of the generators it contains, so the
geometric product of blade i and blade j always lands on blade i XOR j; the
sign (reordering swaps plus metric signs of contracted generators) is read
from a table precomputed once per signature.  Multivectors store all 2^n
coefficients densely as float64 and are immutable.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from . import tolerance
from .errors import (
    GradeError,
    NotExponentiableError,
    NotVersorError,
    NullVectorError,
    SignatureMismatchError,
    SingularVersorError,
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

        # Gather tables of the row-wise product kernel, by (product, output
        # blades): coefficient k of the product is sum_i a_i * b_(i^k) * T[i, k]
        # with T[i, k] = S[i, i^k]. Tables for a subset of output blades are
        # added on first use; there is one per subset a caller asks for.
        self._product_tables = {
            (name, None): (self.xor_table, table[idx[:, None], self.xor_table].astype(np.float64))
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
        # every accepted spelling of every blade name, digit aliases included
        spellings = [[s for s, g in self.symbol_to_gen.items() if g == k] for k in range(self.n)]
        self._bits_by_name = {"1": 0}
        for bits in range(1, self.dim):
            gens = [spellings[k] for k in range(self.n) if bits >> k & 1]
            for combo in itertools.product(*gens):
                self._bits_by_name["e" + "".join(combo)] = bits

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
        """Inverse of `blade_name`, digit aliases included; raises ValueError.

        Names are looked up in a table of every accepted spelling; only a
        name missing from it goes through the parser, which says what is
        wrong with it."""
        bits = self._bits_by_name.get(name)
        return self._parse_blade_name(name) if bits is None else bits

    def _parse_blade_name(self, name: str) -> int:
        if name == "1":
            return 0
        gens = [self.symbol_to_gen.get(ch) for ch in name[1:]]
        if name[:1] != "e" or not gens or None in gens:
            raise ValueError(f"bad blade name {name!r}")
        if any(a >= b for a, b in zip(gens, gens[1:])):
            raise ValueError(f"blade generators must be strictly ascending in {name!r}")
        return sum(1 << g for g in gens)

    # -- product kernels -----------------------------------------------------

    def product(self, kind: str, a: np.ndarray, b: np.ndarray, blades: tuple | None = None) -> np.ndarray:
        """Row-wise product kernel: coefficients of a * b ("gp"), a ^ b
        ("outer") or a | b ("lcont") for coefficient rows a, b of shape
        (dim,) or (N, dim), which broadcast against each other.

        out[..., k] = sum_i (a[..., i] * b[..., i ^ k]) * S[i, i ^ k], summed
        over i in ascending order, so a row's result does not depend on the
        rows around it. `blades` is a tuple of the output blades to compute
        (all by default), e.g. (0,) for the scalar part alone."""
        tables = self._product_tables.get((kind, blades))
        if tables is None:
            xor, signs = self._product_tables[kind, None]
            tables = self._product_tables[kind, blades] = (xor[:, list(blades)], signs[:, list(blades)])
        xor, signs = tables
        # numpy sums an axis in plain ascending order only when it is not the
        # innermost one in memory (else pairwise): hence C order for the
        # terms (take returns it, and multiplying in place keeps it), and
        # accumulate for a lone output blade
        terms = b.take(xor, axis=-1)
        if a.shape[:-1] in ((), b.shape[:-1]):
            terms *= a[..., :, None]
        else:
            terms = np.multiply(a[..., :, None], terms, order="C")
        terms *= signs
        if terms.shape[-1] == 1:
            return np.add.accumulate(terms, axis=-2)[..., -1, :]
        return np.add.reduce(terms, axis=-2)

    def left_matrix(self, coeffs: np.ndarray) -> np.ndarray:
        """Matrix L with L @ x == coeffs-of(M * X) for X with coefficients x."""
        return coeffs[self.xor_table] * self._left_signs

    def right_matrix(self, coeffs: np.ndarray) -> np.ndarray:
        """Matrix R with R @ x == coeffs-of(X * M) for X with coefficients x."""
        return coeffs[self.xor_table] * self._right_signs

    def __repr__(self) -> str:
        return f"Algebra(p={self.p}, q={self.q})"


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
        return float(np.max(np.abs(self.coeffs)))

    def is_zero(self, scale: float | None = None) -> bool:
        s = self.max_abs() if scale is None else scale
        return bool(np.all(np.abs(self.coeffs) <= tolerance.threshold(s)))

    def grades(self) -> frozenset:
        """Grades carrying weight above tolerance (relative to the largest)."""
        thr = tolerance.threshold(self.max_abs())
        present = np.abs(self.coeffs) > thr
        return frozenset(int(g) for g in np.unique(self.alg.grades[present]))

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

    def reverse(self) -> "Multivector":
        return ~self

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

    def isclose(self, other: "Multivector", scale: float | None = None) -> bool:
        self._check_same(other)
        s = max(self.max_abs(), other.max_abs()) if scale is None else scale
        return bool(np.all(np.abs(self.coeffs - other.coeffs) <= tolerance.threshold(s)))

    def __repr__(self) -> str:
        return format_multivector(self)


# -- module-level operations -----------------------------------------------


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    return a * b


def outer_product(a: Multivector, b: Multivector) -> Multivector:
    return a ^ b


def left_contraction(a: Multivector, b: Multivector) -> Multivector:
    return a | b


def grade_projection(a: Multivector, k: int) -> Multivector:
    return a.grade(k)


def reverse(a: Multivector) -> Multivector:
    return ~a


def grade_involution(a: Multivector) -> Multivector:
    return a.involute()


def dual(a: Multivector) -> Multivector:
    return a.dual()


def grade_set(a: Multivector) -> frozenset:
    return a.grades()


def vector_inverse(a: Multivector) -> Multivector:
    """Inverse a / a^2 of an invertible grade-1 vector."""
    gs = a.grades()
    if gs and gs != frozenset({1}):
        raise GradeError(f"vector_inverse needs a grade-1 vector, got grades {sorted(gs)}")
    sq = (a * a).scalar_part()
    if abs(sq) <= tolerance.threshold(a.max_abs() ** 2):
        raise NullVectorError("vector has (near-)zero square and no inverse")
    return a / sq


def versor_inverse(v: Multivector) -> Multivector:
    """Inverse ~v / <v ~v>_0 for v with scalar v ~v."""
    m = v * ~v
    s = m.scalar_part()
    off = m - m.grade(0)
    if not off.is_zero(scale=max(abs(s), m.max_abs())):
        raise NotVersorError("v * ~v is not a scalar; no versor inverse")
    if abs(s) <= tolerance.threshold(v.max_abs() ** 2):
        raise SingularVersorError("versor norm vanishes; no inverse")
    return ~v / s


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
    sq = b * b
    s = sq.scalar_part()
    scale = b.max_abs() ** 2
    if not (sq - sq.grade(0)).is_zero(scale=max(abs(s), scale)):
        raise NotExponentiableError("argument squares to a non-scalar; no closed-form branch")
    one = b.alg.scalar(1.0)
    if abs(s) <= tolerance.threshold(scale):
        return one + b
    alpha = math.sqrt(abs(s))
    if s < 0:
        return b.alg.scalar(math.cos(alpha)) + b * (math.sin(alpha) / alpha)
    return b.alg.scalar(math.cosh(alpha)) + b * (math.sinh(alpha) / alpha)


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
