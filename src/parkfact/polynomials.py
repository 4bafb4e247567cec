"""Exact sparse polynomials in q and t with integer coefficients.

Every enumerator in the library is a value of this module.  Coefficients
are Python ints, so counts of order (n+1)^(n-1) can never overflow, and
the zero polynomial is simply the empty term mapping.
"""

from __future__ import annotations

import math
from itertools import zip_longest
from typing import Iterable, Mapping, Union

ExponentPair = tuple[int, int]
TermItems = Union[Mapping[ExponentPair, int], Iterable[tuple[ExponentPair, int]]]


class BivariatePoly:
    """Immutable sparse element of Z[q, t].

    Terms map an exponent pair (e_q, e_t) to a nonzero integer
    coefficient.  The canonical term order, used by every serialization,
    is ascending e_q then ascending e_t.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: TermItems = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[ExponentPair, int] = {}
        for (eq, et), coeff in items:
            if eq < 0 or et < 0:
                raise ValueError(f"negative exponent pair ({eq}, {et})")
            key = (int(eq), int(et))
            c = acc.get(key, 0) + int(coeff)
            if c:
                acc[key] = c
            else:
                acc.pop(key, None)
        self._terms = acc

    # ------------------------------------------------------------- basics

    @classmethod
    def zero(cls) -> "BivariatePoly":
        return cls()

    @classmethod
    def one(cls) -> "BivariatePoly":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, coeff: int, e_q: int = 0, e_t: int = 0) -> "BivariatePoly":
        return cls({(e_q, e_t): coeff})

    @classmethod
    def var_q(cls) -> "BivariatePoly":
        return cls({(1, 0): 1})

    @classmethod
    def var_t(cls) -> "BivariatePoly":
        return cls({(0, 1): 1})

    def terms(self) -> list[tuple[ExponentPair, int]]:
        """Terms in canonical order (ascending e_q, then e_t)."""
        return sorted(self._terms.items())

    def coefficient(self, e_q: int, e_t: int) -> int:
        return self._terms.get((e_q, e_t), 0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def degree(self) -> int:
        """Max total degree e_q + e_t.  Undefined (an error) for zero."""
        if not self._terms:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(eq + et for eq, et in self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BivariatePoly):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({} if other == 0 else {(0, 0): other})
        return NotImplemented

    def __hash__(self) -> int:
        if self._terms.keys() <= {(0, 0)}:  # a constant hashes like its int
            return hash(self._terms.get((0, 0), 0))
        return hash(frozenset(self._terms.items()))

    # --------------------------------------------------------- arithmetic

    @staticmethod
    def _coerce(value) -> "BivariatePoly | None":
        if isinstance(value, BivariatePoly):
            return value
        if isinstance(value, int):
            return BivariatePoly({(0, 0): value})
        return None

    def __add__(self, other) -> "BivariatePoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc = dict(self._terms)
        for key, c in o._terms.items():
            s = acc.get(key, 0) + c
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
        out = BivariatePoly.__new__(BivariatePoly)
        out._terms = acc
        return out

    __radd__ = __add__

    def __neg__(self) -> "BivariatePoly":
        out = BivariatePoly.__new__(BivariatePoly)
        out._terms = {k: -c for k, c in self._terms.items()}
        return out

    def __sub__(self, other) -> "BivariatePoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "BivariatePoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "BivariatePoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc: dict[ExponentPair, int] = {}
        for (aq, at), ac in self._terms.items():
            for (bq, bt), bc in o._terms.items():
                key = (aq + bq, at + bt)
                s = acc.get(key, 0) + ac * bc
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        out = BivariatePoly.__new__(BivariatePoly)
        out._terms = acc
        return out

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "BivariatePoly":
        if exponent < 0:
            raise ValueError("negative powers are not supported")
        result = BivariatePoly.one()
        for _ in range(exponent):
            result = result * self
        return result

    # ------------------------------------------------------ substitutions

    def eval(self, q_value: int, t_value: int) -> int:
        return sum(
            c * q_value**eq * t_value**et for (eq, et), c in self._terms.items()
        )

    def at_q(self, value: int) -> "BivariatePoly":
        """Substitute q = value, leaving a polynomial in t."""
        return BivariatePoly(
            ((0, et), c * value**eq) for (eq, et), c in self._terms.items()
        )

    def at_t(self, value: int) -> "BivariatePoly":
        """Substitute t = value, leaving a polynomial in q."""
        return BivariatePoly(
            ((eq, 0), c * value**et) for (eq, et), c in self._terms.items()
        )

    def diagonal(self) -> "BivariatePoly":
        """Substitute t = q (result stored with e_t = 0)."""
        return BivariatePoly(
            ((eq + et, 0), c) for (eq, et), c in self._terms.items()
        )

    def swap_qt(self) -> "BivariatePoly":
        return BivariatePoly(((et, eq), c) for (eq, et), c in self._terms.items())

    def shift_t(self, k: int) -> "BivariatePoly":
        """Multiply by t**k."""
        return BivariatePoly(((eq, et + k), c) for (eq, et), c in self._terms.items())

    def divide_t(self, k: int) -> "BivariatePoly":
        """Divide by t**k; every term must carry at least t**k."""
        if any(et < k for _, et in self._terms):
            raise ValueError(f"polynomial is not divisible by t^{k}")
        return BivariatePoly(((eq, et - k), c) for (eq, et), c in self._terms.items())

    # -------------------------------------------------------------- text

    @staticmethod
    def _format_term(eq: int, et: int, coeff: int) -> str:
        parts = []
        if eq == 1:
            parts.append("q")
        elif eq > 1:
            parts.append(f"q^{eq}")
        if et == 1:
            parts.append("t")
        elif et > 1:
            parts.append(f"t^{et}")
        mag = abs(coeff)
        if mag != 1 or not parts:
            parts.insert(0, str(mag))
        return "*".join(parts)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for (eq, et), c in self.terms():
            body = self._format_term(eq, et, c)
            if not pieces:
                pieces.append("-" + body if c < 0 else body)
            else:
                pieces.append(("- " if c < 0 else "+ ") + body)
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"BivariatePoly({self!s})"

    # -------------------------------------------------------------- json

    def to_json_terms(self) -> list[dict]:
        """Canonically ordered [{"q": e_q, "t": e_t, "c": "<int>"}]."""
        return [{"q": eq, "t": et, "c": str(c)} for (eq, et), c in self.terms()]


# ----------------------------------------------------------------- families


def qt_bracket(n: int) -> BivariatePoly:
    """t^(n-1) + t^(n-2) q + ... + q^(n-1): n terms, unit coefficients."""
    if n < 1:
        raise ValueError("qt_bracket requires n >= 1")
    return BivariatePoly(((j, n - 1 - j), 1) for j in range(n))


def qt_factorial_product(n: int) -> BivariatePoly:
    """t^n times the product of qt_bracket(1) .. qt_bracket(n).

    Realizes the factorial-like product of (t^i - q^i)/(t - q) factors
    without any polynomial division.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    result = BivariatePoly.monomial(1, 0, n)
    for i in range(1, n + 1):
        result = result * qt_bracket(i)
    return result


def catalan_qt(n: int) -> BivariatePoly:
    """Two-variable Catalan polynomial C_n(q,t).

    C_0 = 1 and C_n = sum over k of q^k t^(n-k-1) C_k C_(n-k-1); at
    q = t = 1 this is the n-th Catalan number.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    series = [BivariatePoly.one()]
    for m in range(1, n + 1):
        total = BivariatePoly.zero()
        for k in range(m):
            total = total + (
                BivariatePoly.monomial(1, k, m - k - 1) * series[k] * series[m - k - 1]
            )
        series.append(total)
    return series[n]


def catalan_number(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def tree_recursion_I(n_max: int) -> list[BivariatePoly]:
    """I_0 .. I_n_max computed purely by the convolution recursion.

    I_(n+1) = sum over i of binom(n,i) * t * qt_bracket(i+1) * I_i * I_(n-i),
    with I_0 = 1.  The terms for i and n-i share binom(n,i) * I_i * I_(n-i),
    so each pair costs one large product, and the small bracket factor is
    multiplied in last.  No object enumeration happens here; the trees
    module recomputes the same polynomials by brute force as a cross-check.

    Inside, each I_k is a list of q-rows, and row e holds the coefficient
    of q^e t^j in bits [j*W, (j+1)*W) of one int, so a product is rows x
    rows big-int multiplications and a factor t is a shift by W.  Every
    coefficient met on the way, in a product, a partial sum or I_k itself,
    is a nonnegative part of a coefficient of some I_k with k <= n_max, so
    it is at most (n_max+1)^(n_max-1), the number of trees on n_max + 1
    vertices.  W is that bound's bit length plus one spare bit, so no slot
    ever carries into the next, and unpacking at the return is exact.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    width = ((n_max + 1) ** max(n_max - 1, 0)).bit_length() + 1
    series = [[1]]
    for n in range(n_max):
        total: list[int] = []
        for i in range(n // 2 + 1):
            pair = _t_bracket_rows(i + 1, width)
            if 2 * i < n:
                pair = _add_rows(pair, _t_bracket_rows(n - i + 1, width))
            c = math.comb(n, i)
            term = _mul_rows(_mul_rows(series[i], series[n - i]), [c * r for r in pair])
            total = _add_rows(total, term)
        series.append(total)
    return [_unpack_rows(rows, width) for rows in series]


def _t_bracket_rows(k: int, width: int) -> list[int]:
    """t * qt_bracket(k) as packed q-rows: row j is t^(k-j)."""
    return [1 << width * (k - j) for j in range(k)]


def _add_rows(a: list[int], b: list[int]) -> list[int]:
    return [x + y for x, y in zip_longest(a, b, fillvalue=0)]


def _mul_rows(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _unpack_rows(rows: list[int], width: int) -> BivariatePoly:
    mask = (1 << width) - 1
    terms = []
    for eq, row in enumerate(rows):
        et = 0
        while row:
            if row & mask:
                terms.append(((eq, et), row & mask))
            row >>= width
            et += 1
    return BivariatePoly(terms)
