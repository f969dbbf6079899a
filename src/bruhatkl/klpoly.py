"""Exact ordinary and parabolic Kazhdan--Lusztig R- and P-polynomials.

The memoized tables hold every polynomial p as one Python int, p(2^K)
with K = 64 (Kronecker substitution; Harvey, J. Symbolic Comput. 44
(2009)).  Evaluation at 2^K is a ring homomorphism Z[q] -> Z, so sums,
differences and products are exact single int operations, and so are
equality and the zero test.  Coefficients are signed base-2^K digits;
`_unpack` recovers them uniquely while each lies in (-2^(K-1), 2^(K-1))
and raises `ArithmeticError` as soon as a digit reaches 2^(K-2), so a
value near the limit is refused rather than decoded wrongly.  The R
recurrence bounds every coefficient of an R-value with length difference
d by the Pell number P(d+1), which is below 2^62 for d <= 48; the largest
coefficient seen in F4 is 114.  Values are decoded only at the edges: the
public `KLContext.R`/`.P`, `R_step_via_matching`, counterexample records,
and the P extraction, which reads the coefficients of its accumulated sum
and so puts every P-value through the guard.  `QPolynomial`, a dense
coefficient tuple, is the type every caller sees.

The parameter x takes the two values -1 and q; it is substituted eagerly,
so (q-1-x) becomes the polynomial q when x = -1 and the constant -1 when
x = q.

A `KLContext` owns the memoized R- and P-tables for one choice of
(system, H, x); `get_context` keeps one per system.  R follows the
three-branch recursion on the smallest left descent of the top element;
P is solved by descending induction from the top element, extracting the
unknown polynomial from the reversal identity under the degree bound and
re-substituting as a consistency check.

`R_step_via_matching` applies the three-branch matching recurrence that an
H-special matching of [e,w] induces, reading sub-interval values from a
reference table; `verify_calculating` compares it against the table on
every quotient element of the interval.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from typing import Optional

from .coxeter import (
    CoxeterSystem,
    Element,
    QuotientMembershipError,
    _low_bit,
)
from .poset import MarkedInterval, build_lower_interval
from .matchings import Matching, is_H_special

__all__ = [
    "QPolynomial",
    "ZERO",
    "ONE",
    "Q",
    "Q_MINUS_ONE",
    "XParam",
    "KLContext",
    "get_context",
    "R_step_via_matching",
    "verify_calculating",
    "deodhar_identity_check",
]


class QPolynomial:
    """Immutable polynomial in q with exact integer coefficients, stored
    densely from the constant term up, trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        for v in c:
            if not isinstance(v, int):
                raise TypeError("coefficients must be ints, got %r" % (v,))
        self.coeffs = tuple(c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return QPolynomial(out)

    def __neg__(self) -> "QPolynomial":
        return QPolynomial(tuple(-v for v in self.coeffs))

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return QPolynomial(tuple(v * other for v in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, va in enumerate(a):
            for j, vb in enumerate(b):
                out[i + j] += va * vb
        return QPolynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.coeffs == (QPolynomial((other,)).coeffs)
        return isinstance(other, QPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                body = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                body = "%sq" % mag if i == 1 else "%sq^%d" % (mag, i)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return "QPolynomial(%r)" % (self.coeffs,)

    def to_json(self) -> dict:
        return {"coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, data: dict) -> "QPolynomial":
        return cls(data["coeffs"])


ZERO = QPolynomial()
ONE = QPolynomial((1,))
Q = QPolynomial((0, 1))
Q_MINUS_ONE = QPolynomial((-1, 1))

_K = 64
_Q = 1 << _K            # q, packed
_Q_MINUS_ONE = _Q - 1   # q - 1, packed


def _pack(coeffs) -> int:
    """p(2^K) for the coefficient list of p, constant term first."""
    n = 0
    for c in reversed(coeffs):
        n = (n << _K) + c
    return n


_HALF, _GUARD, _MASK = 1 << (_K - 1), 1 << (_K - 2), _Q - 1


def _unpack(n: int) -> list:
    """The signed base-2^K digits of n, constant term first; raises
    ArithmeticError on a digit of magnitude 2^(K-2) or more, where the
    decoding is about to become ambiguous."""
    out = []
    while n:
        d = n & _MASK
        if d >= _HALF:
            d -= _Q
        if not -_GUARD < d < _GUARD:
            raise ArithmeticError(
                "coefficient %d is too large for %d-bit packed digits"
                % (d, _K))
        out.append(d)
        n = (n - d) >> _K
    return out


def _decode(n: int) -> QPolynomial:
    return QPolynomial(_unpack(n))


class XParam(enum.Enum):
    """The two admissible values of the parameter x, the roots of
    x^2 = q + (q-1)x."""

    MINUS_ONE = "-1"
    Q = "q"

    @classmethod
    def parse(cls, value) -> "XParam":
        if isinstance(value, XParam):
            return value
        return cls(str(value))


class KLContext:
    """Memoized R- and P-tables for one (system, H, x).

    Each table maps a top element w to a row {u: value}, every value a
    polynomial packed as one int (see the module docstring); `R` and `P`
    decode it to a `QPolynomial`.  Rows hold only computed values: u = w
    and u not below w are never stored.
    Equal values are stored as one int object through the `_values`
    dict: F4's P(e, w0) fills 395,657 R entries with 436 distinct values
    of about 110 bytes each, and without the dict the `query-f4`
    benchmark's peak RSS rises by about 13%."""

    __slots__ = ("system", "H", "x", "_R", "_P", "_values", "_qm1mx")

    def __init__(self, system: CoxeterSystem, H: int, x):
        if not 0 <= H < (1 << system.rank):
            raise ValueError("H is not a subset of the generators")
        self.system = system
        self.H = H
        self.x = XParam.parse(x)
        self._qm1mx = _Q if self.x is XParam.MINUS_ONE else -1
        self._R: defaultdict = defaultdict(dict)
        self._P: defaultdict = defaultdict(dict)
        self._values: dict = {}

    def _require(self, u: Element) -> None:
        if u.system is not self.system:
            raise ValueError("element belongs to a different system")
        bad = u.rdesc & self.H
        if bad:
            raise QuotientMembershipError(u, self.H, _low_bit(bad))

    def _store(self, row: dict, u: Element, value: int) -> int:
        value = self._values.setdefault(value, value)
        row[u] = value
        return value

    # -- R ------------------------------------------------------------

    def R(self, u: Element, w: Element) -> QPolynomial:
        self._require(u)
        self._require(w)
        return _decode(self._R_rec(u, w))

    def _R_rec(self, u: Element, w: Element) -> int:
        if u is w:
            return 1
        row = self._R[w]
        hit = row.get(u)
        if hit is not None:
            return hit
        sys = self.system
        if not sys.bruhat_leq(u, w):
            return 0
        s = _low_bit(w.ldesc)
        sw = w._lmul[s] or sys.multiply_by_generator(w, s, "left")
        assert (sw.rdesc & self.H) == 0
        su = u._lmul[s] or sys.multiply_by_generator(u, s, "left")
        if (u.ldesc >> s) & 1:
            res = self._R_rec(su, sw)
        elif (su.rdesc & self.H) == 0:
            res = _Q_MINUS_ONE * self._R_rec(u, sw) \
                + _Q * self._R_rec(su, sw)
        else:
            res = self._qm1mx * self._R_rec(u, sw)
        return self._store(row, u, res)

    # -- P ------------------------------------------------------------

    def P(self, u: Element, w: Element) -> QPolynomial:
        self._require(u)
        self._require(w)
        return _decode(self._P_rec(u, w))

    def _P_rec(self, u: Element, w: Element) -> int:
        if u is w:
            return 1
        row = self._P[w]
        hit = row.get(u)
        if hit is not None:
            return hit
        if not self.system.bruhat_leq(u, w):
            return 0
        iv = build_lower_interval(self.system, w)
        iu = iv.id_of(u)
        n = w.length - u.length
        acc = 0
        mask = iv.above[iu] & ~(1 << iu)
        while mask:
            low = mask & -mask
            mask ^= low
            z = iv.elements[low.bit_length() - 1]
            if z.rdesc & self.H:
                continue
            p_zw = self._P_rec(z, w)
            if p_zw:
                acc += self._R_rec(u, z) * p_zw
        return self._store(row, u, self._extract_P(acc, n, u, w))

    def _extract_P(self, acc: int, n: int, u: Element, w: Element) -> int:
        # acc = q^n P(1/q) - P with deg(P) <= m = (n-1)//2, so the top half
        # of acc determines P and the bottom half must re-substitute exactly
        digits = _unpack(acc)
        m = (n - 1) // 2
        top = [digits[n - i] if n - i < len(digits) else 0
               for i in range(m + 1)]
        res = _pack(top)
        if (_pack(top[::-1]) << (_K * (n - m))) - res != acc:
            raise ArithmeticError(
                "no polynomial satisfies the defining identity for "
                "(%s, %s); the degree-bound extraction is inconsistent"
                % (u.label_str(), w.label_str()))
        return res


def get_context(sys: CoxeterSystem, H: int, x) -> KLContext:
    """The shared memoized context registered on the system."""
    key = (H, XParam.parse(x))
    ctx = sys._kl_contexts.get(key)
    if ctx is None:
        ctx = KLContext(sys, H, x)
        sys._kl_contexts[key] = ctx
    return ctx


def _formula_step(marked: MarkedInterval, M: Matching, u_id: int,
                  table: KLContext) -> int:
    els, pairing = marked.interval.elements, M.pairing
    u = els[u_id]
    Mu = els[pairing[u_id]]
    Mw = els[pairing[-1]]   # the top element has the last id
    if Mu.length < u.length:
        return table._R_rec(Mu, Mw)
    if marked.marks[pairing[u_id]]:
        return _Q_MINUS_ONE * table._R_rec(u, Mw) + _Q * table._R_rec(Mu, Mw)
    return table._qm1mx * table._R_rec(u, Mw)


def _check_step_inputs(marked: MarkedInterval, x, M: Matching,
                       table: KLContext) -> None:
    iv = marked.interval
    if M.interval is not iv:
        raise ValueError("matching belongs to a different interval")
    if iv.bottom is not iv.system.identity:
        raise ValueError("matching recurrences apply to lower intervals")
    x = XParam.parse(x)
    if table.system is not iv.system or table.H != marked.H \
            or table.x is not x:
        raise ValueError("reference table does not match (system, H, x)")
    top_id = len(iv.elements) - 1
    if not marked.marks[top_id]:
        raise QuotientMembershipError(
            iv.top, marked.H, _low_bit(iv.top.rdesc & marked.H))
    if not is_H_special(marked, M):
        raise ValueError("matching is not H-special; the recurrence "
                         "branches are undefined")


def R_step_via_matching(marked: MarkedInterval, x, M: Matching, u: Element,
                        table: KLContext) -> QPolynomial:
    """One application of the three-branch matching recurrence for
    R-polynomials: the value at (u, top) from reference values at the
    matched-down top element."""
    _check_step_inputs(marked, x, M, table)
    iv = marked.interval
    u_id = iv.id_of(u)
    if not marked.marks[u_id]:
        raise QuotientMembershipError(
            u, marked.H, _low_bit(u.rdesc & marked.H))
    return _decode(_formula_step(marked, M, u_id, table))


def verify_calculating(marked: MarkedInterval, x, M: Matching,
                       table: Optional[KLContext] = None
                       ) -> tuple[bool, Optional[dict]]:
    """Whether the matching recurrence reproduces the reference
    R-polynomials on every quotient element of the interval.  Returns
    (True, None) or (False, first counterexample record)."""
    iv = marked.interval
    if table is None:
        table = get_context(iv.system, marked.H, x)
    _check_step_inputs(marked, x, M, table)
    return _calculates(marked, M, table)


def _calculates(marked: MarkedInterval, M: Matching, table: KLContext
                ) -> tuple[bool, Optional[dict]]:
    """The comparison loop of `verify_calculating`, for inputs that are
    already known to pass its checks."""
    iv = marked.interval
    top = iv.top
    for u_id, is_marked in enumerate(marked.marks):
        if not is_marked:
            continue
        got = _formula_step(marked, M, u_id, table)
        want = table._R_rec(iv.elements[u_id], top)
        if got != want:
            return False, {
                "u": iv.elements[u_id],
                "w": top,
                "H": marked.H,
                "x": table.x.value,
                "matching": M,
                "via_matching": _decode(got),
                "reference": _decode(want),
            }
    return True, None


def deodhar_identity_check(sys: CoxeterSystem, H: int, u: Element,
                           v: Element) -> bool:
    """Both translations between parabolic and ordinary P-polynomials:
    the alternating sum over W_H for the x=q family, and the longest-
    element shift for the x=-1 family (W_H must be finite)."""
    ctx_q = get_context(sys, H, XParam.Q)
    ctx_m = get_context(sys, H, XParam.MINUS_ONE)
    ordinary = get_context(sys, 0, XParam.MINUS_ONE)
    ctx_q._require(u)
    ctx_q._require(v)
    alt = ZERO
    for wh in sys.parabolic_group(H):
        term = ordinary.P(sys.multiply(u, wh), v)
        alt = alt + (term * (-1 if wh.length % 2 else 1))
    if ctx_q.P(u, v) != alt:
        return False
    w0 = sys.longest_element_of_parabolic(H)
    shifted = ordinary.P(sys.multiply(u, w0), sys.multiply(v, w0))
    return ctx_m.P(u, v) == shifted
