"""Exact ordinary and parabolic Kazhdan--Lusztig R- and P-polynomials.

Everything is integer arithmetic on dense coefficient tuples.  The
parameter x takes the two values -1 and q; it is substituted eagerly, so
(q-1-x) becomes the polynomial q when x = -1 and the constant -1 when
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

    def reversed_to_degree(self, n: int) -> "QPolynomial":
        """q^n * p(1/q); requires deg(p) <= n."""
        if not self.coeffs:
            return ZERO
        if self.degree > n:
            raise ValueError("degree %d exceeds reversal exponent %d"
                             % (self.degree, n))
        out = [0] * (n + 1)
        for i, v in enumerate(self.coeffs):
            out[n - i] = v
        return QPolynomial(out)

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

    @property
    def q_minus_1_minus_x(self) -> QPolynomial:
        """The factor (q-1-x) after substitution: q for x=-1, -1 for x=q."""
        return Q if self is XParam.MINUS_ONE else QPolynomial((-1,))


class KLContext:
    """Memoized R- and P-tables for one (system, H, x).

    Each table maps a top element w to a row {u: value}.  Rows hold only
    computed values: u = w and u not below w are answered from the Bruhat
    memo and never stored, and equal polynomials are stored as one object
    through the context's `coeffs -> QPolynomial` dict."""

    __slots__ = ("system", "H", "x", "_R", "_P", "_values", "_qm1mx")

    def __init__(self, system: CoxeterSystem, H: int, x):
        if not 0 <= H < (1 << system.rank):
            raise ValueError("H is not a subset of the generators")
        self.system = system
        self.H = H
        self.x = XParam.parse(x)
        self._qm1mx = self.x.q_minus_1_minus_x
        self._R: defaultdict = defaultdict(dict)
        self._P: defaultdict = defaultdict(dict)
        self._values: dict = {}

    def _require(self, u: Element) -> None:
        if u.system is not self.system:
            raise ValueError("element belongs to a different system")
        bad = u.rdesc & self.H
        if bad:
            raise QuotientMembershipError(u, self.H, _low_bit(bad))

    def _store(self, row: dict, u: Element, value: QPolynomial
               ) -> QPolynomial:
        value = self._values.setdefault(value.coeffs, value)
        row[u] = value
        return value

    # -- R ------------------------------------------------------------

    def R(self, u: Element, w: Element) -> QPolynomial:
        self._require(u)
        self._require(w)
        return self._R_rec(u, w)

    def _R_rec(self, u: Element, w: Element) -> QPolynomial:
        if u is w:
            return ONE
        row = self._R[w]
        hit = row.get(u)
        if hit is not None:
            return hit
        sys = self.system
        if not sys.bruhat_leq(u, w):
            return ZERO
        s = _low_bit(w.ldesc)
        sw = sys.multiply_by_generator(w, s, "left")
        assert (sw.rdesc & self.H) == 0
        su = sys.multiply_by_generator(u, s, "left")
        if (u.ldesc >> s) & 1:
            res = self._R_rec(su, sw)
        elif (su.rdesc & self.H) == 0:
            res = Q_MINUS_ONE * self._R_rec(u, sw) \
                + Q * self._R_rec(su, sw)
        else:
            res = self._qm1mx * self._R_rec(u, sw)
        return self._store(row, u, res)

    # -- P ------------------------------------------------------------

    def P(self, u: Element, w: Element) -> QPolynomial:
        self._require(u)
        self._require(w)
        return self._P_rec(u, w)

    def _P_rec(self, u: Element, w: Element) -> QPolynomial:
        if u is w:
            return ONE
        row = self._P[w]
        hit = row.get(u)
        if hit is not None:
            return hit
        if not self.system.bruhat_leq(u, w):
            return ZERO
        iv = build_lower_interval(self.system, w)
        iu = iv.id_of(u)
        n = w.length - u.length
        acc = ZERO
        mask = iv.above[iu] & ~(1 << iu)
        while mask:
            low = mask & -mask
            mask ^= low
            z = iv.elements[low.bit_length() - 1]
            if z.rdesc & self.H:
                continue
            p_zw = self._P_rec(z, w)
            if p_zw:
                acc = acc + self._R_rec(u, z) * p_zw
        return self._store(row, u, self._extract_P(acc, n, u, w))

    def _extract_P(self, acc: QPolynomial, n: int, u: Element,
                   w: Element) -> QPolynomial:
        # acc = q^n P(1/q) - P with deg(P) <= (n-1)//2, so the top half of
        # acc determines P and the bottom half must re-substitute exactly
        res = QPolynomial([acc.coeff(n - i) for i in range((n - 1) // 2 + 1)])
        if res.reversed_to_degree(n) - res != acc:
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


def _formula_step(marked: MarkedInterval, x: XParam, M: Matching,
                  u_id: int, table: KLContext) -> QPolynomial:
    iv = marked.interval
    top_id = len(iv.elements) - 1
    u = iv.elements[u_id]
    Mw = iv.elements[M.pairing[top_id]]
    Mu = iv.elements[M.pairing[u_id]]
    if M.moves_down(u_id):
        return table._R_rec(Mu, Mw)
    if marked.marks[M.pairing[u_id]]:
        return Q_MINUS_ONE * table._R_rec(u, Mw) + Q * table._R_rec(Mu, Mw)
    return x.q_minus_1_minus_x * table._R_rec(u, Mw)


def _check_step_inputs(marked: MarkedInterval, x, M: Matching,
                       table: KLContext) -> XParam:
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
    return x


def R_step_via_matching(marked: MarkedInterval, x, M: Matching, u: Element,
                        table: KLContext) -> QPolynomial:
    """One application of the three-branch matching recurrence for
    R-polynomials: the value at (u, top) from reference values at the
    matched-down top element."""
    x = _check_step_inputs(marked, x, M, table)
    iv = marked.interval
    u_id = iv.id_of(u)
    if not marked.marks[u_id]:
        raise QuotientMembershipError(
            u, marked.H, _low_bit(u.rdesc & marked.H))
    return _formula_step(marked, x, M, u_id, table)


def verify_calculating(marked: MarkedInterval, x, M: Matching,
                       table: Optional[KLContext] = None
                       ) -> tuple[bool, Optional[dict]]:
    """Whether the matching recurrence reproduces the reference
    R-polynomials on every quotient element of the interval.  Returns
    (True, None) or (False, first counterexample record)."""
    iv = marked.interval
    if table is None:
        table = get_context(iv.system, marked.H, x)
    x = _check_step_inputs(marked, x, M, table)
    top = iv.top
    for u_id, is_marked in enumerate(marked.marks):
        if not is_marked:
            continue
        got = _formula_step(marked, x, M, u_id, table)
        want = table._R_rec(iv.elements[u_id], top)
        if got != want:
            return False, {
                "u": iv.elements[u_id],
                "w": top,
                "H": marked.H,
                "x": x.value,
                "matching": M,
                "via_matching": got,
                "reference": want,
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
