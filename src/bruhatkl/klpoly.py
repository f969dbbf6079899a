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
public `KLContext.R`/`.P`, counterexample records, and the check of each
new P column, which decodes every P-value new to its context and so puts
it through the guard.  `QPolynomial`, a dense
coefficient tuple, is the type every caller sees.

The parameter x takes the two values -1 and q, the roots of
x^2 = q + (q-1)x, and is spelled as the string "-1" or "q" everywhere: in
a `KLContext`, in records and in campaign JSON.  It is substituted
eagerly, so (q-1-x) becomes the polynomial q when x = -1 and the constant
-1 when x = q.

A `KLContext` owns the memoized R- and P-tables for one choice of
(system, H, x); `get_context` keeps one per system.  Both are filled one
top element w at a time, in loops that never recurse, as Coxeter3 fills
its tables (du Cloux, Experiment. Math. 11 (2002)).  With s the smallest
left descent of w and v = sw:

* the row R(., w) over [e, w]^H comes from the row of v alone by the
  three-branch recursion; missing rows along the chain w, sw, ... are
  filled bottom-up.
* the column P(., w) over [e, w]^H comes from Deodhar's recursion with
  mu-coefficients (Deodhar, On some geometric aspects of Bruhat orderings
  II, J. Algebra 111 (1987)), in this module's x convention.  Each y of
  [e, v]^H, with p = P(y, v), adds q p to both y and sy if sy < y; p to
  both if sy > y and sy is in W^H; and, when sy is not in W^H, (1+q) p
  to y for x = -1 and nothing for x = q.  Then mu(z, v) q^((l(w)-l(z))/2)
  P(., z) is subtracted for every z of [e, v]^H with l(v) - l(z) odd,
  mu(z, v) != 0 and s descending z: sz < z, or x = -1 and sz not in W^H.
  mu(z, v) is the coefficient of q^((l(v)-l(z)-1)/2) in P(z, v).  So a
  column reads the columns of v and of those z, not the R-table.  Every
  new value must meet P(w, w) = 1 and 2 deg P(y, w) <= l(w) - l(y) - 1,
  or the fill raises `ArithmeticError`.

`verify_calculating` applies the three-branch matching recurrence that an
H-special matching M of [e, w] induces: it reads the row of M(w) from the
reference table and compares the result with the row of w on every
quotient element of the interval.  Its loop, `_calculates`, is the one
place the recurrence is evaluated; sweeps call it directly, on one pair
(u, M(u)) at a time for a dihedral [e, w] whose matchings they count
rank by rank, and a stored counterexample record is re-checked by
writing it again.
"""

from __future__ import annotations

from typing import Optional

from .coxeter import CoxeterSystem, Element, _excerpt, _low_bit, \
    format_genset
from .poset import MarkedInterval
from .matchings import is_H_special, matching_to_json

__all__ = [
    "QPolynomial",
    "ZERO",
    "ONE",
    "Q",
    "Q_MINUS_ONE",
    "KLContext",
    "get_context",
    "verify_calculating",
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


def _check_x(x) -> None:
    """Raise ValueError unless x is "-1" or "q"."""
    if x not in ("-1", "q"):
        raise ValueError("x must be '-1' or 'q'; got %s" % (
            _excerpt(x) if isinstance(x, str) else type(x).__name__))


class KLContext:
    """Memoized R- and P-tables for one (system, H, x).

    `_R[w]` is the complete row {u: R(u, w)} and `_P[w]` the complete
    column {u: P(u, w)}, u running over [e, w]^H with w itself included;
    a u missing from a row or column is not below w and reads 0.
    `_mu[w]` lists the (z, mu(z, w)) with mu(z, w) != 0 that the column
    recursion reads.  Every value is a polynomial packed as one int (see
    the module docstring); `R` and `P` decode it to a `QPolynomial`.
    Equal values are stored as one int object through the `_values`
    dict: R rows hold one entry per Bruhat pair but few distinct values,
    and without the dict the `query-f4` benchmark's peak RSS rises by
    about 13%.  P reads no R row: F4's P(e, w0) fills 309 columns.
    `_digits` maps each distinct P value to its (digit count, top
    digit), so a column's check decodes only values new to the context."""

    __slots__ = ("system", "H", "x", "_R", "_P", "_mu", "_values", "_digits",
                 "_qm1mx")

    def __init__(self, system: CoxeterSystem, H: int, x: str):
        if not 0 <= H < (1 << system.rank):
            raise ValueError("H is not a subset of the generators")
        _check_x(x)
        self.system = system
        self.H = H
        self.x = x
        self._qm1mx = _Q if x == "-1" else -1
        self._R: dict = {}
        self._P: dict = {}
        self._mu: dict = {}
        self._values: dict = {}
        self._digits: dict = {}

    def _require(self, u: Element) -> None:
        if u.system is not self.system:
            raise ValueError("element belongs to a different system")
        self.system.check_min_coset_rep(u, self.H)

    # -- R ------------------------------------------------------------

    def R(self, u: Element, w: Element) -> QPolynomial:
        self._require(u)
        self._require(w)
        return _decode(self._R_row(w).get(u, 0))

    def _R_row(self, w: Element) -> dict:
        """The row of R(., w), filled with the rows of the chain w, sw,
        ... (s the smallest left descent at each step) that are missing,
        bottom-up from an explicit list."""
        rows = self._R
        row = rows.get(w)
        if row is not None:
            return row
        sys, H, qm1mx = self.system, self.H, self._qm1mx
        intern = self._values.setdefault
        chain = []
        v = w
        while v not in rows:
            if not v.length:
                rows[v] = {v: 1}
                break
            chain.append(v)
            s = _low_bit(v.ldesc)
            v = v._lmul[s] or sys.multiply_by_generator(v, s, "left")
        for v in reversed(chain):
            # The row of v by the three-branch recursion, from the row of
            # sv alone.  [e, v] is [e, sv] together with the sz for z in
            # [e, sv] (lifting property), and an sz > z of W^H that is not
            # below sv has R(sz, v) = R(z, sv).
            s = _low_bit(v.ldesc)
            below = rows[v._lmul[s]]
            get = below.get
            row = {}
            for z, r in below.items():
                sz = z._lmul[s] or sys.multiply_by_generator(z, s, "left")
                if (z.ldesc >> s) & 1:
                    row[z] = below[sz]
                    continue
                if sz.rdesc & H:
                    res = qm1mx * r
                else:
                    r_sz = get(sz)
                    if r_sz is None:
                        row[sz] = r
                        r_sz = 0
                    res = _Q_MINUS_ONE * r + _Q * r_sz
                row[z] = intern(res, res)
            rows[v] = row
        return rows[w]

    # -- P ------------------------------------------------------------

    def P(self, u: Element, w: Element) -> QPolynomial:
        self._require(u)
        self._require(w)
        return _decode(self._P_column(w).get(u, 0))

    def _P_column(self, w: Element) -> dict:
        """The column of P(., w), with the columns it reads: that of
        v = sw (s the smallest left descent of w) and those of the z with
        mu(z, v) != 0 that s descends.  Missing columns are pushed on an
        explicit stack and filled once everything they read is known."""
        cols = self._P
        col = cols.get(w)
        if col is not None:
            return col
        sys, H, mus = self.system, self.H, self._mu
        minus_one = self.x == "-1"
        stack = [w]
        while stack:
            top = stack[-1]
            if top in cols:
                stack.pop()
                continue
            if not top.length:
                cols[top], mus[top] = {top: 1}, ()
                stack.pop()
                continue
            s = _low_bit(top.ldesc)
            v = top._lmul[s] or sys.multiply_by_generator(top, s, "left")
            below = cols.get(v)
            if below is None:
                stack.append(v)
                continue
            # the z of [e, v]^H with mu(z, v) != 0 that s descends: sz < z,
            # or, for x = -1, sz outside W^H
            terms = []
            for z, mu in mus[v]:
                if not (z.ldesc >> s) & 1:
                    if not minus_one:
                        continue
                    sz = z._lmul[s] or sys.multiply_by_generator(z, s, "left")
                    if not sz.rdesc & H:
                        continue
                terms.append((z, mu))
            missing = [z for z, _ in terms if z not in cols]
            if missing:
                stack += missing
                continue
            stack.pop()
            acc = dict.fromkeys(below, 0)
            for y, p in below.items():
                sy = y._lmul[s] or sys.multiply_by_generator(y, s, "left")
                if (y.ldesc >> s) & 1:
                    p *= _Q
                    acc[y] += p
                    acc[sy] += p
                elif not sy.rdesc & H:
                    acc[y] += p
                    acc[sy] = acc.get(sy, 0) + p
                elif minus_one:  # sy is not in W^H; for x = q, add nothing
                    acc[y] += p + p * _Q
            for z, mu in terms:
                shift = _K * ((top.length - z.length) >> 1)
                for y, p in cols[z].items():
                    acc[y] -= mu * p << shift
            cols[top] = self._checked(acc, top)
        return cols[w]

    def _checked(self, acc: dict, w: Element) -> dict:
        """acc as the column of w, its values interned, once each has
        passed the decoder's guard and the degree bound P(w, w) = 1,
        2 deg P(y, w) <= l(w) - l(y) - 1; records the mu(y, w) != 0.
        A value the guard refuses never enters `_digits`, so it is
        refused wherever it is met."""
        intern = self._values.setdefault
        known = self._digits
        n = w.length
        mu = []
        for y, p in acc.items():
            d = n - y.length
            if not d:
                if p != 1:
                    raise ArithmeticError(
                        "P(%s, %s) is not 1" % (y.label_str(), w.label_str()))
                continue
            got = known.get(p)
            if got is None:
                digits = _unpack(p)
                got = known[p] = (len(digits), digits[-1] if digits else 0)
            count, top = got
            if 2 * count > d + 1:
                raise ArithmeticError(
                    "P(%s, %s) = %s breaks the degree bound"
                    % (y.label_str(), w.label_str(), _decode(p)))
            if 2 * count == d + 1:
                mu.append((y, top))
            acc[y] = intern(p, p)
        self._mu[w] = mu
        return acc


def get_context(sys: CoxeterSystem, H: int, x: str) -> KLContext:
    """The shared memoized context registered on the system."""
    key = (H, x)
    ctx = sys._kl_contexts.get(key)
    if ctx is None:
        ctx = KLContext(sys, H, x)
        sys._kl_contexts[key] = ctx
    return ctx


def verify_calculating(marked: MarkedInterval, x: str, M: tuple[int, ...],
                       table: Optional[KLContext] = None
                       ) -> tuple[bool, Optional[dict]]:
    """Whether the matching recurrence of the pairing M reproduces the
    reference R-polynomials on every quotient element of the interval.
    Returns (True, None) or (False, the JSON-ready counterexample record
    of the first quotient element where they differ)."""
    iv = marked.interval
    if iv.bottom is not iv.system.identity:
        raise ValueError("matching recurrences apply to lower intervals")
    if table is None:
        table = get_context(iv.system, marked.H, x)
    elif table.system is not iv.system or table.H != marked.H \
            or table.x != x:
        raise ValueError("reference table does not match (system, H, x)")
    iv.system.check_min_coset_rep(iv.top, marked.H)
    if not is_H_special(marked, M):
        raise ValueError("matching is not H-special; the recurrence "
                         "branches are undefined")
    return _matching_calculates(marked, M, table)


def _matching_calculates(marked: MarkedInterval, M: tuple[int, ...],
                         table: KLContext) -> tuple[bool, Optional[dict]]:
    """The result of `verify_calculating`, for inputs that are already
    known to pass its checks: `_calculates` over M's steps (u, M(u)), in
    id order.  The record needs nothing but the system to be re-checked
    (`invariance.reverify_counterexample`)."""
    # the top element has the last id
    failed = _calculates(marked, table, M[-1], enumerate(M))
    if failed is None:
        return True, None
    u_id, got = failed
    iv = marked.interval
    u = iv.elements[u_id]
    return False, {
        "u": u.label_str(),
        "w": iv.top.label_str(),
        "H": format_genset(iv.system, marked.H),
        "x": table.x,
        "matching": matching_to_json(M),
        "via_matching": _decode(got).to_json(),
        "reference": _decode(table._R_row(iv.top)[u]).to_json(),
    }


def _calculates(marked: MarkedInterval, table: KLContext, top_id: int,
                steps) -> Optional[tuple[int, int]]:
    """The three-branch matching recurrence at each (u id, M(u) id) of
    `steps` with u in W^H, read from the row of the element with id
    `top_id`, M(w), against the row of the top element w.  Returns the
    first (u id, packed value) where the two differ, or None.  The one
    place the recurrence is evaluated."""
    iv = marked.interval
    els, marks = iv.elements, marked.marks
    row = table._R_row(iv.top)
    below = table._R_row(els[top_id])
    get = below.get
    qm1mx = table._qm1mx
    for u_id, m_id in steps:
        if not marks[u_id]:
            continue
        u, Mu = els[u_id], els[m_id]
        if m_id < u_id:  # ids are sorted by rank: M moves u down
            got = below[Mu]
        elif marks[m_id]:
            got = _Q_MINUS_ONE * get(u, 0) + _Q * get(Mu, 0)
        else:
            got = qm1mx * get(u, 0)
        if got != row[u]:
            return u_id, got
    return None
