"""Exact arithmetic for Coxeter systems of doubly laced and dihedral type.

Systems of rank >= 3 must have all bond orders m(s,s') in {2, 3, 4}
("doubly laced").  They act faithfully on an integer root lattice through
a generalized Cartan matrix A, with no floating point (Bjorner-Brenti,
Combinatorics of Coxeter Groups, ch. 4).  An element w is held as
(cols, lam): cols[t] = w(alpha_t) in simple-root coordinates, whose signs
give the right descents, and lam_i = <w rho, alpha_i^v> for the regular
rho with every <rho, alpha_i^v> = 1, whose negative entries are the left
descents.  lam is the intern key: only e fixes a regular rho, for every
generalized Cartan matrix, infinite groups included.  A left product by s
changes lam in O(n) and coordinate s of each column; a right product
subtracts A cols[s] from lam.  Rank <= 2 systems use direct
alternating-word arithmetic instead, which handles any finite bond order
m >= 2: an element is held as (first letter, length), a left product is
one case analysis, and a right product is read through the inverse,
w*s = (s*w^-1)^-1, since the word of w^-1 is that of w read backwards.

Elements are interned per system in ShortLex-least reduced-word form:
element equality is object identity, and products by generators are
cached, so group arithmetic amortizes to dictionary lookups.  On both
backends one rule names a new element w: its word is its smallest left
descent s followed by the word of s*w (ch. 3 of the same book), so
smallest left descents are stripped, on keys alone, until an interned
element is reached and its word is appended; an element stores no
support, which is `genset(w.word)`.  Infinite
systems (e.g. a rank-3 system with bond orders 4,3,3) are supported for
all bounded-length operations; only whole-group enumeration requires the
group to be finite.

Every interned element has a dense id, its place in interning order.
Bruhat order is held as down-sets: [e, w] is one int bitmask over the ids
(`down_set`, filled from lifting-property coatoms; the layout of Coxeter3,
du Cloux, Experiment. Math. 11 (2002)), so `bruhat_leq` is one bit test.
The cost: the first comparison below a long w in an infinite group
interns all of [e, w], 6,708 elements for a length-20 word of the
4,4,4 triangle group.

Generator subsets (descent sets, parabolic subsets) are plain integer
bitmasks over generator indices; see :func:`genset` and friends.
"""

from __future__ import annotations

import json
import re
from operator import mul
from typing import Iterable, Optional, Sequence

__all__ = [
    "CoxeterSystem",
    "Element",
    "QuotientMembershipError",
    "genset",
    "genset_indices",
    "parse_genset",
    "format_genset",
]


class QuotientMembershipError(ValueError):
    """Raised when an element is required to be a minimal coset
    representative (no right descent inside H) but is not."""


# ---------------------------------------------------------------------------
# generator-subset bitmask helpers


def genset(indices: Iterable[int]) -> int:
    """Pack generator indices into a bitmask."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def genset_indices(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into the sorted tuple of its set bits."""
    if mask < 0:
        raise ValueError("negative mask %d has no finite set of bits" % mask)
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _low_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


_EXCERPT = 40


def _excerpt(text: str) -> str:
    """repr(text) for an error message, cut to its first `_EXCERPT`
    characters when longer, so one bad argument stays one short line."""
    if len(text) <= _EXCERPT:
        return repr(text)
    return "%r... (%d characters)" % (text[:_EXCERPT], len(text))


def parse_genset(system: "CoxeterSystem", text: str) -> int:
    """Parse a comma/space separated list of generator labels ("s1,s3"),
    with or without the braces that format_genset adds."""
    text = text.strip()
    if text.startswith("{") and text.endswith("}"):
        text = text[1:-1].strip()
    if not text:
        return 0
    mask = 0
    for tok in re.split(r"[,\s]+", text):
        if tok:
            mask |= 1 << system.generator_index(tok)
    return mask


def format_genset(system: "CoxeterSystem", mask: int) -> str:
    names = [system.generator_names[i] for i in genset_indices(mask)]
    return "{" + ",".join(names) + "}"


# ---------------------------------------------------------------------------
# root-backend states (cols, lam), see the module docstring.  With
# cartan[i][j] = <alpha_j, alpha_i^v>, s maps v to v - <v, alpha_s^v> alpha_s.


def _lam_left(lam: tuple, s: int, cartan: tuple) -> tuple:
    """lam of s*w: <s w rho, alpha_i^v> = lam_i - lam_s cartan[i][s]."""
    ls = lam[s]
    return tuple([l - ls * row[s] for l, row in zip(lam, cartan)])


def _lam_right(lam: tuple, col: tuple, cartan: tuple) -> tuple:
    """lam of w*s, with col = w(alpha_s): w s rho = w rho - w(alpha_s)."""
    return tuple([l - sum(map(mul, row, col)) for l, row in zip(lam, cartan)])


def _cols_left(cols: tuple, s: int, cartan_row: tuple) -> tuple:
    """cols of s*w: in each column c only c_s changes, by
    -sum_t cartan[s][t] c_t; a column where that is 0 is shared."""
    out = []
    for c in cols:
        d = sum(map(mul, cartan_row, c))
        out.append(c[:s] + (c[s] - d,) + c[s + 1:] if d else c)
    return tuple(out)


def _cols_right(cols: tuple, s: int, cartan_row: tuple) -> tuple:
    """cols of w*s: w(s alpha_t) = cols_t - cartan[s][t] cols_s, which
    leaves the columns with cartan[s][t] = 0 alone."""
    cs = cols[s]
    return tuple([tuple([x - a * y for x, y in zip(col, cs)]) if a else col
                  for col, a in zip(cols, cartan_row)])


def _cartan_from_coxeter(matrix: Sequence[Sequence[int]]) -> tuple:
    """Integer generalized Cartan matrix realizing the Coxeter matrix.

    Bond order 2 gives the pair (0, 0), order 3 gives (-1, -1), order 4
    gives the asymmetric pair (-1, -2); the orientation of the 4-bonds does
    not change the abstract Coxeter system.
    """
    n = len(matrix)
    cartan = [[2] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            m = matrix[i][j]
            if m == 2:
                cartan[i][j] = 0
            elif m == 3:
                cartan[i][j] = -1
            elif m == 4:
                cartan[i][j] = -1 if i < j else -2
            else:
                raise ValueError(
                    "root-lattice backend requires bond orders in {2,3,4}; "
                    "got m=%r" % (m,)
                )
    return tuple(tuple(row) for row in cartan)


def _is_finite_type(cartan: tuple) -> bool:
    """Whether the Cartan matrix is of finite type, i.e. its group is
    finite.  A Cartan matrix is a Z-matrix, so it is of finite type iff it
    is a nonsingular M-matrix (Kac, Infinite dimensional Lie algebras,
    Thm 4.3), iff its leading principal minors are positive.  The k-th
    pivot of fraction-free (Bareiss) elimination without row exchanges is
    the k-th leading principal minor, and each division is exact."""
    a = [list(row) for row in cartan]
    n = len(a)
    prev = 1
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return True


# ---------------------------------------------------------------------------
# elements


class Element:
    """A group element, interned per system in canonical form.

    Attributes:
        system:  owning :class:`CoxeterSystem`
        word:    ShortLex-least reduced word, as a tuple of generator indices
        length:  Coxeter length (== len(word))
        ldesc:   bitmask of left descents  {s : l(s w) < l(w)}
        rdesc:   bitmask of right descents {s : l(w s) < l(w)}
        id:      dense index in the system's interning order

    A root-backend element also holds its state (cols, lam): the images
    w(alpha_t) of the simple roots, and lam_i = <w rho, alpha_i^v>.  lam
    is its intern key, which is faithful because only e fixes rho.
    """

    __slots__ = ("system", "word", "length", "ldesc", "rdesc", "id",
                 "_state", "_rmul", "_lmul", "_coatoms", "_down")

    def __init__(self, system, word, ldesc, rdesc, state, id):
        self.system = system
        self.word = word
        self.length = len(word)
        self.ldesc = ldesc
        self.rdesc = rdesc
        self.id = id
        self._state = state
        self._rmul = [None] * system.rank
        self._lmul = [None] * system.rank
        self._coatoms = None if word else ()
        self._down = None

    def label_str(self) -> str:
        """Render as concatenated generator labels, or "e" for the identity."""
        if not self.word:
            return "e"
        names = self.system.generator_names
        return "".join(names[i] for i in self.word)

    def __lt__(self, other: "Element") -> bool:
        return (self.length, self.word) < (other.length, other.word)

    def __repr__(self) -> str:
        return "<%s>" % self.label_str()


# ---------------------------------------------------------------------------
# the system


_NAMED_RE = re.compile(r"^([ABDF])(\d+)$|^I2\((\d+)\)$")
# the largest n of a named A_n, B_n or D_n: a name of a few bytes would
# otherwise ask for an n-by-n matrix
_MAX_NAMED_RANK = 256
# the most elements enumerated by length; B6 (46,080) and E6 (51,840) fit
_MAX_ELEMENTS = 1 << 16


class CoxeterSystem:
    """A Coxeter system (W, S) given by its Coxeter matrix.

    The backend is chosen automatically: "dihedral-word" for rank 2 (any
    finite bond order), "crystallographic-root" otherwise (bond orders
    restricted to {2, 3, 4}).
    """

    def __init__(self, matrix: Sequence[Sequence[int]],
                 generator_names: Optional[Sequence[str]] = None,
                 name: Optional[str] = None):
        self._validate_matrix(matrix)
        matrix = tuple(tuple(row) for row in matrix)
        self.matrix = matrix
        self.rank = len(matrix)
        self.name = name
        if generator_names is None:
            generator_names = tuple("s%d" % (i + 1) for i in range(self.rank))
        else:
            self._validate_labels(generator_names, self.rank)
            generator_names = tuple(generator_names)
        self.generator_names = generator_names
        self._name_to_index = {nm: i for i, nm in enumerate(generator_names)}

        if self.rank == 2:
            self.backend = "dihedral-word"
            self._m = matrix[0][1]
            self._cartan = None
            id_state = (0, 0)
        else:
            self.backend = "crystallographic-root"
            self._m = None
            self._cartan = _cartan_from_coxeter(matrix)
            n = self.rank
            id_state = (tuple(tuple(int(i == j) for j in range(n))
                              for i in range(n)), (1,) * n)

        self.identity = Element(self, (), 0, 0, id_state, 0)
        self._intern_table: dict = {self._state_key(id_state): self.identity}
        self._by_id = [self.identity]  # element ids index this list
        self._levels = [[self.identity]]
        self._levels_complete = False
        self._kl_contexts: dict = {}

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _validate_matrix(matrix) -> None:
        if not isinstance(matrix, (list, tuple)) or not all(
                isinstance(row, (list, tuple)) for row in matrix):
            raise ValueError("Coxeter matrix must be a list of rows")
        n = len(matrix)
        if n < 1:
            raise ValueError("rank must be at least 1")
        for i, row in enumerate(matrix):
            if len(row) != n:
                raise ValueError("Coxeter matrix must be square")
            for j, m in enumerate(row):
                # bool is an int subclass: JSON true must not read as 1
                if not isinstance(m, int) or isinstance(m, bool):
                    raise ValueError(
                        "bond order m[%d][%d] must be a finite integer; got %s"
                        % (i, j, type(m).__name__))
                if i == j:
                    if m != 1:
                        raise ValueError("diagonal entries must be 1")
                elif m < 2:
                    raise ValueError("off-diagonal entries must be >= 2")
                elif matrix[j][i] != m:
                    raise ValueError("Coxeter matrix must be symmetric")
                elif n >= 3 and m > 4:
                    raise ValueError(
                        "rank >= 3 systems must be doubly laced "
                        "(all bond orders <= 4); got m=%d" % m)

    @staticmethod
    def _validate_labels(labels, rank: int) -> None:
        # element_from_labels and parse_genset split on these characters,
        # and read "e" as the identity
        if not isinstance(labels, (list, tuple)) or len(labels) != rank:
            raise ValueError("need one label per generator")
        for k, label in enumerate(labels):
            if not isinstance(label, str):
                raise ValueError("generator labels[%d] must be a string; "
                                 "got %s" % (k, type(label).__name__))
            if label in ("", "e") or re.search(r"[,\s{}]", label):
                raise ValueError(
                    "generator labels must be non-empty strings other than "
                    "'e', without commas, whitespace or braces; got %s"
                    % _excerpt(label))
        if len(set(labels)) != rank:
            raise ValueError("generator labels must be distinct")
        # label_str concatenates labels, so every concatenation must split
        # back into labels one way only.  Sardinas-Patterson: follow the
        # dangling suffixes left when one candidate split is a prefix of
        # another; the code is ambiguous iff some suffix is itself a label.
        code = set(labels)

        def dangling(heads, words):
            return {b[len(a):] for a in heads for b in words
                    if b != a and b.startswith(a)}

        suffixes, seen = dangling(code, code), set()
        while suffixes:
            if suffixes & code:
                raise ValueError(
                    "generator labels %s are ambiguous: some word of them "
                    "splits into labels in two ways" % ",".join(labels))
            seen |= suffixes
            suffixes = (dangling(suffixes, code)
                        | dangling(code, suffixes)) - seen

    @classmethod
    def A(cls, n: int) -> "CoxeterSystem":
        if n < 1:
            raise ValueError("A_n needs n >= 1")
        m = [[1 if i == j else (3 if abs(i - j) == 1 else 2)
              for j in range(n)] for i in range(n)]
        return cls(m, name="A%d" % n)

    @classmethod
    def B(cls, n: int) -> "CoxeterSystem":
        if n < 2:
            raise ValueError("B_n needs n >= 2")
        m = [[1 if i == j else (3 if abs(i - j) == 1 else 2)
              for j in range(n)] for i in range(n)]
        m[n - 2][n - 1] = m[n - 1][n - 2] = 4
        return cls(m, name="B%d" % n)

    @classmethod
    def D(cls, n: int) -> "CoxeterSystem":
        if n < 4:
            raise ValueError("D_n needs n >= 4")
        m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
        for i in range(n - 2):
            m[i][i + 1] = m[i + 1][i] = 3
        m[n - 3][n - 1] = m[n - 1][n - 3] = 3
        return cls(m, name="D%d" % n)

    @classmethod
    def F4(cls) -> "CoxeterSystem":
        m = [[1, 3, 2, 2],
             [3, 1, 4, 2],
             [2, 4, 1, 3],
             [2, 2, 3, 1]]
        return cls(m, name="F4")

    @classmethod
    def I2(cls, m: int) -> "CoxeterSystem":
        if m < 2:
            raise ValueError("I2(m) needs m >= 2")
        return cls([[1, m], [m, 1]], name="I2(%d)" % m)

    @classmethod
    def from_name(cls, name: str) -> "CoxeterSystem":
        name = name.strip()
        mt = _NAMED_RE.match(name)
        if not mt:
            raise ValueError("unknown group name %s" % _excerpt(name))
        if mt.group(3) is not None:
            return cls.I2(int(mt.group(3)))
        family, n = mt.group(1), int(mt.group(2))
        if n > _MAX_NAMED_RANK:
            raise ValueError("named groups have rank at most %d; got %s"
                             % (_MAX_NAMED_RANK, _excerpt(name)))
        if family == "A":
            return cls.A(n)
        if family == "B":
            return cls.B(n)
        if family == "D":
            return cls.D(n)
        if family == "F":
            if n != 4:
                raise ValueError("only F4 exists")
            return cls.F4()
        raise ValueError("unknown group name %s" % _excerpt(name))

    @classmethod
    def from_spec(cls, spec: dict) -> "CoxeterSystem":
        """Build from a JSON-style descriptor.

        {"type": "named", "name": "F4"} or
        {"type": "matrix", "m": [[1,3],[3,1]], "labels": ["s","t"]}
        """
        if not isinstance(spec, dict):
            raise ValueError("group spec must be a JSON object")
        kind = spec.get("type")
        if kind == "named":
            if not isinstance(spec.get("name"), str):
                raise ValueError("named group spec needs a string 'name'")
            return cls.from_name(spec["name"])
        if kind == "matrix":
            if "m" not in spec:
                raise ValueError("matrix group spec needs an 'm' matrix")
            return cls(spec["m"], generator_names=spec.get("labels"))
        raise ValueError("group spec type must be 'named' or 'matrix'")

    @classmethod
    def load(cls, path: str) -> "CoxeterSystem":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                spec = json.load(fh)
        except OSError as exc:
            raise ValueError("cannot read group file %r: %s"
                             % (path, exc.strerror)) from exc
        except RecursionError:
            raise ValueError("group file %r is nested too deeply"
                             % path) from None
        return cls.from_spec(spec)

    @property
    def spec(self) -> dict:
        if self.name is not None:
            return {"type": "named", "name": self.name}
        return {"type": "matrix", "m": [list(r) for r in self.matrix],
                "labels": list(self.generator_names)}

    def __repr__(self) -> str:
        if self.name:
            return "CoxeterSystem(%s)" % self.name
        return "CoxeterSystem(rank %d)" % self.rank

    def generator_index(self, label: str) -> int:
        try:
            return self._name_to_index[label]
        except KeyError:
            have = ", ".join(self.generator_names)
            if len(have) > _EXCERPT:
                have = "%s... (%d labels)" % (have[:_EXCERPT], self.rank)
            raise ValueError("unknown generator label %s (have %s)"
                             % (_excerpt(label), have))

    def generator(self, i: int) -> Element:
        return self.multiply_by_generator(self.identity, i)

    # -- backend state arithmetic --------------------------------------------

    def _state_key(self, state):
        """The intern key: a dihedral-word state itself, a root state's lam."""
        if self.backend == "dihedral-word":
            return state
        return state[1]

    def _strip(self, key):
        """(s, key of s*w) from the key of w, s its smallest left descent;
        a root key's left descents are the i with lam_i < 0."""
        if self.backend == "dihedral-word":
            s = _low_bit(self._state_descents(key)[0])
            return s, self._state_mult(key, s)
        for s, l in enumerate(key):
            if l < 0:
                return s, _lam_left(key, s, self._cartan)

    def _state_mult(self, state, s: int):
        """The dihedral-word state (first letter, length) of s*w."""
        m = self._m
        f, k = state
        if k == 0:
            return (s, 1)
        if k == m:
            # strip s from the word of the longest element starting s
            return (1 - s, m - 1)
        if s == f:
            return ((1 - f), k - 1) if k > 1 else (0, 0)
        return (0, m) if k + 1 == m else (s, k + 1)

    def _state_inverse(self, state):
        """The dihedral-word state of w^-1: w's word read backwards, so
        it starts with w's last letter.  e and w0 are involutions."""
        f, k = state
        if k == 0 or k == self._m:
            return state
        return (f if k % 2 == 1 else 1 - f, k)

    def _state_descents(self, state) -> tuple[int, int]:
        """Return (ldesc, rdesc) bitmasks for a backend state."""
        if self.backend == "dihedral-word":
            f, k = state
            if k == 0:
                return 0, 0
            if k == self._m:
                return 0b11, 0b11
            return 1 << f, 1 << self._state_inverse(state)[0]
        # Each column is the image of a simple root, a real root: its
        # coordinates share one sign, so their sum has that sign.
        cols, lam = state
        return (sum(1 << i for i, l in enumerate(lam) if l < 0),
                sum(1 << t for t, col in enumerate(cols) if sum(col) < 0))

    def _product(self, w: Element, s: int, right: bool) -> Element:
        """The interned element w*s (right) or s*w.  On the root backend
        the product's key lam is computed first, and its columns only
        for an element that is new."""
        if self.backend == "dihedral-word":
            if not right:
                return self._intern(self._state_mult(w._state, s))
            # w*s = (s*w^-1)^-1
            inv = self._state_inverse
            return self._intern(inv(self._state_mult(inv(w._state), s)))
        cols, lam = w._state
        c = self._cartan
        lam = _lam_right(lam, cols[s], c) if right else _lam_left(lam, s, c)
        el = self._intern_table.get(lam)
        if el is None:
            mult = _cols_right if right else _cols_left
            el = self._intern((mult(cols, s, c[s]), lam))
        return el

    def _intern(self, state) -> Element:
        """The interned element of a backend state.  A new element's word
        is its smallest left descent s followed by the word of s*w, so
        smallest left descents are stripped, on keys alone, until an
        interned element is reached.  The keys walked past are not
        interned: on a long word in an infinite group they far outnumber
        the word's prefixes."""
        table = self._intern_table
        key = self._state_key(state)
        el = table.get(key)
        if el is not None:
            return el
        ldesc, rdesc = self._state_descents(state)
        prefix, cur, below = [], key, None
        while below is None:  # ends at e, the first element interned
            s, cur = self._strip(cur)
            prefix.append(s)
            below = table.get(cur)
        el = Element(self, tuple(prefix) + below.word, ldesc, rdesc, state,
                     len(self._by_id))
        self._by_id.append(el)
        return table.setdefault(key, el)

    # -- element arithmetic ----------------------------------------------------

    def _check_owned(self, *els: Element) -> None:
        for el in els:
            if el.system is not self:
                raise ValueError("element %r belongs to a different system"
                                 % (el,))

    def element_from_word(self, word: Iterable[int]) -> Element:
        w = self.identity
        for s in word:
            w = self.multiply_by_generator(w, s)
        return w

    def element_from_labels(self, text: str) -> Element:
        """Parse "s3s1s2", "s3 s1 s2", "s3,s1,s2" or "e".

        Each run between separators is split by marking every position a
        sequence of labels can end at; the labels are uniquely decodable
        (see `_validate_labels`), so a run that splits at all splits one
        way, whether or not some label is a prefix of another."""
        text = text.strip()
        if text in ("", "e"):
            return self.identity
        word = []
        for run in re.split(r"[,\s]+", text):
            back = {0: None}  # end position -> (start, generator index)
            for i in range(len(run)):
                if i in back:
                    for name, s in self._name_to_index.items():
                        if run.startswith(name, i):
                            back.setdefault(i + len(name), (i, s))
            end = len(run)
            if end not in back:
                raise ValueError("cannot parse %s at %s"
                                 % (_excerpt(text), _excerpt(run[max(back):])))
            split = []
            while end:
                end, s = back[end]
                split.append(s)
            word.extend(reversed(split))
        return self.element_from_word(word)

    def multiply_by_generator(self, w: Element, s: int,
                              side: str = "right") -> Element:
        if not 0 <= s < self.rank:
            raise ValueError("generator index %r out of range" % (s,))
        if side not in ("right", "left"):
            raise ValueError("side must be 'right' or 'left'")
        self._check_owned(w)
        right = side == "right"
        cache = w._rmul if right else w._lmul
        el = cache[s]
        if el is None:
            el = self._product(w, s, right)
            cache[s] = el
            # s is an involution, so el times s on the same side is w
            (el._rmul if right else el._lmul)[s] = w
        return el

    # -- Bruhat order ----------------------------------------------------------

    def bruhat_leq(self, u: Element, v: Element) -> bool:
        """Bruhat order: whether u's id is in the down-set of v."""
        self._check_owned(u, v)
        if u is v:
            return True
        if u.length >= v.length:
            return False
        if u.length == 0:
            return True
        return bool((v._down or self.down_set(v)) >> u.id & 1)

    def down_set(self, w: Element) -> int:
        """[e, w] as a bitmask over element ids: w's own bit and the
        down-sets of its coatoms.  With s the smallest left descent of w,
        the coatoms are s*w and the s*c for c covered by s*w with s*c > c
        (lifting property).  Both are cached on the elements and filled on
        one explicit stack, the coatoms along the chain w, s*w, ..."""
        self._check_owned(w)
        stack = [w]
        while stack:
            v = stack[-1]
            if v._coatoms is None:
                s = _low_bit(v.ldesc)
                sv = self.multiply_by_generator(v, s, "left")
                if sv._coatoms is None:
                    stack.append(sv)
                    continue
                v._coatoms = tuple(sorted([sv] + [
                    self.multiply_by_generator(c, s, "left")
                    for c in sv._coatoms if not (c.ldesc >> s) & 1]))
            todo = [c for c in v._coatoms if c._down is None]
            if todo:
                stack += todo
                continue
            v._down = 1 << v.id
            for c in v._coatoms:
                v._down |= c._down
            stack.pop()
        return w._down

    # -- parabolic quotients ---------------------------------------------------

    def is_min_coset_rep(self, u: Element, H: int) -> bool:
        """True iff u has no right descent inside H, i.e. u is the shortest
        element of the coset u W_H."""
        self._check_owned(u)
        return (u.rdesc & H) == 0

    def check_min_coset_rep(self, u: Element, H: int) -> None:
        self._check_owned(u)
        bad = u.rdesc & H
        if bad:
            raise QuotientMembershipError(
                "element %s is not minimal in its coset: right descent %s "
                "lies in H=%s" % (u, self.generator_names[_low_bit(bad)],
                                  format_genset(self, H)))

    # -- enumeration -------------------------------------------------------------

    def _extend_levels(self, upto: int, cap: int = _MAX_ELEMENTS) -> None:
        """Fill the levels up to length upto; ValueError past ``cap``."""
        total = sum(len(lvl) for lvl in self._levels)
        while len(self._levels) <= upto and not self._levels_complete:
            nxt = set()
            for w in self._levels[-1]:
                for s in range(self.rank):
                    if not (w.rdesc >> s) & 1:
                        nxt.add(self.multiply_by_generator(w, s))
            total += len(nxt)
            if total > cap:
                raise ValueError("the group has more than %d elements of "
                                 "length at most %d"
                                 % (cap, len(self._levels)))
            if not nxt:
                self._levels_complete = True
            else:
                self._levels.append(sorted(nxt))

    def elements_up_to_length(self, max_length: int) -> list[Element]:
        """All elements of length <= max_length, sorted by (length, word).
        Raises ValueError past ``_MAX_ELEMENTS`` of them."""
        if max_length < 0:
            raise ValueError("length bound must be >= 0; got %d" % max_length)
        self._extend_levels(max_length)
        out: list[Element] = []
        for lvl in self._levels[:max_length + 1]:
            out.extend(lvl)
        return out

    def group_elements(self, cap: int = _MAX_ELEMENTS) -> list[Element]:
        """All elements of a finite group, sorted by (length, word).
        Raises ValueError on an infinite group, and as soon as more than
        ``cap`` elements are found."""
        if self._cartan is not None and not _is_finite_type(self._cartan):
            raise ValueError("%r is an infinite group" % self)
        while not self._levels_complete:
            self._extend_levels(len(self._levels), cap)
        return self.elements_up_to_length(len(self._levels) - 1)
