"""Independent brute-force oracles used by the test suite.

These deliberately avoid the production code paths: words are compared by
exhaustive braid/nil rewriting, Bruhat order by subword enumeration or by
the left-descent rule, coatoms by letter deletion, coset decompositions
by exhaustive search, and matchings by unpruned backtracking or, for
intervals too large for that, by the two enumerators that came before the
one-pass search in `bruhatkl.matchings`: the recursive backtracker that
the constraint search replaced, and that constraint search
(`propagation_special_matchings`).  `MatrixPairSystem` is the root
backend that the (cols, lam) states of `bruhatkl.coxeter` replaced: each
element carries the matrices of w and of w^-1 on the root lattice, keyed
by the first.  The descent rule and the deletion rule are the ones the down-set bitmasks and lifting-property
coatoms of `bruhatkl.coxeter` replaced, and the pull-form R-convolution is
the per-pair P recursion that the column fill of `bruhatkl.klpoly`
replaced.  `union_refinement_isomorphism` is the isomorphism search that
`bruhatkl.poset` replaced: it refines the disjoint union of each compared
pair, where the search there refines each poset once under a shared
palette.  `deodhar_identity_check` reads the production P tables, but
takes its alternating sums in the oracle arithmetic here.
"""

from __future__ import annotations

import weakref
from operator import mul

from bruhatkl.coxeter import (
    CoxeterSystem,
    Element,
    _cartan_from_coxeter,
    _low_bit,
    genset_indices,
)

from matching_helpers import (
    inverse,
    longest_element_of_parabolic,
    multiply,
    parabolic_group,
    upper_covers,
)


def _braid_word(s: int, t: int, m: int) -> tuple[int, ...]:
    return tuple(s if i % 2 == 0 else t for i in range(m))


def rewrite_closure(matrix, word) -> set[tuple[int, ...]]:
    """All words reachable from `word` by braid moves and deletions of
    adjacent equal letters."""
    word = tuple(word)
    seen = {word}
    stack = [word]
    rank = len(matrix)
    while stack:
        w = stack.pop()
        n = len(w)
        for i in range(n - 1):
            if w[i] == w[i + 1]:
                nw = w[:i] + w[i + 2:]
                if nw not in seen:
                    seen.add(nw)
                    stack.append(nw)
        for s in range(rank):
            for t in range(rank):
                if s == t:
                    continue
                m = matrix[s][t]
                for i in range(n - m + 1):
                    if w[i:i + m] == _braid_word(s, t, m):
                        nw = w[:i] + _braid_word(t, s, m) + w[i + m:]
                        if nw not in seen:
                            seen.add(nw)
                            stack.append(nw)
    return seen


def tits_canonical(matrix, word) -> tuple[int, ...]:
    """ShortLex-least reduced word equivalent to `word`, via the rewriting
    closure (word property: braid moves connect all reduced words, and any
    non-reduced word admits a deletion after braid moves)."""
    cl = rewrite_closure(matrix, word)
    return min(cl, key=lambda w: (len(w), w))


# ---------------------------------------------------------------------------
# the matrix-pair root backend


# The simple reflection s acts on the root lattice by
# s(alpha_j) = alpha_j - a_sj alpha_s.  In the basis of simple roots its
# matrix g differs from the identity in row s only, which is
# e_s - cartan[s], so a product with g costs O(n^2), not O(n^3).


def _gen_times(a: tuple, s: int, cartan_row: tuple) -> tuple:
    """g @ a for g the matrix of s: only row s of a changes, to
    a[s] - sum_c cartan[s][c] a[c]."""
    rows = list(a)
    rows[s] = tuple([x - sum(map(mul, cartan_row, col))
                     for x, col in zip(a[s], zip(*a))])
    return tuple(rows)


def _times_gen(a: tuple, s: int, cartan_row: tuple) -> tuple:
    """a @ g for g the matrix of s: row r of a gains
    -a[r][s] * cartan[s], which leaves the rows with a[r][s] = 0 alone."""
    return tuple([tuple([x - row[s] * c for x, c in zip(row, cartan_row)])
                  if row[s] else row for row in a])


class PairElement:
    """An element of a `MatrixPairSystem`: word, length, descents, id and
    the state (matrix of w, matrix of w^-1)."""

    def __init__(self, word, ldesc, rdesc, state, id):
        self.word, self.length = word, len(word)
        self.ldesc, self.rdesc = ldesc, rdesc
        self.state, self.id = state, id


class MatrixPairSystem:
    """A root-backend system (rank >= 3, bonds <= 4) whose elements are
    interned by the matrix of w, with left descents read from the
    columns of the matrix of w^-1 and right descents from those of w.  A
    new element is named as in `CoxeterSystem`: smallest left descents
    are stripped, on the full pair, until an interned element is met."""

    def __init__(self, matrix):
        self.rank = n = len(matrix)
        self._cartan = _cartan_from_coxeter(matrix)
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        self.identity = PairElement((), 0, 0, (ident, ident), 0)
        self._table = {ident: self.identity}
        self._by_id = [self.identity]

    def _mult(self, state, s: int, side: str):
        mat, inv = state
        c = self._cartan[s]
        if side == "right":
            return (_times_gen(mat, s, c), _gen_times(inv, s, c))
        return (_gen_times(mat, s, c), _times_gen(inv, s, c))

    @staticmethod
    def _descents(state) -> tuple[int, int]:
        # each column is a real root, so its coordinates share one sign
        mat, inv = state
        ld = sum(1 << s for s, col in enumerate(zip(*inv)) if sum(col) < 0)
        rd = sum(1 << s for s, col in enumerate(zip(*mat)) if sum(col) < 0)
        return ld, rd

    def _intern(self, state) -> PairElement:
        el = self._table.get(state[0])
        if el is not None:
            return el
        ldesc, rdesc = self._descents(state)
        prefix, cur, ld = [], state, ldesc
        while True:
            s = _low_bit(ld)
            prefix.append(s)
            cur = self._mult(cur, s, "left")
            below = self._table.get(cur[0])
            if below is not None:
                break
            ld = self._descents(cur)[0]
        el = PairElement(tuple(prefix) + below.word, ldesc, rdesc, state,
                         len(self._by_id))
        self._by_id.append(el)
        self._table[state[0]] = el
        return el

    def multiply_by_generator(self, w: PairElement, s: int,
                              side: str = "right") -> PairElement:
        return self._intern(self._mult(w.state, s, side))


def subword_reachable(sys: CoxeterSystem, v: Element) -> set[Element]:
    """All elements representable as subwords of the canonical reduced word
    of v (equivalently, by the subword property, the interval [e, v])."""
    reach = {sys.identity}
    for s in v.word:
        reach |= {sys.multiply_by_generator(u, s) for u in reach}
    return reach


# system -> {(u.word, v.word): u <= v}; words as keys, so that a memo does
# not keep its system alive
_DESCENT_MEMOS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def bruhat_leq_oracle(sys: CoxeterSystem, u: Element, v: Element) -> bool:
    """Bruhat order by the left-descent rule: for s the smallest left
    descent of v, u <= v iff su <= sv when s is a left descent of u, and
    u <= sv otherwise.  The rule is tail-recursive, so it runs as a loop,
    and every pair it passes through is memoized per system."""
    memo = _DESCENT_MEMOS.setdefault(sys, {})
    path = []
    while True:
        if u is v or u.length == 0:
            res = True
            break
        if u.length >= v.length:
            res = False
            break
        key = (u.word, v.word)
        res = memo.get(key)
        if res is not None:
            break
        path.append(key)
        s = genset_indices(v.ldesc)[0]
        if (u.ldesc >> s) & 1:
            u = sys.multiply_by_generator(u, s, "left")
        v = sys.multiply_by_generator(v, s, "left")
    for key in path:
        memo[key] = res
    return res


def deletion_coatoms(sys: CoxeterSystem, u: Element) -> tuple[Element, ...]:
    """The elements covered by u, sorted, by the subword property: each is
    a single-letter deletion of the canonical word of u that stays
    reduced."""
    word = u.word
    found = {sys.element_from_word(word[:i] + word[i + 1:])
             for i in range(len(word))}
    return tuple(sorted(c for c in found if c.length == u.length - 1))


def coset_decompose_right_oracle(sys: CoxeterSystem, u: Element, J: int):
    """The unique (a, b) with b in W_J, a*b == u, l(a)+l(b) == l(u), and a
    minimal in a W_J; found by exhaustive search over W_J."""
    found = []
    for b in parabolic_group(sys, J):
        if b.length > u.length:
            continue
        binv = inverse(sys, b)
        a = multiply(sys, u, binv)
        if a.length + b.length == u.length and (a.rdesc & J) == 0:
            if multiply(sys, a, b) is u:
                found.append((a, b))
    assert len(found) == 1, "expected unique decomposition, got %r" % found
    return found[0]


def coset_decompose_left_oracle(sys: CoxeterSystem, u: Element, J: int):
    found = []
    for b in parabolic_group(sys, J):
        if b.length > u.length:
            continue
        binv = inverse(sys, b)
        a = multiply(sys, binv, u)
        if b.length + a.length == u.length and (a.ldesc & J) == 0:
            if multiply(sys, b, a) is u:
                found.append((b, a))
    assert len(found) == 1, "expected unique decomposition, got %r" % found
    return found[0]


def all_perfect_hasse_matchings(interval) -> list[tuple[int, ...]]:
    """Every involution pairing each interval element with a Hasse neighbor,
    by plain backtracking with no special-matching pruning."""
    n = len(interval.elements)
    up = upper_covers(interval)
    nbrs = [sorted(up[i] + interval.hasse_down[i]) for i in range(n)]
    out = []
    pairing = [-1] * n

    def rec(i: int):
        while i < n and pairing[i] != -1:
            i += 1
        if i == n:
            out.append(tuple(pairing))
            return
        for j in nbrs[i]:
            if pairing[j] == -1:
                pairing[i] = j
                pairing[j] = i
                rec(i + 1)
                pairing[i] = -1
                pairing[j] = -1

    rec(0)
    return sorted(out)


def brute_special_matchings(interval) -> list[tuple[int, ...]]:
    """All special matchings, as pairings, by filtering every perfect
    matching through the definition directly."""
    out = []
    n = len(interval.elements)
    for pairing in all_perfect_hasse_matchings(interval):
        ok = True
        for b in range(n):
            for a in interval.hasse_down[b]:
                if pairing[a] != b and not interval.leq(pairing[a], pairing[b]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(pairing)
    return out


def backtrack_special_matchings(interval) -> list[tuple[int, ...]]:
    """All special matchings, as sorted pairings, by bottom-up backtracking.

    Each element either was already matched from below, matches down to a
    still-unmatched coatom, or waits to be matched from the next rank.  The
    special condition is checked as soon as both endpoints of a cover have
    partners.  This was the production enumerator before the constraint
    search replaced it; its recursion depth equals the interval size.
    """
    n = len(interval.elements)
    if n < 2:
        return []
    up = upper_covers(interval)
    down = interval.hasse_down
    rank_of = interval.rank_of
    leq = interval.leq
    pairing = [-1] * n
    pending = [0] * (rank_of[-1] + 1)
    found: list[tuple[int, ...]] = []

    def special_ok(k: int, d: int) -> bool:
        # re-check every cover with both partners set that touches k or d
        for v in up[k]:
            if pairing[v] != -1 and not leq(d, pairing[v]):
                return False
        for a in down[k]:
            if a != d and pairing[a] != -1 and not leq(pairing[a], d):
                return False
        for v in up[d]:
            if v != k and pairing[v] != -1 and not leq(k, pairing[v]):
                return False
        for a in down[d]:
            if pairing[a] != -1 and pairing[a] != d and not leq(pairing[a], k):
                return False
        return True

    def rec(k: int):
        if k == n:
            if all(p != -1 for p in pairing):
                found.append(tuple(pairing))
            return
        r = rank_of[k]
        if r >= 2 and pending[r - 2] > 0 and rank_of[k - 1] < r:
            return  # somebody two ranks down can no longer be matched
        if pairing[k] != -1:
            rec(k + 1)
            return
        for d in down[k]:
            if pairing[d] == -1:
                pairing[k] = d
                pairing[d] = k
                pending[r - 1] -= 1
                if special_ok(k, d):
                    rec(k + 1)
                pairing[k] = -1
                pairing[d] = -1
                pending[r - 1] += 1
        if up[k]:
            pending[r] += 1
            rec(k + 1)
            pending[r] -= 1

    rec(0)
    return sorted(found)


def propagation_special_matchings(interval) -> list[tuple[int, ...]]:
    """All special matchings, as sorted pairings, by the constraint search
    that the one-pass enumerator replaced.

    The domain of an element is the bitmask of the Hasse neighbours it may
    still be matched with.  Matching lo with its upper cover hi (lo < hi
    as ids) narrows the domains of the upper covers of both, by the
    special condition, in this order:

        neighbours   matched within        except
        up[lo]       above[hi]             hi
        up[hi]       above[lo] minus hi

    The special condition on a cover a < b, M(a) = b or M(a) <= M(b), is
    checked from a's side only: once a is matched, the row for a narrows
    b's domain to the elements above M(a).  If b is free, its partner will
    come from that domain; if b is already matched, its domain is one bit,
    so a violation empties it.

    An element left with one candidate is matched at once, and an empty
    domain ends the branch.  Otherwise the search branches, on an explicit
    stack, over the free element with the fewest candidates.  A finished
    matching has one bit left in every domain, its partner's id.  Unlike
    the production enumerator it lists every matching, with no cap.
    """
    n = len(interval.elements)
    if n < 2:
        return []
    up = upper_covers(interval)
    above = interval.above

    def settle(dom: list[int], free: int, todo: list[int]) -> int:
        """Match each free element of `todo` with the one candidate left in
        its domain, and everything that forces.  Returns the new mask of
        free elements, or -1 on a contradiction."""
        while todo:
            x = todo.pop()
            if not (free >> x) & 1:
                continue
            y = dom[x].bit_length() - 1
            if not (dom[y] >> x) & 1:
                return -1
            dom[y] = 1 << x
            free ^= (1 << x) | (1 << y)
            # ids are sorted by rank, so the smaller id is the lower one
            lo, hi = (x, y) if x < y else (y, x)
            for nbrs, mask, partner in ((up[lo], above[hi], hi),
                                        (up[hi], above[lo] ^ (1 << hi), -1)):
                for z in nbrs:
                    d = dom[z]
                    if d & mask != d and z != partner:
                        d &= mask
                        if not d:
                            return -1
                        dom[z] = d
                        if not d & (d - 1):
                            todo.append(z)
        return free

    dom = [0] * n
    for i in range(n):
        for j in up[i]:
            dom[i] |= 1 << j
            dom[j] |= 1 << i
    free = settle(dom, (1 << n) - 1,
                  [i for i in range(n) if not dom[i] & (dom[i] - 1)])
    stack = [(dom, free)] if free != -1 else []
    found: list[tuple[int, ...]] = []
    while stack:
        dom, free = stack.pop()
        if not free:
            found.append(tuple([d.bit_length() - 1 for d in dom]))
            continue
        # every free domain has at least two candidates after settle
        best, size = -1, n
        rest = free
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            c = dom[i].bit_count()
            if c < size:
                best, size = i, c
                if c == 2:
                    break
        cands = dom[best]
        while cands:
            low = cands & -cands
            cands ^= low
            child = dom[:] if cands else dom
            child[best] = low
            child_free = settle(child, free, [best])
            if child_free != -1:
                stack.append((child, child_free))
    found.sort()
    return found


def order_isomorphism_oracle(rel_a, rel_b):
    """Isomorphism between two finite posets given as order relations
    (rel[i] is a bitmask of j with i <= j), or None, by plain backtracking
    that compares the whole relation against every mapped element."""
    n = len(rel_a)
    if n != len(rel_b):
        return None

    def profile(rel):
        ups = [bin(r).count("1") for r in rel]
        downs = [sum((rel[j] >> i) & 1 for j in range(n)) for i in range(n)]
        return ups, downs

    ups_a, downs_a = profile(rel_a)
    ups_b, downs_b = profile(rel_b)
    if sorted(zip(ups_a, downs_a)) != sorted(zip(ups_b, downs_b)):
        return None
    mapping = [-1] * n
    used = [False] * n

    def ok(i: int, y: int) -> bool:
        if (ups_a[i], downs_a[i]) != (ups_b[y], downs_b[y]):
            return False
        for j in range(i):
            if ((rel_a[i] >> j) & 1) != ((rel_b[y] >> mapping[j]) & 1):
                return False
            if ((rel_a[j] >> i) & 1) != ((rel_b[mapping[j]] >> y) & 1):
                return False
        return True

    def extend(i: int) -> bool:
        if i == n:
            return True
        for y in range(n):
            if not used[y] and ok(i, y):
                mapping[i] = y
                used[y] = True
                if extend(i + 1):
                    return True
                mapping[i] = -1
                used[y] = False
        return False

    if extend(0):
        return tuple(mapping)
    return None


def _refine_colors(labels, up, down) -> list[int]:
    """Iterated neighborhood refinement of the coloring by (label,
    up-degree, down-degree), with a fresh palette each round; returns a
    stable coloring."""
    palette: dict = {}
    color = [palette.setdefault((lab, len(up[v]), len(down[v])), len(palette))
             for v, lab in enumerate(labels)]
    ncls = len(palette)
    while True:
        palette = {}
        new = [palette.setdefault(
                   (color[v],
                    tuple(sorted(color[x] for x in up[v])),
                    tuple(sorted(color[x] for x in down[v]))),
                   len(palette))
               for v in range(len(color))]
        if len(palette) == ncls:
            return new
        ncls = len(palette)
        color = new


def union_refinement_isomorphism(labels_a, down_a, labels_b, down_b):
    """A label- and cover-preserving bijection between two finite posets
    (ids 0..n-1, each listed after its lower covers), as a tuple mapping
    a-ids to b-ids, or None.  Color refinement runs on the disjoint union
    of the two posets, then backtracking maps a-ids in increasing order,
    trying b-candidates of the same color in id order, so the result is
    the lexicographically first isomorphism."""
    n = len(down_a)
    if n != len(down_b):
        return None
    down = list(down_a) + [[n + j for j in d] for d in down_b]
    up: list[list[int]] = [[] for _ in range(2 * n)]
    for v, covers in enumerate(down):
        for d in covers:
            up[d].append(v)
    color = _refine_colors(list(labels_a) + list(labels_b), up, down)
    if sorted(color[:n]) != sorted(color[n:]):
        return None
    candidates: dict[int, list[int]] = {}
    for y in range(n):
        candidates.setdefault(color[n + y], []).append(y)
    options = [candidates[color[i]] for i in range(n)]
    covers_b = [frozenset(d) for d in down_b]
    mapping = [-1] * n
    used = [False] * n
    tried = [0] * n
    i = 0
    while 0 <= i < n:
        if mapping[i] >= 0:
            used[mapping[i]] = False
            mapping[i] = -1
        want = {mapping[d] for d in down_a[i]}
        opts = options[i]
        k = tried[i]
        while k < len(opts) and (used[opts[k]] or covers_b[opts[k]] != want):
            k += 1
        if k == len(opts):
            tried[i] = 0
            i -= 1
        else:
            tried[i] = k + 1
            mapping[i] = opts[k]
            used[opts[k]] = True
            i += 1
    return tuple(mapping) if i == n else None


def bruhat_pairs_oracle(sys: CoxeterSystem):
    """Map v -> set of u with u <= v, for an entire finite group, computed
    by subword reachability only."""
    table = {}
    for v in sys.group_elements():
        table[v] = subword_reachable(sys, v)
    return table


# ---------------------------------------------------------------------------
# polynomial oracles: sparse dict-of-degree arithmetic, no memo sharing with
# the production tables, and the *largest* left descent at every step


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
        if out[k] == 0:
            del out[k]
    return out


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for i, va in a.items():
        for j, vb in b.items():
            k = i + j
            out[k] = out.get(k, 0) + va * vb
            if out[k] == 0:
                del out[k]
    return out


P_ONE = {0: 1}
P_Q = {1: 1}
P_QM1 = {0: -1, 1: 1}


def _qm1mx(x: str) -> dict:
    return {1: 1} if x == "-1" else {0: -1}


def parabolic_R_oracle(sys: CoxeterSystem, H: int, x: str, u: Element,
                       w: Element, memo: dict) -> dict:
    assert not (u.rdesc & H) and not (w.rdesc & H)
    key = (u, w)
    if key in memo:
        return memo[key]
    if u is w:
        res = P_ONE
    elif not bruhat_leq_oracle(sys, u, w):
        res = {}
    else:
        s = max(genset_indices(w.ldesc))
        sw = sys.multiply_by_generator(w, s, "left")
        su = sys.multiply_by_generator(u, s, "left")
        if su.length < u.length:
            res = parabolic_R_oracle(sys, H, x, su, sw, memo)
        elif not (su.rdesc & H):
            res = poly_add(
                poly_mul(P_QM1, parabolic_R_oracle(sys, H, x, u, sw, memo)),
                poly_mul(P_Q, parabolic_R_oracle(sys, H, x, su, sw, memo)))
        else:
            res = poly_mul(
                _qm1mx(x), parabolic_R_oracle(sys, H, x, u, sw, memo))
    memo[key] = res
    return res


def parabolic_P_oracle(sys: CoxeterSystem, H: int, x: str, u: Element,
                       w: Element, rmemo: dict, pmemo: dict) -> dict:
    """Solve the reversal identity coefficient by coefficient under the
    degree bound, scanning the whole finite group for the summation."""
    assert not (u.rdesc & H) and not (w.rdesc & H)
    key = (u, w)
    if key in pmemo:
        return pmemo[key]
    if u is w:
        res = P_ONE
    elif not bruhat_leq_oracle(sys, u, w):
        res = {}
    else:
        n = w.length - u.length
        G: dict = {}
        for z in sys.group_elements():
            if z is u or (z.rdesc & H):
                continue
            if bruhat_leq_oracle(sys, u, z) and bruhat_leq_oracle(sys, z, w):
                G = poly_add(G, poly_mul(
                    parabolic_R_oracle(sys, H, x, u, z, rmemo),
                    parabolic_P_oracle(sys, H, x, z, w, rmemo, pmemo)))
        bound = (n - 1) // 2
        res = {i: G[n - i] for i in range(bound + 1) if n - i in G}
        # re-substitute: q^n res(1/q) - res must equal G exactly
        check = poly_add({n - i: v for i, v in res.items()},
                         {i: -v for i, v in res.items()})
        assert check == G, "oracle extraction inconsistent at (%s, %s)" % (
            u.label_str(), w.label_str())
    pmemo[key] = res
    return res


def convolution_P_oracle(sys: CoxeterSystem, H: int, x: str, u: Element,
                         w: Element, rmemo: dict, pmemo: dict) -> dict:
    """P(u, w) in pull form: extracted under the degree bound from the sum
    of R(u, z) P(z, w) over the z of W^H with u < z <= w.  This was the
    production recursion before the column fill replaced it.  [u, w] is
    read off the subwords of w, so infinite groups are covered; pmemo
    keeps that set of subwords under the key w, next to the pairs."""
    assert not (u.rdesc & H) and not (w.rdesc & H)
    key = (u, w)
    if key in pmemo:
        return pmemo[key]
    if u is w:
        res = P_ONE
    elif not bruhat_leq_oracle(sys, u, w):
        res = {}
    else:
        below = pmemo.get(w)
        if below is None:
            below = pmemo[w] = subword_reachable(sys, w)
        n = w.length - u.length
        G: dict = {}
        for z in below:
            if z is u or (z.rdesc & H) or not bruhat_leq_oracle(sys, u, z):
                continue
            G = poly_add(G, poly_mul(
                parabolic_R_oracle(sys, H, x, u, z, rmemo),
                convolution_P_oracle(sys, H, x, z, w, rmemo, pmemo)))
        bound = (n - 1) // 2
        res = {i: G[n - i] for i in range(bound + 1) if n - i in G}
        check = poly_add({n - i: v for i, v in res.items()},
                         {i: -v for i, v in res.items()})
        assert check == G, "oracle extraction inconsistent at (%s, %s)" % (
            u.label_str(), w.label_str())
    pmemo[key] = res
    return res


def deodhar_identity_check(contexts, H: int, u: Element, v: Element
                           ) -> bool:
    """Both translations between parabolic and ordinary P-polynomials, on
    the tables `contexts(H, x)` of the system of u and v (for instance
    `functools.partial(get_context, sys)`): P^H(u, v) for x = q is the
    alternating sum of P(u z, v) over z in W_H, and P^H(u, v) for x = -1
    is P(u w_H, v w_H), w_H the longest element of W_H (W_H must be
    finite).  Raises unless u and v are in W^H."""
    sys = u.system
    ordinary = contexts(0, "-1")
    want = contexts(H, "q").P(u, v).coeffs
    alt: dict = {}
    for z in parabolic_group(sys, H):
        sign = -1 if z.length % 2 else 1
        term = ordinary.P(multiply(sys, u, z), v).coeffs
        alt = poly_add(alt, {i: sign * c for i, c in enumerate(term)})
    if alt != {i: c for i, c in enumerate(want) if c}:
        return False
    w0 = longest_element_of_parabolic(sys, H)
    shifted = ordinary.P(multiply(sys, u, w0), multiply(sys, v, w0))
    return contexts(H, "-1").P(u, v) == shifted
