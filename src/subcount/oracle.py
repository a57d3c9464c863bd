"""Brute-force subgroup enumeration, independent of the counting formulas.

Two oracles: a cover census that enumerates every subgroup of a small group
directly, one index-p step at a time, and a column-reduced matrix census
that counts canonical subgroup matrices.  Neither one takes its counts from
the recurrences or the closed forms, so agreement between the routes is
meaningful evidence; the recurrence only predicts what a census would cost
before it starts.
"""

from itertools import chain, product

from .groups import GroupType, OutOfRange
from .polyring import IntPoly
from .recurrence import total_count

DEFAULT_LIMIT = 4096

# Largest predicted work either census starts.  The cover census is charged
# subgroup total times group order (about 0.3 microseconds a unit on a 2-core
# x86 VM with Python 3.11), the matrix census its candidate matrices
# (star_census_cost), of which its pruning visits a small share.  Both admit
# the whole acceptance family, whose cover costs stop at 6,000,000; the
# queries they refuse would run for minutes or, like the 4.9e11 subgroups of
# (1^12) at p=2, never finish.
CENSUS_COST_LIMIT = 20_000_000
STAR_COST_LIMIT = 20_000_000


class GroupTooLarge(ValueError):
    """Raised when the group order exceeds the enumeration limit."""


class CensusTooCostly(GroupTooLarge):
    """Raised when a census's predicted work exceeds its cost limit."""


class RankTooLarge(ValueError):
    """Raised when the matrix census is asked for a rank it cannot handle."""


class CensusResult:
    """Counts of subgroups of each order p**b, for one type at one prime."""

    __slots__ = ("prime", "group_type", "counts", "total")

    def __init__(self, prime, group_type, counts):
        self.prime = prime
        self.group_type = GroupType(group_type)
        self.counts = tuple(counts)
        self.total = sum(counts)

    def to_json(self):
        return {
            "prime": self.prime,
            "type": self.group_type.to_json(),
            "counts": list(self.counts),
            "total": self.total,
        }

    def __eq__(self, other):
        if isinstance(other, CensusResult):
            return (self.prime, self.group_type, self.counts) == (
                other.prime, other.group_type, other.counts)
        return NotImplemented

    def __repr__(self):
        return "CensusResult(%r, %r, %r)" % (self.prime, self.group_type, self.counts)


def _check_prime(p):
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        raise ValueError("prime must be an int >= 2, got %r" % (p,))
    k = 2
    while k * k <= p:
        if p % k == 0:
            raise ValueError("%d is not prime" % p)
        k += 1


def _check_order(prime, m, limit):
    """Raise GroupTooLarge if prime**m > limit.

    The power grows one factor at a time and stops at the first one past
    the limit, so a huge m builds no huge int and the message names p^m.
    """
    order = 1
    for _ in range(m):
        order *= prime
        if order > limit:
            break
    if order > limit:
        raise GroupTooLarge(
            "group order %d^%d exceeds the enumeration limit %d" % (prime, m, limit))


def census_cost(t, prime):
    """Work the cover census would do: subgroup total times group order."""
    t = GroupType(t)
    return total_count(t).eval_at(prime) * prime ** t.weight


def subgroup_census(t, prime, limit=DEFAULT_LIMIT):
    """Enumerate all subgroups by index-p extension and bucket by order."""
    t = GroupType(t)
    _check_prime(prime)
    m = t.weight
    _check_order(prime, m, limit)
    cost = census_cost(t, prime)
    if cost > CENSUS_COST_LIMIT:
        raise CensusTooCostly(
            "census of %s at p=%d would cost %d (subgroups times order), "
            "over the limit %d" % (t, prime, cost, CENSUS_COST_LIMIT))
    counts = _cover_census([prime ** a for a in t.parts], prime)
    if len(counts) != m + 1 or counts[0] != 1 or counts[m] != 1 or counts != counts[::-1]:
        raise RuntimeError(
            "census invariants violated for %s at p=%d: %s" % (t, prime, counts))
    return CensusResult(prime, t, counts)


def _mixed_radix(columns):
    """Entry x is the sum over c of columns[c][digit c of x], digit 0 fastest.

    A column listing f(d) * weight[c] for each digit d thus tabulates the
    map that applies f to each digit of the mixed-radix encoding.
    """
    acc = [0]
    for col in reversed(columns):
        acc = [a + v for a in acc for v in col]
    return acc


def _cover_census(mods, p):
    """Count the subgroups of the sum of Z/mods[i], one order p**e per level.

    Every subgroup K > {0} of a finite p-group has a subgroup H of index p,
    and then K = H + <g> for any g in K - H, with p*g in H.  So level e+1 is
    built from level e by adjoining such g; the cosets H, H+g, ...,
    H+(p-1)g are disjoint, and the covers of one H partition the candidates
    g outside H, so each cover is built once per H.  A subgroup is kept as
    the sorted tuple of its elements, which dedupes a level in a set.
    """
    mods = sorted(mods, reverse=True)  # keeps _mixed_radix's partial lists short
    weights = []
    n = 1
    for m in mods:
        weights.append(n)
        n *= m
    times_p = _mixed_radix([[p * d % m * w for d in range(m)]
                            for m, w in zip(mods, weights)])
    preimages = [[] for _ in range(n)]
    for g, h in enumerate(times_p):
        preimages[h].append(g)
    rows = {}  # rows[g][x] = x + g, built for the generators used
    counts = [1]
    level = {(0,)}
    while True:
        above = set()
        for elems in level:
            rest = set(chain.from_iterable(map(preimages.__getitem__, elems)))
            rest.difference_update(elems)
            while rest:
                g = rest.pop()
                row = rows.get(g)
                if row is None:
                    # g // w also carries g's higher digits; they vanish mod m
                    row = rows[g] = _mixed_radix(
                        [[(d + g // w) % m * w for d in range(m)]
                         for m, w in zip(mods, weights)])
                coset = list(map(row.__getitem__, elems))
                new = coset
                for _ in range(p - 2):
                    coset = list(map(row.__getitem__, coset))
                    new += coset
                rest.difference_update(new)
                new += elems
                new.sort()
                above.add(tuple(new))
        if not above:
            return counts
        counts.append(len(above))
        level = above


def _minor(mat, rows, cols):
    sub = [[mat[r][c] for c in cols] for r in rows]
    k = len(sub)
    if k == 1:
        return sub[0][0]
    if k == 2:
        return sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
    a, b, c = sub[0]
    d, e, f = sub[1]
    g, h, i = sub[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def star_census_cost(t, prime):
    """Number of candidate matrices the matrix census would enumerate.

    Column j contributes j - 1 off-diagonal residues mod p**i_j, so the count
    is a product of geometric sums; use it to skip infeasible types.
    """
    t = GroupType(t)
    total = 1
    for j, a in enumerate(t.parts):
        total *= sum(prime ** (j * i) for i in range(0, a + 1))
    return total


def star_matrix_census(t, prime, limit=DEFAULT_LIMIT):
    """Count canonical upper-triangular subgroup matrices, bucketed by order.

    Diagonal entries run over the divisors p**i_j of each factor order; the
    entries above a diagonal entry run over residues mod p**i_j.  A matrix is
    kept when each excess exponent divides the matching connected minor.
    """
    t = GroupType(t)
    _check_prime(prime)
    if t.rank > 4:
        raise RankTooLarge(
            "matrix census supports rank at most 4, got %d" % t.rank)
    m = t.weight
    _check_order(prime, m, limit)
    cost = star_census_cost(t, prime)
    if cost > STAR_COST_LIMIT:
        raise CensusTooCostly(
            "matrix census of %s at p=%d would cost %d candidate matrices, "
            "over the limit %d" % (t, prime, cost, STAR_COST_LIMIT))
    k = t.rank
    parts = t.parts
    # entry (r, j) is tested against the minor on rows r..j-1 and columns
    # r+1..j, which holds no entry of a later column and none above row r of
    # column j; filling column by column, each from the diagonal upward,
    # tests every entry as soon as it is set
    cells = [(r, j) for j in range(1, k) for r in range(j - 1, -1, -1)]
    counts = [0] * (m + 1)
    for ivec in product(*[range(0, a + 1) for a in parts]):
        mat = [[0] * k for _ in range(k)]
        for j in range(k):
            mat[j][j] = prime ** ivec[j]
        tests = []
        for r, j in cells:
            excess = ivec[j] + sum(ivec[r:j]) - parts[r]
            if excess > 0:
                tests.append((list(range(r, j)), list(range(r + 1, j + 1)),
                              prime ** excess))
            else:
                tests.append(None)
        counts[m - sum(ivec)] += _fillings(mat, cells, tests, 0)
    if counts[0] != 1 or counts[m] != 1 or counts != counts[::-1]:
        raise RuntimeError(
            "matrix census invariants violated for %s at p=%d: %s" % (t, prime, counts))
    return CensusResult(prime, t, counts)


def _fillings(mat, cells, tests, i):
    """Number of ways to fill cells[i:] so that every minor test passes."""
    if i == len(cells):
        return 1
    r, j = cells[i]
    row = mat[r]
    test = tests[i]
    total = 0
    for v in range(mat[j][j]):
        row[j] = v
        if test is None or _minor(mat, test[0], test[1]) % test[2] == 0:
            total += _fillings(mat, cells, tests, i + 1)
    return total


def gaussian_binomial(d, b):
    """The p-binomial coefficient [d choose b] as a polynomial."""
    if not 0 <= b <= d:
        raise OutOfRange("need 0 <= b <= d, got b=%d d=%d" % (b, d))
    value = IntPoly.one()
    for i in range(1, b + 1):
        value = value * (IntPoly.term(1, d - b + i) - 1)
        value = value.exact_div(IntPoly.term(1, i) - 1)
    return value
