"""Brute-force subgroup enumeration, independent of the counting formulas.

Two oracles: a cover census that enumerates every subgroup of a small group
directly, one index-p step at a time, and a column-reduced matrix census
that counts canonical subgroup matrices of any rank, getting each minor it
tests from the minors below it by one row expansion.  Neither one takes its
counts from the recurrences or the closed forms, so agreement between the
routes is meaningful evidence; the recurrence only predicts what a census
would cost before it starts.
"""

from collections import namedtuple
from itertools import accumulate, chain, product

from .groups import GroupType
from .recurrence import total_count

DEFAULT_LIMIT = 4096

# Largest predicted work either census starts.  The cover census is charged
# subgroup total times group order (about 0.3 microseconds a unit on a 2-core
# x86 VM with Python 3.11), the matrix census a proved bound on its search
# calls (star_census_work, about 0.5-1.6 microseconds a unit there), so
# either runs for at most a few seconds.  Both admit the whole acceptance
# family, whose cover costs stop at 6,000,000 and whose work bounds stop at
# 70,438; the queries they refuse would run for minutes or, like the 4.9e11
# subgroups of (1^12) at p=2, never finish.
CENSUS_COST_LIMIT = 20_000_000
STAR_COST_LIMIT = 10_000_000


class GroupTooLarge(ValueError):
    """Raised when the group order exceeds the enumeration limit."""


class CensusTooCostly(GroupTooLarge):
    """Raised when a census's predicted work exceeds its cost limit."""


class PrimalityUndecided(ValueError):
    """Raised when a prime is too large for the exact primality test."""


class CensusResult(namedtuple("CensusResult", "prime group_type counts")):
    """Counts of subgroups of each order p**b, for one type at one prime."""

    __slots__ = ()

    def __new__(cls, prime, group_type, counts):
        group_type, counts = GroupType(group_type), tuple(counts)
        # one count per order index, and as many subgroups of each order as of
        # each index, so the counts read the same backwards and end in 1
        if len(counts) != group_type.weight + 1 or counts[0] != 1 or counts != counts[::-1]:
            raise RuntimeError(
                "census invariants violated for %s at p=%d: %s" % (group_type, prime, counts))
        return tuple.__new__(cls, (prime, group_type, counts))

    @property
    def total(self):
        return sum(self.counts)

    def to_json(self):
        return {
            "prime": self.prime,
            "type": self.group_type.to_json(),
            "counts": list(self.counts),
            "total": self.total,
        }


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (J. Sorenson and J. Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86 (2017)): every composite n below it fails some base.
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _check_prime(p):
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        raise ValueError("prime must be an int >= 2, got %r" % (p,))
    if p >= PRIME_TEST_BOUND:
        raise PrimalityUndecided(
            "primality is decided only below %d, got a %d-bit number"
            % (PRIME_TEST_BOUND, p.bit_length()))
    if p in _PRIME_BASES:
        return
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise ValueError("%d is not prime" % p)


def _admit(census, t, prime, limit):
    """The canonical type of t, once the census of that name admits it.

    It checks the prime, then p**weight against limit, then the census's own
    price against its own cap.  The order grows one factor at a time and stops
    past the limit, so a huge weight builds no huge int; GroupTooLarge names p^m.
    """
    t = GroupType(t)
    _check_prime(prime)
    m = t.weight
    order = 1
    for _ in range(m):
        order *= prime
        if order > limit:
            break
    if order > limit:
        raise GroupTooLarge(
            "group order %d^%d exceeds the enumeration limit %d" % (prime, m, limit))
    # built at each call, so a patched price or cap is the one charged
    price, cap, refusal = {
        "subgroup_census": (census_cost, CENSUS_COST_LIMIT,
                            "census of %s at p=%d would cost %d (subgroups times order)"),
        "star_matrix_census": (star_census_work, STAR_COST_LIMIT,
                               "matrix census of %s at p=%d may make %d or more search calls"),
    }[census]
    cost = price(t, prime)
    if cost > cap:
        raise CensusTooCostly((refusal + ", over the limit %d") % (t, prime, cost, cap))
    return t


def admits(census, t, prime, limit=DEFAULT_LIMIT):
    """Whether the census of that name runs on (t, prime) at limit; a bad prime raises."""
    try:
        _admit(census, t, prime, limit)
    except GroupTooLarge:
        return False
    return True


def census_cost(t, prime):
    """Work the cover census would do: subgroup total times group order."""
    t = GroupType(t)
    return total_count(t).eval_at(prime) * prime ** t.weight


def subgroup_census(t, prime, limit=DEFAULT_LIMIT):
    """Enumerate all subgroups by index-p extension and bucket by order."""
    t = _admit("subgroup_census", t, prime, limit)
    return CensusResult(prime, t, _cover_census([prime ** a for a in t], prime))


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


def _star_cells(k):
    """The off-diagonal cells of a k-by-k matrix, in the order they are filled.

    Column by column, each from the diagonal upward: entry (r, j) is tested
    against the minor on rows r..j-1 and columns r+1..j, which holds no entry
    of a later column and none above row r of column j, so every entry is
    tested as soon as it is set.
    """
    return [(r, j) for j in range(1, k) for r in range(j - 1, -1, -1)]


# Work bound.  For a type vector ivec, cell (r, j) admits the values
# range(start, p**i_j, p**x) with x = max(0, i_j + i_r - a_r) and
# 0 <= start < p**x (see _fillings).  As i_r <= a_r, x <= i_j, so that range
# holds exactly u(r, j) = p**(i_j - x) = p**min(i_j, a_r - i_r) values.  The
# search calls _fillings once at depth 0, and once at depth d + 1 for each
# value of cell d taken at a depth-d call, except at the last cell, whose
# values are counted and not taken.  A call that finds no admissible value
# takes none, so by induction on d the search makes at most
# u(cell 0) * ... * u(cell d-1) calls at depth d, and at most
#     W(ivec) = sum over d = 0..n-1 of prod over c < d of u(cell c)
# calls for ivec, where n >= 1 is the number of cells; a rank-1 type makes
# no call and is charged 1 a type vector for its loop.  The bound reads
# only the type, so it is known before any matrix is built.  Each term is
# at least 1, so a type with V type vectors is charged at least V * n.

def star_census_work(t, prime):
    """W(ivec) summed over every type vector, stopping at the first partial
    sum past STAR_COST_LIMIT.

    A price within the cap is an upper bound on the search calls of
    star_matrix_census; one over it is a lower bound on the full sum, enough
    to refuse the type.  A type with V type vectors and n >= 1 cells is
    charged at least V * n.  When that alone passes STAR_COST_LIMIT it is
    returned unsummed, so a huge type is priced at once; otherwise at most
    STAR_COST_LIMIT / n + 1 type vectors are summed.
    """
    t = GroupType(t)
    inner = _star_cells(t.rank)[:-1]
    vectors = 1
    for a in t:
        vectors *= a + 1
    floor = vectors * (len(inner) + 1)
    if floor > STAR_COST_LIMIT:
        return floor
    total = 0
    for ivec in product(*[range(a + 1) for a in t]):
        calls = node = 1
        for r, j in inner:
            node *= prime ** min(ivec[j], t[r] - ivec[r])
            calls += node
        total += calls
        if total > STAR_COST_LIMIT:
            break
    return total


def star_matrix_census(t, prime, limit=DEFAULT_LIMIT):
    """Count canonical upper-triangular subgroup matrices, bucketed by order.

    Diagonal entries run over the divisors p**i_j of each factor order; the
    entries above a diagonal entry run over residues mod p**i_j.  A matrix is
    kept when each excess exponent divides the matching connected minor.
    Each such test is linear in the entry it tests, so the admissible values
    of an entry are solved for, not tried one by one, and each minor comes
    from the minors below it by one row expansion; see _fillings.  There is
    no rank cap: the order limit and the work bound decide admission.
    """
    t = _admit("star_matrix_census", t, prime, limit)
    k = t.rank
    m = t.weight
    power = [prime ** e for e in range(m + 1)]
    # what a cell needs that no type vector changes: its row expansion's
    # rows q = j-1, ..., r+1, and the sign (-1)**(j-r-1) of the entry's term
    cells = [(r, j, range(j - 1, r, -1)) for r, j in _star_cells(k)]
    signs = [(-1) ** (j - r - 1) for r, j, _ in cells]
    # one matrix and one table of minors, minors[j][r] = X(r, j), serve every
    # type vector: a search reads only what it has set on its way down
    mat = [[0] * k for _ in range(k)]
    minors = [[0] * k for _ in range(k)]
    counts = [0] * (m + 1)
    for ivec in product(*[range(0, a + 1) for a in t]):
        if not cells:
            counts[m - sum(ivec)] += 1
            continue
        for j in range(k):
            mat[j][j] = power[ivec[j]]
        sums = [0, *accumulate(ivec)]
        solves = []
        for (r, j, _), sign in zip(cells, signs):
            s = sums[j] - sums[r + 1]
            excess = sums[j + 1] - sums[r] - t[r]
            scale = sign * power[s]
            if excess <= 0:
                solves.append((1, 0, scale))
            else:
                solves.append((power[max(0, excess - s)], power[min(s, excess)], scale))
        counts[m - sums[k]] += _fillings(mat, minors, cells, solves, 0)
    return CensusResult(prime, t, counts)


def _fillings(mat, minors, cells, solves, i):
    """Number of ways to fill cells[i:] so that every minor test passes.

    Let X(r, j) be the connected minor on rows r..j-1 and columns r+1..j,
    with X(j, j) = 1.  Expanding it along row r, the entry m(r, q) sits in
    the corner of a block-triangular minor: the rows r+1..q-1 give the
    diagonal p**i_(r+1), ..., p**i_(q-1) and the rest is X(q, j), so
        X(r, j) = sum over q = r+1..j of
                  (-1)**(q-r-1) * m(r, q) * p**(i_(r+1) + ... + i_(q-1)) * X(q, j).
    The loop below sums the terms q < j in Horner form; they hold entries of
    earlier columns and minors X(q, j) of cells below in this column, all set
    already.  That sum is c, and the q = j term is scale * v, with v in the
    cell and scale = (-1)**(j-r-1) * p**s, s = i_(r+1) + ... + i_(j-1).  Each
    value set writes its X(r, j) to minors[j][r] for the cells above; row 0's
    is never read.

    Cell (r, j) is tested when its excess e = i_j + i_r + ... + i_(j-1) - a_r
    is positive: p**e must divide X(r, j) = scale * v + c, a linear
    congruence in v:
    - with g = min(s, e), p**g must divide c, or no v passes;
    - if s >= e, every v passes;
    - else v = -c / scale mod p**(e-s), one residue.
    So when p**g divides c, the passing v in range(p**i_j) are
    range(start, p**i_j, step), where step = p**max(0, e - s) and
    e - s = i_j + i_r - a_r is at most i_j; there are p**i_j // step of
    them, whatever start is.  solves[i] holds step, p**g (0 when the cell
    is untested) and scale.
    """
    r, j, inner = cells[i]
    step, divisor, scale = solves[i]
    row = mat[r]
    col = minors[j]
    c = 0
    for q in inner:
        c = row[q] * col[q] - mat[q][q] * c
    start = 0
    if divisor:
        if c % divisor:
            return 0
        start = -c // scale % step
    top = mat[j][j]
    if i == len(cells) - 1:
        return top // step
    total = 0
    for v in range(start, top, step):
        row[j] = v
        col[r] = c + scale * v
        total += _fillings(mat, minors, cells, solves, i + 1)
    return total
