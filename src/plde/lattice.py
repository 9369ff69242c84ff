"""Integer lattices: canonical Hermite forms, saturation, complements,
unimodular completion, and exact linear solving over the integers.

All lattices are submodules of Z^r stored by a canonical row Hermite
normal form basis, so structural equality is plain tuple equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm

from .polyring import InvariantError


def clear_denominators(row):
    """The rational vector row times the lcm of its denominators, as ints.

    A row that holds only ints is returned as it is, not copied.
    """
    if all(isinstance(c, int) for c in row):
        return row
    scale = _int_lcm(*(c.denominator for c in row))
    return [int(c * scale) for c in row]


def primitive_vector(v) -> tuple:
    """The integer vector with coprime entries that is a positive multiple of v."""
    ints = clear_denominators(v)
    g = _int_gcd(*ints)
    if not g:
        raise ValueError("the zero vector has no primitive multiple")
    return tuple(x // g for x in ints)


def _euclid_pivot(vecs, start: int, col: int, track=None):
    """Clear entry col of vecs[start:] down to one nonzero vector, by Euclid; its index.

    Repeatedly sorts the vectors with a nonzero entry by its absolute value
    and subtracts from each the floor-quotient multiple of the first,
    calling track(i, base, q) after vecs[i] -= q * vecs[base], until one is
    left.  Returns None when every entry is zero already.
    """
    cand = [i for i in range(start, len(vecs)) if vecs[i][col]]
    while len(cand) > 1:
        cand.sort(key=lambda i: abs(vecs[i][col]))
        base = cand[0]
        for i in cand[1:]:
            q = vecs[i][col] // vecs[base][col]
            if q:
                vecs[i] = [a - q * b for a, b in zip(vecs[i], vecs[base])]
                if track is not None:
                    track(i, base, q)
        cand = [i for i in cand if vecs[i][col]]
    return cand[0] if cand else None


def _row_echelon(mat, width):
    """Integer row echelon over the first `width` columns, in place.

    Returns the list of pivot columns, one per produced row.  Rows beyond
    the pivot rows have zeros throughout the first `width` columns.
    """
    row = 0
    pivots = []
    for col in range(width):
        i0 = _euclid_pivot(mat, row, col)
        if i0 is None:
            continue
        mat[row], mat[i0] = mat[i0], mat[row]
        if mat[row][col] < 0:
            mat[row] = [-a for a in mat[row]]
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    return pivots


def _hnf_rows(rows, dim):
    mat = [list(map(int, r)) for r in rows if any(r)]
    for r in mat:
        if len(r) != dim:
            raise ValueError("row length %d, expected %d" % (len(r), dim))
    pivots = _row_echelon(mat, dim)
    # reduce entries above each pivot into [0, pivot)
    for j, col in enumerate(pivots):
        piv = mat[j][col]
        for i in range(j):
            q = mat[i][col] // piv
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[j])]
    return tuple(tuple(r) for r in mat[:len(pivots)])


class IntLattice:
    """Submodule of Z^dim with canonical HNF basis rows."""

    __slots__ = ("dim", "basis")

    def __init__(self, dim: int, rows=()):
        self.dim = int(dim)
        self.basis = _hnf_rows(rows, self.dim)

    @classmethod
    def zero(cls, dim: int) -> "IntLattice":
        return cls(dim)

    @classmethod
    def full(cls, dim: int) -> "IntLattice":
        return cls(dim, [[1 if i == j else 0 for j in range(dim)] for i in range(dim)])

    @property
    def rank(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def contains(self, v) -> bool:
        v = [int(x) for x in v]
        if len(v) != self.dim:
            raise ValueError("vector length %d, expected %d" % (len(v), self.dim))
        for row in self.basis:
            col = next(i for i, x in enumerate(row) if x)
            if v[col] % row[col]:
                return False
            q = v[col] // row[col]
            if q:
                v = [a - q * b for a, b in zip(v, row)]
        return not any(v)

    def reduce(self, v):
        """Canonical coset representative of v modulo this lattice."""
        v = [int(x) for x in v]
        for row in self.basis:
            col = next(i for i, x in enumerate(row) if x)
            q = v[col] // row[col]
            if q:
                v = [a - q * b for a, b in zip(v, row)]
        return tuple(v)

    def key(self):
        return (self.rank, self.basis)

    def __eq__(self, other):
        return (isinstance(other, IntLattice)
                and self.dim == other.dim and self.basis == other.basis)

    def __hash__(self):
        return hash((self.dim, self.basis))

    def __repr__(self):
        return "IntLattice(%d, %r)" % (self.dim, list(map(list, self.basis)))

    def __str__(self):
        if not self.basis:
            return "0"
        return ";".join(",".join(str(x) for x in row) for row in self.basis)


def is_sublattice(inner: IntLattice, outer: IntLattice) -> bool:
    if inner.dim != outer.dim:
        raise ValueError("ambient dimensions differ")
    return all(outer.contains(row) for row in inner.basis)


def integer_kernel(matrix, ncols: int) -> IntLattice:
    """Lattice {x in Z^ncols : matrix . x = 0} for an integer matrix."""
    m = len(matrix)
    aug = []
    for j in range(ncols):
        aug.append([matrix[i][j] for i in range(m)] + [1 if t == j else 0 for t in range(ncols)])
    _row_echelon(aug, m)
    rows = [r[m:] for r in aug if not any(r[:m])]
    return IntLattice(ncols, rows)


def orthogonal_complement_lattice(W: IntLattice) -> IntLattice:
    """Saturated lattice of integer vectors orthogonal to every element of W."""
    if W.is_zero():
        return IntLattice.full(W.dim)
    return integer_kernel([list(row) for row in W.basis], W.dim)


def saturation(L: IntLattice) -> IntLattice:
    """Smallest saturated lattice containing L (the double orthogonal complement)."""
    return orthogonal_complement_lattice(orthogonal_complement_lattice(L))


def solve_integer(matrix, rhs, ncols: int):
    """Solve matrix . x = rhs over Z.

    Returns (particular solution tuple, kernel IntLattice) or None when no
    integer solution exists.  Works via column reduction with a tracked
    unimodular transform.
    """
    m = len(matrix)
    hcols = [[matrix[i][j] for i in range(m)] for j in range(ncols)]
    vcols = [[1 if t == j else 0 for t in range(ncols)] for j in range(ncols)]

    def track(j, i, q):
        vcols[j] = [a - q * b for a, b in zip(vcols[j], vcols[i])]

    cur = 0
    pivots = []  # (row, column position)
    for i in range(m):
        j0 = _euclid_pivot(hcols, cur, i, track)
        if j0 is None:
            continue
        hcols[cur], hcols[j0] = hcols[j0], hcols[cur]
        vcols[cur], vcols[j0] = vcols[j0], vcols[cur]
        pivots.append((i, cur))
        cur += 1
        if cur == ncols:
            break
    resid = [int(x) for x in rhs]
    y = [0] * ncols
    for (i, j) in pivots:
        piv = hcols[j][i]
        if resid[i] % piv:
            return None
        y[j] = resid[i] // piv
        if y[j]:
            resid = [a - y[j] * b for a, b in zip(resid, hcols[j])]
    if any(resid):
        return None
    particular = [0] * ncols
    for j in range(ncols):
        if y[j]:
            particular = [a + y[j] * b for a, b in zip(particular, vcols[j])]
    pivot_cols = {j for (_, j) in pivots}
    kernel_rows = [vcols[j] for j in range(ncols) if j not in pivot_cols]
    return tuple(particular), IntLattice(ncols, kernel_rows)


def det_int(rows) -> int:
    """Exact determinant of a square integer matrix (Bareiss)."""
    mat = [list(map(int, r)) for r in rows]
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if mat[i][k]), None)
            if swap is None:
                return 0
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[n - 1][n - 1] if n else 1


class UnimodularMatrix:
    """Square integer matrix with determinant +-1 and a cached integral inverse."""

    __slots__ = ("rows", "_inv")

    def __init__(self, rows):
        self.rows = tuple(tuple(int(x) for x in r) for r in rows)
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("matrix is not square")
        if abs(det_int(self.rows)) != 1:
            raise ValueError("determinant is not +-1")
        self._inv = None

    @classmethod
    def identity(cls, n: int) -> "UnimodularMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def dim(self) -> int:
        return len(self.rows)

    def apply(self, v):
        """Matrix-vector product M . v."""
        v = [int(x) for x in v]
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.rows)

    def inverse(self) -> "UnimodularMatrix":
        if self._inv is None:
            n = self.dim
            work = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
                    for i, row in enumerate(self.rows)]
            for col in range(n):
                piv = next(i for i in range(col, n) if work[i][col])
                work[col], work[piv] = work[piv], work[col]
                f = work[col][col]
                work[col] = [x / f for x in work[col]]
                for i in range(n):
                    if i != col and work[i][col]:
                        g = work[i][col]
                        work[i] = [a - g * b for a, b in zip(work[i], work[col])]
            inv_rows = []
            for i in range(n):
                row = work[i][n:]
                if any(x.denominator != 1 for x in row):
                    raise InvariantError("the inverse of a unimodular matrix is not integral")
                inv_rows.append([x.numerator for x in row])
            self._inv = UnimodularMatrix(inv_rows)
            self._inv._inv = self
        return self._inv

    def __eq__(self, other):
        return isinstance(other, UnimodularMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "UnimodularMatrix(%r)" % (list(map(list, self.rows)),)


def unimodular_completion(rows) -> UnimodularMatrix:
    """Extend a basis of a saturated lattice to a full determinant +-1 matrix.

    The given rows become the first rows of the result.  Raises ValueError
    when the rows are dependent or span a non-saturated lattice (the caller
    is expected to saturate first).
    """
    rows = [list(map(int, r)) for r in rows]
    if not rows:
        raise ValueError("need at least one row")
    t = len(rows)
    r = len(rows[0])
    if t > r:
        raise ValueError("more rows than the ambient dimension")
    bcols = [[rows[i][j] for i in range(t)] for j in range(r)]
    mrows = [[1 if i == j else 0 for j in range(r)] for i in range(r)]

    def track(j, i, q):
        # column_j -= q * column_i on B is mirrored as row_i += q * row_j on M
        mrows[i] = [a + q * b for a, b in zip(mrows[i], mrows[j])]

    def swap(i, j):
        bcols[i], bcols[j] = bcols[j], bcols[i]
        mrows[i], mrows[j] = mrows[j], mrows[i]

    def negate(i):
        bcols[i] = [-a for a in bcols[i]]
        mrows[i] = [-a for a in mrows[i]]

    for i in range(t):
        j0 = _euclid_pivot(bcols, i, i, track)
        if j0 is None:
            raise ValueError("rows are linearly dependent")
        if j0 != i:
            swap(i, j0)
        if bcols[i][i] < 0:
            negate(i)
        if bcols[i][i] != 1:
            raise ValueError("rows do not span a saturated lattice (pivot %d)" % bcols[i][i])
        for j in range(i):
            q = bcols[j][i]
            if q:
                bcols[j] = [a - q * b for a, b in zip(bcols[j], bcols[i])]
                track(j, i, q)
    M = UnimodularMatrix(mrows)
    if any(tuple(rows[i]) != M.rows[i] for i in range(t)):
        raise InvariantError("the completion does not start with the given rows")
    return M


@dataclass(frozen=True)
class ShiftCoset:
    """Coset base + L of an integer lattice, or the empty set."""

    base: tuple | None
    lattice: IntLattice

    @classmethod
    def of(cls, base, lattice: IntLattice) -> "ShiftCoset":
        return cls(lattice.reduce(base), lattice)

    @classmethod
    def empty(cls, dim: int) -> "ShiftCoset":
        return cls(None, IntLattice.zero(dim))

    @property
    def is_empty(self) -> bool:
        return self.base is None

    def contains(self, v) -> bool:
        if self.is_empty:
            return False
        return self.lattice.reduce(v) == self.base

    def __str__(self):
        if self.is_empty:
            return "empty"
        base = ",".join(str(x) for x in self.base)
        if self.lattice.is_zero():
            return "(%s)" % base
        return "(%s)+(%s)" % (base, self.lattice)


def complement_within(K: IntLattice, G: IntLattice) -> IntLattice:
    """A lattice K' with K = G (+) K', for saturated G inside K.

    Coordinates of G in a basis of K are completed unimodularly; the extra
    rows, mapped back to the ambient space, span the complement.
    """
    if G.rank == K.rank:
        return IntLattice.zero(K.dim)
    kb = [list(row) for row in K.basis]
    m = K.rank
    matrix = [[kb[j][i] for j in range(m)] for i in range(K.dim)]
    coords = []
    for row in G.basis:
        sol = solve_integer(matrix, list(row), m)
        if sol is None:
            raise ValueError("inner lattice is not contained in the outer one")
        coords.append(list(sol[0]))
    if not coords:
        return K
    coords = _hnf_rows(coords, m)
    T = unimodular_completion(coords)
    extra = T.rows[len(coords):]
    rows = []
    for z in extra:
        rows.append([sum(z[j] * kb[j][i] for j in range(m)) for i in range(K.dim)])
    return IntLattice(K.dim, rows)


def parse_module(text: str, dim: int) -> IntLattice:
    """Parse generator syntax: "1,-1", "1,0;0,1", or "0" for the zero module."""
    text = text.strip()
    if text == "0":
        return IntLattice.zero(dim)
    rows = []
    for part in text.split(";"):
        row = [int(x) for x in part.split(",")]
        if len(row) != dim:
            raise ValueError("generator %r has length %d, expected %d" % (part, len(row), dim))
        rows.append(row)
    return IntLattice(dim, rows)
