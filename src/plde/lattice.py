"""Integer lattices: canonical Hermite forms, saturation, orthogonal
complements, reduction modulo a span, and unimodular matrices.

All lattices are submodules of Z^r stored by a canonical row Hermite
normal form basis, so structural equality is plain tuple equality.

One elimination does all the work: the row Hermite form of `_row_echelon`
and `_hnf_rows`.  `_split` applies it to rows augmented by their images
under a linear map, which separates the rows with zero image (a kernel)
from a complement.  Integer kernels, the reduction of a vector modulo a
span with the combination that reaches it (`reduce_by_span`) and the
inverse of a unimodular matrix are all read off such augmented forms
(Cohen, *A Course in Computational Algebraic Number Theory*, 1993, ch. 2).
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _euclid_clear(vecs, start: int, col: int):
    """Clear entry col of vecs[start:] down to one nonzero vector, by Euclid; its index.

    Repeatedly sorts the vectors with a nonzero entry by its absolute value
    and subtracts from each the floor-quotient multiple of the first, until
    one is left.  Returns None when every entry is zero already.
    """
    cand = [i for i in range(start, len(vecs)) if vecs[i][col]]
    while len(cand) > 1:
        cand.sort(key=lambda i: abs(vecs[i][col]))
        base = cand[0]
        for i in cand[1:]:
            q = vecs[i][col] // vecs[base][col]
            if q:
                vecs[i] = [a - q * b for a, b in zip(vecs[i], vecs[base])]
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
        i0 = _euclid_clear(mat, row, col)
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
    mat = [list(map(int, r)) for r in rows]
    for r in mat:
        if len(r) != dim:
            raise ValueError("row length %d, expected %d" % (len(r), dim))
    mat = [r for r in mat if any(r)]
    pivots = _row_echelon(mat, dim)
    # reduce entries above each pivot into [0, pivot)
    for j, col in enumerate(pivots):
        piv = mat[j][col]
        for i in range(j):
            q = mat[i][col] // piv
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[j])]
    return tuple(tuple(r) for r in mat[:len(pivots)])


def _split(rows, images):
    """Row-reduce [images | rows]; the rows whose images stay nonzero, and those whose images vanish.

    The row operations are unimodular, so the two lists together span the
    lattice of `rows`; the second spans its elements of zero image, and the
    first a complement of them, whose images are linearly independent.
    """
    width = len(images[0]) if images else 0
    mat = [list(a) + list(b) for a, b in zip(images, rows)]
    rank = len(_row_echelon(mat, width))
    return [r[width:] for r in mat[:rank]], [r[width:] for r in mat[rank:]]


class IntLattice:
    """Submodule of Z^dim with canonical HNF basis rows."""

    __slots__ = ("dim", "basis", "_pivots")

    def __init__(self, dim: int, rows=()):
        self.dim = int(dim)
        self.basis = _hnf_rows(rows, self.dim)
        # (column, entry, row) of each row's first nonzero entry, the one reduce clears
        self._pivots = tuple(next((i, x, row) for i, x in enumerate(row) if x)
                             for row in self.basis)

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
        return not any(self.reduce(v))

    def reduce(self, v):
        """Canonical coset representative of v modulo this lattice."""
        v = [int(x) for x in v]
        if len(v) != self.dim:
            raise ValueError("vector length %d, expected %d" % (len(v), self.dim))
        for col, pivot, row in self._pivots:
            q = v[col] // pivot
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
    units = [[1 if t == j else 0 for t in range(ncols)] for j in range(ncols)]
    columns = [[row[j] for row in matrix] for j in range(ncols)]
    return IntLattice(ncols, _split(units, columns)[1])


def orthogonal_complement_lattice(W: IntLattice) -> IntLattice:
    """Saturated lattice of integer vectors orthogonal to every element of W."""
    return integer_kernel(W.basis, W.dim)


def saturation(L: IntLattice) -> IntLattice:
    """Smallest saturated lattice containing L (the double orthogonal complement)."""
    return orthogonal_complement_lattice(orthogonal_complement_lattice(L))


def reduce_by_span(vectors, v):
    """(t, K): v + sum t_i vectors[i] is the `IntLattice.reduce` form of v
    modulo the span of the integer vectors, and the rows K span the lattice
    of the t' with sum t'_i vectors[i] = 0.

    An echelon form of [vectors | I] holds an echelon basis of the span
    with positive pivots; reducing v by it puts each pivot entry in [0,
    pivot), which singles out one element of the coset for any such basis.
    The right parts give t, and those of the rows with zero left part, K.
    """
    n, m = len(v), len(vectors)
    mat = [list(a) + [int(i == j) for j in range(m)] for i, a in enumerate(vectors)]
    rank = len(_row_echelon(mat, n))
    t = [0] * m
    for row in mat[:rank]:
        col = next(j for j, x in enumerate(row) if x)
        q = v[col] // row[col]
        v = [a - q * b for a, b in zip(v, row)]
        t = [a - q * b for a, b in zip(t, row[n:])]
    return t, [row[n:] for row in mat[rank:]]


class UnimodularMatrix:
    """Square integer matrix with determinant +-1 and a cached integral inverse."""

    __slots__ = ("rows", "_inv")

    def __init__(self, rows):
        self.rows = tuple(tuple(int(x) for x in r) for r in rows)
        n = len(self.rows)
        if IntLattice(n, self.rows) != IntLattice.full(n):
            raise ValueError("the rows do not span Z^%d: determinant is not +-1" % n)
        self._inv = None

    @property
    def dim(self) -> int:
        return len(self.rows)

    def apply(self, v):
        """Matrix-vector product M . v."""
        v = [int(x) for x in v]
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.rows)

    def inverse(self) -> "UnimodularMatrix":
        """The right block of the Hermite form [I | M^-1] of [M | I]."""
        if self._inv is None:
            n = self.dim
            unit = IntLattice.full(n).basis
            hnf = _hnf_rows([row + e for row, e in zip(self.rows, unit)], 2 * n)
            if tuple(r[:n] for r in hnf) != unit:
                raise InvariantError("the Hermite form of [M | I] does not start with I")
            self._inv = UnimodularMatrix([r[n:] for r in hnf])
            self._inv._inv = self
        return self._inv

    def __eq__(self, other):
        return isinstance(other, UnimodularMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "UnimodularMatrix(%r)" % (list(map(list, self.rows)),)


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

    def __str__(self):
        if self.is_empty:
            return "empty"
        base = ",".join(str(x) for x in self.base)
        if self.lattice.is_zero():
            return "(%s)" % base
        return "(%s)+(%s)" % (base, self.lattice)


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
