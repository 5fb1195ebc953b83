"""ADET Dynkin diagrams, exact Cartan data, and product index sets.

Supported families: A_n (n >= 1), D_n (n >= 2), E_6/E_7/E_8, and the tadpole
T_n (n >= 1), i.e. the order-2 folding of A_{2n}.  Cartan and adjacency
matrices are exact (Fraction entries); the adjacency matrix always satisfies
I = 2*id - C, and T_n carries a single loop (one diagonal adjacency entry 1).

Vertex numbering is fixed once and for all (0-based):

  A_n, T_n : path order 0, 1, ..., n-1; the T_n loop sits at vertex n-1.
  D_n      : chain 0, ..., n-3; fork vertices n-2 and n-1 attach to n-3.
  E_n      : Bourbaki order shifted down by one: chain 0-2-3-...-(n-1),
             with vertex 1 attached to vertex 3.

The Kronecker index set I x I' is flattened row-major: (i, i') -> i*r' + i'.
Exact linear algebra runs on one LDL^t (`_ldl`, `_ldl_solve`): its pivots
decide positive definiteness, and its factors solve for C(X')^{-1}.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

import numpy as np

from .errors import AdetError, InvalidDiagram

__all__ = [
    "DynkinDiagram",
    "RationalMatrix",
    "PairIndexing",
    "make_diagram",
    "parse_diagram",
    "adjacency_matrix",
    "cartan_matrix",
    "coxeter_number",
    "bipartition",
    "nahm_matrix",
    "pair_indexing",
]

FAMILIES = ("A", "D", "E", "T")


@dataclass(frozen=True, order=True)
class DynkinDiagram:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidDiagram(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if not isinstance(self.rank, int) or self.rank < 1:
            raise InvalidDiagram(f"rank must be a positive integer, got {self.rank!r}")
        if self.family == "E" and self.rank not in (6, 7, 8):
            raise InvalidDiagram(f"invalid rank for E: {self.rank}")
        if self.family == "D" and self.rank < 2:
            raise InvalidDiagram(f"invalid rank for D: {self.rank} (need rank >= 2)")

    @property
    def is_tadpole(self) -> bool:
        return self.family == "T"

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def make_diagram(family: str, rank: int) -> DynkinDiagram:
    """Validated diagram constructor."""
    return DynkinDiagram(str(family).upper(), rank)


def parse_diagram(name: str) -> DynkinDiagram:
    """Parse names like "A3", "d4", "E8", "t2" (case-insensitive)."""
    s = str(name).strip()
    if len(s) < 2 or not s[1:].isdigit():
        raise InvalidDiagram(f"cannot parse diagram name {name!r} (expected e.g. 'A3', 'T2')")
    return make_diagram(s[0], int(s[1:]))


def _edges(d: DynkinDiagram) -> list[tuple[int, int]]:
    """The edges (i, j), each with i = 0 or i the second vertex of an earlier edge."""
    n = d.rank
    if d.family in ("A", "T"):
        return [(i, i + 1) for i in range(n - 1)]
    if d.family == "D":
        edges = [(i, i + 1) for i in range(n - 3)]
        if n >= 3:
            edges += [(n - 3, n - 2), (n - 3, n - 1)]
        return edges
    # E family: chain 0-2-3-...-(n-1), then branch vertex 1 attached to 3.
    return [(0, 2)] + [(i, i + 1) for i in range(2, n - 1)] + [(3, 1)]


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable exact matrix over the rationals (row-major Fraction entries)."""

    entries: tuple

    def __post_init__(self):
        data = tuple(tuple(Fraction(v) for v in row) for row in self.entries)
        if not data or not data[0] or any(len(r) != len(data[0]) for r in data):
            raise ValueError("matrix entries must be a nonempty rectangular array")
        object.__setattr__(self, "entries", data)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == self.entries[j][i] for i in range(self.rows) for j in range(i)
        )

    def kron(self, other: "RationalMatrix") -> "RationalMatrix":
        """Kronecker product, row-major in the (i, k) pair index."""
        p, q = other.rows, other.cols
        return RationalMatrix(
            [
                [self.entries[i][j] * other.entries[k][l] for j in range(self.cols) for l in range(q)]
                for i in range(self.rows)
                for k in range(p)
            ]
        )

    def to_nested(self) -> list[list[Fraction]]:
        return [list(row) for row in self.entries]

    def to_float(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.entries], dtype=float)

    def to_json_obj(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[str(v) for v in row] for row in self.entries],
        }


def _ldl(sym: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Exact LDL^t of a symmetric rational matrix: unit lower-triangular L and
    the pivots d.  By Sylvester's criterion the matrix is positive definite iff
    every pivot is positive; the first pivot <= 0 raises ValueError."""
    r = len(sym)
    low = [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]
    piv: list[Fraction] = []
    for j in range(r):
        d = sym[j][j] - sum(low[j][k] ** 2 * piv[k] for k in range(j))
        if d <= 0:
            raise ValueError("matrix is not positive definite")
        piv.append(d)
        for i in range(j + 1, r):
            low[i][j] = (sym[i][j] - sum(low[i][k] * low[j][k] * piv[k] for k in range(j))) / d
    return low, piv


def _ldl_solve(low: list[list[Fraction]], piv: list[Fraction], b) -> list[Fraction]:
    """Exact solution x of L D L^t x = b from the factors of _ldl: forward
    substitution, pivot scaling and back substitution."""
    r = len(piv)
    x = list(b)
    for i in range(r):
        x[i] -= sum(low[i][k] * x[k] for k in range(i))
    for i in reversed(range(r)):
        x[i] = x[i] / piv[i] - sum(low[k][i] * x[k] for k in range(i + 1, r))
    return x


def adjacency_matrix(d: DynkinDiagram) -> RationalMatrix:
    """Adjacency matrix I(X) = 2*id - C(X); the tadpole loop adds a diagonal 1."""
    n = d.rank
    m = [[0] * n for _ in range(n)]
    for i, j in _edges(d):
        m[i][j] = m[j][i] = 1
    if d.is_tadpole:
        m[n - 1][n - 1] = 1
    return RationalMatrix(m)


def cartan_matrix(d: DynkinDiagram) -> RationalMatrix:
    """Cartan matrix C(X) = 2*id - I(X) (exact integers)."""
    adj = adjacency_matrix(d)
    n = d.rank
    return RationalMatrix(
        [[2 * int(i == j) - adj[i, j] for j in range(n)] for i in range(n)]
    )


def coxeter_number(d: DynkinDiagram) -> int:
    """Coxeter number h: h(A_n)=n+1, h(D_n)=2n-2, h(E6/7/8)=12/18/30, h(T_n)=2n+1.

    Consistency with the spectrum: the largest adjacency eigenvalue equals
    2*cos(pi/h) for every supported diagram.
    """
    if d.family == "A":
        return d.rank + 1
    if d.family == "D":
        return 2 * d.rank - 2
    if d.family == "E":
        return {6: 12, 7: 18, 8: 30}[d.rank]
    return 2 * d.rank + 1  # T_n inherits h(A_{2n})


def bipartition(d: DynkinDiagram) -> tuple[frozenset, frozenset]:
    """2-coloring (I+, I-) of the vertex set; degenerate (I+ = I- = I) for tadpoles."""
    n = d.rank
    if d.is_tadpole:
        full = frozenset(range(n))
        return full, full
    # in _edges' order each edge's first vertex is coloured before its second
    color = [0] * n
    for i, j in _edges(d):
        color[j] = 1 - color[i]
    plus = frozenset(v for v in range(n) if color[v] == 0)
    minus = frozenset(v for v in range(n) if color[v] == 1)
    return plus, minus


def nahm_matrix(x: DynkinDiagram, xp: DynkinDiagram) -> RationalMatrix:
    """Exact Kronecker matrix C(X) (x) C(X')^{-1}, indexed row-major by (i, i').

    Each Cartan matrix is checked to be symmetric, as LDL^t reads only the
    lower triangle (and a Kronecker product of symmetric matrices is
    symmetric), then factored once: its pivots decide positive definiteness,
    which the Kronecker product inherits, and the factors of C(X') give its
    inverse.  A failure signals an internal wiring bug, not a user error.
    """
    factored = []
    for d in (x, xp):
        c = cartan_matrix(d)
        if not c.is_symmetric():
            raise AdetError(f"Kronecker matrix for ({x},{xp}) is not symmetric: "
                            f"the Cartan matrix of {d} is not symmetric")
        try:
            factored.append((c, *_ldl(c.to_nested())))
        except ValueError:
            raise AdetError(f"Kronecker matrix for ({x},{xp}) failed the positive-definiteness "
                            f"check: the Cartan matrix of {d} is not positive definite") from None
    (cx, _, _), (_, low, piv) = factored
    r = xp.rank
    # the inverse of a symmetric matrix is symmetric: its columns are its rows
    inverse = [_ldl_solve(low, piv, [int(i == j) for i in range(r)]) for j in range(r)]
    return cx.kron(RationalMatrix(inverse))


@dataclass(frozen=True)
class PairIndexing:
    """Product index data for an ordered diagram pair (X, X').

    indices   : flattened I x I' as (i, i') tuples, row-major.
    eps       : sign +-1 per flattened index; +1 on (I+ x I'+) u (I- x I'-).
    degenerate: True when either diagram is a tadpole, in which case
                P+ = P- = I x Z (no parity restriction).
    d         : folding multiplicity on S+; 2 for tadpole-tadpole pairs, else 1.
    ix, ixp   : adjacency rows (loops included) used by the Y-system recurrence.
    factors   : the recurrence's right-hand side per index, derived from ix/ixp.
    nahm, lattice: the Nahm matrix A of (x, xp) and its integer branch data.
    """

    x: DynkinDiagram
    xp: DynkinDiagram
    h: int
    hp: int
    indices: tuple
    eps: tuple
    degenerate: bool
    d: int
    ix: tuple
    ixp: tuple

    @property
    def r(self) -> int:
        return self.x.rank

    @property
    def rp(self) -> int:
        return self.xp.rank

    @property
    def n(self) -> int:
        return len(self.indices)

    @property
    def period(self) -> int:
        return 2 * (self.h + self.hp)

    @property
    def label(self) -> str:
        return f"{self.x},{self.xp}"

    def index_of(self, i: int, ip: int) -> int:
        return i * self.rp + ip

    def in_P_plus(self, k: int, u: int) -> bool:
        if self.degenerate:
            return True
        return (self.eps[k] == 1) == (u % 2 == 0)

    def active_indices(self, u: int) -> list[int]:
        return [k for k in range(self.n) if self.in_P_plus(k, u)]

    def S_plus(self) -> tuple:
        """Window {(k, u) : 0 <= u <= 2(h+h')-1, (k, u) in P+}."""
        return tuple(
            (k, u) for u in range(self.period) for k in range(self.n) if self.in_P_plus(k, u)
        )

    @cached_property
    def factors(self) -> tuple:
        """Right-hand side of the Y-system per flattened index k = (i, i').

        factors[k] = (numerator, denominator), each a tuple of
        (flat index, exponent) pairs with nonzero exponent:

            numerator   : ((j, i'), I(X)_{ij})     for the factors (1 + Y)
            denominator : ((i, j'), I(X')_{i'j'})  for the factors (1 + 1/Y)

        in ascending j and j'.  Derived from ix/ixp on first use, so a copy
        made with dataclasses.replace (e.g. a bumped exponent) gets its own.
        """
        rp = self.rp
        return tuple(
            (tuple((j * rp + ip, m) for j, m in enumerate(self.ix[i]) if m),
             tuple((i * rp + jp, m) for jp, m in enumerate(self.ixp[ip]) if m))
            for i, ip in self.indices
        )

    @cached_property
    def nahm(self) -> RationalMatrix:
        """nahm_matrix(x, xp), built on first use."""
        return nahm_matrix(self.x, self.xp)

    @cached_property
    def lattice(self) -> tuple:
        """(g, den): the integer rows [C(X) (x) 1 | 1 (x) C(X')] and the lcm of A's denominators."""
        cx, cxp = (np.array(cartan_matrix(d).entries, dtype=int) for d in (self.x, self.xp))
        g = np.hstack([np.kron(cx, np.eye(self.rp, dtype=int)),
                       np.kron(np.eye(self.r, dtype=int), cxp)])
        return tuple(map(tuple, g.tolist())), lcm(*(v.denominator for row in self.nahm.entries for v in row))


def pair_indexing(x: DynkinDiagram, xp: DynkinDiagram) -> PairIndexing:
    """Build the PairIndexing for an ordered pair of ADET diagrams."""
    degenerate = x.is_tadpole or xp.is_tadpole
    indices = tuple((i, ip) for i in range(x.rank) for ip in range(xp.rank))
    if degenerate:
        eps = tuple(1 for _ in indices)
    else:
        plus_x, _ = bipartition(x)
        plus_xp, _ = bipartition(xp)
        eps = tuple(1 if (i in plus_x) == (ip in plus_xp) else -1 for i, ip in indices)
    ix = tuple(tuple(int(v) for v in row) for row in adjacency_matrix(x).entries)
    ixp = tuple(tuple(int(v) for v in row) for row in adjacency_matrix(xp).entries)
    return PairIndexing(
        x=x,
        xp=xp,
        h=coxeter_number(x),
        hp=coxeter_number(xp),
        indices=indices,
        eps=eps,
        degenerate=degenerate,
        d=2 if (x.is_tadpole and xp.is_tadpole) else 1,
        ix=ix,
        ixp=ixp,
    )
