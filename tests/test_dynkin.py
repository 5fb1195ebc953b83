import json
from fractions import Fraction

import numpy as np
import pytest

import adet.dynkin
from adet import (
    RationalMatrix,
    adjacency_matrix,
    bipartition,
    cartan_matrix,
    coxeter_number,
    make_diagram,
    nahm_matrix,
    pair_indexing,
    parse_diagram,
)
from adet.dynkin import _ldl, _ldl_solve
from adet.errors import AdetError, InvalidDiagram

from conftest import all_pairs_up_to, pair


def frac_rows(m):
    return [[Fraction(v) for v in row] for row in m.entries]


SWEEP = (
    [f"A{n}" for n in range(1, 13)]
    + [f"D{n}" for n in range(2, 11)]
    + ["E6", "E7", "E8"]
    + [f"T{n}" for n in range(1, 9)]
)


def test_make_diagram_basics():
    assert str(make_diagram("A", 1)) == "A1"
    assert make_diagram("t", 2).family == "T"
    with pytest.raises(InvalidDiagram, match="invalid rank for E"):
        make_diagram("E", 9)
    with pytest.raises(InvalidDiagram):
        make_diagram("A", 0)
    with pytest.raises(InvalidDiagram):
        make_diagram("D", 1)
    with pytest.raises(InvalidDiagram):
        make_diagram("F", 4)


def test_parse_diagram():
    assert parse_diagram("a3") == make_diagram("A", 3)
    assert parse_diagram(" E8 ") == make_diagram("E", 8)
    assert parse_diagram("t2").is_tadpole
    for bad in ("Q5", "A", "3A", "Axy"):
        with pytest.raises(InvalidDiagram):
            parse_diagram(bad)


def test_cartan_values():
    assert frac_rows(cartan_matrix(parse_diagram("A2"))) == [[2, -1], [-1, 2]]
    assert frac_rows(cartan_matrix(parse_diagram("T2"))) == [[2, -1], [-1, 1]]
    assert frac_rows(cartan_matrix(parse_diagram("T1"))) == [[1]]


def test_adjacency_values():
    assert frac_rows(adjacency_matrix(parse_diagram("A2"))) == [[0, 1], [1, 0]]
    assert frac_rows(adjacency_matrix(parse_diagram("T1"))) == [[1]]
    d4 = adjacency_matrix(parse_diagram("D4"))
    # central vertex adjacent to the other three
    degrees = [sum(row) for row in frac_rows(d4)]
    assert sorted(degrees) == [1, 1, 1, 3]
    assert degrees[1] == 3


@pytest.mark.parametrize("name", SWEEP)
def test_cartan_adjacency_pairing(name):
    d = parse_diagram(name)
    c = cartan_matrix(d)
    i = adjacency_matrix(d)
    n = d.rank
    assert c.is_symmetric() and i.is_symmetric()
    for a in range(n):
        for b in range(n):
            assert c[a, b] + i[a, b] == (2 if a == b else 0)
        assert c[a, a] in (1, 2)
    # exactly one loop for tadpoles, none otherwise
    loops = [a for a in range(n) if i[a, a] != 0]
    assert loops == ([n - 1] if d.is_tadpole else [])


@pytest.mark.parametrize("name", SWEEP)
def test_coxeter_eigenvalue_oracle(name):
    # independent oracle: the largest adjacency eigenvalue is 2 cos(pi/h)
    d = parse_diagram(name)
    h = coxeter_number(d)
    lam = np.linalg.eigvalsh(adjacency_matrix(d).to_float()).max()
    assert abs(lam - 2 * np.cos(np.pi / h)) < 1e-10


def test_coxeter_table():
    assert coxeter_number(parse_diagram("A1")) == 2
    assert coxeter_number(parse_diagram("T2")) == 5
    assert coxeter_number(parse_diagram("E8")) == 30
    assert coxeter_number(parse_diagram("D4")) == 6


def test_bipartition_examples():
    assert bipartition(parse_diagram("A3")) == (frozenset({0, 2}), frozenset({1}))
    assert bipartition(parse_diagram("A1")) == (frozenset({0}), frozenset())
    plus, minus = bipartition(parse_diagram("T2"))
    assert plus == minus == frozenset({0, 1})


@pytest.mark.parametrize("name", SWEEP)
def test_bipartition_is_proper(name):
    d = parse_diagram(name)
    if d.is_tadpole:
        return
    plus, minus = bipartition(d)
    assert plus | minus == frozenset(range(d.rank))
    assert not plus & minus
    adj = adjacency_matrix(d)
    for a in range(d.rank):
        for b in range(d.rank):
            if adj[a, b] == 1:
                assert (a in plus) != (b in plus)


def test_nahm_matrix_values():
    assert frac_rows(nahm_matrix(parse_diagram("A1"), parse_diagram("T1"))) == [[2]]
    assert frac_rows(nahm_matrix(parse_diagram("A1"), parse_diagram("A1"))) == [[1]]
    assert frac_rows(nahm_matrix(parse_diagram("A1"), parse_diagram("T2"))) == [[2, 2], [2, 4]]
    # derived: exact inverse of C(T2), column by column from its LDL^t
    low, piv = _ldl(frac_rows(cartan_matrix(parse_diagram("T2"))))
    assert [_ldl_solve(low, piv, col) for col in ([1, 0], [0, 1])] == [[1, 1], [1, 2]]


@pytest.mark.parametrize("n", range(1, 9))
def test_nahm_a1_tn_min_table(n):
    a = nahm_matrix(parse_diagram("A1"), parse_diagram(f"T{n}"))
    for i in range(n):
        for j in range(n):
            assert a[i, j] == 2 * min(i + 1, j + 1)


def test_nahm_kron_layout():
    # row-major (i, i') pairing: A2 x A1 gives C(A2) * (1/2)
    a = nahm_matrix(parse_diagram("A2"), parse_diagram("A1"))
    assert frac_rows(a) == [[1, Fraction(-1, 2)], [Fraction(-1, 2), 1]]


@pytest.mark.parametrize("label", all_pairs_up_to(6))
def test_nahm_symmetric_positive_definite(label):
    p = pair(label)
    a = nahm_matrix(p.x, p.xp)
    assert a.is_symmetric()
    assert np.linalg.eigvalsh(a.to_float()).min() > 1e-12


def test_nahm_rejects_indefinite_cartan(monkeypatch):
    # symmetric and invertible but indefinite (det -3): only the exact
    # positive-definiteness check can catch it
    monkeypatch.setattr(adet.dynkin, "cartan_matrix", lambda d: RationalMatrix([[1, 2], [2, 1]]))
    with pytest.raises(AdetError, match="not positive definite"):
        nahm_matrix(parse_diagram("A2"), parse_diagram("A1"))


def test_nahm_rejects_asymmetric_cartan(monkeypatch):
    # LDL^t reads only the lower triangle, so the pivots (2, 2) of this
    # asymmetric matrix would pass it as positive definite
    asymmetric = RationalMatrix([[2, -1], [0, 2]])
    assert _ldl(asymmetric.to_nested())[1] == [2, 2]
    monkeypatch.setattr(adet.dynkin, "cartan_matrix", lambda d: asymmetric)
    with pytest.raises(AdetError, match="not symmetric"):
        nahm_matrix(parse_diagram("A2"), parse_diagram("A1"))


def test_ldl_solve_exact():
    # random symmetric positive-definite systems M = G G^t + I over Q
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 5, 8):
        for _ in range(4):
            g = [[Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in range(n)]
                 for _ in range(n)]
            m = [[sum(g[i][k] * g[j][k] for k in range(n)) + int(i == j) for j in range(n)]
                 for i in range(n)]
            b = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))) for _ in range(n)]
            x = _ldl_solve(*_ldl(m), b)
            assert [sum(m[i][k] * x[k] for k in range(n)) for i in range(n)] == b


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def identity(n):
    return RationalMatrix([[int(i == j) for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("name", [name for name in SWEEP if parse_diagram(name).rank <= 8])
def test_nahm_matrix_inverts_cartan(name):
    # A(A1, X') = C(A1) (x) C(X')^{-1} = 2 C(X')^{-1}
    d = parse_diagram(name)
    product = matmul(frac_rows(cartan_matrix(d)), frac_rows(nahm_matrix(parse_diagram("A1"), d)))
    assert product == [[2 * int(i == j) for j in range(d.rank)] for i in range(d.rank)]


def test_nahm_matrix_solves_kron_identity():
    # (1 (x) C(X')) (C(X) (x) C(X')^{-1}) = C(X) (x) 1 on every pair of rank product <= 16
    for label in all_pairs_up_to(16):
        p = pair(label)
        cx, cxp = cartan_matrix(p.x), cartan_matrix(p.xp)
        lhs = matmul(frac_rows(identity(p.r).kron(cxp)), frac_rows(nahm_matrix(p.x, p.xp)))
        assert lhs == frac_rows(cx.kron(identity(p.rp))), label


@pytest.mark.parametrize("name", SWEEP)
def test_edges_colour_in_one_walk(name):
    # bipartition colours in one pass over _edges: each edge's first vertex
    # is 0 or the second vertex of an earlier edge, and no vertex is coloured twice
    seen = {0}
    for i, j in adet.dynkin._edges(parse_diagram(name)):
        assert i in seen and j not in seen, (i, j)
        seen.add(j)


def test_rational_matrix_kron_entries():
    a = RationalMatrix([[1, 2], [3, 4]])
    b = RationalMatrix([[0, 5], [6, 7]])
    k = a.kron(b)
    assert k.rows == k.cols == 4
    for i in range(2):
        for j in range(2):
            for s in range(2):
                for t in range(2):
                    assert k[2 * i + s, 2 * j + t] == a[i, j] * b[s, t]


def test_rational_matrix_json_roundtrip():
    # A2,T2 has integer entries; A1,A2 has thirds, written "p/q"
    for x, xp in (("A2", "T2"), ("A1", "A2")):
        m = nahm_matrix(parse_diagram(x), parse_diagram(xp))
        obj = json.loads(json.dumps(m.to_json_obj()))
        assert (obj["rows"], obj["cols"]) == (m.rows, m.cols)
        assert [[Fraction(s) for s in row] for row in obj["entries"]] == m.to_nested()
    assert obj["entries"][0][0] == "4/3"


def test_pair_indexing_windows():
    p = pair("A1,A1")
    assert not p.degenerate and p.d == 1
    assert p.period == 8
    assert len(p.S_plus()) == 4

    p = pair("T1,T1")
    assert p.degenerate and p.d == 2
    assert len(p.S_plus()) == 2 * (3 + 3)

    p = pair("A1,T1")
    assert p.degenerate and p.d == 1
    assert len(p.S_plus()) == 10


def test_pair_indexing_parity():
    p = pair("A2,A1")
    # (0,0) and (1,0) carry opposite signs along the A2 bipartition
    assert p.eps[0] == -p.eps[1]
    for (k, u) in p.S_plus():
        assert p.in_P_plus(k, u)
    # exactly half of the index x window grid is in P+
    grid = [(k, u) for u in range(p.period) for k in range(p.n)]
    assert sum(p.in_P_plus(k, u) for k, u in grid) == len(grid) // 2


def test_pair_indexing_row_major():
    p = pair("A2,T2")
    assert p.indices == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert p.index_of(1, 0) == 2


def test_pair_indexing_factors_hand_plan():
    # A2,T1: each A2 vertex sees the other through I(A2), itself through the T1 loop
    assert pair("A2,T1").factors == ((((1, 1),), ((0, 1),)), (((0, 1),), ((1, 1),)))
    # A1,A1: no neighbours on either side, so both products are empty
    assert pair("A1,A1").factors == (((), ()),)


@pytest.mark.parametrize("label", all_pairs_up_to(8))
def test_pair_indexing_factors_match_adjacency(label):
    p = pair(label)
    adj, adjp = adjacency_matrix(p.x), adjacency_matrix(p.xp)
    assert len(p.factors) == p.n
    for k, (i, ip) in enumerate(p.indices):
        ups, downs = p.factors[k]
        assert ups == tuple((p.index_of(j, ip), int(adj[i, j]))
                            for j in range(p.r) if adj[i, j])
        assert downs == tuple((p.index_of(i, jp), int(adjp[ip, jp]))
                              for jp in range(p.rp) if adjp[ip, jp])
