import mpmath as mp
import numpy as np
import pytest

from adet import PrecisionContext, pair_indexing, parse_diagram
from adet.precision import to_mpc
from adet.ysystem import _levels, _table
# Near-positive complex evaluation points, drawn exactly as the CLI draws them.
from adet.cli import _sample_points as sample_points  # noqa: F401

# The desk-scale pair list used by the solution/torsion/constancy checks.
ACCEPT_PAIRS = ["A1,A1", "A1,T1", "A1,T2", "A2,A1", "A2,T1", "A1,A2", "A3,A1", "T1,T1"]


def pair(label: str):
    left, right = label.split(",")
    return pair_indexing(parse_diagram(left), parse_diagram(right))


def all_pairs_up_to(max_product: int):
    """Every ordered supported pair with rank product <= max_product."""
    diagrams = []
    for n in range(1, max_product + 1):
        diagrams.append(f"A{n}")
        diagrams.append(f"T{n}")
        if n >= 2:
            diagrams.append(f"D{n}")
        if n in (6, 7, 8):
            diagrams.append(f"E{n}")
    out = []
    for a in diagrams:
        for b in diagrams:
            if parse_diagram(a).rank * parse_diagram(b).rank <= max_product:
                out.append(f"{a},{b}")
    return out


def step(p, y_prev, y_cur, ctx):
    """Y(u+1) from (Y(u-1), Y(u)) on full index vectors: one level of the
    recurrence's level loop, at the context's working precision."""
    with ctx.workprec():
        prev, cur = ({k: to_mpc(v) for k, v in enumerate(y)} for y in (y_prev, y_cur))
        table = _table([*prev.values(), *cur.values()], mp.mpf(ctx.tau_res))
        level = _levels(p, prev, cur, 1, table, lambda u: range(p.n))[1]
        return [level[k] for k in range(p.n)]


@pytest.fixture
def ctx128():
    return PrecisionContext(mantissa_bits=128)


@pytest.fixture
def ctx256():
    return PrecisionContext(mantissa_bits=256)


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)
