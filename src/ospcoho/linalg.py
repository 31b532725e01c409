"""Exact sparse linear algebra in integers.

Every computation is one pass of the in-order reducer of
`ospcoho._kernels_py`. The weight blocks of the differential arrive as
integer rows or columns: `int_pivots` takes the rank of rows (or of
columns), `int_kernel_basis` the pivots and the null space of columns
from one reduction, and `solve` a solution of (cols / scale) x = b for
a rational right-hand side; the last two read their answers off the
records of the columns that vanish.
`greedy_independent` picks, in order, the vectors that enlarge a span,
and `quotient_dim` decides a subspace inclusion with it. Rows with
Fraction entries are scaled to integer rows first (`_to_int_row`),
which changes neither row spaces nor null spaces.

Columns are reduced in input order, so a column is filed iff it is not
in the span of the columns before it: the filed columns are the pivot
columns of the reduced row echelon form, and the record of a vanished
column is supported on it and on filed columns before it. That record
is therefore, up to scale, the RREF null vector of its free column.
"""

from fractions import Fraction
from math import lcm

from . import Mismatch
from ._kernels_py import reduce_in_order


def _to_int_row(row):
    """Scale a {col: Fraction} row to a primitive {col: int} row."""
    scale = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (scale // v.denominator)
            for c, v in row.items() if v}


def int_pivots(rows):
    """Leading columns of the row space of integer {col: int} rows,
    increasing.

    Their number is the rank; the rows are consumed.
    """
    basis = {}
    reduce_in_order(rows, basis)
    return sorted(basis)


def _reduce_recorded(cols):
    """Reduce integer {row: int} columns in order, each with its record.

    Column j gets the record coordinate top + j, after every row, so
    afterwards cols[j] is (its reduced rows) + (the integer combination
    of the input columns that it equals). Returns (top, leads); a
    column vanished iff its lead is at least top. The columns are
    consumed.
    """
    top = 1 + max((max(c) for c in cols if c), default=-1)
    for j, col in enumerate(cols):
        col[top + j] = 1
    return top, reduce_in_order(cols, {}, top)


def int_kernel_basis(cols):
    """(pivots, basis) of integer {row: int} columns: `int_pivots` of the
    columns (the records only scale each row part) and an integer basis
    of their null space, one vector per column j in the span of the
    columns before it, in increasing j: its primitive record, positive
    at j and supported on j and the pivot columns before it, i.e. the
    reduced row echelon form's null vector of the free column j, cleared
    of denominators. The columns are consumed.
    """
    top, leads = _reduce_recorded(cols)
    basis = []
    for j, lead in enumerate(leads):
        if lead >= top:
            rec = cols[j]
            sign = 1 if rec[top + j] > 0 else -1
            basis.append({c - top: sign * x for c, x in sorted(rec.items())})
    return sorted(lead for lead in leads if lead < top), basis


def solve(cols, scale, b):
    """Some x with (cols / scale) x = b, or None when there is none.

    cols are integer {row: int} columns and b is {row: Fraction}. With Q
    the lcm of b's denominators, the column Q * scale * b is appended to
    (copies of) cols; it lies in their span iff it vanishes, and then its
    record r gives Q * x = -r[:-1] / r[-1]: supported on the pivot
    columns, it is the solution with the free variables set to 0, so x
    depends only on the system. Any returned x is verified by
    substitution in integers.
    """
    b = {r: Fraction(v) for r, v in b.items() if v}
    Q = lcm(*(v.denominator for v in b.values()))
    rhs = {r: v.numerator * (Q // v.denominator) * scale
           for r, v in b.items()}
    aug = [dict(col) for col in cols] + [dict(rhs)]
    top, leads = _reduce_recorded(aug)
    if leads[-1] < top:
        return None
    rec = aug[-1]
    d = -rec.pop(top + len(cols))
    qx = {c - top: Fraction(x, d) for c, x in sorted(rec.items())}
    den = lcm(*(v.denominator for v in qx.values()))
    residue = {r: -v * den for r, v in rhs.items()}    # den * (cols qx - rhs)
    for c, v in qx.items():
        v = v.numerator * (den // v.denominator)
        for r, a in cols[c].items():
            residue[r] = residue.get(r, 0) + a * v
    if any(residue.values()):
        return None
    return {c: v / Q for c, v in qx.items()}


def greedy_independent(base, candidates):
    """Indices of the candidates that enlarge the span, scanning in order.

    Candidate i is kept iff it is not in the span of `base` and of the
    candidates kept before it, so the kept ones extend a basis of
    span(base) to one of span(base + candidates). Rows are
    {col: Fraction|int} dicts and are not modified; each is scaled to
    integers and reduced against the basis filed by the rows before it.
    """
    basis = {}
    reduce_in_order([_to_int_row(r) for r in base], basis)
    leads = reduce_in_order([_to_int_row(r) for r in candidates], basis)
    return [i for i, lead in enumerate(leads) if lead is not None]


def quotient_dim(u_rows, w_rows):
    """dim(span u / span w); raises NotContained if w is not in span u.

    Rows are {col: Fraction|int} dicts over mutually ordered column keys
    and are not modified. `greedy_independent` scans u's rows and then
    w's: the u rows it keeps number rank u, and w lies in span u iff it
    keeps none of w's. The dimension is rank u - rank w.
    """
    kept = greedy_independent([], u_rows + w_rows)
    if kept and kept[-1] >= len(u_rows):
        raise NotContained("quotient by a non-subspace")
    return len(kept) - len(int_pivots([_to_int_row(r) for r in w_rows]))


class NotContained(Mismatch):
    pass
