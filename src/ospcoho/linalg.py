"""Exact sparse linear algebra in integers.

Every computation is handed to the integer fraction-free elimination
kernel in `ospcoho._kernels_py`. The weight blocks of the differential
arrive as integer rows or columns: `int_pivots` takes their rank,
`int_kernel_basis` their null space and `solve` a solution of
(cols / scale) x = b for a rational right-hand side.
`greedy_independent` picks, in order, the vectors that enlarge a span,
by reducing each one against an integer echelon basis that grows as
vectors are kept, and `quotient_dim` decides a subspace inclusion with
it. Rows with Fraction entries are scaled to integer rows first
(`_to_int_row`), which changes neither row spaces nor null
spaces.
"""

from fractions import Fraction
from math import lcm

from ._kernels_py import echelon, eliminate, normalize_row


def _to_int_row(row):
    """Scale a {col: Fraction} row to a primitive {col: int} row."""
    scale = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (scale // v.denominator)
            for c, v in row.items() if v}


def int_pivots(rows):
    """Pivot columns of an echelon form of integer {col: int} rows.

    Their number is the rank; the rows are consumed.
    """
    pivots, _ = echelon(rows, False)
    return pivots


def int_kernel_basis(rows, ncols):
    """Integer basis of the null space of integer {col: int} rows.

    One vector per free column f of the reduced row echelon form, in
    increasing f: e_f minus the pivot coordinates it fixes, cleared of
    denominators. The rows are consumed.
    """
    pivots, reduced = echelon(rows, True)
    fixing = {}     # free column -> the reduced rows that have it
    for col, row in zip(pivots, reduced):
        for f in row:
            if f != col:
                fixing.setdefault(f, []).append((col, row))
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        fixed = fixing.get(f, ())
        scale = lcm(*(row[col] for col, row in fixed))
        v = {f: scale}
        for col, row in fixed:
            v[col] = -row[f] * (scale // row[col])
        basis.append(v)
    return basis


def solve(cols, scale, b):
    """Some x with (cols / scale) x = b, or None when there is none.

    cols are integer {row: int} columns and b is {row: Fraction}. With Q
    the lcm of b's denominators, augmented row r is
    cols[.][r] | Q * scale * b_r, all integers, and its solutions are
    Q * x. One reduced echelon form gives them with the free variables
    set to 0; that form is unique, so x depends only on the system. Any
    returned x is verified by substitution in integers.
    """
    aug = len(cols)
    b = {r: Fraction(v) for r, v in b.items() if v}
    Q = lcm(*(v.denominator for v in b.values()))
    rhs = {r: v.numerator * (Q // v.denominator) * scale
           for r, v in b.items()}
    rows = {r: {aug: v} for r, v in rhs.items()}
    for c, col in enumerate(cols):
        for r, v in col.items():
            rows.setdefault(r, {})[c] = v
    pivots, out = echelon(list(rows.values()), True)
    qx = {}     # Q * x; free variables are 0, so only the rhs survives
    for col, row in zip(pivots, out):
        if col == aug:
            return None
        if aug in row:
            qx[col] = Fraction(row[aug], row[col])
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
    integers and reduced against an integer echelon basis that grows by
    the kept rows, one pivot column each.
    """
    _, rows = echelon([_to_int_row(r) for r in base], False)
    basis = {min(r): r for r in rows}
    kept = []
    for i, cand in enumerate(candidates):
        row = _to_int_row(cand)
        lead = normalize_row(row) if row else None
        while lead in basis:
            lead = eliminate(row, basis[lead], lead)
        if lead is not None:
            basis[lead] = row
            kept.append(i)
    return kept


def quotient_dim(u_rows, w_rows):
    """dim(span u / span w); raises NotContained if w is not in span u.

    Rows are {col: Fraction|int} dicts over mutually ordered column keys
    and are not modified. w lies in span u iff `greedy_independent`
    keeps none of its rows; the dimension is the difference of the
    integer ranks.
    """
    if greedy_independent(u_rows, w_rows):
        raise NotContained("quotient by a non-subspace")
    return (len(int_pivots([_to_int_row(r) for r in u_rows]))
            - len(int_pivots([_to_int_row(r) for r in w_rows])))


class NotContained(ValueError):
    pass
