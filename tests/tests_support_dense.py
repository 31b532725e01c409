"""Naive dense Gaussian elimination, the oracle for the sparse kernels."""

from math import lcm


def dense_rank(m):
    return len(dense_rref(m))


def dense_rref(m):
    """Nonzero rows of the reduced row echelon form, as {col: Fraction}."""
    rows = [[m.entry(i, j) for j in range(m.ncols)] for i in range(m.nrows)]
    rank = 0
    col = 0
    while rank < len(rows) and col < m.ncols:
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [v / pv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return [{j: v for j, v in enumerate(row) if v} for row in rows[:rank]]


def int_columns(m):
    """(cols, scale): integer {row: int} columns with cols / scale == m."""
    scale = lcm(*(v.denominator for row in m.rows for v in row.values()))
    cols = [dict() for _ in range(m.ncols)]
    for i, row in enumerate(m.rows):
        for j, v in row.items():
            cols[j][i] = int(v * scale)
    return cols, scale
