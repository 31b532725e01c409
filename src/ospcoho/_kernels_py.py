"""Integer elimination kernel: one in-order reducer.

A vector is a sparse dict {coordinate: int} over mutually ordered
coordinates; its lead is its smallest coordinate. All arithmetic is
fraction-free: an elimination cross-multiplies whole vectors and
divides the result by the gcd of its entries, which keeps the integers
small (Bareiss-style growth control) without ever leaving Z.

`reduce_in_order` is the column reduction of persistent homology
(Cohen-Steiner-Edelsbrunner-Morozov 2006): each vector, in input order,
is eliminated at its lead while a filed vector leads there, and is
filed if it survives. A caller that needs the integer combination
behind each result (R = D V) appends record coordinates after every
real one; `min`, `eliminate` and `normalize_row` then carry the record
unchanged, and a vector has vanished once its lead is a record
coordinate.
"""

from math import gcd


def normalize_row(row):
    """Divide a nonempty `row` by the gcd of its entries, leading entry > 0.

    Mutates `row` and returns its leading column, the smallest one.
    """
    lead = min(row)
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if row[lead] < 0:
        g = -g
    if g != 1:
        for c in row:
            row[c] //= g
    return lead


def eliminate(row, piv_row, col):
    """row := (piv*row - row[col]*piv_row) / g, content-normalized.

    g = gcd(piv, row[col]). `piv_row` must have an entry at `col`;
    afterwards `row` has none. Returns the new leading column, or None
    when the row vanished.
    """
    factor = row.pop(col)
    piv = piv_row[col]
    g = gcd(factor, piv)
    if g != 1:
        factor //= g
        piv //= g
    if piv != 1:
        for c in row:
            row[c] *= piv
    for c, v in piv_row.items():
        if c != col:
            w = row.get(c, 0) - factor * v
            if w:
                row[c] = w
            else:
                del row[c]
    return normalize_row(row) if row else None


def reduce_in_order(vectors, basis, top=None):
    """Reduce each vector, in order, against `basis`; returns their leads.

    `basis` maps a lead to the filed vector that leads there. Each
    vector is mutated: it is eliminated at its lead while a filed vector
    leads there, and is then filed if it keeps a lead below `top` (any
    lead when `top` is None). Its final lead is None when it vanished
    outright, or at least `top` when only record coordinates are left.
    """
    leads = []
    for vec in vectors:
        lead = min(vec) if vec else None
        while lead in basis:
            lead = eliminate(vec, basis[lead], lead)
        if lead is not None and (top is None or lead < top):
            basis[lead] = vec
        leads.append(lead)
    return leads
