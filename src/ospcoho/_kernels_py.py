"""Integer row-elimination kernel.

A matrix is a list of sparse rows, each row a dict {column: int}. All
arithmetic is fraction-free: eliminations cross-multiply whole rows and
every updated row is divided by the gcd of its entries, which keeps the
integers small (Bareiss-style growth control) without ever leaving Z.

Pivot columns come from an index instead of a scan of every row: rows
wait in buckets keyed by their leading column, and a heap of the
occupied columns yields the next pivot column (Markowitz 1957 chooses
pivots from such an index; here the column order is fixed and only the
row is chosen by sparsity).
"""

from heapq import heappop, heappush
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


def echelon(rows, full):
    """Row-reduce integer rows; returns (pivot_cols, reduced_rows).

    Rows are consumed (mutated). Output rows are sorted by pivot column.
    With full=True every pivot column is also cleared above its pivot,
    giving the integer reduced row echelon form, which is unique for a
    given row space; its rows are primitive (content 1, positive pivot).
    With full=False (the rank-only path) the input rows are not
    content-normalized, only the rows an elimination produces are, so an
    output row need not be primitive. The pivot columns are the leading
    columns of the row space either way, hence the same. The pivot row
    of a column is the sparsest row leading there, ties broken by the
    smaller pivot entry.
    """
    buckets = {}     # leading column -> rows that lead there
    heap = []        # the keys of `buckets`
    for row in rows:
        if row:
            lead = normalize_row(row) if full else min(row)
            if lead in buckets:
                buckets[lead].append(row)
            else:
                buckets[lead] = [row]
                heappush(heap, lead)
    done = []
    pivots = []
    while heap:
        col = heappop(heap)
        bucket = buckets.pop(col)
        if len(bucket) == 1:
            piv_row = bucket.pop()
        else:
            best = min(range(len(bucket)),
                       key=lambda i: (len(bucket[i]), abs(bucket[i][col])))
            piv_row = bucket.pop(best)
        for row in bucket:
            lead = eliminate(row, piv_row, col)
            if lead is None:
                continue
            if lead in buckets:
                buckets[lead].append(row)
            else:
                buckets[lead] = [row]
                heappush(heap, lead)
        done.append(piv_row)
        pivots.append(col)
    if full:
        for i in range(len(done) - 1, 0, -1):
            piv_row = done[i]
            col = pivots[i]
            for row in done[:i]:
                if col in row:
                    eliminate(row, piv_row, col)
    return pivots, done
