"""Exact linear algebra against a naive dense oracle."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ospcoho import linalg

# independent dense oracle, kept deliberately naive
from tests_support_dense import (SparseMatrix, dense_rank,  # noqa: E402
                                 dense_rref, int_columns)


def random_sparse(rng, nrows, ncols, density=0.3):
    entries = []
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                num = rng.randint(-6, 6)
                den = rng.randint(1, 4)
                if num:
                    entries.append((i, j, Fraction(num, den)))
    return SparseMatrix.from_entries(nrows, ncols, entries)


def int_rows(m):
    """The rows of m scaled to integers, as the integer routines take them."""
    return [linalg._to_int_row(r) for r in m.rows]


def test_identity_and_zero_rank():
    ident = SparseMatrix.from_entries(
        5, 5, [(i, i, 1) for i in range(5)])
    assert len(linalg.int_pivots(int_rows(ident))) == 5
    assert linalg.int_pivots(int_rows(SparseMatrix(4, 7))) == []


def test_kernel_of_identity_is_empty():
    ident = SparseMatrix.from_entries(3, 3, [(i, i, 1) for i in range(3)])
    assert linalg.int_kernel_basis(int_columns(ident)[0]) == ([0, 1, 2], [])


def test_kernel_one_one_matrix():
    m = SparseMatrix.from_entries(1, 2, [(0, 0, 1), (0, 1, 1)])
    assert linalg.int_kernel_basis(int_columns(m)[0]) == ([0], [{0: -1, 1: 1}])


def test_rank_matches_dense_oracle_on_100_matrices():
    rng = random.Random(12345)
    for _ in range(100):
        nrows = rng.randint(1, 30)
        ncols = rng.randint(1, 30)
        m = random_sparse(rng, nrows, ncols)
        assert len(linalg.int_pivots(int_rows(m))) == dense_rank(m)


def test_kernel_annihilates_and_rank_nullity():
    rng = random.Random(777)
    for _ in range(25):
        m = random_sparse(rng, rng.randint(1, 20), rng.randint(1, 30))
        kern = linalg.int_kernel_basis(int_columns(m)[0])[1]
        assert len(kern) == m.ncols - len(linalg.int_pivots(int_rows(m)))
        for v in kern:
            assert m.apply(v) == {}


def test_kernel_pivots_are_the_int_pivots_of_the_columns():
    # the records only scale each column's row part, so the reduction
    # that gives the kernel files the leads that the plain one files
    rng = random.Random(778)
    for _ in range(25):
        m = random_sparse(rng, rng.randint(1, 20), rng.randint(1, 30))
        pivots, kern = linalg.int_kernel_basis(int_columns(m)[0])
        assert pivots == linalg.int_pivots(int_columns(m)[0])
        assert len(pivots) + len(kern) == m.ncols


def test_solve_constructed_systems():
    rng = random.Random(99)
    for _ in range(25):
        m = random_sparse(rng, rng.randint(1, 15), rng.randint(1, 15))
        x0 = {j: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
              for j in range(m.ncols) if rng.random() < 0.5}
        b = m.apply(x0)
        x = linalg.solve(*int_columns(m), b)
        assert x is not None
        assert m.apply(x) == b


def test_solve_detects_inconsistency():
    m = SparseMatrix(2, 3)  # zero matrix
    assert linalg.solve(*int_columns(m), {0: Fraction(1)}) is None
    ident = SparseMatrix.from_entries(3, 3, [(i, i, 1) for i in range(3)])
    b = {0: Fraction(2), 2: Fraction(-1, 3)}
    assert linalg.solve(*int_columns(ident), b) == b


def _subspace(rng, ncols, nvecs):
    vecs = []
    for _ in range(nvecs):
        v = {j: Fraction(rng.randint(-4, 4)) for j in range(ncols)
             if rng.random() < 0.4}
        v = {c: x for c, x in v.items() if x}
        if v:
            vecs.append(v)
    return vecs


def test_quotient_dim():
    rng = random.Random(8)
    u = _subspace(rng, 6, 3)
    rank = dense_rank(SparseMatrix(len(u), 6, u))
    assert rank and linalg.quotient_dim(u, []) == rank
    assert linalg.quotient_dim(u, u[:1]) == rank - 1
    with pytest.raises(linalg.NotContained):
        linalg.quotient_dim([], [{0: Fraction(1)}])


def test_quotient_dim_makes_three_reductions(monkeypatch):
    # rank u is read off the scan that decides the inclusion: one pass
    # for the empty base, one for u's rows then w's, one for rank w
    passes = []
    reduce = linalg.reduce_in_order

    def spy(vectors, basis, top=None):
        passes.append(len(vectors))
        return reduce(vectors, basis, top)
    monkeypatch.setattr(linalg, "reduce_in_order", spy)
    rng = random.Random(8)
    u = _subspace(rng, 6, 3)
    w = u[:2]
    want = (dense_rank(SparseMatrix(len(u), 6, u))
            - dense_rank(SparseMatrix(len(w), 6, w)))
    assert linalg.quotient_dim(u, w) == want
    assert passes == [0, len(u) + len(w), len(w)]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.fractions(min_value=-5, max_value=5),
                         min_size=4, max_size=4),
                min_size=1, max_size=6))
def test_rank_nullity_property(rows):
    entries = [(i, j, v) for i, row in enumerate(rows)
               for j, v in enumerate(row) if v]
    m = SparseMatrix.from_entries(len(rows), 4, entries)
    assert (len(linalg.int_pivots(int_rows(m)))
            + len(linalg.int_kernel_basis(int_columns(m)[0])[1])) == 4


@settings(max_examples=60, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 5),
                                st.fractions(min_value=-3, max_value=3,
                                             max_denominator=3),
                                max_size=4), max_size=5),
       st.lists(st.dictionaries(st.integers(0, 5),
                                st.integers(-3, 3), max_size=4),
                max_size=8))
def test_greedy_independent_keeps_the_rank_raising_candidates(base, cands):
    def rank_of(rows):
        return dense_rank(SparseMatrix.from_entries(
            len(rows), 6, [(i, c, v) for i, r in enumerate(rows)
                           for c, v in r.items()]))
    before = [dict(r) for r in base], [dict(r) for r in cands]
    want = [i for i in range(len(cands))
            if rank_of(base + cands[:i + 1]) > rank_of(base + cands[:i])]
    assert linalg.greedy_independent(base, cands) == want
    assert (base, cands) == before      # the rows are not consumed


def test_int_kernel_basis_is_an_integer_null_space_basis():
    rng = random.Random(4242)
    for _ in range(25):
        m = random_sparse(rng, rng.randint(1, 12), rng.randint(1, 15))
        ints = linalg.int_kernel_basis(int_columns(m)[0])[1]
        assert len(ints) == m.ncols - dense_rank(m)
        for v in ints:
            assert all(isinstance(x, int) and x for x in v.values())
            assert math.gcd(*v.values()) == 1 and v[max(v)] > 0
            assert m.apply({c: Fraction(x) for c, x in v.items()}) == {}
        spanned = SparseMatrix.from_entries(
            len(ints), m.ncols,
            [(i, c, x) for i, v in enumerate(ints) for c, x in v.items()])
        assert dense_rank(spanned) == len(ints)


def test_reducer_reads_the_rref_of_dense_oracle():
    # in-order reduction: the kernel vectors are the RREF null vectors of
    # the free columns, solve sets the free variables to 0 and the
    # pivots are the leading columns of the row space; tall, square and
    # wide random sparse matrices, consistent and inconsistent systems
    rng = random.Random(4242)
    for trial in range(90):
        nrows, ncols = rng.randint(1, 14), rng.randint(1, 14)
        if trial % 3 == 0:
            nrows = ncols + rng.randint(1, 16)
        m = SparseMatrix.from_entries(
            nrows, ncols, [(i, j, rng.randint(-9, 9)) for i in range(nrows)
                           for j in range(ncols) if rng.random() < 0.4])
        rref = dense_rref(m)
        pivots = [min(r) for r in rref]
        assert linalg.int_pivots(int_rows(m)) == pivots
        free = [f for f in range(ncols) if f not in pivots]
        kern = linalg.int_kernel_basis(int_columns(m)[0])[1]
        assert [max(v) for v in kern] == free
        for f, v in zip(free, kern):
            null = {f: Fraction(1)}
            for p, r in zip(pivots, rref):
                if f in r:
                    null[p] = -r[f]
            assert {c: Fraction(x, v[f]) for c, x in v.items()} == null
        if trial % 2:
            x0 = {j: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                  for j in range(ncols) if rng.random() < 0.6}
            b = m.apply(x0)
        else:
            b = {i: Fraction(rng.choice((-1, 1)) * rng.randint(1, 5),
                             rng.randint(1, 3))
                 for i in range(nrows) if rng.random() < 0.5}
        aug = SparseMatrix(nrows, ncols + 1,
                           [{**r, ncols: b[i]} if i in b else r
                            for i, r in enumerate(m.rows)])
        aug_rref = dense_rref(aug)
        if any(min(r) == ncols for r in aug_rref):
            want = None
        else:
            want = {min(r): r[ncols] for r in aug_rref if ncols in r}
        assert linalg.solve(*int_columns(m), b) == want


def test_matrix_dump_and_mul():
    a = SparseMatrix.from_entries(2, 2, [(0, 0, 1), (0, 1, 2), (1, 1, 3)])
    b = SparseMatrix.from_entries(2, 1, [(0, 0, 1), (1, 0, Fraction(1, 3))])
    prod = a.mul(b)
    assert prod.entry(0, 0) == Fraction(5, 3)
    assert prod.entry(1, 0) == 1
