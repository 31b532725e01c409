"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every expected number here is an integer or exact rational; there are no
floating-point comparisons anywhere. Each test prints a PASS line when
its criterion holds (visible with -s; `pytest -v` shows the per-criterion
verdict in the test names as well).
"""

import random
import time
from fractions import Fraction

import pytest

from ospcoho import algebra, engine, linalg
from ospcoho.algebra import SL2, adopted_table, printed_table
from ospcoho.cochains import (coboundary, cup, is_reduced, make_f_k,
                              make_ftilde_k, make_h_lambda, reduce_cochain,
                              restrict_sl2)
from ospcoho.engine import _random_cochain
from ospcoho.superdiff import derived_module_action, \
    solve_realization_constants
from ospcoho.weightmod import (FAMILIES, TruncatedDlm, from_oppoly,
                               module_axiom_holds, to_oppoly)
from tests_support_dense import act, act_basis, delta_matrix

F = Fraction
TABLE = adopted_table()

GRID_EQUAL = [(F(0), F(0)), (F(1), F(1)), (F(5, 2), F(5, 2))]
GRID_SPECIAL = [(F(0), F(1, 2)), (F(-1, 2), F(1)), (F(-1), F(3, 2)),
                (F(-3, 2), F(2))]
GRID_ZERO = [(F(1, 3), F(0)), (F(0), F(2)), (F(1), F(1, 2))]
GRID = GRID_EQUAL + GRID_SPECIAL + GRID_ZERO

EXPECTED = {}
EXPECTED.update({pt: (1, 1, 0, 0, 0) for pt in GRID_EQUAL})
EXPECTED.update({pt: (1, 2, 1, 0, 0) for pt in GRID_SPECIAL})
EXPECTED.update({pt: (0, 0, 0, 0, 0) for pt in GRID_ZERO})

ORACLE_GRID = [(F(0), F(0)), (F(1), F(1)), (F(0), F(1, 2)),
               (F(-1, 2), F(1)), (F(-1), F(3, 2)), (F(1, 3), F(0))]


@pytest.fixture(scope="module")
def grid_reports():
    return {(lam, mu): engine.build_report(lam, mu, nmax=4, wmax=F(2))
            for lam, mu in GRID}


def test_criterion_01_convention_audit():
    start = time.monotonic()
    printed = printed_table()
    failures = printed.jacobi_failures()
    assert any(t == ("A", "A", "B") for t, _ in failures)
    report = engine.run_audit()
    assert report.table.jacobi_failures() == []
    changes = {pair for pair, _, _ in report.changes}
    assert changes == {"[A,B]", "[Y,A]"}
    for lam, mu in ((F(0), F(0)), (F(1, 3), F(1, 5))):
        mod = TruncatedDlm(lam, mu, 4)
        assert module_axiom_holds(mod, report.table)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"PASS criterion 1: convention audit ({elapsed:.2f}s)")


def test_criterion_02_oracle_equivalence():
    consts = solve_realization_constants(TABLE)
    for lam, mu in ORACLE_GRID:
        mod = TruncatedDlm(lam, mu, 4)
        for gen in algebra.GENS:
            for fam in FAMILIES:
                for m in range(5):
                    for k in range(5):
                        bv = (fam, m, k)
                        oracle = derived_module_action(
                            gen, to_oppoly({bv: F(1)}), lam, mu, consts)
                        assert from_oppoly(oracle, mod) == \
                            act_basis(mod, gen, bv), (lam, mu, gen, bv)
    print("PASS criterion 2: table action equals realization commutator")


def test_criterion_03_d_squared_zero_full_bases():
    mod = TruncatedDlm(F(0), F(1, 2), 3)
    weights = [F(j, 2) for j in range(-6, 7)]
    for w in weights:
        for n in range(4):
            for parity in (0, 1):
                _, _, d_n = delta_matrix(mod, n, w, parity)
                _, _, d_next = delta_matrix(mod, n + 1, w, parity)
                assert d_next.mul(d_n).is_zero(), (n, w, parity)
    print("PASS criterion 3: d∘d = 0 on full delta bases, |w| <= 3")


def test_criterion_04_dimension_tables(grid_reports):
    import math
    start = time.monotonic()
    for (lam, mu), rep in grid_reports.items():
        assert rep.K >= math.ceil(abs(mu - lam)) + 1
        got = tuple(rep.computed[n][F(0)].total for n in range(5))
        assert got == EXPECTED[(lam, mu)], (lam, mu, got)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"PASS criterion 4: closed-form dimension tables ({elapsed:.2f}s)")


def test_criterion_05_theorem_cross_check(grid_reports):
    for (lam, mu), rep in grid_reports.items():
        mod = TruncatedDlm(lam, mu, rep.K)
        predicted = engine.predict_theorem(mod)
        computed = {n: rep.computed[n][F(0)].total for n in range(5)}
        assert computed == predicted, (lam, mu)
        assert computed[3] == 0 and computed[4] == 0
    print("PASS criterion 5: kernel-formula prediction equals brute force")


def test_criterion_06_weight_vanishing(grid_reports):
    nonzero = [F(j, 2) for j in range(-4, 5) if j]
    for lam, mu in ((F(0), F(1, 2)), (F(1), F(1))):
        rep = grid_reports[(lam, mu)]
        for n in range(3):
            for w in nonzero:
                assert rep.computed[n][w].total == 0, (lam, mu, n, w)
    print("PASS criterion 6: nonzero-weight cohomology vanishes")


def test_criterion_07_explicit_cocycles():
    cocycles = []
    for lam in (F(0), F(1), F(-3, 2)):
        cocycles.append(make_h_lambda(lam))
    for k in range(4):
        cocycles.append(make_f_k(k))
        cocycles.append(make_ftilde_k(k))
    for f, ratios in cocycles:
        assert coboundary(f).is_zero()
        assert is_reduced(f)
        assert ("X",) not in f.values and ("A",) not in f.values
        assert engine.is_coboundary(f) is None
        assert all(r != 0 for r in ratios.values())
    print("PASS criterion 7: explicit cocycles re-derived and certified")


def test_criterion_08_localization_and_reduction():
    mod = TruncatedDlm(F(0), F(1, 2), 3)
    for n in (1, 2, 3):
        for w in (F(0), F(1, 2), F(-1, 2), F(1), F(-3, 2)):
            assert engine.localization_kernel_dim(mod, n, w) == 0, (n, w)
    rng = random.Random(20240917)
    for degree in (1, 2, 3):
        for _ in range(50):
            f = _random_cochain(mod, degree, rng.randint(0, 1), rng)
            g, f_red = reduce_cochain(f)
            assert is_reduced(f_red)
            assert f.sub(f_red).sub(coboundary(g)).is_zero()
    print("PASS criterion 8: localization injective; reduction verified "
          "on 150 random cochains")


def test_criterion_09_restriction(grid_reports):
    mod = TruncatedDlm(F(0), F(1, 2), 3)
    rng = random.Random(5)
    for degree in (1, 2):
        for parity in (0, 1):
            f = _random_cochain(mod, degree, parity, rng)
            assert restrict_sl2(coboundary(f)) == \
                coboundary(restrict_sl2(f))
    for lam, mu in GRID:
        rep = engine.restriction_injectivity_check(lam, mu)
        assert rep["ok"], (lam, mu)
        expected_classes = sum(EXPECTED[(lam, mu)][:3])
        assert len(rep["classes"]) == expected_classes, (lam, mu)
    for lam, mu in ORACLE_GRID:
        mod = TruncatedDlm(lam, mu, 3)
        predicted = engine.predict_sl2(mod, nmax=3)
        computed = {n: engine.h_dim(mod, n, 0, universe=SL2).total
                    for n in range(4)}
        assert computed == predicted, (lam, mu)
    print("PASS criterion 9: sl(2) restriction injective; "
          "sl(2) dims match the kernel formulas")


def test_criterion_10_cup_product_gelfand_fuchs():
    for k in (0, 1, 2):
        f, _ = make_f_k(k)
        h, _ = make_h_lambda(F(-k, 2))
        omega = cup(f, h)
        assert coboundary(omega).is_zero()
        report, _ = engine.gelfand_fuchs_check(k)
        assert report["C_k"] == "-1/4"
        assert engine.is_coboundary(omega) is None
        res = restrict_sl2(omega)
        assert not res.is_zero()
        assert engine.is_coboundary(res) is None
    print("PASS criterion 10: cup products are nontrivial cocycles with "
          "one restriction constant per k")


def test_criterion_11_b_image_lemma():
    for k0 in (0, 1, 2):
        for lam in (F(-k0, 2), F(1), F(1, 3), F(-2)):
            mu = lam + k0 + F(1, 2)
            mod = TruncatedDlm(lam, mu, max(3, k0 + 1))
            t = mod.twice_shifted(0)     # kernel slices are keyed by t
            ker_half = mod.kernel_slice(("A",), t - 1)
            y_img = [act(mod, "Y", v) for v in mod.kernel_slice(("X",), t)]
            b_img = [act(mod, "B", v) for v in mod.kernel_slice(("A",), t)]
            for vec in ker_half:
                bw = act(mod, "B", vec)
                if not bw or linalg.greedy_independent(y_img, [bw]) == []:
                    assert linalg.greedy_independent(b_img, [vec]) == [], \
                        (k0, lam)
    print("PASS criterion 11: B-image characterization lemma")


def test_criterion_12_exact_linalg_oracle():
    from tests_support_dense import SparseMatrix, dense_rank, int_columns
    rng = random.Random(321)
    for _ in range(100):
        nrows = rng.randint(1, 30)
        ncols = rng.randint(1, 30)
        entries = []
        for i in range(nrows):
            for j in range(ncols):
                if rng.random() < 0.25:
                    num = rng.randint(-8, 8)
                    if num:
                        entries.append((i, j, F(num, rng.randint(1, 5))))
        m = SparseMatrix.from_entries(nrows, ncols, entries)
        r = len(linalg.int_pivots([linalg._to_int_row(x) for x in m.rows]))
        assert r == dense_rank(m)
        kern = linalg.int_kernel_basis(int_columns(m)[0])
        assert len(kern) == ncols - r
        for v in kern:
            assert m.apply(v) == {}
        x0 = {j: F(rng.randint(-3, 3)) for j in range(ncols)
              if rng.random() < 0.4}
        b = m.apply(x0)
        x = linalg.solve(*int_columns(m), b)
        assert x is not None and m.apply(x) == b
    print("PASS criterion 12: rank/kernel/solve agree with the dense "
          "oracle on 100 random matrices")
