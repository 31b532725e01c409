"""Brute-force dimensions, predictions, reports, and the cup checks."""

import concurrent.futures
import hashlib
import json
import pathlib
import pickle
import random
import re
from fractions import Fraction

import pytest

from ospcoho import engine, linalg
from ospcoho.algebra import GENS, SL2, adopted_table
from ospcoho.cochains import (Cochain, _basis, _weight_chain, coboundary,
                              make_f_k, make_ftilde_k, make_h_lambda,
                              restrict_sl2)
from ospcoho.engine import (DimCount, NotACocycle, build_report,
                            class_representatives, gelfand_fuchs_check,
                            grid_reports, is_coboundary,
                            predict_proposition, predict_sl2,
                            predict_theorem, restriction_injectivity_check,
                            run_audit, selftest)
from ospcoho.weightmod import TruncatedDlm
from tests_support_dense import (cochain_coords, cochain_from_coords,
                                 delta_block, h_dim)

F = Fraction
TABLE = adopted_table()

GRID = [(F(0), F(0)), (F(1), F(1)), (F(5, 2), F(5, 2)),
        (F(0), F(1, 2)), (F(-1, 2), F(1)), (F(-1), F(3, 2)),
        (F(1, 3), F(0)), (F(0), F(2)), (F(1), F(1, 2))]


def chain_rank(mod, n, w, universe):
    """(rank, columns, pivots) of d_n on C^n_w (`engine._chain_rank`)."""
    chain = _weight_chain(mod, mod.twice_shifted(w), universe)
    return engine._chain_rank(mod, chain, n)


def positions(mod, n, w, universe, indices):
    """Stride indices of C^n_w (`cochains._basis`) as the positions at
    which the positional view (`tests_support_dense.delta_block`) reads
    them."""
    at = {index: c for c, (index, _, _) in enumerate(
        _basis(mod, mod.twice_shifted(w), n, universe))}
    return frozenset(at[i] for i in indices)


def test_h_dim_examples():
    mod = TruncatedDlm(0, F(1, 2), 3)
    dims = [h_dim(mod, n, 0).total for n in range(4)]
    assert dims == [1, 2, 1, 0]
    mod = TruncatedDlm(1, 1, 3)
    assert [h_dim(mod, n, 0).total for n in range(3)] == [1, 1, 0]
    mod = TruncatedDlm(F(1, 3), 0, 3)
    assert [h_dim(mod, n, 0).total for n in range(3)] == [0, 0, 0]


def test_h_dim_parity_split():
    # the special-family classes are odd: representative d_{0,k}
    mod = TruncatedDlm(0, F(1, 2), 3)
    dc = h_dim(mod, 0, 0)
    assert (dc.total, dc.even, dc.odd) == (1, 0, 1)
    dc1 = h_dim(mod, 1, 0)
    assert (dc1.even, dc1.odd) == (0, 2)


CHAIN_WEIGHTS = [F(j, 2) for j in range(-2, 3)]


def _chain_test_modules():
    """The grid at K = 3, a deeper point, the special points lambda =
    -k/2, at which the B coefficient 2lam + k of b_{m,k} vanishes, and two
    _AZero actions, which are no modules."""
    mods = [TruncatedDlm(lam, mu, 3) for lam, mu in GRID + [(F(-3, 2), F(2))]]
    mods.append(TruncatedDlm(F(1, 3), F(5, 6), 5))
    for k in range(4):
        special = TruncatedDlm(F(-k, 2), F(k + 1, 2), max(3, k + 1))
        assert len(special.scaled_act_basis("B", ("b", 0, k))) == 1
        mods.append(special)
    return mods + [_AZero(0, F(1, 2), 3), _AZero(F(1, 3), F(5, 6), 3)]


def test_chained_ranks_equal_full_block_ranks():
    # the chain leaves out the columns at the pivots of im d_{n-1} and
    # ranks the others. Its rank and pivots, at their positions in the
    # bases, must be those of
    # `int_pivots` on the cleared block of `delta_block`, and, for a module
    # (d^2 = 0), those of the full block, whose columns span the same
    # space. The representatives are read off these pivots. _AZero is no
    # module (A acts as 0, [A, B] = -2H does not), so only the first
    # holds there; at the special points lambda = -k/2 the B coefficient
    # 2lam + k of b_{m,k} vanishes. The chain at t = 2(w + p) holds the
    # parity t mod 2, the positional view's one nonempty component
    blocks = 0
    for mod in _chain_test_modules():
        for universe in (GENS, SL2):
            for w in CHAIN_WEIGHTS:
                t = mod.twice_shifted(w)
                if t is None:
                    continue
                for n in range(5):
                    rank, cols, pivots = chain_rank(mod, n, w, universe)
                    pivots = positions(mod, n + 1, w, universe, pivots)
                    skip = positions(mod, n, w, universe, chain_rank(
                        mod, n - 1, w, universe)[2]) if n else ()
                    dom, _, cleared, _ = delta_block(
                        mod, n, w, t % 2, universe, skip)
                    where = (mod, universe, w, n)
                    assert (rank, cols) == (len(pivots), len(dom)), where
                    assert sorted(pivots) == linalg.int_pivots(
                        [c for c in cleared if c]), where
                    if type(mod) is TruncatedDlm:
                        full = delta_block(mod, n, w, t % 2, universe)[2]
                        assert sorted(pivots) == linalg.int_pivots(
                            full), where
                    blocks += rank > 0
    assert blocks > 600


def test_h_dim_out_of_order():
    for args in ((0, F(1, 2), 3), (F(1, 3), F(5, 6), 5)):
        for w in (F(0), F(1, 2)):
            mod = TruncatedDlm(*args)
            in_order = [h_dim(mod, n, w) for n in range(5)]
            mod = TruncatedDlm(*args)
            shuffled = {n: h_dim(mod, n, w) for n in (3, 0, 4, 1, 2)}
            assert [shuffled[n] for n in range(5)] == in_order


class _AZero(TruncatedDlm):
    """D_{lambda,mu} with A acting as 0: A is not onto."""

    __slots__ = ()

    def scaled_act_basis(self, gen, bv):
        return () if gen == "A" else super().scaled_act_basis(gen, bv)


def test_subclass_gets_its_own_memo():
    # equal parameters, different action: nothing is shared, whichever
    # module is ranked first
    base, sub = TruncatedDlm(0, F(1, 2), 3), _AZero(0, F(1, 2), 3)
    assert base != sub and sub != base
    fresh = h_dim(_AZero(0, F(1, 2), 3), 1, 0)
    assert h_dim(base, 1, 0).total == 2
    assert h_dim(sub, 1, 0) == fresh
    assert sub.chains.keys() == base.chains.keys()
    assert all(sub.chains[key] is not chain
               for key, chain in base.chains.items())


def test_a_chain_resolves_each_degree_once_per_module():
    # the Koszul skeleton of d_n is resolved against the stencils once
    # per degree: the ranks and every coboundary at that weight read the
    # same resolution
    from ospcoho.cochains import block_basis
    mod = TruncatedDlm(0, F(1, 2), 3)
    assert h_dim(mod, 1, 0).odd == 2
    chain = _weight_chain(mod, mod.twice_shifted(0), GENS)
    resolved = chain.sources(mod, 1)
    basis = block_basis(mod, 1, 0, 1)
    f = cochain_from_coords(mod, 1, 1, basis,
                            {i: F(i + 1, 2) for i in range(len(basis))})
    df = coboundary(f)
    assert not df.is_zero() and coboundary(f) == df
    assert _weight_chain(mod, mod.twice_shifted(0), GENS) is chain
    assert chain.sources(mod, 1) is resolved


def test_modules_never_share_slices_or_chains():
    # slices and chains live in the module's own slots: at one
    # (lambda, mu, K), a K0 cut, a subclass with another action and the
    # plain truncation each build their own, and each chain is resolved
    # on its own module's slices and stride
    from ospcoho.cochains import _graded_monomials
    lam, mu, K = F(1, 3), F(7, 3), 3
    mods = (TruncatedDlm(lam, mu, K), TruncatedDlm(lam, mu, K, 1),
            _AZero(lam, mu, K))
    for mod in mods:
        for n in range(3):
            h_dim(mod, n, 0)
        assert mod.slices and mod.chains
        for chain in mod.chains.values():
            for n in range(4):
                graded = list(_graded_monomials(n, chain.universe).values())
                for col0, length, _ in chain.sources(mod, n)[1]:
                    i, r = divmod(col0, mod.stride)
                    w2 = graded[i][1]
                    assert r == 0 and len(mod.slices[chain.t + w2]) == length
    slices = [id(s) for m in mods for s in (m.slices, *m.slices.values())]
    chains = [id(c) for m in mods for c in (m.chains, *m.chains.values())]
    assert len(set(slices)) == len(slices)
    assert len(set(chains)) == len(chains)


def test_a_not_onto_violates_the_hypothesis():
    base, sub = TruncatedDlm(0, F(1, 2), 3), _AZero(0, F(1, 2), 3)
    assert predict_theorem(base) == predict_proposition(0, F(1, 2))
    assert base.check_a_onto() and not sub.check_a_onto()
    with pytest.raises(engine.HypothesisViolated):
        predict_theorem(sub)


class _AZeroOnB33(TruncatedDlm):
    """The table's action with A zeroed on b_{3,3} alone."""

    __slots__ = ()

    def scaled_act_basis(self, gen, bv):
        if (gen, bv) == ("A", ("b", 3, 3)):
            return ()
        return super().scaled_act_basis(gen, bv)


def test_a_not_onto_on_a_slice_without_m_zero_is_seen():
    # on D^{<=6}/D^{<=2} the slice t = 0 holds b_{3,3} and no m = 0
    # vector; with A zeroed there, d_{3,3} in the slice 1 has no
    # preimage, and the scan over -1 <= t <= 2K + 1 must see it
    mod = _AZeroOnB33(0, 0, 6, 2)
    t = mod.twice_shifted_weight(("b", 3, 3))
    assert t == 0 and not mod._holds_m0(t)
    assert not mod.check_a_onto()
    with pytest.raises(engine.HypothesisViolated):
        predict_theorem(mod)


def test_predict_proposition_cases():
    assert predict_proposition(F(7, 3), F(7, 3)) == \
        {0: 1, 1: 1, 2: 0, 3: 0, 4: 0}
    assert predict_proposition(F(-1), F(3, 2)) == \
        {0: 1, 1: 2, 2: 1, 3: 0, 4: 0}
    assert predict_proposition(F(0), F(2)) == \
        {0: 0, 1: 0, 2: 0, 3: 0, 4: 0}
    assert predict_proposition(F(1), F(1, 2)) == \
        {0: 0, 1: 0, 2: 0, 3: 0, 4: 0}


def test_predict_theorem_matches_proposition_on_grid():
    for lam, mu in GRID:
        mod = TruncatedDlm(lam, mu, engine.guard_K(lam, mu))
        assert predict_theorem(mod) == predict_proposition(lam, mu), \
            (lam, mu)


def test_theorem_boundary_guard():
    # at p = K + 1 the truncation loses B((ker A)^0); the guard avoids it
    lam, mu = F(0), F(2)
    shallow = TruncatedDlm(lam, mu, 1)
    assert predict_theorem(shallow) != predict_proposition(lam, mu)
    assert engine.guard_K(lam, mu) == 3
    deep = TruncatedDlm(lam, mu, engine.guard_K(lam, mu))
    assert predict_theorem(deep) == predict_proposition(lam, mu)


def test_each_prediction_takes_one_kernel_per_slice(monkeypatch):
    # the kernel description takes ker g on the weight-0 slice and on
    # the slice of h's weight, once each and of one generator, and
    # counts H^0 by rank-nullity: the joint kernel, stacked here, agrees
    from tests_support_dense import joint_kernel
    from ospcoho.weightmod import TWICE_WEIGHT
    calls = []
    kernel_slice = TruncatedDlm.kernel_slice

    def counted(mod, gen, t):
        calls.append((gen, t))
        return kernel_slice(mod, gen, t)

    monkeypatch.setattr(TruncatedDlm, "kernel_slice", counted)
    for lam, mu in GRID + [(F(-3, 2), F(2)), (F(2), F(1, 2))]:
        mod = TruncatedDlm(lam, mu, engine.guard_K(lam, mu))
        t0 = mod.twice_shifted(0)
        for predict, g, h in ((predict_theorem, "A", "B"),
                              (predict_sl2, "X", "Y")):
            calls.clear()
            dims = predict(mod)
            if t0 is None:          # no vector has weight 0
                assert calls == [] and not any(dims.values())
                continue
            assert calls == [(g, t0), (g, t0 + TWICE_WEIGHT[h])]
            assert dims[0] == len(joint_kernel(mod, (g, h), t0)), (lam, mu)


def test_sl2_brute_force_matches_remark_formula():
    for lam, mu in [(F(0), F(0)), (F(1), F(1)), (F(0), F(1, 2)),
                    (F(-1, 2), F(1)), (F(1, 3), F(0)), (F(-1), F(3, 2))]:
        mod = TruncatedDlm(lam, mu, 3)
        predicted = predict_sl2(mod, nmax=3)
        computed = {n: h_dim(mod, n, 0, universe=SL2).total
                    for n in range(4)}
        assert computed == predicted, (lam, mu)


def test_sl2_identity_invariant_when_lam_equals_mu():
    mod = TruncatedDlm(F(5, 2), F(5, 2), 3)
    assert predict_sl2(mod)[0] >= 1


def test_weight_vanishing():
    for lam, mu in ((F(0), F(1, 2)), (F(1), F(1))):
        mod = TruncatedDlm(lam, mu, 3)
        for w in (F(1, 2), F(-1, 2), F(1), F(-1), F(3, 2), F(-3, 2),
                  F(2), F(-2)):
            for n in range(3):
                assert h_dim(mod, n, w).total == 0, (lam, mu, n, w)


def test_is_coboundary_constructed_case():
    rng = random.Random(1)
    mod = TruncatedDlm(0, F(1, 2), 3)
    from ospcoho.engine import _random_cochain
    g0 = _random_cochain(mod, 1, 1, rng)
    f = coboundary(g0)
    g = is_coboundary(f)
    assert g is not None
    assert coboundary(g).sub(f).is_zero()


def test_is_coboundary_rejects_noncocycles():
    mod = TruncatedDlm(0, F(1, 2), 3)
    f = Cochain(mod, 1, 0, {("A",): {("c", 0, 1): F(2)}})
    assert not coboundary(f).is_zero()
    with pytest.raises(NotACocycle):
        is_coboundary(f)


def test_explicit_cocycles_are_nontrivial():
    h, _ = make_h_lambda(F(1))
    assert is_coboundary(h) is None
    for k in (0, 1, 2):
        fk, _ = make_f_k(k)
        ftk, _ = make_ftilde_k(k)
        assert is_coboundary(fk) is None
        assert is_coboundary(ftk) is None
        # nontrivial classes restrict nontrivially
        assert is_coboundary(restrict_sl2(fk)) is None
        assert is_coboundary(restrict_sl2(ftk)) is None


def test_class_representatives_count_and_reduction_localization():
    from ospcoho.cochains import reduce_cochain
    mod = TruncatedDlm(0, F(1, 2), 3)
    reps = class_representatives(mod, 1, mod.twice_shifted(0))
    assert len(reps) == 2 and all(rep.parity == 1 for rep in reps)
    b_mono = ("B",)
    for rep in reps:
        g, red = reduce_cochain(rep)
        assert red.values.get(b_mono)  # localization slot is nonzero


ACCEPTANCE_GRID = [(F(0), F(0)), (F(1), F(1)), (F(5, 2), F(5, 2)),
                   (F(0), F(1, 2)), (F(-1, 2), F(1)), (F(-1), F(3, 2)),
                   (F(-3, 2), F(2)), (F(1, 3), F(0)), (F(0), F(2)),
                   (F(1), F(1, 2))]


def _reference_representatives(mod, n, w, parity):
    # the Fraction greedy: null vectors of the whole d_n, from the dense
    # oracle's matrix, kept iff outside the span of im d_{n-1} and of the
    # vectors kept before them, i.e. iff they raise its rank
    from tests_support_dense import delta_matrix, int_columns
    dom, _, mat = delta_matrix(mod, n, w, parity)
    image = []
    if n > 0:
        prev = delta_matrix(mod, n - 1, w, parity)[2]
        image = [prev.column(j) for j in range(prev.ncols)]
    kernel = [{c: F(x, v[min(v)]) for c, x in v.items()}
              for v in linalg.int_kernel_basis(int_columns(mat)[0])[1]]
    return [cochain_from_coords(mod, n, parity, dom, kernel[i])
            for i in linalg.greedy_independent(image, kernel)]


def test_class_representatives_match_reference_greedy():
    # the cleared kernel and the Fraction greedy choose different bases
    # of the same H^n_w: equal counts, cocycles, and each set lies in
    # the span of im d_{n-1} and the other
    from tests_support_dense import delta_matrix
    assert len(ACCEPTANCE_GRID) == 10
    count = 0
    for lam, mu in ACCEPTANCE_GRID:
        mod = TruncatedDlm(lam, mu, engine.guard_K(lam, mu, 8))
        for n in range(3):
            for w in (F(0), F(1, 2), F(-1)):
                # the reference scans both parities; all the classes
                # have the one that t = 2(w + p) fixes
                t = mod.twice_shifted(w)
                got = class_representatives(mod, n, t)
                for parity in (0, 1):
                    where = (lam, mu, n, w, parity)
                    ref = _reference_representatives(mod, n, w, parity)
                    if t is None or parity != t % 2:
                        assert ref == [], where
                        continue
                    assert len(got) == len(ref), where
                    dom, _, mat = delta_matrix(mod, n, w, parity)
                    got = [cochain_coords(f, dom) for f in got]
                    ref = [cochain_coords(f, dom) for f in ref]
                    assert all(v and not mat.apply(v) for v in got), where
                    image = []
                    if n > 0:
                        prev = delta_matrix(mod, n - 1, w, parity)[2]
                        image = [prev.column(j) for j in range(prev.ncols)]
                    assert linalg.greedy_independent(image + ref, got) == []
                    assert linalg.greedy_independent(image + got, ref) == []
                    count += len(got)
                if t is None:
                    assert got == []
    assert count == 22


def test_representatives_only_where_classes_are(monkeypatch):
    # the restriction checks ask every degree for its classes, and the
    # cleared kernel is empty exactly where H^n_0 is 0: over the
    # acceptance grid 18 of the 27 kernels are not ((1/3, 0) has no
    # vector of weight 0 and takes none), each as long as dim H^n_0 on a
    # fresh module, and the representatives are pinned
    from ospcoho.cochains import cochain_to_json
    calls = []
    kernel_cochains = engine._kernel_cochains

    def counted(mod, n, t, universe, skip):
        ranked, reps = kernel_cochains(mod, n, t, universe, skip)
        calls.append((mod, n, len(reps)))
        return ranked, reps

    monkeypatch.setattr(engine, "_kernel_cochains", counted)
    for lam, mu in ACCEPTANCE_GRID:
        restriction_injectivity_check(lam, mu, K=8, nmax=2)
    assert len(calls) == 27
    assert sum(1 for *_, got in calls if got) == 18
    for mod, n, got in calls:
        fresh = TruncatedDlm(mod.lam, mod.mu, mod.K)
        assert got == h_dim(fresh, n, 0).total, (mod, n)
    digest = hashlib.sha256()
    count = 0
    for lam, mu in ACCEPTANCE_GRID:
        mod = TruncatedDlm(lam, mu, engine.guard_K(lam, mu, 8))
        for n in range(3):
            for rep in class_representatives(mod, n, mod.twice_shifted(0)):
                digest.update(json.dumps(cochain_to_json(rep),
                                         sort_keys=True).encode())
                count += 1
    assert count == 22
    assert digest.hexdigest() == (
        "5650c9426d5b49eb7e6c4023af3f3d37d06298e0a3ef10d6585d383a540a7406")


def _counted_blocks(monkeypatch):
    # every assembly of a weight block, as (module, chain, degree, skip)
    import ospcoho.cochains as cc
    calls = []
    block = cc._WeightChain.block

    def counted(chain, mod, n, skip):
        calls.append((mod, chain.t, chain.universe, n, frozenset(skip)))
        return block(chain, mod, n, skip)

    monkeypatch.setattr(cc._WeightChain, "block", counted)
    return calls


def test_representatives_assemble_one_cleared_block(monkeypatch):
    # class_representatives assembles one block per degree, d_n without
    # the columns at the pivots of im d_{n-1}, whether the chain's ranks
    # were filed before (by h_dim) or not; asked in order n = 0, 1, 2 on
    # a fresh module, each degree's reduction files the pivots the next
    # one clears
    calls = _counted_blocks(monkeypatch)
    for lam, mu in ACCEPTANCE_GRID:
        K = engine.guard_K(lam, mu, 8)
        for filed in (False, True):
            mod = TruncatedDlm(lam, mu, K)
            if filed:
                dims = [h_dim(mod, n, 0) for n in range(3)]
            calls.clear()
            t = mod.twice_shifted(0)
            want = []
            for n in range(3):
                reps = class_representatives(mod, n, t)
                if filed:
                    assert len(reps) == dims[n].total
                if t is None:       # no vector has weight 0
                    assert reps == []
                    continue
                assert all(rep.parity == t % 2 for rep in reps)
                skip = chain_rank(mod, n - 1, 0, GENS)[2] if n else frozenset()
                want.append((mod, t, GENS, n, skip))
            assert calls == want, (lam, mu, filed)


def test_restriction_checks_assemble_each_block_once(monkeypatch):
    # over the acceptance grid's restriction checks no (module, chain,
    # degree, skip set) is assembled twice within a point: 38 blocks, the
    # 27 cleared d_n and the 11 sl(2) d_{n-1} of the degrees n > 0 that
    # carry classes
    calls = _counted_blocks(monkeypatch)
    total = 0
    for lam, mu in ACCEPTANCE_GRID:
        calls.clear()
        restriction_injectivity_check(lam, mu, K=8, nmax=2)
        assert len(set(calls)) == len(calls), (lam, mu)
        total += len(calls)
    assert total == 38


def test_ranks_filed_by_representatives_equal_fresh_ranks():
    # the (rank, columns, pivots) that class_representatives files from
    # its one reduction are those _chain_rank takes on a fresh module,
    # and twice_h_dim reads them unchanged
    for lam, mu in GRID:
        for w in (F(0), F(1, 2), F(-1)):
            for universe in (GENS, SL2):
                mod = TruncatedDlm(lam, mu, 3)
                fresh = TruncatedDlm(lam, mu, 3)
                t = mod.twice_shifted(w)
                for n in range(4):
                    class_representatives(mod, n, t, universe)
                    if t is None:
                        continue
                    filed = _weight_chain(mod, t, universe).ranks[n]
                    assert filed == chain_rank(fresh, n, w, universe), \
                        (lam, mu, w, n)
                got = [engine.twice_h_dim(mod, n, t, universe)
                       for n in range(4)]
                want = [engine.twice_h_dim(fresh, n, t, universe)
                        for n in range(4)]
                assert got == want, (lam, mu, w, universe)


def test_sl2_representatives_count_the_sl2_classes():
    # class_representatives reads the sl(2) chain when asked for sl(2)
    # classes: as many as dim H^n_w(sl(2)), cocycles of the sl(2)
    # complex; at (-1, 1) H^n_0(sl(2)) has classes where H^n_0(osp(1|2))
    # has none
    found = only_sl2 = 0
    for lam, mu in ((F(0), F(1, 2)), (F(-1, 2), F(1)), (F(1, 3), F(0)),
                    (F(-1), F(1))):
        mod = TruncatedDlm(lam, mu, 3)
        for n in range(4):
            for w in (F(-1), F(-1, 2), F(0), F(1, 2), F(1), -mod.p):
                t = mod.twice_shifted(w)
                got = class_representatives(mod, n, t, SL2)
                if t is None:       # no vector has weight w
                    assert got == []
                    continue
                want = h_dim(TruncatedDlm(lam, mu, 3), n, w, SL2).total
                assert len(got) == want, (lam, mu, n, w)
                assert all(coboundary(rep).is_zero() for rep in got)
                found += len(got)
                if (lam, mu) == (F(-1), F(1)) and w == 0 and got:
                    only_sl2 += not class_representatives(mod, n, t)
    assert found and only_sl2


def test_localization_kernel_zero():
    mod = TruncatedDlm(0, F(1, 2), 3)
    for n in (1, 2, 3):
        for w in (F(0), F(1, 2), F(-3, 2)):
            assert engine.localization_kernel_dim(mod, n, w) == 0


def _positional_localization_kernel_dim(mod, n, w, parity):
    # `localization_kernel_dim` on the positional view: the unit slots
    # as positions in the block basis, the other columns ranked
    from ospcoho.cochains import _a_monomial, block_basis
    b_mono = ("B",) * n
    dom = block_basis(mod, n, w, parity)
    units = {c for c, (u, _) in enumerate(dom)
             if _a_monomial(u) or u == b_mono}
    cols = delta_block(mod, n, w, parity, GENS, units)[2]
    return (len(dom) - len(units)
            - len(linalg.int_pivots([c for c in cols if c])))


def test_stride_solves_equal_the_positional_reference():
    # a primitive is solved on f's stride coordinates and the chain's
    # block, the reference on positions in the block bases. The solve
    # sets the free variables to 0, so its solution depends on the order
    # of the columns, and the two must give the same g, with and without
    # the reduction's target rows. The localization kernels must count
    # alike as well
    from ospcoho.cochains import _a_monomial, primitive
    from tests_support_dense import random_cochain, reference_primitive
    rng = random.Random(26)
    solved = 0
    for lam, mu in ACCEPTANCE_GRID:
        mod = TruncatedDlm(lam, mu, engine.guard_K(lam, mu))
        weights = (F(0), F(1, 2), -mod.p, -mod.p - F(1, 2))
        for universe in (GENS, SL2):
            for n in (1, 2, 3):
                for parity in (0, 1):
                    f = coboundary(random_cochain(
                        mod, n - 1, parity, rng, universe=universe,
                        weights=weights))
                    for target in (None, _a_monomial):
                        got = primitive(f, target)
                        assert got == reference_primitive(f, target), \
                            (lam, mu, universe, n, parity, target)
                        solved += got is not None and not got.is_zero()
    assert solved > 100
    # (both parity components of the positional view: one is empty)
    blocks = 0
    for mod in _chain_test_modules():
        for w in CHAIN_WEIGHTS:
            t = mod.twice_shifted(w)
            for n in (1, 2, 3):
                assert engine.localization_kernel_dim(mod, n, w) == sum(
                    _positional_localization_kernel_dim(mod, n, w, parity)
                    for parity in (0, 1)), (mod, w, n)
                blocks += t is not None and bool(_basis(mod, t, n, GENS))
    assert blocks > 200


def test_delta_block_composes_to_zero():
    # d_{n+1} d_n = 0 on the integer columns: the image of each column of
    # d_n under d_{n+1} is the zero vector
    mod = TruncatedDlm(0, F(1, 2), 3)
    checked = 0
    for n in range(4):
        for parity in (0, 1):
            dom, cod, cols, _ = delta_block(mod, n, 0, parity)
            assert len(cols) == len(dom)
            checked += len(cols)
            next_cols = delta_block(mod, n + 1, 0, parity)[2]
            assert len(next_cols) == len(cod)
            for col in cols:
                image = {}
                for r, v in col.items():
                    for s, x in next_cols[r].items():
                        image[s] = image.get(s, 0) + v * x
                assert not any(image.values()), (n, parity)
    assert checked
    dom, cod, cols, _ = delta_block(mod, 1, F(19, 2), 0)
    assert dom == [] and cols == []


def test_reduced_cocycle_vanishing_on_HB_is_coboundary():
    # reduced n-cocycles killed on H B^{n-1} are exact, n >= 2
    from ospcoho.cochains import _a_monomial
    from tests_support_dense import SparseMatrix, delta_matrix, int_columns
    from ospcoho import linalg
    mod = TruncatedDlm(0, F(1, 2), 3)
    for n in (2, 3):
        hb = tuple(["H"] + ["B"] * (n - 1))
        for parity in (0, 1):
            dom, cod, mat = delta_matrix(mod, n, 0, parity)
            extra = []
            for col, (u, _) in enumerate(dom):
                if _a_monomial(u) or u == hb:
                    extra.append({col: F(1)})
            stacked = SparseMatrix(mat.nrows + len(extra), mat.ncols,
                                   mat.rows + extra)
            for v in linalg.int_kernel_basis(int_columns(stacked)[0])[1]:
                kv = {c: F(x) for c, x in v.items()}
                f = cochain_from_coords(mod, n, parity, dom, kv)
                assert is_coboundary(f) is not None, (n, parity)


def test_h2_representative_localizes():
    from ospcoho.cochains import reduce_cochain
    mod = TruncatedDlm(0, F(1, 2), 3)
    reps = class_representatives(mod, 2, mod.twice_shifted(0))
    assert len(reps) == 1 and reps[0].parity == 1
    _, red = reduce_cochain(reps[0])
    assert red.values.get(("B", "B"))


def test_gelfand_fuchs_constant():
    for k in (0, 1, 2):
        rep, omega = gelfand_fuchs_check(k)
        assert omega.degree == 2 and coboundary(omega).is_zero()
        assert rep["C_k"] == "-1/4"
        assert rep["cup_sign_variant"] == "printed"
        assert rep["printed_constant"] == str(F(-(-1) ** k))
        assert rep["ratio_to_printed"] == str(F(-1, 4) / (-(-1) ** k))


def test_restriction_injectivity_reports():
    rep = restriction_injectivity_check(0, F(1, 2))
    assert rep["ok"]
    ns = sorted(e["n"] for e in rep["classes"])
    assert ns == [0, 1, 1, 2]
    rep2 = restriction_injectivity_check(F(-1, 2), 1)
    assert rep2["ok"]
    assert any(e["n"] == 2 for e in rep2["classes"])


def test_restriction_check_rejects_dependent_restrictions(monkeypatch):
    # each representative doubled: every restriction is nontrivial, but
    # the two of each part are dependent, so the map is not injective
    kernel_cochains = engine._kernel_cochains

    def doubled(*args):
        ranked, reps = kernel_cochains(*args)
        return ranked, reps + [rep.scale(2) for rep in reps]

    monkeypatch.setattr(engine, "_kernel_cochains", doubled)
    rep = restriction_injectivity_check(0, F(1, 2))
    assert len(rep["classes"]) == 8
    assert all(e["restriction_nontrivial"] for e in rep["classes"])
    assert not rep["ok"]


CI_PAIRS = [(F(1, 3), F(0)), (F(1, 3), F(5, 6)), (F(2, 5), F(-1, 10)),
            (F(-1, 3), F(7, 6)), (F(1, 6), F(1, 6))]
HALFINTS = [(F(a, 2), F(b, 2)) for a in range(-2, 3) for b in range(-2, 3)]


def test_zero_piece_has_the_cohomology_of_the_truncation():
    # dims of the Casimir's zero piece, or 0 where there is none, against
    # those of D^{<=guard_K} itself, total, even and odd, for n <= 4 at
    # every weight of the wmax 2 window; build_report, which ranks the
    # piece, must report the truncation's dims as well
    window = [F(j, 2) for j in range(-4, 5)]
    pieces = 0
    for lam, mu in sorted(set(ACCEPTANCE_GRID + CI_PAIRS + HALFINTS)):
        report = build_report(lam, mu, nmax=4, wmax=2)
        full = TruncatedDlm(lam, mu, report.K)
        want = {(n, w): h_dim(full, n, w) for n in range(5) for w in window}
        piece = engine.zero_piece(lam, mu)
        got = {key: DimCount(0, 0, 0) if piece is None else h_dim(piece, *key)
               for key in want}
        assert got == want, (lam, mu)
        assert all(report.computed[n][w] == want[(n, w)]
                   for n, row in report.computed.items() for w in row)
        pieces += piece is not None
    assert pieces == 22


def test_zero_piece_bounds():
    # integer p >= 0: D^{<=p}/D^{<=p-2}; half-integer p > 0:
    # D^{<=p-1/2}/D^{<=p-3/2}; otherwise none
    piece = engine.zero_piece
    assert (piece(0, 3).K, piece(0, 3).K0) == (3, 1)
    assert (piece(F(1, 3), F(4, 3)).K, piece(F(1, 3), F(4, 3)).K0) == (1, -1)
    assert (piece(0, 0).K, piece(0, 0).K0) == (0, -1)
    assert (piece(0, F(7, 2)).K, piece(0, F(7, 2)).K0) == (3, 2)
    assert (piece(0, F(1, 2)).K, piece(0, F(1, 2)).K0) == (0, -1)
    assert piece(1, 0) is None and piece(0, F(1, 3)) is None
    assert piece(F(1, 2), 0) is None


def test_higher_cohomology_vanishes_on_the_piece():
    # H^n_0 = 0 for 3 <= n <= 12 at every point of halfints:-1..1, as
    # both predictions say
    for lam, mu in HALFINTS:
        report = build_report(lam, mu, nmax=12, wmax=0)
        assert report.match, (lam, mu)
        assert all(report.computed[n][0].total == 0 for n in range(3, 13))


def test_outputs_are_pinned(tmp_path, capsys):
    # the dims CSVs of the half-integer grids -1..1 and -2..2, of five
    # other points, of four points at K = 128, of four far points and of
    # three far points at p < 0, the restriction checks of the acceptance
    # grid, and the stdout of selftest, audit (JSON and CSV), the f,
    # ftilde and cup cocycles and the h cocycles, byte for byte
    from ospcoho import cli
    out = tmp_path / "dims.csv"
    assert cli.main(["dims", "--grid", "halfints:-1..1", "--format", "csv",
                     "--threads", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "3a8916cc9b0dfeaad039de0359b86cde03debf109050368029d61b45027f4d5b")
    assert cli.main(["dims", "--grid", "halfints:-2..2", "--format", "csv",
                     "--threads", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "bd1ac5ba73ab5567d255ef060f0d61c7c4df090923298f96a500f47f3914738b")
    # points off the half-integer lattice: action scales D = 18 and 50
    assert cli.main(["dims", "--grid", "pairs:1/3,0;1/3,5/6;2/5,-1/10;"
                     "-1/3,7/6;1/6,1/6", "--format", "csv",
                     "--threads", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "f4e2d8db7f8e0942ed5497bfbffab7e4cdb668ff3b642d890ce7081cdc59107e")
    # deep truncations, where the predictions read D^{<=128}: a special
    # point, lambda = mu, 2p not an integer and an integer p >= 1
    assert cli.main(["dims", "--grid", "pairs:-3/2,2;0,0;1/3,0;0,2",
                     "--kmax", "128", "--format", "csv", "--threads", "1",
                     "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "09dc16176256827da5a38411d2cfeaef6acb93896c227a0df0e9179570f48086")
    # far points at their own guard depths, up to K = 1002, where no
    # stencil is scanned for A's surjectivity
    assert cli.main(["dims", "--grid", "pairs:0,200;-1/2,1000;-400,0;-3/2,2",
                     "--format", "csv", "--threads", "1",
                     "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "a79d32161b29551d09c7ce6d69da363d8ea756fc177d9f3b58b24302456de19f")
    # far points at p < 0, up to K = 10,000,001, where the slices of
    # weight 0 and -1/2 hold no m = 0 vector and no slice is built
    assert cli.main(["dims", "--grid", "pairs:16384,0;10000000,0;5/2,-1/2",
                     "--format", "csv", "--threads", "1",
                     "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "8423633aa72c980f4a8c483a9531a1966167622e2dd18ddc70dfa5b7758992eb")
    checks = [restriction_injectivity_check(lam, mu, K=8, nmax=2)
              for lam, mu in ACCEPTANCE_GRID]
    assert sum(len(c["classes"]) for c in checks) == 22
    assert all(c["ok"] for c in checks)
    text = json.dumps(checks, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ed7d908ef2eb04f36f37b757a5471a92e1ce6b2063ab45b2ec4b32e0044b8181")

    def stdout(*argvs):
        capsys.readouterr()
        for argv in argvs:
            assert cli.main(argv) == 0, argv
        return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    assert stdout(["selftest"]) == (
        "764ddd5350532a28ab1171898c2d7b60ea9d2ea76abe3087608af830984a1e58")
    assert stdout(["audit"]) == (
        "60ec0617cea8b02d3434d7b99c388b9087d599588685833e70fcf469e3100454")
    assert stdout(["audit", "--format", "csv"]) == (
        "73890cfc3b68c39416500b29c17691fb8f2534c76debfc5d70ccdc7a78c297f7")
    assert stdout(*(["cocycles", "--kind", kind, "--k", str(k)]
                    for k in range(3) for kind in ("f", "ftilde", "cup"))) == (
        "4388a8626a844bc6d352c4e44e0ca418783a397b1f3799d35d1d2173a573d1e6")
    assert stdout(*(["cocycles", "--kind", "h", f"--lambda={lam}"]
                    for lam in ("0", "1/3", "1", "-1/2"))) == (
        "fe1a27199e95f3cfda206e79a6a02b200bb5a1919852a0ebfe207ede698c5919")


def test_every_ci_pin_is_pinned_in_tier1():
    # each sha256 that the CI workflow checks is pinned by a test too, so
    # a local tier-1 run sees every change that CI would refuse
    root = pathlib.Path(__file__).resolve().parent.parent
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text(
        encoding="utf-8")
    ci = set(re.findall(r"\b[0-9a-f]{64}\b", workflow))
    assert len(ci) >= 10
    tests = "".join(path.read_text(encoding="utf-8")
                    for path in sorted((root / "tests").rglob("*.py")))
    assert sorted(h for h in ci if h not in tests) == []


def test_report_json_schema_and_match():
    rep = build_report(F(0), F(1, 2))
    data = rep.to_json()
    assert set(data) == {"lambda", "mu", "K", "computed", "theorem",
                         "proposition", "match"}
    assert data["lambda"] == "0" and data["mu"] == "1/2"
    assert data["match"] is True
    assert data["computed"]["1"]["0"] == {"total": 2, "even": 0, "odd": 2}
    assert data["theorem"] == {"0": 1, "1": 2, "2": 1, "3": 0, "4": 0}
    json.loads(json.dumps(data))  # round-trips


def test_grid_reports_serial_and_parallel_agree():
    pairs = [(F(0), F(1, 2)), (F(1, 3), F(0))]
    serial = [r.to_json() for r in grid_reports(pairs, threads=1, wmax=F(1))]
    parallel = [r.to_json() for r in grid_reports(pairs, threads=2,
                                                  wmax=F(1))]
    assert serial == parallel


def test_dim_count_is_a_value():
    dc = DimCount(3, 1, 2)
    assert dc == DimCount(3, 1, 2) and dc != DimCount(3, 2, 1)
    assert hash(dc) == hash(DimCount(3, 1, 2))
    assert len({dc, DimCount(3, 1, 2)}) == 1
    assert (dc.total, dc.even, dc.odd) == (3, 1, 2)
    assert repr(dc) == "DimCount(total=3, even=1, odd=2)"
    back = pickle.loads(pickle.dumps(dc))
    assert type(back) is DimCount and back == dc
    assert back.to_json() == {"total": 3, "even": 1, "odd": 2}


def test_report_survives_pickling():
    # what a pool worker sends back: every field, DimCounts included
    rep = build_report(F(0), F(1, 2), nmax=2, wmax=F(1, 2))
    back = pickle.loads(pickle.dumps(rep))
    assert type(back) is type(rep)
    assert vars(back) == vars(rep)
    assert type(back.computed[1][F(0)]) is DimCount


def test_run_audit_end_to_end():
    rep = run_audit()
    assert rep.variant == "repaired-V"
    assert rep.table == TABLE


def test_the_audit_reads_one_module(monkeypatch):
    # every candidate table that reaches the module-axiom check is
    # checked on one module, so the action table is read once per
    # (generator, vector), however many tables are checked
    reads, checked = [], []
    table_row, axiom = TruncatedDlm.scaled_act_basis, engine.module_axiom_holds

    def counted_row(self, gen, bv):
        reads.append((gen, bv))
        return table_row(self, gen, bv)

    def counted_axiom(mod, table):
        checked.append(mod)
        return axiom(mod, table)

    monkeypatch.setattr(TruncatedDlm, "scaled_act_basis", counted_row)
    monkeypatch.setattr(engine, "module_axiom_holds", counted_axiom)
    assert run_audit().variant == "repaired-V"
    assert len(checked) > 1 and all(mod is checked[0] for mod in checked)
    assert reads and len(reads) == len(set(reads))


def test_selftest_all_green():
    results = selftest("all")
    assert results
    assert all(ok for _, ok, _ in results), \
        [n for n, ok, _ in results if not ok]


def test_selftest_rejects_unknown_suite():
    # an unknown suite would otherwise run no check and read as all ok
    with pytest.raises(ValueError, match="nosuch"):
        selftest("nosuch")


def test_selftest_oracle_sees_the_integer_composition(monkeypatch):
    # the realization check compares the oracle with the images the
    # complexes are built on, X and Y composed in integers on the
    # stencils by `TruncatedDlm._square_stencil`: a composition that
    # drops one term of each vector's image fails it
    square = TruncatedDlm._square_stencil

    def dropped(self, gen, t):
        return tuple(row[1:] for row in square(self, gen, t))

    monkeypatch.setattr(TruncatedDlm, "_square_stencil", dropped)
    verdict = {name: ok for name, ok, _ in selftest("oracle")}
    assert verdict["table-action-equals-realization"] is False
    assert verdict["realization-constants"] is True


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, starts nothing."""

    sizes = []

    def __init__(self, max_workers=None):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


def test_grid_workers_capped_at_cpu_count(monkeypatch):
    # grid_reports imports the pool only when it starts one, so the
    # stand-in replaces it where that import finds it
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _InlinePool)
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 3)
    _InlinePool.sizes.clear()
    pairs = [(F(j, 2), F(j, 2)) for j in range(5)]
    reports = grid_reports(pairs, nmax=0, wmax=F(0), threads=64)
    assert _InlinePool.sizes == [3]
    assert len(reports) == 5 and all(r.match for r in reports)
    grid_reports(pairs, nmax=0, wmax=F(0))
    assert _InlinePool.sizes == [3]         # serial by default: no pool
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 1)
    grid_reports(pairs, nmax=0, wmax=F(0), threads=64)
    assert _InlinePool.sizes == [3]         # one CPU: no pool at all


def test_delta_block_equals_the_per_block_reference():
    # the weight chains write each entry once from integer stencils; the
    # per-block assembler they replaced must give the same bases, columns
    # and scale, with and without the chained ranks' skipped columns
    from tests_support_dense import reference_delta_block
    mods = [TruncatedDlm(lam, mu, engine.guard_K(lam, mu))
            for lam, mu in ACCEPTANCE_GRID]
    mods.append(TruncatedDlm(F(1, 3), F(5, 6), 5))
    entries = 0
    for mod in mods:
        for universe in (GENS, SL2):
            for j in range(-4, 5):
                w = F(j, 2)
                t = mod.twice_shifted(w)
                for parity in (0, 1):
                    for n in range(5):
                        # the chain's pivots, where it holds the parity
                        skips = [()]
                        if n > 0 and t is not None and t % 2 == parity:
                            skips.append(positions(
                                mod, n, w, universe, chain_rank(
                                    mod, n - 1, w, universe)[2]))
                        for skip in skips:
                            got = delta_block(mod, n, w, parity,
                                              universe, skip)
                            assert got == reference_delta_block(
                                mod, n, w, parity, universe, skip), \
                                (mod, universe, w, parity, n, skip)
                            entries += sum(map(len, got[2]))
    assert entries > 400000


def _count_block_basis(monkeypatch, calls):
    """Record each call of `cochains.block_basis` in `calls`, under every
    name a program module holds it by."""
    import sys
    import ospcoho.cochains as cc
    inner = cc.block_basis

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "ospcoho"
                and getattr(module, "block_basis", None) is inner):
            monkeypatch.setattr(module, "block_basis", counted)


def _benchmark_workloads():
    """perfbench/workloads.py, loaded from its file."""
    import importlib.util
    import pathlib
    path = (pathlib.Path(__file__).resolve().parent.parent / "perfbench"
            / "workloads.py")
    spec = importlib.util.spec_from_file_location("_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_certification_builds_no_positional_basis(monkeypatch):
    # the certificates read the chains' blocks and a cochain's
    # coordinates at stride indices: the restriction checks on the
    # acceptance grid, the primitives of the benchmark's seeded cocycles
    # and the localization kernels build no positional basis
    calls = []
    cocycles = _benchmark_workloads().coboundary_inputs(1)
    _count_block_basis(monkeypatch, calls)
    for lam, mu in ACCEPTANCE_GRID:
        assert restriction_injectivity_check(lam, mu, K=8, nmax=2)["ok"]
    assert len(cocycles) == 4
    assert all(is_coboundary(f) is not None for f in cocycles)
    mod = TruncatedDlm(0, F(1, 2), 3)
    assert all(engine.localization_kernel_dim(mod, n, w) == 0
               for n in (1, 2, 3) for w in (F(0), F(1, 2)))
    assert calls == []


def test_a_grid_pass_builds_no_positional_basis_nor_empty_chain(
        monkeypatch):
    # the ranks read the chains' stride indices, never a positional basis,
    # and a weight that no vector has is answered 0 with no chain
    import ospcoho.cochains as cc
    calls, chains = [], []
    _count_block_basis(monkeypatch, calls)
    init = cc._WeightChain.__init__

    def filed(chain, t, universe):
        chains.append(t)
        init(chain, t, universe)

    monkeypatch.setattr(cc._WeightChain, "__init__", filed)
    vals = [F(j, 2) for j in range(-2, 3)]
    reports = grid_reports([(a, b) for a in vals for b in vals], threads=1)
    assert len(reports) == 25 and all(r.match for r in reports)
    assert calls == []
    assert chains and all(type(t) is int for t in chains)


def test_module_memo_stays_bounded_over_a_grid():
    # no memo outlives a call: once a 25-point serial grid's reports are
    # dropped, no module it made is left, while a module its caller
    # holds keeps the ranks its chains filed
    import gc
    vals = [F(j, 2) for j in range(-2, 3)]
    pairs = [(a, b) for a in vals for b in vals]
    gc.collect()
    # held, so that no id of theirs is reused
    before = [o for o in gc.get_objects() if isinstance(o, TruncatedDlm)]
    known = {id(o) for o in before}
    reports = grid_reports(pairs, nmax=1, wmax=F(0), threads=1)
    assert len(reports) == 25 and all(r.match for r in reports)
    del reports
    gc.collect()
    assert [o for o in gc.get_objects() if isinstance(o, TruncatedDlm)
            and id(o) not in known] == []
    last = engine.zero_piece(*pairs[-1])
    chain_rank(last, 1, F(0), GENS)
    assert last.chains
    assert all(chain.ranks for chain in last.chains.values())


def test_evicted_memos_and_chains_are_freed_without_the_collector():
    # a module holds its slices, stencils and chains, and none of them
    # refers back to it, so a module goes with everything it built by
    # reference counting alone, with the cyclic collector off: after a
    # serial grid over depths 3, 4 and 5 and a restriction check, once
    # their results are dropped, no module and no chain they made is left
    import gc
    from ospcoho.cochains import _WeightChain

    def alive():
        return [o for o in gc.get_objects()
                if isinstance(o, (TruncatedDlm, _WeightChain))]

    gc.collect()
    before = alive()    # held, so that no id of theirs is reused
    gc.disable()
    try:
        pairs = [(F(0), F(1, 2)), (F(1, 3), F(5, 6)), (F(-1), F(1))]
        for K in (3, 4, 5):
            reports = grid_reports(pairs, K=K, nmax=2, wmax=F(1, 2),
                                   threads=1)
            assert [r.K for r in reports] == [K] * 3
        check = restriction_injectivity_check(F(0), F(1, 2))
        assert check["ok"] and check["classes"]
        del reports, check
        known = {id(o) for o in before}
        left = [o for o in alive() if id(o) not in known]
    finally:
        gc.enable()
    assert left == []
