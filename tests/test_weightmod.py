"""Action rows of the truncated module and its kernel subspaces."""

import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from ospcoho import algebra, linalg, weightmod as wm
from ospcoho.algebra import GENS, WEIGHT, adopted_table, printed_table
from ospcoho.cochains import _coords
from ospcoho.engine import guard_K, zero_piece
from ospcoho.superdiff import solve_realization_constants
from ospcoho.weightmod import (FAMILIES, TruncatedDlm,
                               TruncationViolation, action_scale,
                               from_oppoly, module_axiom_holds, to_oppoly)
from tests_support_dense import (FAMILY_PARITY, act, act_basis,
                                 action_compat_defect, basis_weight,
                                 casimir, casimir_commutes, joint_kernel,
                                 kernel_vectors, op_term, random_cochain,
                                 realized, rescaled_table, stencil_image,
                                 vec_from_json)

F = Fraction


def test_act_examples():
    mod = TruncatedDlm(F(1, 3), F(1, 5), 3)
    assert act_basis(mod, "A", ("a", 3, 2)) == {("c", 2, 2): 3}
    lam = F(2)
    mod2 = TruncatedDlm(lam, lam, 3)
    assert act_basis(mod2, "B", ("b", 1, 1)) == {
        ("d", 2, 1): 1, ("c", 1, 1): -(2 * lam + 1)}
    for k in range(4):
        assert act_basis(mod2, "X", ("a", 0, k)) == {}


def test_act_truncation_violation():
    mod = TruncatedDlm(0, 0, 2)
    with pytest.raises(TruncationViolation):
        act_basis(mod, "H", ("a", 0, 3))


def test_weight_and_parity_homogeneity():
    mod = TruncatedDlm(F(-1, 2), F(1), 3)
    for gen in GENS:
        for fam in FAMILIES:
            for m in range(4):
                for k in range(4):
                    bv = (fam, m, k)
                    out = act_basis(mod, gen, bv)
                    target_w = basis_weight(mod, bv) + WEIGHT[gen]
                    gen_par = 1 if gen in ("A", "B") else 0
                    for tbv in out:
                        assert basis_weight(mod, tbv) == target_w
                        assert FAMILY_PARITY[tbv[0]] == \
                            (FAMILY_PARITY[fam] + gen_par) % 2
                        assert tbv[2] <= mod.K


def test_closure_no_k_growth():
    # exhaustive over K <= 5: no action row raises the dx-order
    for K in range(6):
        mod = TruncatedDlm(F(2, 3), F(1, 7), K)
        for gen in GENS:
            for fam in FAMILIES:
                for m in range(3):
                    for k in range(K + 1):
                        for tbv in act_basis(mod, gen, (fam, m, k)):
                            assert tbv[2] <= K


def test_action_compat_defect_examples():
    mod = TruncatedDlm(0, 0, 2)
    printed = printed_table()
    adopted = adopted_table()
    assert action_compat_defect(mod, adopted, "A", "B", ("c", 0, 0)) == {}
    assert action_compat_defect(mod, printed, "A", "B", ("c", 0, 0)) == {
        ("c", 0, 0): -2}
    for table in (printed, adopted):
        for m in range(3):
            for k in range(3):
                assert action_compat_defect(
                    mod, table, "A", "A", ("a", m, k)) == {}
        assert action_compat_defect(mod, table, "H", "H", ("d", 1, 1)) == {}


def test_module_axiom_all_pairs():
    adopted = adopted_table()
    for lam, mu in ((F(0), F(0)), (F(1, 3), F(1, 5)), (F(-1), F(3, 2))):
        mod = TruncatedDlm(lam, mu, 4)
        assert module_axiom_holds(mod, adopted)


def test_printed_table_fails_module_axiom():
    mod = TruncatedDlm(0, 0, 3)
    assert not module_axiom_holds(mod, printed_table())


def test_module_axiom_check_reads_whole_slices():
    # B is wrong at one vector only, a_{K+2,K} in the slice k - m = -2,
    # beyond m <= K; D added to one coefficient keeps B o B divisible by
    # D, so Y is still composed, and the check must see the fault
    class OneBadRow(TruncatedDlm):
        __slots__ = ()

        def scaled_act_basis(self, gen, bv):
            img = super().scaled_act_basis(gen, bv)
            if gen == "B" and bv == ("a", self.K + 2, self.K):
                D = self._ints[0]
                img = tuple((v, x + D if v[0] == "d" else x) for v, x in img)
            return img

    K = 3
    mod = OneBadRow(F(1, 3), F(1, 5), K)
    good = TruncatedDlm(F(1, 3), F(1, 5), K)
    bad = ("a", K + 2, K)
    assert mod.twice_shifted_weight(bad) == -4
    assert dict(mod.scaled_act_basis("B", bad)) != \
        dict(good.scaled_act_basis("B", bad))
    assert module_axiom_holds(good, adopted_table())
    assert not module_axiom_holds(mod, adopted_table())
    assert not _axiom_oracle(mod, adopted_table())


def _defective_slices(mod, table):
    # the Fraction definition, by slice: yields the slices t in
    # [-2K-1, 2K+1] that hold a vector with a nonzero defect
    K = mod.K
    for t in range(-2 * K - 1, 2 * K + 2):
        if any(action_compat_defect(mod, table, u, v, bv)
               for bv in mod.twice_weight_basis(t)
               for u in GENS for v in GENS):
            yield t


def _axiom_oracle(mod, table):
    return next(_defective_slices(mod, table), None) is None


def test_module_axiom_check_reads_the_lowest_slice():
    # H is off by one on c_{K+1,0}, in the slice -2K-3 below the range;
    # from the range only Y reaches it, from the lowest slice, -2K-1
    class OffByOne(TruncatedDlm):
        __slots__ = ()

        def scaled_act_basis(self, gen, bv):
            img = super().scaled_act_basis(gen, bv)
            if gen == "H" and bv == ("c", self.K + 1, 0):
                img = ((bv, dict(img).get(bv, 0) + self._ints[0]),)
            return img

    K = 3
    mod = OffByOne(F(1, 3), F(1, 5), K)
    assert list(_defective_slices(mod, adopted_table())) == [-2 * K - 1]
    assert not module_axiom_holds(mod, adopted_table())


def test_integer_axiom_check_matches_fraction_oracle():
    printed = printed_table()
    tables = list(algebra._flip_variants(
        printed, algebra._signed_defects(printed)))
    rng = random.Random(2024)
    for i in range(50):
        rows = {p: printed.row(p) for p in algebra.PAIR_ORDER}
        for pair in algebra.OFF_DIAGONAL_PAIRS:
            if rng.random() < 0.5:
                rows[pair] = algebra.combo_scale(rows[pair], F(-1))
        tables.append(algebra.StructureTable(rows, f"random-flip-{i}"))
    for scales in ((1, F(1, 2), 2, 4, F(1, 4)), (F(1, 2), 1, 1, 1, F(1, 2)),
                   (2, F(1, 4), F(1, 2), 1, 4)):
        tables.append(rescaled_table(adopted_table(),
                                     dict(zip(GENS, map(F, scales)))))
    assert any(c.denominator > 1 for t in tables[-3:]
               for p in algebra.PAIR_ORDER for c in t.row(p).values())
    # brackets that break weight additivity ([H,X] gains a Y term, [X,Y]
    # an X term): the extra term maps into a slice no composition reaches
    for pair, extra in ((("H", "X"), {"Y": 1}), (("X", "Y"), {"X": 1})):
        rows = {p: adopted_table().row(p) for p in algebra.PAIR_ORDER}
        rows[pair].update(extra)
        tables.append(algebra.StructureTable(rows, "off-weight"))
        assert not tables[-1].check_weights()
    verdicts = []
    for lam, mu, K in ((F(1, 3), F(1, 3), 2), (F(0), F(1, 2), 3),
                       (F(-1, 2), F(1), 3)):
        mod = TruncatedDlm(lam, mu, K)
        for table in tables:
            got = module_axiom_holds(mod, table)
            assert got == _axiom_oracle(mod, table), \
                (mod, table.changes_from(printed))
            verdicts.append(got)
    assert True in verdicts and False in verdicts


def test_oracle_equivalence_sample():
    table = adopted_table()
    consts = solve_realization_constants(table)
    for lam, mu in ((F(0), F(1, 2)), (F(1, 3), F(0))):
        mod = TruncatedDlm(lam, mu, 4)
        for gen in GENS:
            for fam in FAMILIES:
                for m in range(5):
                    for k in range(5):
                        bv = (fam, m, k)
                        oracle = realized(
                            gen, to_oppoly({bv: F(1)}), lam, mu, consts)
                        assert from_oppoly(oracle.terms, mod) == \
                            act_basis(mod, gen, bv)


def test_weight_basis_examples():
    assert TruncatedDlm(0, 0, 1).weight_basis(0) == [
        ("a", 0, 0), ("a", 1, 1), ("b", 0, 0), ("b", 1, 1)]
    assert TruncatedDlm(0, F(1, 2), 0).weight_basis(F(-1, 2)) == [
        ("a", 0, 0), ("b", 0, 0)]
    assert TruncatedDlm(0, 0, 3).weight_basis(F(17, 3)) == []


def _kernel_at(mod, gen, alpha):
    # kernel slices are keyed by the int t = 2(alpha + p)
    return kernel_vectors(mod, gen, mod.twice_shifted(alpha))


def _m0_slices(mod):
    # the slices t = 2k + shift that hold the m = 0 vectors of D^{<=K}
    return range(-1, 2 * mod.K + 2)


def test_ker_a_is_m_zero_span():
    mod = TruncatedDlm(0, 0, 3)
    found = {}
    for t in _m0_slices(mod):
        for v in kernel_vectors(mod, "A", t):
            assert set(v) <= {("a", 0, k) for k in range(4)} | \
                {("d", 0, k) for k in range(4)}
            found.update(v)
    assert len(found) == 8  # a_{0,k} and d_{0,k} for k <= 3


def test_joint_kernel_cases():
    # p = 0: span(a_{0,0})
    mod = TruncatedDlm(F(5), F(5), 3)
    total = []
    for t in _m0_slices(mod):
        total += joint_kernel(mod, ("A", "B"), t)
    assert total == [{("a", 0, 0): 1}]
    # p = k0 + 1/2 with 2 lam + k0 = 0: span(d_{0,k0})
    k0 = 2
    mod = TruncatedDlm(F(-k0, 2), F(k0 + 1, 2), 3)
    total = []
    for t in _m0_slices(mod):
        total += joint_kernel(mod, ("A", "B"), t)
    assert total == [{("d", 0, k0): 1}]
    # generic p: zero
    mod = TruncatedDlm(F(1, 3), F(0), 3)
    for t in _m0_slices(mod):
        assert joint_kernel(mod, ("A", "B"), t) == []


def _int_rank(vecs):
    return len(linalg.int_pivots([linalg._to_int_row(v) for v in vecs]))


def _b_image(mod, ker):
    # the Fraction action of B on each kernel vector
    return [act(mod, "B", v) for v in ker]


def test_image_and_quotient_cases():
    # p = k0 + 1/2, 2 lam + k0 = 0: B((ker A)^0) = 0, quotient dim 1
    k0 = 1
    mod = TruncatedDlm(F(-k0, 2), F(k0 + 1, 2), 3)
    ker0 = _kernel_at(mod, "A", 0)
    assert ker0 == [{("d", 0, k0): 1}]
    image = _b_image(mod, ker0)
    assert _int_rank(image) == 0
    ker_half = _kernel_at(mod, "A", F(-1, 2))
    assert ker_half == [{("a", 0, k0): 1}]
    assert linalg.quotient_dim(ker_half, image) == 1
    # same p but 2 lam + k0 != 0: image spans (ker A)^{-1/2}
    mod = TruncatedDlm(F(1), F(1) + k0 + F(1, 2), 3)
    assert mod.p == k0 + F(1, 2)
    image = _b_image(mod, _kernel_at(mod, "A", 0))
    ker_half = _kernel_at(mod, "A", F(-1, 2))
    assert _int_rank(image) == _int_rank(ker_half)
    assert linalg.greedy_independent(ker_half, image) == []
    assert linalg.quotient_dim(ker_half, image) == 0
    # p = k0 + 1: needs K >= k0 + 1; quotient 0
    mod = TruncatedDlm(F(0), F(k0 + 1), k0 + 2)
    ker0 = _kernel_at(mod, "A", 0)
    assert ker0 == [{("a", 0, k0 + 1): 1}]
    image = _b_image(mod, ker0)
    ker_half = _kernel_at(mod, "A", F(-1, 2))
    assert ker_half == [{("d", 0, k0): 1}]
    assert _int_rank(image) == _int_rank(ker_half)
    assert linalg.greedy_independent(ker_half, image) == []
    assert linalg.quotient_dim(ker_half, image) == 0
    # p = 1 instance: B((ker A)^0) = span(d_{0,0}) up to scale
    mod = TruncatedDlm(F(1, 3), F(4, 3), 3)
    image = _b_image(mod, _kernel_at(mod, "A", 0))
    assert _int_rank(image) == 1
    assert linalg.greedy_independent(image, [{("d", 0, 0): F(7)}]) == []


def test_quotient_not_contained():
    mod = TruncatedDlm(0, 0, 2)
    full = [{bv: F(1)} for bv in mod.weight_basis(0)]
    line = [{("a", 0, 0): F(1)}]
    with pytest.raises(linalg.NotContained):
        linalg.quotient_dim(line, full)
    assert getattr(wm, "NotContained", linalg.NotContained) \
        is linalg.NotContained


def test_a_onto_on_truncation():
    for lam, mu in ((F(0), F(0)), (F(0), F(1, 2)), (F(1, 3), F(0))):
        assert TruncatedDlm(lam, mu, 3).check_a_onto()


def test_lemma_b_image_characterization():
    # w in (ker A)^{-1/2} with B w in Y((ker X)^0) lies in B((ker A)^0)
    for k0 in (0, 1, 2):
        for lam in (F(-k0, 2), F(1), F(1, 3)):
            mod = TruncatedDlm(lam, lam + k0 + F(1, 2), max(3, k0 + 1))
            ker_half = _kernel_at(mod, "A", F(-1, 2))
            y_img = [act(mod, "Y", v) for v in _kernel_at(mod, "X", 0)]
            b_img = _b_image(mod, _kernel_at(mod, "A", 0))
            for vec in ker_half:
                bw = act(mod, "B", vec)
                if not bw or linalg.greedy_independent(y_img, [bw]) == []:
                    assert linalg.greedy_independent(b_img, [vec]) == []


def test_oppoly_roundtrip():
    mod = TruncatedDlm(0, 0, 4)
    vec = {("a", 1, 2): F(3), ("b", 0, 1): F(-1, 2),
           ("c", 2, 0): F(1), ("d", 0, 3): F(5, 3)}
    assert from_oppoly(to_oppoly(vec).terms, mod) == vec
    # d_{0,4} reaches exactly K = 4; a bare dtheta dx^4 needs c_{0,5}
    assert from_oppoly(to_oppoly({("d", 0, 4): F(1)}).terms, mod) == \
        {("d", 0, 4): F(1)}
    with pytest.raises(TruncationViolation):
        from_oppoly(op_term(0, 0, 1, 4).terms, mod)


def test_vec_serialization_roundtrip():
    vec = {("a", 0, 0): F(1), ("d", 2, 1): F(-7, 3)}
    data = wm.vec_to_json(vec)
    assert data == [["a", 0, 0, "1"], ["d", 2, 1, "-7/3"]]
    assert vec_from_json(data) == vec


def test_memo_images_are_scaled_actions():
    # each stencil is built once, and its rows, read in the basis, are
    # D times the Fraction action
    mod = TruncatedDlm(F(1, 3), F(-1, 2), 3)
    D = action_scale(mod)
    assert D == 2 * 3 * 3      # L = lcm(den 2/3, den -5/3)
    for gen in GENS:
        for alpha in (F(-1, 6), F(5, 6)):
            t = mod.twice_shifted(alpha)
            assert mod.stencil(gen, t) is mod.stencil(gen, t)
            target = list(mod.slice(t + int(2 * WEIGHT[gen])))
            for bv, row in zip(mod.weight_basis(alpha),
                               mod.stencil(gen, t)):
                assert {target[i]: x for i, x in row} == {
                    v: c * D for v, c in act_basis(mod, gen, bv).items()}


def test_memo_refuses_non_integral_coefficients():
    class Sevenths(TruncatedDlm):
        __slots__ = ()

        def scaled_act_basis(self, gen, bv):
            return ((bv, F(1, 7)),)

    with pytest.raises(wm.NonIntegralScale):
        Sevenths(0, 0, 2).stencil("H", 0)


ACCEPTANCE_GRID = [(F(0), F(0)), (F(1), F(1)), (F(5, 2), F(5, 2)),
                   (F(0), F(1, 2)), (F(-1, 2), F(1)), (F(-1), F(3, 2)),
                   (F(-3, 2), F(2)), (F(1, 3), F(0)), (F(0), F(2)),
                   (F(1), F(1, 2))]


@pytest.mark.parametrize("lam, mu, K", [
    (lam, mu, guard_K(lam, mu, 8)) for lam, mu in ACCEPTANCE_GRID
] + [(F(1, 3), F(-1, 2), 3)])
def test_memo_images_of_all_generators_are_scaled_actions(lam, mu, K):
    # X and Y are composed in integers on the module's A and B stencils;
    # their rows must equal the scaled Fraction action, X = A o A,
    # Y = -B o B
    mod = TruncatedDlm(lam, mu, K)
    D = action_scale(mod)
    for gen in GENS:
        for f in FAMILIES:
            for m in range(4):
                for k in range(K + 1):
                    bv = (f, m, k)
                    img = stencil_image(mod, gen, bv)
                    assert all(type(c) is int and c for c in img.values())
                    assert img == {
                        t: c * D
                        for t, c in act_basis(mod, gen, bv).items()}, \
                        (gen, bv)


@pytest.mark.parametrize("lam, mu, D", [
    (F(0), F(1, 2), 2), (F(1, 3), F(5, 6), 18), (F(1, 5), F(7, 10), 50)])
def test_composed_stencils_equal_the_fraction_composition(lam, mu, D):
    # X and Y are composed once, on the A and B stencils of each slice;
    # every row, read back in the basis, must be D times the Fraction
    # composition X = A o A, Y = -B o B, its positions increasing
    K = 4
    mod = TruncatedDlm(lam, mu, K)
    assert action_scale(mod) == D
    rows = 0
    for gen in ("X", "Y"):
        for t in range(-2 * K - 4, 2 * K + 2):
            source = list(mod.slice(t))
            target = list(mod.slice(t + int(2 * WEIGHT[gen])))
            stencil = mod.stencil(gen, t)
            assert len(stencil) == len(source)
            for bv, row in zip(source, stencil):
                positions = [i for i, _ in row]
                assert positions == sorted(set(positions))
                assert all(type(x) is int and x for _, x in row)
                assert {target[i]: x for i, x in row} == {
                    v: c * D for v, c in act_basis(mod, gen, bv).items()}, \
                    (gen, bv)
                rows += bool(row)
    assert rows > 100


def test_composed_stencil_refuses_a_remainder():
    # a table whose A and B coefficients are all 1 is not scaled by D = 2:
    # A o A / D and -B o B / D leave remainders, which must raise
    class Unscaled(TruncatedDlm):
        __slots__ = ()

        def scaled_act_basis(self, gen, bv):
            img = super().scaled_act_basis(gen, bv)
            return img if gen == "H" else tuple((v, 1) for v, _ in img)

    for gen in ("X", "Y"):
        mod = Unscaled(0, F(1, 2), 3)
        with pytest.raises(wm.NonIntegralScale, match=f"^{gen}\\."):
            for t in range(-10, 8):
                mod.stencil(gen, t)


def _table_mismatches(mod, consts, max_m=2):
    # images of all five generators against D times the realization
    # oracle's commutator action, read back in the a/b/c/d basis
    D = action_scale(mod)
    bad = []
    for gen in GENS:
        for f in FAMILIES:
            for m in range(max_m + 1):
                for k in range(mod.K + 1):
                    bv = (f, m, k)
                    oracle = from_oppoly(realized(
                        gen, to_oppoly({bv: F(1)}), mod.lam, mod.mu,
                        consts).terms, mod)
                    if stencil_image(mod, gen, bv) != {
                            t: c * D for t, c in oracle.items()}:
                        bad.append((gen, bv))
    return bad


def test_integer_table_matches_the_realization_oracle():
    # the integer table is the one definition of the action, so it is
    # checked against the independent realization on modules with
    # L = lcm(den 2lam, den 2p) > 1, which the half-integer grid never
    # reaches (there D <= 2)
    consts = solve_realization_constants(adopted_table())
    mods = [TruncatedDlm(F(1, 3), F(5, 6), 3),       # L = 3
            TruncatedDlm(F(2, 5), F(-1, 10), 3),     # L = 5
            TruncatedDlm(F(1, 6), F(-1, 5), 3)]      # L = 15
    assert [action_scale(mod) for mod in mods] == [18, 50, 450]
    for mod in mods:
        assert _table_mismatches(mod, consts) == [], mod

    class OneCoefficientOff(TruncatedDlm):
        __slots__ = ()

        def scaled_act_basis(self, gen, bv):
            img = super().scaled_act_basis(gen, bv)
            if gen == "B" and bv == ("d", 1, 1):
                (t0, c0), *rest = img     # one coefficient off by 1
                img = ((t0, c0 + action_scale(self)), *rest)
            return img

    bad = _table_mismatches(OneCoefficientOff(F(1, 3), F(5, 6), 2), consts)
    assert ("B", ("d", 1, 1)) in bad and ("Y", ("d", 1, 1)) in bad


# The proof grid of the action's identities: 6 values of lambda and 6 of
# p, each an arithmetic progression, at K = 6, so m, k in 0..6.
PROOF_K = 6
PROOF_LAMS = [F(j, 3) - 1 for j in range(6)]
PROOF_PS = [F(j, 2) - 1 for j in range(6)]
PROOF_GRID = [(lam, lam + p) for lam in PROOF_LAMS for p in PROOF_PS]
# the degree, in each of m, k, lambda and p, of a coordinate of each
# identity (derived in the proof's docstring)
DEGREE_BOUNDS = {"module axiom": 4, "centrality": 5, "triangular form": 4}


def test_the_action_table_is_affine_on_the_proof_grid():
    # the premise of the degree bounds: each unscaled coefficient x / D of
    # `scaled_act_basis`, as a function of (m, k, lambda, p) fixed by the
    # generator, the source family and the target offset (an absent term
    # counts as 0), has vanishing second and mixed differences on the
    # proof grid, so it is affine there; and no term raises k
    K, sizes = PROOF_K, (PROOF_K + 1, PROOF_K + 1, 6, 6)
    assert (len(PROOF_LAMS), len(PROOF_PS)) == sizes[2:]
    assert min(sizes) > max(DEGREE_BOUNDS.values())
    mods = {(i, j): TruncatedDlm(lam, lam + p, K)
            for i, lam in enumerate(PROOF_LAMS)
            for j, p in enumerate(PROOF_PS)}
    M = lcm(*map(action_scale, mods.values()))
    coeffs = {}     # (gen, family, target offset) -> {point: M * x / D}
    for (i, j), mod in mods.items():
        scale = M // action_scale(mod)
        for gen, f, m, k in product("HAB", FAMILIES, range(K + 1),
                                    range(K + 1)):
            for (g, m2, k2), x in mod.scaled_act_basis(gen, (f, m, k)):
                assert k2 <= k, (gen, f, m, k)
                coeffs.setdefault((gen, f, g, m2 - m, k2 - k), {})[
                    (m, k, i, j)] = x * scale
    assert len(coeffs) == 16
    unit = [tuple(int(a == b) for b in range(4)) for a in range(4)]
    corners = []    # (x, x + e_a, x + e_b, x + e_a + e_b)
    for x in product(*map(range, sizes)):
        for a in range(4):
            for b in range(a, 4):
                y = tuple(map(sum, zip(x, unit[a])))
                z = tuple(map(sum, zip(x, unit[b])))
                w = tuple(map(sum, zip(y, unit[b])))
                if all(c < n for c, n in zip(w, sizes)):
                    corners.append((x, y, z, w))
    for key, c in coeffs.items():
        for x, y, z, w in corners:
            assert c.get(w, 0) - c.get(y, 0) - c.get(z, 0) + c.get(x, 0) \
                == 0, (key, x, y, z)


@pytest.mark.parametrize("lam, mu", PROOF_GRID)
def test_casimir_is_triangular_in_k_with_the_proven_diagonal(lam, mu):
    """The action's identities, proven for every (lambda, mu) by a grid.

    On D^{<=K}, and on the cut D^{<=K}/D^{<=2}: the module axiom for the
    adopted table (`module_axiom_holds`); the Casimir
    z = H^2 + XY + AB/2 - H/2, as 2 D^2 z (`casimir`), commutes with A
    and B on every slice (`casimir_commutes`); and z never raises k and
    within one k maps only b -> a and d -> c besides its diagonal,
    (k - p)(k - p + 1/2) on a and c and (k - p + 1)(k - p + 1/2) on b
    and d. `engine.zero_piece` rests on the last two: z is invertible on
    every weight slice of a part whose k avoid the diagonal's roots, so
    such a part is acyclic (z is central, acts by eps(z) = 0 on H(g; M)
    and invertibly through M), and the long exact sequences leave the
    piece's cohomology.

    Degree bounds, from the shape of the table (`scaled_act_basis`):
    - A vector with m < 0 or k < 0 counts as 0. Every term that lowers m
      or k has the coefficient D m or D k (A on a and d, B on a and c),
      which vanishes where it would reach such a vector. So the `if m`
      and `if k` guards drop only zero terms, and a path of the action
      through such a vector has a zero factor.
    - Each unscaled coefficient x / D is affine in (m, k, lambda, p)
      (`test_the_action_table_is_affine_on_the_proof_grid` pins it); so
      is H's, the weight k - m - p + shift.
    - X = A o A and Y = -B o B, two steps each.
    - Nothing raises k. So D^{<=K} is a submodule that holds every path
      from its vectors, and a cut D^{<=K}/D^{<=K0} inherits every
      identity as a quotient.
    Fix the source family and the target offset (family, dm, dk). A
    coordinate of a composite is then a sum over paths of products of
    coefficients, each affine at the shifted (m, k): a polynomial in
    (m, k, lambda, p) whose degree in each variable is at most the
    number of steps. A bracket [u,v] is a constant combination of
    generators, and u.(v.w) takes at most 4 steps (X.(Y.w)); z takes at
    most 4 (XY), and H^2 and AB take 2. Hence each coordinate
    - of a module-axiom defect has degree <= 4 in each variable;
    - of z o g - g o z (g = A, B) has degree <= 5;
    - of z minus its triangular form (a diagonal of degree 2) has
      degree <= 4.

    A polynomial of degree <= d_i in x_i that vanishes on a product of
    sets with more than d_i values each is zero (Alon, Combinatorial
    Nullstellensatz, 1999, Lemma 2.1). The grid has 6 values of lambda
    and 6 of p (`PROOF_GRID`) and m, k in 0..6: at K = 6 the slices t in
    [-2K-1, 2K+1] hold every vector with m, k <= K. So every coordinate
    vanishes identically, and the identities hold for every (lambda, mu)
    and all m, k >= 0; the scale 2 D^2 changes no zero.
    """
    same_k = 0
    for mod in (TruncatedDlm(lam, mu, PROOF_K),
                TruncatedDlm(lam, mu, PROOF_K, 2)):
        assert module_axiom_holds(mod, adopted_table()), mod
        D, p, half = action_scale(mod), mod.p, F(1, 2)
        for t in range(-2 * mod.K - 1, 2 * mod.K + 2):
            assert casimir_commutes(mod, t), (mod, t)
            basis = list(mod.slice(t))
            for i, row in enumerate(casimir(mod, t)):
                f, _, k = basis[i]
                diag = ((k - p) * (k - p + half) if f in "ac"
                        else (k - p + 1) * (k - p + half))
                assert dict(row).get(i, 0) == 2 * D * D * diag, basis[i]
                for j, _ in row:
                    g, _, k2 = basis[j]
                    assert k2 <= k, (basis[i], basis[j])
                    if k2 == k:
                        same_k += 1
                        assert j == i or (f, g) in (("b", "a"),
                                                    ("d", "c")), \
                            (basis[i], basis[j])
    assert same_k > 300


@pytest.mark.parametrize("lam, mu", PROOF_GRID)
def test_joint_kernels_lie_in_the_weight_zero_slice(lam, mu):
    # `engine._kernel_description` counts ker A ∩ ker B and ker X ∩ ker Y
    # on the slice t0 = 2p alone: [A, B] = -2H and [X, Y] = 2H with the
    # module axiom proven above, so a joint kernel vector is killed by H,
    # which acts on a slice by its weight. Every other slice of D^{<=K}
    # and of the cut D^{<=K}/D^{<=2} has an empty joint kernel
    checked = 0
    for mod in (TruncatedDlm(lam, mu, PROOF_K),
                TruncatedDlm(lam, mu, PROOF_K, 2)):
        t0 = mod.twice_shifted(0)
        slices = range(-2 * mod.K - 1, 2 * mod.K + 2)
        assert t0 in slices
        for t in slices:
            for gens in (("A", "B"), ("X", "Y")):
                if t != t0:
                    assert joint_kernel(mod, gens, t) == [], (mod, gens, t)
                    checked += 1
    assert checked == 2 * 2 * 26


def _unscaled_a_stencils(mod):
    D = action_scale(mod)
    return [tuple(tuple((i, Fraction(x, D)) for i, x in row)
                  for row in mod.stencil("A", t))
            for t in range(-2 * mod.K - 1, 2 * mod.K + 2)]


@pytest.mark.parametrize("lam, mu", PROOF_GRID)
def test_a_stencils_are_a_covering_matching(lam, mu):
    # the proof behind `check_a_onto`, which answers without a scan for
    # the table's own action: on every slice t in [-13, 13] of D^{<=6}
    # and of the cut D^{<=6}/D^{<=2}, each A stencil row has at most one
    # term, with a nonzero coefficient, no two rows share a target, and
    # the targets cover the slice t + 1, so A maps the slice t onto it;
    # and A's stencil divided by D is the same at every (lambda, p)
    for K0 in (-1, 2):
        mod = TruncatedDlm(lam, mu, PROOF_K, K0)
        for t in range(-2 * mod.K - 1, 2 * mod.K + 2):
            rows = mod.stencil("A", t)
            assert all(len(row) <= 1 and all(x for _, x in row)
                       for row in rows), (mod, t)
            targets = sorted(i for row in rows for i, _ in row)
            assert targets == list(range(len(mod.slice(t + 1)))), (mod, t)
        assert _unscaled_a_stencils(mod) == _unscaled_a_stencils(
            TruncatedDlm(0, 0, PROOF_K, K0))
        assert mod.check_a_onto() and mod._a_onto_scan()


class _Ranked(TruncatedDlm):
    """The table's own action, overridden by itself: every kernel of it
    is ranked on its stencils."""

    __slots__ = ()

    def scaled_act_basis(self, gen, bv):
        return super().scaled_act_basis(gen, bv)


@pytest.mark.parametrize("lam, mu", PROOF_GRID)
def test_kernels_of_a_and_x_lie_at_m_zero(lam, mu):
    # the proof behind `kernel_slice`'s [] on a slice with no m = 0
    # vector: on every slice t in [-15, 15] of D^{<=6} and of its cuts
    # D^{<=6}/D^{<=2} and D^{<=6}/D^{<=5}, the ranked kernels of A and X
    # hold m = 0 vectors only and equal the table's answer, `_holds_m0`
    # tells the slices with an m = 0 vector, and a slice without one is
    # neither built nor given a stencil
    for K0 in (-1, 2, 5):
        mod = TruncatedDlm(lam, mu, PROOF_K, K0)
        ranked = _Ranked(lam, mu, PROOF_K, K0)
        for t in range(-2 * PROOF_K - 3, 2 * PROOF_K + 4):
            has_m0 = any(m == 0 for _, m, _ in ranked.slice(t))
            assert mod._holds_m0(t) == has_m0, (mod, t)
            for gen in ("A", "X"):
                ker = ranked.kernel_slice(gen, t)
                assert all(m == 0 for v in kernel_vectors(ranked, gen, t)
                           for _, m, _ in v), (gen, t)
                assert mod.kernel_slice(gen, t) == ker, (mod, gen, t)
                if not has_m0:
                    fresh = TruncatedDlm(lam, mu, PROOF_K, K0)
                    assert fresh.kernel_slice(gen, t) == []
                    assert not fresh.slices and not fresh._stencils


def test_the_cut_module_is_the_quotient():
    # D^{<=K}/D^{<=K0}: its slices hold K0 < k <= K, its stencils are the
    # truncation's less the terms at k <= K0, and it is a module
    full, cut = TruncatedDlm(F(1, 3), F(7, 3), 3), TruncatedDlm(
        F(1, 3), F(7, 3), 3, 1)
    assert cut != full and hash(cut) != hash(full)
    assert repr(cut) == "TruncatedDlm(lam=1/3, mu=7/3, K=3, K0=1)"
    assert cut.slices is not full.slices
    for gen in GENS:
        for t in range(-9, 8):
            for bv in full.slice(t):
                if bv[2] > 1:
                    assert stencil_image(cut, gen, bv) == {
                        v: x for v, x in stencil_image(full, gen, bv).items()
                        if v[2] > 1}, (gen, bv)
                else:
                    assert bv not in cut.slice(t)
    assert module_axiom_holds(cut, adopted_table())


class _WideSlices(TruncatedDlm):
    """A module whose slices each carry one vector too many."""

    __slots__ = ()

    def twice_weight_basis(self, t):
        return super().twice_weight_basis(t) + [("a", -1, -1)]


@pytest.mark.parametrize("lam, mu, K, K0", [
    (F(1, 3), F(7, 3), 3, -1), (F(1, 3), F(7, 3), 3, 1),
    (F(0), F(2), 2, 0), (F(-1, 2), F(1), 0, -1), (F(1, 3), F(5, 6), 5, 3)])
def test_slices_fit_the_stride(lam, mu, K, K0):
    # a block index is i(u) * stride + slice position, so no slice may be
    # longer than the stride 2(K - max(K0, -1)); the longest reach it,
    # and a slice that would not fit is refused when it is filed
    mod = TruncatedDlm(lam, mu, K, K0)
    assert mod.stride == 2 * (K - max(K0, -1))
    lengths = [len(mod.slice(t)) for t in range(-2 * K - 4, 2 * K + 5)]
    assert max(lengths) == mod.stride
    wide = _WideSlices(lam, mu, K, K0)
    with pytest.raises(TruncationViolation):
        wide.slice(0)
    assert wide.slices == {}


def _parity_test_modules():
    """Plain truncations, K0 cuts, the acceptance grid's zero pieces and
    one-step pieces D^{<=k}/D^{<=k-1}."""
    mods = [TruncatedDlm(F(1, 3), F(5, 6), 4), TruncatedDlm(0, F(1, 2), 3),
            TruncatedDlm(F(-3, 2), F(2), 5),
            TruncatedDlm(F(1, 3), F(7, 3), 3, 1), TruncatedDlm(0, 2, 3, 0),
            TruncatedDlm(F(1, 5), F(7, 10), 4, 2)]
    mods += [piece for piece in (zero_piece(lam, mu)
                                 for lam, mu in ACCEPTANCE_GRID) if piece]
    mods += [TruncatedDlm(lam, mu, k, k - 1)
             for lam, mu in ((F(0), F(1, 2)), (F(1, 3), F(0)), (F(1), F(1)))
             for k in range(4)]
    return mods


def test_a_slice_holds_the_parity_of_its_key():
    # the rule every layer above the module relies on: the family shifts
    # put the even families at even t and the odd ones at odd t, so the
    # slice t holds parity t mod 2, the other parity's weight basis is
    # empty, and each weight component of a cochain sits at a t
    # congruent to its parity
    rng = random.Random(27)
    components = 0
    for mod in _parity_test_modules():
        for t in range(-2 * mod.K - 4, 2 * mod.K + 5):
            basis = mod.twice_weight_basis(t)
            assert all(FAMILY_PARITY[bv[0]] == t % 2 for bv in basis), \
                (mod, t)
            assert list(mod.slice(t)) == basis
            assert mod.weight_basis(F(t, 2) - mod.p, 1 - t % 2) == [], \
                (mod, t)
        weights = [F(j, 2) - mod.p for j in range(-4, 5)]
        for degree in range(3):
            for parity in (0, 1):
                f = random_cochain(mod, degree, parity, rng,
                                   weights=weights)
                keys = _coords(f)
                assert all(t % 2 == parity for t in keys), (mod, degree)
                components += len(keys)
    assert components > 100
