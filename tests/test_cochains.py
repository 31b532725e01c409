"""Cochains, the coboundary, reduction, cup products, explicit cocycles."""

import random
from fractions import Fraction

import pytest

from ospcoho import cochains as cc
from ospcoho.algebra import (GENS, SL2, adopted_table,
                             monomial_basis, monomial_parity,
                             monomial_weight)
from ospcoho.cochains import (Cochain, NoCocycle, TypeMismatch, coboundary,
                              cochain_to_json, cup,
                              is_reduced, make_f_k, make_ftilde_k,
                              make_h_lambda, reduce_cochain, restrict_sl2,
                              zero_cochain)
from ospcoho.engine import (guard_K, is_coboundary, predict_sl2,
                            predict_theorem, zero_piece)
from ospcoho.weightmod import (TruncatedDlm, TruncationViolation,
                               action_scale, to_oppoly, vec_add, vec_scale)
from ospcoho.superdiff import OpPoly
from tests_support_dense import (act, act_basis, basis_weight,
                                 cochain_coords, cochain_from_json,
                                 delta_block, delta_matrix, h_dim,
                                 random_cochain,
                                 reference_block_coboundary,
                                 reference_delta_block,
                                 reference_koszul_terms, rescaled_table,
                                 same_cochain, weight_components)

F = Fraction
TABLE = adopted_table()


MOD = TruncatedDlm(0, F(1, 2), 3)


def test_evaluate_signs():
    v = {("a", 0, 0): F(1)}
    f = Cochain(MOD, 2, 0, {("A", "B"): v})
    assert f.evaluate(("B", "A")) == v          # odd-odd swap: +1
    assert f.evaluate(("A", "B")) == v
    assert f.evaluate(("H", "H")) == {}
    g = Cochain(MOD, 3, 1, {("H", "B", "Y"): v})
    # (Y,H,B) -> (H,B,Y): Y moves past B (-1) then H (-1)
    assert g.evaluate(("Y", "H", "B")) == v
    assert g.evaluate(("H", "Y", "B")) == vec_scale(v, -1)


def test_zero_cochain_coboundary_formula():
    # (dv)(U) = (-1)^{vU} U v for 0-cochains of both parities
    for parity, bv in ((0, ("a", 1, 1)), (1, ("d", 0, 0))):
        v = Cochain(MOD, 0, parity, {(): {bv: F(1)}})
        dv = coboundary(v)
        for g in GENS:
            sign = -1 if parity and g in ("A", "B") else 1
            assert dv.evaluate((g,)) == vec_scale(
                act_basis(MOD, g, bv), sign)


def test_reduced_one_cochain_AB_identity():
    # for even f with f(A) = 0: (df)(A,B) = A f(B) - f([A,B])
    rng = random.Random(3)
    vals = {("B",): {bv: F(rng.randint(1, 5))
                     for bv in MOD.weight_basis(0, 1)[:2]},
            ("H",): {bv: F(1) for bv in MOD.weight_basis(F(1, 2), 0)[:1]}}
    f = Cochain(MOD, 1, 0, vals)
    df = coboundary(f)
    expected = act(MOD, "A", f.values[("B",)])
    for g, c in TABLE.bracket("A", "B").items():
        expected = {k: v for k, v in expected.items()}
        for bv, coeff in vec_scale(f.evaluate((g,)), c).items():
            expected[bv] = expected.get(bv, F(0)) - coeff
            if not expected[bv]:
                del expected[bv]
    assert df.evaluate(("A", "B")) == expected


def test_d_squared_zero_random():
    rng = random.Random(42)
    for degree in (0, 1, 2):
        for parity in (0, 1):
            for _ in range(8):
                f = random_cochain(MOD, degree, parity, rng)
                assert coboundary(coboundary(f)).is_zero()


def test_d_squared_zero_spanning_wide_window():
    # delta cochains spanning C^n at every weight |w| <= 4
    for n in (0, 1, 2):
        for parity in (0, 1):
            for j in range(-8, 9):
                w = F(j, 2)
                _, _, d_n = delta_matrix(MOD, n, w, parity)
                _, _, d_next = delta_matrix(MOD, n + 1, w, parity)
                assert d_next.mul(d_n).is_zero(), (n, parity, w)


def reference_coboundary(f):
    """The Fraction coboundary: the per-target Koszul sums (ungrouped)
    applied through the Fraction action `act`."""
    out = {}
    T, terms = reference_koszul_terms(f.degree, f.parity, f.universe)
    for target, acts, brackets in terms:
        acc = {}
        for gen, sub, sgn in acts:
            vec = f.values.get(sub)
            if vec:
                vec_add(acc, act(f.mod, gen, vec), F(sgn))
        for mono, coeff in brackets:
            vec = f.values.get(mono)
            if vec:
                vec_add(acc, vec, F(coeff, T))
        if acc:
            out[target] = acc
    return Cochain(f.mod, f.degree + 1, f.parity, out, f.universe)


def test_koszul_skeleton_regroups_the_reference_terms():
    # the source-major skeleton is the per-target reference regrouped by
    # source: per source monomial, its twice weight and one
    # (target index, gen, sign, coeff) per target it meets, the act
    # signs of one source summed (gen None when they cancel) and its
    # bracket coefficients added, by increasing target index
    found = 0
    for universe in (GENS, SL2):
        for n in range(5):
            sources = monomial_basis(n, universe)
            for q in (0, 1):
                T, skeleton = cc._koszul_skeleton(n, q, universe)
                ref_T, terms = reference_koszul_terms(n, q, universe)
                want = {u: {} for u in sources}
                for j, (_, acts, brackets) in enumerate(terms):
                    for gen, src, sign in acts:
                        want[src].setdefault(j, [gen, 0, 0])[1] += sign
                    for src, coeff in brackets:
                        want[src].setdefault(j, [None, 0, 0])[2] += coeff
                assert T == ref_T
                assert [w2 for w2, _ in skeleton] == [
                    int(2 * monomial_weight(u)) for u in sources]
                assert [targets for _, targets in skeleton] == [
                    tuple((j, gen if sign else None, sign, coeff)
                          for j, (gen, sign, coeff) in sorted(want[u].items())
                          if sign or coeff)
                    for u in sources], (universe, n, q)
                found += sum(gen is None and coeff != 0
                             for _, targets in skeleton
                             for _, gen, _, coeff in targets)
    assert found


def test_integer_coboundary_matches_fraction_reference():
    # 6 modules x 2 universes x 3 degrees x 2 parities = 72 cochains, on
    # action scales with denominators 2, 3 and 5
    rng = random.Random(31)
    nonzero = 0
    for lam, mu in ((F(1, 3), F(5, 6)), (F(0), F(1, 2)), (F(-1, 2), F(1)),
                    (F(1, 3), F(0)), (F(-1), F(3, 2)), (F(2, 5), F(-1, 10))):
        mod = TruncatedDlm(lam, mu, 3)
        for universe in (GENS, SL2):
            for degree in (0, 1, 2):
                for parity in (0, 1):
                    f = random_cochain(mod, degree, parity, rng,
                                       universe=universe)
                    df = coboundary(f)
                    assert same_cochain(df, reference_coboundary(f)), \
                        (lam, mu, universe, degree, parity)
                    nonzero += not df.is_zero()
    assert nonzero > 50


def test_integer_paths_never_use_the_fraction_action(monkeypatch):
    # the module reads its integer table (`scaled_act_basis`) and composes
    # X and Y from its A and B rows; coboundary, the weight chains, the
    # solves, the cocycle constructors and the closed-form predictions
    # read its stencils. The module has no Fraction action to call (the
    # tests' `act_basis` and `act` are that reference), and none of
    # them may call the Fraction delta_matrix (a test oracle, patched
    # into cochains in case it ever returns there)
    assert not hasattr(TruncatedDlm, "act_basis")
    assert not hasattr(TruncatedDlm, "act")
    table_calls = []
    scaled_act_basis = TruncatedDlm.scaled_act_basis
    delta_matrix_calls = []

    def counted_delta_matrix(*args, **kwargs):
        delta_matrix_calls.append(args)
        return delta_matrix(*args, **kwargs)

    def counted_table(self, gen, bv):
        table_calls.append(gen)
        return scaled_act_basis(self, gen, bv)

    def phase_done():
        # the table was read; the next phase reads a new module's
        assert table_calls
        table_calls.clear()
        return TruncatedDlm(F(1, 3), F(5, 6), 4)

    monkeypatch.setattr(TruncatedDlm, "scaled_act_basis", counted_table)
    monkeypatch.setattr(cc, "delta_matrix", counted_delta_matrix,
                        raising=False)
    mod = TruncatedDlm(F(1, 3), F(5, 6), 4)
    for alpha in (F(1, 2), F(-1, 2)):
        mod.stencil("X", mod.twice_shifted(alpha))
        mod.stencil("Y", mod.twice_shifted(alpha))
    assert set(table_calls) == {"A", "B"}
    mod = phase_done()
    rng = random.Random(5)
    for degree in (0, 1, 2):
        for parity in (0, 1):
            f = random_cochain(mod, degree, parity, rng)
            assert not coboundary(f).is_zero()
    mod = phase_done()
    for w in (F(0), F(1, 2), F(-1)):
        for n in range(4):
            h_dim(mod, n, w)
    mod = phase_done()
    for degree in (1, 2):
        for parity in (0, 1):
            f = random_cochain(mod, degree, parity, rng)
            g, f_red = reduce_cochain(f)
            assert is_reduced(f_red) and not g.is_zero()
            assert is_coboundary(coboundary(f)) is not None
    for k in (0, 1):
        make_f_k(k)
        make_ftilde_k(k)
        make_h_lambda(F(k, 2))
    assert delta_matrix_calls == []
    phase_done()
    for lam, mu in ((F(0), F(1, 2)), (F(1, 3), F(5, 6)), (F(0), F(2))):
        pmod = TruncatedDlm(lam, mu, guard_K(lam, mu))
        assert pmod.check_a_onto()
        predict_theorem(pmod)
        predict_sl2(pmod)
    phase_done()


@pytest.mark.parametrize("mod, bv", [
    (TruncatedDlm(0, F(1, 2), 3), ("a", 0, 5)),     # k above K
    (TruncatedDlm(0, F(1, 2), 3), ("a", -1, 0)),    # m below 0
    (zero_piece(0, 2), ("a", 0, 0))])               # k at or below K0
def test_a_value_outside_the_module_is_a_truncation_violation(mod, bv):
    # API misuse, not a mismatch: the coordinates refuse the vector by
    # name, with the module, wherever a cochain is read
    f = Cochain(mod, 1, 0, {("H",): {bv: F(1)}})
    for read in (coboundary, cc.primitive, is_coboundary):
        with pytest.raises(TruncationViolation) as err:
            read(f)
        assert str(bv) in str(err.value) and str(mod) in str(err.value)


@pytest.mark.parametrize("degree, mono, bv, universe", [
    (2, ("H", "X"), ("a", 0, 1), GENS),     # not in canonical order
    (1, ("H", "H"), ("a", 0, 1), GENS),     # repeated even, wrong length
    (1, ("A",), ("c", 0, 1), SL2),          # odd, outside the universe
])
def test_a_value_on_a_monomial_outside_the_basis_is_refused(
        degree, mono, bv, universe):
    # each value has the cochain's parity, so only the monomial is wrong;
    # the cochain used to be built and `coboundary` then failed on it
    # with a bare KeyError
    with pytest.raises(ValueError) as err:
        Cochain(MOD, degree, 0, {mono: {bv: F(1)}}, universe)
    assert str(mono) in str(err.value)
    assert mono not in monomial_basis(degree, universe)


def test_coboundary_preserves_parity_and_weight():
    rng = random.Random(9)
    f = random_cochain(MOD, 1, 1, rng)
    df = coboundary(f)
    assert df.parity == f.parity
    assert set(weight_components(df)) <= set(weight_components(f))


def test_is_reduced():
    assert is_reduced(zero_cochain(MOD, 2, 0))
    f = Cochain(MOD, 1, 1, {("A",): {("a", 0, 0): F(1)}})
    assert not is_reduced(f)
    fk, _ = make_f_k(0)
    assert is_reduced(fk)
    # monomials with both A and X are exempt
    g = Cochain(MOD, 2, 0, {("X", "A"): {("c", 0, 0): F(1)}})
    assert is_reduced(g)


def test_reduce_already_reduced_is_identity():
    fk, _ = make_f_k(1)
    g, fred = reduce_cochain(fk)
    assert g.is_zero()
    assert same_cochain(fred, fk)


def test_reduce_random_cochains():
    rng = random.Random(100)
    for degree in (1, 2, 3):
        for _ in range(6):
            f = random_cochain(MOD, degree, rng.randint(0, 1), rng)
            g, fred = reduce_cochain(f)
            assert is_reduced(fred)
            assert f.sub(fred).sub(coboundary(g)).is_zero()


def test_reduce_pure_A_slot():
    # odd value on the odd A slot: an even cochain
    f = Cochain(MOD, 1, 0, {("A",): {("c", 0, 1): F(2)}})
    g, fred = reduce_cochain(f)
    assert is_reduced(fred)
    assert f.sub(fred).sub(coboundary(g)).is_zero()


def test_cochain_rejects_parity_mixing():
    with pytest.raises(ValueError):
        Cochain(MOD, 1, 1, {("A",): {("c", 0, 1): F(2)}})


def test_cochains_of_different_complexes_do_not_add():
    f = Cochain(TruncatedDlm(0, F(1, 2), 3), 1, 0,
                {("H",): {("a", 0, 0): 1}})
    other = Cochain(TruncatedDlm(F(1, 3), F(5, 6), 3), 1, 0,
                    {("H",): {("a", 0, 1): 2}})
    with pytest.raises(ValueError, match=r"lam=1/3, mu=5/6.*lam=0, mu=1/2"):
        f.add(other)
    for degree, parity, universe in ((2, 0, GENS), (1, 1, GENS),
                                     (1, 0, SL2)):
        with pytest.raises(ValueError):
            f.sub(Cochain(MOD, degree, parity, {}, universe))
    # a module equal by value is the same complex
    twin = Cochain(TruncatedDlm(0, F(1, 2), 3), 1, 0,
                   {("H",): {("a", 0, 0): 2}})
    assert f.add(twin).values == {("H",): {("a", 0, 0): F(3)}}


def test_cochains_are_equal_only_on_one_complex():
    # equality reads the key that `add` checks: module by value, degree,
    # parity and universe; the zero cochains of the two parities are not
    # equal, as they do not add. `same_cochain`, by which the tests
    # compare cochains, reads the same key with the module object
    mod = TruncatedDlm(0, 0, 3)
    even, odd = zero_cochain(mod, 1, 0), zero_cochain(mod, 1, 1)
    assert even != odd and not same_cochain(even, odd)
    with pytest.raises(ValueError, match="not one complex"):
        even.add(odd)
    twin = zero_cochain(TruncatedDlm(0, 0, 3), 1, 0)
    assert even == twin and not same_cochain(even, twin)
    assert same_cochain(even, zero_cochain(mod, 1, 0))
    for other in (zero_cochain(mod, 2, 0), zero_cochain(mod, 1, 0, SL2),
                  zero_cochain(TruncatedDlm(0, 0, 4), 1, 0)):
        assert even != other and not same_cochain(even, other)
    f = Cochain(mod, 1, 0, {("H",): {("a", 0, 0): F(1)}})
    assert f == f.scale(1) and f != f.scale(2) and f != even
    assert same_cochain(f, f.scale(1))
    assert not same_cochain(f, f.scale(2)) and not same_cochain(f, even)


def test_reduce_of_coboundary_stays_cohomologous():
    rng = random.Random(55)
    g0 = random_cochain(MOD, 1, 0, rng)
    f = coboundary(g0)
    g, fred = reduce_cochain(f)
    assert is_reduced(fred)
    # f was exact, so its reduced form is the coboundary of g0 - g
    assert fred.sub(coboundary(g0.sub(g))).is_zero()


def test_restriction_commutes_with_coboundary():
    rng = random.Random(77)
    for degree in (1, 2):
        for parity in (0, 1):
            f = random_cochain(MOD, degree, parity, rng)
            lhs = restrict_sl2(coboundary(f))
            rhs = coboundary(restrict_sl2(f))
            assert same_cochain(lhs, rhs)


def test_restriction_drops_high_degrees():
    rng = random.Random(78)
    f = random_cochain(MOD, 4, 0, rng)
    assert restrict_sl2(f).is_zero()


def test_restriction_of_ftilde_has_zero_H_slot():
    ft, _ = make_ftilde_k(2)
    res = restrict_sl2(ft)
    assert res.values.get(("H",)) is None
    assert res.values.get(("X",)) is None


def test_delta_matrix_against_coboundary():
    # coboundaries of delta cochains equal the columns of the per-block
    # reference assembler, which enumerates the Koszul terms itself and
    # accumulates its writes
    rng = random.Random(13)
    for n, parity, w in ((1, 0, F(0)), (2, 1, F(1, 2))):
        dom, cod, cols, scale = reference_delta_block(MOD, n, w, parity)
        for col in rng.sample(range(len(dom)), min(5, len(dom))):
            u, bv = dom[col]
            delta = Cochain(MOD, n, parity, {u: {bv: F(1)}})
            expected = {r: F(v, scale) for r, v in cols[col].items()}
            assert cochain_coords(coboundary(delta), cod) == expected


@pytest.mark.parametrize("lam, mu", [(F(1, 3), F(0)), (F(-1, 2), F(1)),
                                     (F(1, 3), F(5, 6)), (F(0), F(1, 2))])
def test_coboundary_matches_the_per_block_reference(lam, mu):
    # random cochains with several weight components, so that the images
    # of two components meet on one monomial: each must be added, never
    # written over the other
    rng = random.Random(61)
    mod = TruncatedDlm(lam, mu, 3)
    weights = [F(j, 2) - mod.p for j in range(-4, 5)]
    met = 0
    for universe in (GENS, SL2):
        for degree in range(4):
            for parity in (0, 1):
                f = random_cochain(mod, degree, parity, rng,
                                   universe=universe, weights=weights)
                assert len(weight_components(f)) > 1
                df = coboundary(f)
                assert same_cochain(df, reference_block_coboundary(f)), \
                    (universe, degree, parity)
                met += any(len({basis_weight(mod, bv) for bv in vec}) > 1
                           for vec in df.values.values())
    assert met


@pytest.mark.parametrize("lam, mu", [(F(1, 3), F(0)), (F(-1, 2), F(1)),
                                     (F(1, 3), F(5, 6)), (F(0), F(1, 2))])
def test_integer_block_is_scaled_delta_matrix(lam, mu):
    # denominators 3 and 2 in lambda and p: the integer columns are D
    # times the exact matrix's columns, and each is D times the
    # coboundary of a delta cochain, computed by the Fraction action
    # (`reference_coboundary`)
    rng = random.Random(7)
    mod = TruncatedDlm(lam, mu, 3)
    w0 = -mod.p                     # the weight of a_{0,0}
    fractional = False
    for n, w, parity in ((0, w0, 0), (1, w0, 0), (1, w0 + F(1, 2), 1),
                         (2, w0, 0), (2, w0 - F(1, 2), 1)):
        dom, cod, cols, scale = delta_block(mod, n, w, parity)
        assert scale == action_scale(mod) and cod and dom
        assert len(cols) == len(dom)
        assert all(type(v) is int for col in cols for v in col.values())
        _, _, mat = delta_matrix(mod, n, w, parity)
        assert [{r: v * scale for r, v in mat.column(c).items()}
                for c in range(len(dom))] == cols
        fractional |= any(v.denominator > 1 for r in mat.rows
                          for v in r.values())
        for c in rng.sample(range(len(dom)), min(6, len(dom))):
            u, bv = dom[c]
            dd = reference_coboundary(
                Cochain(mod, n, parity, {u: {bv: F(1)}}))
            assert cols[c] == {r: v * scale for r, v
                               in cochain_coords(dd, cod).items()}
        # left-out columns stay empty, the others are unchanged
        skip = range(0, len(dom), 2)
        *_, part, _ = delta_block(mod, n, w, parity, skip=skip)
        assert part == [{} if c in skip else col
                        for c, col in enumerate(cols)]
    assert fractional


def test_integer_block_scale_covers_bracket_denominators():
    # a block's scale is lcm(D, T), D the action scale and T the bracket
    # denominator: T = 3 for the rescaled table, 1 for the adopted one
    thirds = {g: F(1) for g in GENS}
    thirds["H"] = F(1, 3)           # [H,A] = A/6 in the rescaled basis
    T = rescaled_table(TABLE, thirds).scaled_brackets()[0]
    scale, act_factor, bracket_factor = cc._scales(MOD, T)
    D = action_scale(MOD)
    assert T % 3 == 0 and scale % T == 0 and scale % D == 0
    assert act_factor * D == bracket_factor * T == scale
    dom, cod, cols, scale = delta_block(MOD, 1, 0, 0)
    assert scale == cc._scales(MOD, TABLE.scaled_brackets()[0])[0]
    assert all(type(v) is int for col in cols for v in col.values())


@pytest.mark.parametrize("lam, mu", [(F(0), F(1, 2)), (F(1, 3), F(0)),
                                     (F(1, 3), F(5, 6))])
def test_block_parity_rule_matches_monomial_scan(lam, mu):
    # 2(w + p) = cochain parity (mod 2): the blocks the rule leaves empty
    # are exactly the ones the scan over monomials finds empty; the
    # weights shifted by -p reach the blocks of p = -1/3 as well
    mod = TruncatedDlm(lam, mu, 3)
    empty = full = 0
    weights = [F(j, 2) for j in range(-4, 5)]
    for n in range(5):
        for w in weights + [w - mod.p for w in weights]:
            for parity in (0, 1):
                scan = [(u, bv) for u in monomial_basis(n)
                        for bv in mod.weight_basis(
                            w + monomial_weight(u),
                            (parity + monomial_parity(u)) % 2)]
                assert cc.block_basis(mod, n, w, parity) == scan
                if (2 * (w + mod.p) - parity) % 2:
                    assert scan == []
                    empty += 1
                    # the empty block still carries its true scale
                    dom, cod, cols, scale = delta_block(
                        mod, n, w, parity)
                    assert dom == cod == cols == []
                    assert scale == delta_block(
                        mod, n, w + F(1, 2), parity)[3]
                else:
                    full += bool(scan)
    assert empty and full


def test_blocks_need_a_parity():
    # a block is one parity component; parity None (both components)
    # used to be laid out with the parity-0 Koszul signs and gave wrong
    # columns, so it must raise: the positional view reads the chain's
    # block and `_basis`
    mod = TruncatedDlm(0, F(1, 2), 3)
    for n in range(3):
        with pytest.raises(TypeError):
            delta_block(mod, n, 0, None)
        with pytest.raises(TypeError):
            cc.block_basis(mod, n, 0, None)


# --- explicit cocycles -------------------------------------------------------

def test_h_lambda_solved_slots():
    for lam in (F(0), F(1), F(-3, 2), F(5, 2)):
        h, ratios = make_h_lambda(lam)
        assert h.values[("H",)] == {("a", 0, 0): F(-1, 2)}
        assert h.values[("B",)] == {("c", 0, 0): F(1)}
        assert h.values[("Y",)] == {("a", 1, 0): F(-1)}
        assert set(h.values) == {("H",), ("B",), ("Y",)}
        assert ratios == {"H": F(1, 2), "B": F(1), "Y": F(1, 2)}
        assert coboundary(h).is_zero()
        assert is_reduced(h)
        assert h.parity == 0


def test_f_k_solved_slots():
    for k in range(4):
        f, ratios = make_f_k(k)
        assert f.values[("H",)] == {("d", 0, k): F(1, 2)}
        assert f.values[("B",)] == {("b", 0, k): F(1)}
        assert f.values[("Y",)] == {("d", 1, k): F(1)}
        assert ratios == {"H": F(1, 2), "B": F(1), "Y": F(1, 2)}
        assert coboundary(f).is_zero()
        assert is_reduced(f)
        assert f.parity == 1


def test_ftilde_k_solved_slots():
    for k in range(4):
        f, ratios = make_ftilde_k(k)
        expected_y = {("c", 0, k): F(1)}
        if k:
            expected_y[("d", 0, k - 1)] = F(-k)
        assert f.values[("B",)] == {("a", 0, k): F(1)}
        assert f.values[("Y",)] == expected_y
        assert ("H",) not in f.values
        assert ratios["B"] == F(1)
        assert ratios["Y"] == F(1, 2)
        assert coboundary(f).is_zero()
        assert is_reduced(f)


def test_slot_ratio_mismatch_raises():
    h, _ = make_h_lambda(F(1))
    broken = h.add(Cochain(h.mod, 1, 0, {("X",): {("a", 1, 0): F(1)}}))
    with pytest.raises(NoCocycle):
        cc.slot_ratios(broken, cc.h_lambda_template())


# --- cup products -------------------------------------------------------------

def test_cup_type_mismatch():
    f0, _ = make_f_k(0)   # by D_{0,1/2}
    h1, _ = make_h_lambda(F(1))  # D_{1,1}: does not compose with f0
    with pytest.raises(TypeMismatch):
        cup(f0, h1)


def test_cup_bilinearity_zero_factor():
    f0, _ = make_f_k(0)
    zero = zero_cochain(TruncatedDlm(0, 0, 3), 1, 0)
    omega = cup(f0, zero)
    assert omega.is_zero()


def test_cup_is_cocycle_and_printed_sign_works():
    for k in (0, 1, 2):
        f, _ = make_f_k(k)
        h, _ = make_h_lambda(F(-k, 2))
        omega = cup(f, h)      # raises NoCocycle if d omega != 0
        assert omega.parity == 1
        assert coboundary(omega).is_zero()


def test_cup_rejects_an_odd_second_factor():
    # for an even h the Koszul signs are the printed ones; an odd h is
    # the one case where they differ, and no caller has one
    f0, _ = make_f_k(0)
    with pytest.raises(ValueError, match="even"):
        cup(f0, f0)


def test_cup_of_cocycles_that_is_not_a_cocycle_raises(monkeypatch):
    # a product of two cocycles is certified: a wrong value on one slot
    # of Omega_0 must raise, not return
    f, _ = make_f_k(0)
    h, _ = make_h_lambda(F(0))
    from_oppoly = cc.from_oppoly
    calls = []

    def one_slot_doubled(terms, mod):
        calls.append(terms)
        if len(calls) == 1:
            terms = {key: 2 * c for key, c in terms.items()}
        return from_oppoly(terms, mod)

    monkeypatch.setattr(cc, "from_oppoly", one_slot_doubled)
    with pytest.raises(NoCocycle):
        cup(f, h)


def test_cup_HY_value():
    # Omega_k(H,Y) = -1/2 (k dtheta dx^{k-1} - (k+1) theta dx^k)
    for k in (0, 1, 2):
        f, _ = make_f_k(k)
        h, _ = make_h_lambda(F(-k, 2))
        omega = cup(f, h)
        val = to_oppoly(omega.evaluate(("H", "Y")))
        expected = OpPoly({(0, 1, 0, k): F(k + 1, 2)})
        if k:
            expected = expected + OpPoly({(0, 0, 1, k - 1): F(-k, 2)})
        assert val == expected


def test_cochain_json_roundtrip():
    def roundtrip(f):
        # decoded onto a fresh module with f's parameters
        back = cochain_from_json(cochain_to_json(f))
        assert (back.mod.lam, back.mod.mu, back.mod.K) == (
            f.mod.lam, f.mod.mu, f.mod.K)
        return Cochain(f.mod, back.degree, back.parity, back.values,
                       back.universe)

    fk, _ = make_f_k(1)
    assert cochain_to_json(fk)["values"]["B"] == [["b", 0, 1, "1"]]
    assert same_cochain(roundtrip(fk), fk)
    res = restrict_sl2(fk)
    assert same_cochain(roundtrip(res), res)
