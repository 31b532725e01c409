"""Operator calculus on the superline and the contact realization."""

import itertools
import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from ospcoho import engine
from ospcoho.algebra import GENS, PARITY, adopted_table
from ospcoho.superdiff import (ETA, ETABAR, OpPoly, RealizationConstants,
                               _generator_action, density_action,
                               derived_module_action, graded_commutator,
                               op_str, solve_realization_constants,
                               vector_field, zeroth)
from ospcoho.weightmod import (FAMILIES, TruncatedDlm, action_scale,
                               from_oppoly, to_oppoly)
from tests_support_dense import (as_operator, contact_bracket,
                                 fields_match_table, op_term, parse_op,
                                 realized, reference_apply,
                                 reference_commutator, reference_compose,
                                 stencil_image)

X_ = lambda: op_term(1, 0, 0, 0)
DX = lambda: op_term(0, 0, 0, 1)
TH = lambda: op_term(0, 1, 0, 0)
DTH = lambda: op_term(0, 0, 1, 0)


def fn(m, e, coeff=1):
    """The function coeff x^m theta^e, an operator of order 0."""
    return op_term(m, e, 0, 0, coeff)


def monomials(max_m):
    """The functions x^m theta^e with m <= max_m, as {(m, e): Fraction}."""
    return [{(m, e): Fraction(1)} for m in range(max_m + 1) for e in (0, 1)]


def random_operators(seed, count):
    rng = random.Random(seed)
    return [OpPoly({(rng.randint(0, 3), rng.randint(0, 1),
                     rng.randint(0, 1), rng.randint(0, 3)):
                    Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    for _ in range(3)})
            for _ in range(count)]


def test_compose_leibniz():
    assert DX().compose(X_()) == OpPoly({(1, 0, 0, 1): 1, (0, 0, 0, 0): 1})


def test_compose_left_derivative():
    assert DTH().compose(TH()) == OpPoly({(0, 0, 0, 0): 1, (0, 1, 1, 0): -1})


def test_compose_nilpotents():
    assert TH().compose(TH()).is_zero()
    assert DTH().compose(DTH()).is_zero()


def test_compose_d_family_with_x():
    # (dtheta dx^k - theta dx^{k+1}) o x, checked against application
    for k in (0, 1, 2, 3):
        d_op = OpPoly({(0, 0, 1, k): 1, (0, 1, 0, k + 1): -1})
        composed = d_op.compose(X_())
        expected = OpPoly({(1, 0, 1, k): 1, (0, 0, 1, k - 1): k,
                           (1, 1, 0, k + 1): -1, (0, 1, 0, k): -(k + 1)}
                          if k else
                          {(1, 0, 1, 0): 1, (1, 1, 0, 1): -1,
                           (0, 1, 0, 0): -1})
        assert composed == expected
        for f in monomials(4):
            assert reference_apply(composed, f) == \
                reference_apply(d_op, reference_apply(X_(), f))


def test_apply_examples():
    theta = {(0, 1): Fraction(1)}
    assert reference_apply(ETA, theta) == {(0, 0): 1}
    assert reference_apply(ETABAR, {(1, 1): Fraction(1)}) == {(1, 0): 1}
    assert reference_apply(op_term(2, 1, 1, 1), {}) == {}
    assert reference_apply(DX(), {(3, 1): Fraction(1, 2)}) == \
        {(2, 1): Fraction(3, 2)}


def test_apply_compose_consistency():
    gens = [DX(), DTH(), TH(), X_(), op_term(1, 1, 0, 2),
            op_term(0, 1, 1, 1)]
    for a, b in itertools.product(gens, repeat=2):
        ab = a.compose(b)
        for f in monomials(5):
            assert reference_apply(ab, f) == \
                reference_apply(a, reference_apply(b, f))


def test_zeroth_order_part_is_the_application():
    # for a function G, an operator of order 0, P o G is P(G) plus terms
    # that end in dtheta or dx: its zeroth-order part is P(G)
    ops = [ETA, ETABAR, DX(), DTH(), TH(), X_()] + random_operators(35, 40)
    for p in ops:
        for f in monomials(5):
            assert zeroth(p.compose(as_operator(f))) == \
                as_operator(reference_apply(p, f))


def test_compose_associative_random():
    rng = random.Random(314)
    for _ in range(200):
        ops = [op_term(rng.randint(0, 3), rng.randint(0, 1),
                       rng.randint(0, 1), rng.randint(0, 3),
                       Fraction(rng.randint(1, 4), rng.randint(1, 3)))
               for _ in range(3)]
        left = ops[0].compose(ops[1]).compose(ops[2])
        right = ops[0].compose(ops[1].compose(ops[2]))
        assert left == right


def test_contact_bracket_examples():
    one, x = fn(0, 0), fn(1, 0)
    theta, xtheta = fn(0, 1), fn(1, 1)
    assert contact_bracket(one, x) == one
    assert contact_bracket(theta, theta) == one.scale(Fraction(1, 2))
    assert contact_bracket(theta, xtheta) == x.scale(Fraction(1, 2))


def test_vector_field_examples():
    one, theta, x2 = fn(0, 0), fn(0, 1), fn(2, 0)
    assert vector_field(one) == DX()
    assert vector_field(theta) == OpPoly(
        {(0, 0, 1, 0): Fraction(1, 2), (0, 1, 0, 1): Fraction(1, 2)})
    assert vector_field(x2) == OpPoly({(2, 0, 0, 1): 1, (1, 1, 1, 0): 1})


def test_density_action_examples():
    one, theta, x2 = fn(0, 0), fn(0, 1), fn(2, 0)
    lam = Fraction(5, 7)
    assert density_action(theta, lam) == vector_field(theta)
    assert density_action(one, lam) == DX()
    assert density_action(x2, lam) == vector_field(x2) + op_term(
        1, 0, 0, 0, 2 * lam)


def test_fields_bracket_matches_symbol_bracket():
    symbols = [fn(0, 0), fn(1, 0), fn(2, 0), fn(0, 1), fn(1, 1)]
    for f, g in itertools.product(symbols, repeat=2):
        lhs = graded_commutator(vector_field(f), vector_field(g))
        rhs = vector_field(contact_bracket(f, g))
        assert lhs == rhs


def test_realization_constants_solved_not_assumed():
    consts = solve_realization_constants(adopted_table())
    assert (consts.cH, consts.cX, consts.cY, consts.cA, consts.cB) == \
        (-1, 1, -1, 2, 2)
    assert fields_match_table(consts, adopted_table())


def test_realization_constants_are_a_value():
    # `_generator_action` is cached on them, and the selftest JSON prints
    # their repr as a detail
    consts = solve_realization_constants(adopted_table())
    again = RealizationConstants(*(Fraction(c) for c in (-1, 1, -1, 2, 2)))
    assert consts == again and hash(consts) == hash(again)
    assert consts != RealizationConstants(*(Fraction(c)
                                            for c in (1, 1, -1, 2, 2)))
    assert repr(consts) == (
        "RealizationConstants(cH=Fraction(-1, 1), cX=Fraction(1, 1), "
        "cY=Fraction(-1, 1), cA=Fraction(2, 1), cB=Fraction(2, 1))")
    assert consts.scale_of("A") == 2 and consts.symbol("X") == fn(0, 0)


def test_derived_action_examples():
    table = adopted_table()
    consts = solve_realization_constants(table)
    # A on x^m dx^k gives m x^{m-1} theta dx^k
    for m, k in ((1, 0), (3, 2), (0, 1)):
        out = realized("A", op_term(m, 0, 0, k),
                       Fraction(1, 3), Fraction(1, 5), consts)
        assert out == OpPoly({(m - 1, 1, 0, k): m} if m else {})
    # A on the identity
    ident = op_term(0, 0, 0, 0)
    assert realized("A", ident, Fraction(2), Fraction(5, 2),
                    consts).is_zero()
    # B on (theta .) within lam = mu gives (x .)
    out = realized("B", op_term(0, 1, 0, 0), Fraction(3), Fraction(3),
                   consts)
    assert out == op_term(1, 0, 0, 0)


def test_derived_action_equals_fresh_commutator():
    # the cached density actions change nothing: every call equals the
    # commutator on density actions built afresh
    consts = solve_realization_constants(adopted_table())
    rng = random.Random(15)
    for lam, mu in ((Fraction(0), Fraction(1, 2)),
                    (Fraction(1, 3), Fraction(1, 3)),
                    (Fraction(-1, 2), Fraction(1))):
        for _ in range(15):
            gen = rng.choice(GENS)
            bv = (rng.choice(FAMILIES), rng.randint(0, 3), rng.randint(0, 3))
            op = to_oppoly({bv: Fraction(1)})
            g = consts.symbol(gen)
            sign = -1 if PARITY[gen] and op.parity() else 1
            fresh = density_action(g, mu).compose(op) - \
                op.compose(density_action(g, lam)).scale(sign)
            assert realized(gen, op, lam, mu, consts) == fresh


def test_density_action_cache_is_bounded():
    engine.selftest("all")
    engine.run_audit()
    consts = solve_realization_constants(adopted_table())
    for i in range(20):
        for gen in GENS:
            derived_module_action(gen, op_term(1, 1, 0, 1), Fraction(i, 7),
                                  Fraction(i - 3, 5), consts)
    info = _generator_action.cache_info()
    assert info.maxsize == 16 and info.currsize <= info.maxsize


def test_op_str_and_parse_roundtrip():
    assert op_str(op_term(2, 1, 0, 3)) == "x^2 θ ∂x^3"
    assert parse_op("x^2 θ ∂x^3") == op_term(2, 1, 0, 3)
    assert parse_op("0").is_zero()
    for op in random_operators(27, 40):
        assert parse_op(op_str(op)) == op
    assert parse_op("dtheta dx^2") == op_term(0, 0, 1, 2)


# --- the integer composition against the Fraction reference --------------

_COEFFS = st.builds(Fraction, st.integers(-20, 20).filter(bool),
                    st.integers(1, 12))


def operators(parity=None):
    """Random operators of dx-order and x-degree up to 4, coefficients
    with denominators up to 12; homogeneous of `parity` if given."""
    keys = st.tuples(st.integers(0, 4), st.integers(0, 1),
                     st.integers(0, 1), st.integers(0, 4))
    if parity is not None:
        keys = keys.filter(lambda key: (key[1] + key[2]) % 2 == parity)
    return st.dictionaries(keys, _COEFFS, max_size=5).map(OpPoly)


@settings(max_examples=150, deadline=None)
@given(operators(), operators())
@example(DTH(), TH())
@example(op_term(0, 0, 1, 2, Fraction(3, 4)),
         op_term(3, 1, 0, 1, Fraction(-5, 6)))
def test_compose_equals_the_fraction_reference(p, q):
    assert p.compose(q) == reference_compose(p, q)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 1), st.integers(0, 1), st.data())
def test_graded_commutator_equals_the_fraction_reference(pp, qp, data):
    p, q = data.draw(operators(pp)), data.draw(operators(qp))
    assert graded_commutator(p, q) == reference_commutator(p, q)


_WEIGHTS = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(GENS), st.integers(0, 1), _WEIGHTS, _WEIGHTS,
       st.data())
def test_derived_action_equals_the_fraction_reference(gen, parity, lam, mu,
                                                      data):
    # the commutator L^mu_G o T - (-1)^{TG} T o L^lam_G composed term by
    # term in Fractions
    op = data.draw(operators(parity))
    consts = solve_realization_constants(adopted_table())
    g = consts.symbol(gen)
    sign = -1 if PARITY[gen] and op.parity() else 1
    want = reference_compose(density_action(g, mu), op) - \
        reference_compose(op, density_action(g, lam)).scale(sign)
    assert realized(gen, op, lam, mu, consts) == want


def test_integer_oracle_comparison_refuses_rather_than_rounds(monkeypatch):
    # on a module with L = 3 (D = 18), the integer comparison of the
    # self-test decides every (gen, bv) pair as the Fraction comparison
    # does: on the table's images, on each image with one coefficient
    # changed by one unit, and at the scale D = 1, where some realized
    # coefficients are not integers and the integer side refuses
    consts = solve_realization_constants(adopted_table())
    mod = TruncatedDlm(Fraction(1, 3), Fraction(5, 6), 3)
    D = action_scale(mod)
    assert D == 18

    def fraction_image(gen, bv, scale):
        op = realized(gen, to_oppoly({bv: Fraction(1)}), mod.lam, mod.mu,
                      consts)
        return {v: scale * c for v, c in from_oppoly(op.terms, mod).items()}

    pairs = [(gen, bv) for gen in GENS
             for bv in itertools.product(FAMILIES, range(3), range(3))]
    assert len(pairs) == 180
    refused = 0
    for gen, bv in pairs:
        image = stencil_image(mod, gen, bv)
        off = dict(image)
        v = next(iter(off), bv)
        off[v] = off.get(v, 0) + 1
        assert engine._realized_image(mod, gen, bv, consts, D) == image
        for scale in (D, 1):
            exact = engine._realized_image(mod, gen, bv, consts, scale)
            frac = fraction_image(gen, bv, scale)
            if exact is None:
                refused += 1
                assert any(c.denominator != 1 for c in frac.values())
            else:
                assert exact == frac
            for img in (image, off):
                assert (img == exact) == (img == frac)
    assert refused > 0

    # one stencil row changed by one unit fails the self-test's check;
    # H's, which no other stencil is composed from
    checks = {name: ok for name, ok, _ in engine.selftest("oracle")}
    assert checks["table-action-equals-realization"]
    stencil = TruncatedDlm.stencil

    def one_unit_off(self, gen, t):
        rows = stencil(self, gen, t)
        bv = ("c", 1, 1)
        if gen == "H" and t == self.twice_shifted_weight(bv):
            i = self.slice(t)[bv]
            (j, x), *rest = rows[i]
            rows = rows[:i] + (((j, x + 1), *rest),) + rows[i + 1:]
        return rows
    monkeypatch.setattr(TruncatedDlm, "stencil", one_unit_off)
    checks = {name: ok for name, ok, _ in engine.selftest("oracle")}
    assert checks["realization-constants"]
    assert not checks["table-action-equals-realization"]
