"""Operator calculus on the superline and the contact realization."""

import itertools
import random
from fractions import Fraction

from ospcoho import engine
from ospcoho.algebra import GENS, PARITY, adopted_table
from ospcoho.superdiff import (ETA, ETABAR, OpPoly, RealizationConstants,
                               SFun, _generator_action, density_action,
                               derived_module_action, graded_commutator,
                               op_str, solve_realization_constants,
                               vector_field)
from ospcoho.weightmod import FAMILIES, to_oppoly
from tests_support_dense import (contact_bracket, fields_match_table,
                                 op_term, parse_op, sfun_is_zero,
                                 sfun_parity)

X_ = lambda: op_term(1, 0, 0, 0)
DX = lambda: op_term(0, 0, 0, 1)
TH = lambda: op_term(0, 1, 0, 0)
DTH = lambda: op_term(0, 0, 1, 0)


def sfun_monomials(max_m):
    return [SFun.term(m, e) for m in range(max_m + 1) for e in (0, 1)]


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
        for f in sfun_monomials(4):
            assert composed.apply(f) == d_op.apply(X_().apply(f))


def test_apply_examples():
    theta = SFun.term(0, 1)
    assert ETA.apply(theta) == SFun.term(0, 0)
    assert ETABAR.apply(SFun.term(1, 1)) == SFun.term(1, 0)
    assert sfun_is_zero(op_term(2, 1, 1, 1).apply(SFun({})))
    assert sfun_parity(theta) == 1 and sfun_parity(SFun({})) is None


def test_apply_compose_consistency():
    gens = [DX(), DTH(), TH(), X_(), op_term(1, 1, 0, 2),
            op_term(0, 1, 1, 1)]
    for a, b in itertools.product(gens, repeat=2):
        ab = a.compose(b)
        for f in sfun_monomials(5):
            assert ab.apply(f) == a.apply(b.apply(f))


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
    one, x = SFun.term(0, 0), SFun.term(1, 0)
    theta, xtheta = SFun.term(0, 1), SFun.term(1, 1)
    assert contact_bracket(one, x) == one
    assert contact_bracket(theta, theta) == one.scale(Fraction(1, 2))
    assert contact_bracket(theta, xtheta) == x.scale(Fraction(1, 2))


def test_vector_field_examples():
    one = SFun.term(0, 0)
    theta = SFun.term(0, 1)
    x2 = SFun.term(2, 0)
    assert vector_field(one) == DX()
    assert vector_field(theta) == OpPoly(
        {(0, 0, 1, 0): Fraction(1, 2), (0, 1, 0, 1): Fraction(1, 2)})
    assert vector_field(x2) == OpPoly({(2, 0, 0, 1): 1, (1, 1, 1, 0): 1})


def test_density_action_examples():
    one = SFun.term(0, 0)
    theta = SFun.term(0, 1)
    x2 = SFun.term(2, 0)
    lam = Fraction(5, 7)
    assert density_action(theta, lam) == vector_field(theta)
    assert density_action(one, lam) == DX()
    assert density_action(x2, lam) == vector_field(x2) + op_term(
        1, 0, 0, 0, 2 * lam)


def test_fields_bracket_matches_symbol_bracket():
    symbols = [SFun.term(0, 0), SFun.term(1, 0), SFun.term(2, 0),
               SFun.term(0, 1), SFun.term(1, 1)]
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
    assert consts.scale_of("A") == 2 and consts.symbol("X") == SFun.term(0, 0)


def test_derived_action_examples():
    table = adopted_table()
    consts = solve_realization_constants(table)
    # A on x^m dx^k gives m x^{m-1} theta dx^k
    for m, k in ((1, 0), (3, 2), (0, 1)):
        out = derived_module_action("A", op_term(m, 0, 0, k),
                                    Fraction(1, 3), Fraction(1, 5), consts)
        assert out == OpPoly({(m - 1, 1, 0, k): m} if m else {})
    # A on the identity
    ident = op_term(0, 0, 0, 0)
    assert derived_module_action("A", ident, Fraction(2), Fraction(5, 2),
                                 consts).is_zero()
    # B on (theta .) within lam = mu gives (x .)
    out = derived_module_action("B", op_term(0, 1, 0, 0),
                                Fraction(3), Fraction(3), consts)
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
            assert derived_module_action(gen, op, lam, mu, consts) == fresh


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
    rng = random.Random(27)
    assert op_str(op_term(2, 1, 0, 3)) == "x^2 θ ∂x^3"
    assert parse_op("x^2 θ ∂x^3") == op_term(2, 1, 0, 3)
    assert parse_op("0").is_zero()
    for _ in range(40):
        op = OpPoly({(rng.randint(0, 3), rng.randint(0, 1),
                      rng.randint(0, 1), rng.randint(0, 3)):
                     Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                     for _ in range(3)})
        assert parse_op(op_str(op)) == op
    assert parse_op("dtheta dx^2") == op_term(0, 0, 1, 2)
