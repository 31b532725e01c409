"""Operator calculus on the superline and the contact realization."""

import itertools
import random
from fractions import Fraction

from ospcoho.algebra import adopted_table
from ospcoho.superdiff import (ETA, ETABAR, OpPoly, SFun, density_action,
                               derived_module_action, graded_commutator,
                               op_str, solve_realization_constants,
                               vector_field)
from tests_support_dense import contact_bracket, fields_match_table, parse_op

X_ = lambda: OpPoly.term(1, 0, 0, 0)
DX = lambda: OpPoly.term(0, 0, 0, 1)
TH = lambda: OpPoly.term(0, 1, 0, 0)
DTH = lambda: OpPoly.term(0, 0, 1, 0)


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
    assert OpPoly.term(2, 1, 1, 1).apply(SFun({})).is_zero()


def test_apply_compose_consistency():
    gens = [DX(), DTH(), TH(), X_(), OpPoly.term(1, 1, 0, 2),
            OpPoly.term(0, 1, 1, 1)]
    for a, b in itertools.product(gens, repeat=2):
        ab = a.compose(b)
        for f in sfun_monomials(5):
            assert ab.apply(f) == a.apply(b.apply(f))


def test_compose_associative_random():
    rng = random.Random(314)
    for _ in range(200):
        ops = [OpPoly.term(rng.randint(0, 3), rng.randint(0, 1),
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
    assert density_action(x2, lam) == vector_field(x2) + OpPoly.term(
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


def test_derived_action_examples():
    table = adopted_table()
    consts = solve_realization_constants(table)
    # A on x^m dx^k gives m x^{m-1} theta dx^k
    for m, k in ((1, 0), (3, 2), (0, 1)):
        out = derived_module_action("A", OpPoly.term(m, 0, 0, k),
                                    Fraction(1, 3), Fraction(1, 5), consts)
        assert out == OpPoly({(m - 1, 1, 0, k): m} if m else {})
    # A on the identity
    ident = OpPoly.term(0, 0, 0, 0)
    assert derived_module_action("A", ident, Fraction(2), Fraction(5, 2),
                                 consts).is_zero()
    # B on (theta .) within lam = mu gives (x .)
    out = derived_module_action("B", OpPoly.term(0, 1, 0, 0),
                                Fraction(3), Fraction(3), consts)
    assert out == OpPoly.term(1, 0, 0, 0)


def test_op_str_and_parse_roundtrip():
    rng = random.Random(27)
    assert op_str(OpPoly.term(2, 1, 0, 3)) == "x^2 θ ∂x^3"
    assert parse_op("x^2 θ ∂x^3") == OpPoly.term(2, 1, 0, 3)
    assert parse_op("0").is_zero()
    for _ in range(40):
        op = OpPoly({(rng.randint(0, 3), rng.randint(0, 1),
                      rng.randint(0, 1), rng.randint(0, 3)):
                     Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                     for _ in range(3)})
        assert parse_op(op_str(op)) == op
    assert parse_op("dtheta dx^2") == OpPoly.term(0, 0, 1, 2)
