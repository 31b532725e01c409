"""Bracket tables, the Jacobi audit, and monomial bookkeeping."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ospcoho import algebra
from ospcoho.algebra import (GENS, OFF_DIAGONAL_PAIRS, PAIR_ORDER,
                             NoConsistentRepair,
                             StructureTable, adopted_table,
                             audit_and_repair, canonicalize,
                             monomial_basis, monomial_parity, monomial_str,
                             monomial_weight, printed_table)
from tests_support_dense import jacobi_defect, parse_monomial, rescaled_table


def test_bracket_examples():
    t = printed_table()
    assert t.bracket("H", "X") == {"X": 1}
    assert t.bracket("A", "A") == {"X": 2}
    assert t.bracket("X", "X") == {}
    # graded antisymmetry completion
    assert t.bracket("X", "H") == {"X": -1}
    assert t.bracket("B", "A") == {"H": 2}  # odd-odd is symmetric


def test_tables_are_antisymmetric_and_weight_additive():
    for t in (printed_table(), adopted_table()):
        assert t.check_antisymmetry()
        assert t.check_weights()


def test_printed_table_fails_jacobi_at_AAB():
    t = printed_table()
    assert jacobi_defect(t, "A", "A", "B") == {"A": 4}
    assert not t.is_jacobi()


def test_adopted_table_passes_jacobi_everywhere():
    t = adopted_table()
    assert t.jacobi_failures() == []


def test_tables_are_equal_by_their_rows():
    t = printed_table()
    rows = {p: t.row(p) for p in PAIR_ORDER}
    twin = StructureTable(rows, "twin")
    assert twin == t and twin != adopted_table()


@settings(max_examples=30, deadline=None)
@given(st.tuples(*[st.fractions(min_value=-4, max_value=4,
                                max_denominator=4).filter(bool)] * 5))
def test_rescaling_keeps_the_failing_jacobi_triples(scales):
    # g -> s_g g multiplies the defect of (u,v,w) in h by s_u s_v s_w / s_h
    s = dict(zip(GENS, scales))
    printed = printed_table()
    rescaled = rescaled_table(printed, s)
    assert [t for t, _ in rescaled.jacobi_failures()] \
        == [t for t, _ in printed.jacobi_failures()]
    for (u, v, w), defect in printed.jacobi_failures():
        assert jacobi_defect(rescaled, u, v, w) == {
            h: c * s[u] * s[v] * s[w] / s[h] for h, c in defect.items()}


FLIPPABLE = [p for p in OFF_DIAGONAL_PAIRS if printed_table().row(p)]


@settings(max_examples=60, deadline=None)
@given(st.sets(st.sampled_from(FLIPPABLE)),
       st.tuples(*[st.fractions(min_value=-4, max_value=4,
                                max_denominator=4).filter(bool)] * 5),
       st.booleans())
def test_integer_jacobi_equals_fraction_defect(flips, scales, rescale):
    # sign-flip variants of the printed table, optionally rescaled so
    # that brackets get denominators: the integer decision must report
    # exactly the triples and defects of the Fraction definition
    printed = printed_table()
    rows = {p: printed.row(p) for p in PAIR_ORDER}
    for p in flips:
        rows[p] = {g: -c for g, c in rows[p].items()}
    table = StructureTable(rows, "flipped")
    if rescale:
        table = rescaled_table(table, dict(zip(GENS, scales)))
    expected = []
    for triple in itertools.product(GENS, repeat=3):
        defect = jacobi_defect(table, *triple)
        if defect:
            expected.append((triple, defect))
    assert table.jacobi_failures() == expected
    assert table.is_jacobi() == (not expected)


def test_jacobi_trivial_triples():
    for t in (printed_table(), adopted_table()):
        assert jacobi_defect(t, "H", "H", "X") == {}


def _accept_all(_table):
    return True


def _module_check():
    # the audit's check (`engine.run_audit`): the module axiom on one
    # module, built once for every table it is asked about
    from ospcoho.weightmod import TruncatedDlm, module_axiom_holds
    mod = TruncatedDlm(Fraction(1, 3), Fraction(1, 3), 2)
    return lambda table: module_axiom_holds(mod, table)


def test_audit_finds_repaired_v():
    report = audit_and_repair(printed_table(), _module_check())
    assert report.variant == "repaired-V"
    changes = {pair: (frm, to) for pair, frm, to in report.changes}
    assert changes == {"[A,B]": ("2H", "-2H"), "[Y,A]": ("-B", "B")}
    assert report.table == adopted_table()
    assert any(t == ("A", "A", "B") for t, _ in
               report.jacobi_failures_printed)


def test_audit_fixed_point_on_repaired_table():
    report = audit_and_repair(adopted_table(), _module_check())
    assert report.changes == []
    assert report.table == adopted_table()


def test_audit_logs_single_flip_variant():
    # [X,B] -> -A alone restores Jacobi but is not module-compatible
    report = audit_and_repair(printed_table(), _module_check())
    variant_changes = [
        {(c["pair"], c["from"], c["to"]) for c in ch}
        for ch in report.consistent_variants
    ]
    assert {("[X,B]", "A", "-A")} in variant_changes


def _broken_table():
    # [A,A] emptied: no sign flip repairs it
    rows = {pair: printed_table().row(pair) for pair in algebra.PAIR_ORDER}
    rows[("A", "A")] = {}
    return StructureTable(rows, "broken")


def test_audit_no_consistent_repair():
    with pytest.raises(NoConsistentRepair):
        audit_and_repair(_broken_table(), _accept_all)


def test_audit_without_a_module_compatible_flip_raises():
    # the adopted table passes Jacobi, but no flip of it passes this
    # module check: the audit searches nothing else and raises
    with pytest.raises(NoConsistentRepair):
        audit_and_repair(adopted_table(), lambda table: False)


@pytest.mark.parametrize("base, passing", [
    (printed_table(), 4), (adopted_table(), 4), (_broken_table(), 0)],
    ids=["printed", "adopted", "broken"])
def test_flip_predicate_equals_is_jacobi(base, passing):
    # the keyed signed expansion decides every sign-flip variant as
    # is_jacobi() does on the variant's own table, and its signed sums
    # are that table's own failures, component by component; with a
    # passing mask present, a dropped or mis-signed product term shows
    flippable, defects = algebra._signed_defects(base)
    triples = list(itertools.product(GENS, repeat=3))
    places = [triples.index(key[:3]) for key in defects]
    assert places == sorted(places)
    T, _ = base.scaled_brackets()
    masks = range(1 << len(flippable))
    verdicts = [algebra._flip_is_jacobi(defects, mask) for mask in masks]
    assert len(flippable) == 8 and sum(verdicts) == passing
    for mask in masks:
        rows = {p: base.row(p) for p in PAIR_ORDER}
        for i, pair in enumerate(flippable):
            if mask >> i & 1:
                rows[pair] = {g: -c for g, c in rows[pair].items()}
        signed = {}
        for (u, v, w, h), terms in defects.items():
            x = sum(-x if (mask & b).bit_count() & 1 else x
                    for b, x in terms)
            if x:
                signed.setdefault((u, v, w), {})[h] = Fraction(x, T * T)
        table = StructureTable(rows, "flip")
        assert list(signed.items()) == table.jacobi_failures()
        assert verdicts[mask] == table.is_jacobi() == (not signed)
    assert [t.label for t in algebra._flip_variants(
        base, (flippable, defects))] == \
        [f"flip-{mask:#x}" for mask in masks if verdicts[mask]]
    if not passing:
        with pytest.raises(NoConsistentRepair):
            audit_and_repair(base, _module_check())


def test_audit_json_schema():
    payload = audit_and_repair(printed_table(), _module_check()).to_json()
    assert payload["variant"] == "repaired-V"
    assert {"pair": "[A,B]", "from": "2H", "to": "-2H"} in payload["changes"]
    assert all({"triple", "defect"} <= set(e)
               for e in payload["jacobi_failures_printed"])


def test_an_audit_expands_the_defects_at_most_five_times(monkeypatch):
    # the printed table's failures and the sign-flip search share one
    # expansion, and each of the 4 consistent variants confirms itself
    # on its own: 5 in all, with the printed failures unchanged
    from ospcoho import engine
    counted = []
    expand = algebra._signed_defects

    def spy(base):
        counted.append(base)
        return expand(base)
    monkeypatch.setattr(algebra, "_signed_defects", spy)
    report = engine.run_audit()
    assert report.table == adopted_table()
    assert len(report.consistent_variants) == 4
    assert len(counted) <= 5
    assert report.jacobi_failures_printed == \
        printed_table().jacobi_failures()


def test_canonicalize_examples():
    assert canonicalize(("B", "A")) == (("A", "B"), 1)
    assert canonicalize(("Y", "H")) == (("H", "Y"), -1)
    assert canonicalize(("H", "H"))[1] == 0
    assert canonicalize(("Y", "H", "B")) == (("H", "B", "Y"), 1)


def test_canonicalize_idempotent_and_transposition_rule():
    rng = random.Random(2024)
    for _ in range(200):
        tup = tuple(rng.choice(GENS) for _ in range(rng.randint(1, 5)))
        mono, sign = canonicalize(tup)
        again, sign2 = canonicalize(mono)
        assert again == mono
        assert sign2 in (0, 1)
        if sign == 0:
            continue
        # swapping two adjacent entries costs -(-1)^{uv}
        i = rng.randrange(len(tup) - 1) if len(tup) > 1 else None
        if i is None:
            continue
        swapped = list(tup)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        mono_s, sign_s = canonicalize(tuple(swapped))
        assert mono_s == mono
        if sign_s:
            both_odd = (algebra.PARITY[tup[i]] and algebra.PARITY[tup[i + 1]])
            expected = sign if both_odd else -sign
            assert sign_s == expected


def test_monomial_counts():
    assert len(monomial_basis(1)) == 5
    assert len(monomial_basis(2)) == 12
    assert len(monomial_basis(3)) == 20
    for n in range(7):
        closed = sum(
            [1, 3, 3, 1][j] * (n - j + 1)
            for j in range(min(3, n) + 1))
        assert len(monomial_basis(n)) == closed


def test_monomial_basis_is_deterministic_and_canonical():
    for n in (0, 1, 2, 3):
        basis = monomial_basis(n)
        assert basis == monomial_basis(n)
        for mono in basis:
            assert canonicalize(mono) == (mono, 1)


def test_monomial_weight_and_parity():
    mono = ("X", "A", "A", "B")
    assert monomial_parity(mono) == 1
    assert monomial_weight(mono) == Fraction(3, 2)


def test_monomial_str_roundtrip():
    for n in (0, 1, 2, 3):
        for mono in monomial_basis(n):
            assert parse_monomial(monomial_str(mono)) == mono
    assert monomial_str(("A", "A", "H", "B")) == "A^2 H B"
