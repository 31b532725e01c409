"""The Lie superalgebra osp(1|2): generators, bracket tables, audit.

Generators are the five root vectors H, X, Y (even) and A, B (odd) with
H-weights 0, +1, -1, +1/2, -1/2. The canonical generator order used for
all monomial bookkeeping is X < A < H < B < Y (descending weight).

Two bracket tables are shipped: the "printed" one found in standard
references, which fails the graded Jacobi identity on the triple
(A, A, B), and the audited repair "repaired-V" ([A,B] = -2H,
[Y,A] = +B) which `audit_and_repair` discovers by searching sign flips
of the bracket rows and checking both the Jacobi identity and
compatibility with the differential-operator module action. One
expansion (`_signed_defects`) answers every Jacobi question, and one
fill-in (`StructureTable.scaled_brackets`) every antisymmetric pair.
"""

import itertools
from fractions import Fraction
from math import lcm

from . import Mismatch

GENS = ("X", "A", "H", "B", "Y")
SL2 = ("X", "H", "Y")
ORDER = {g: i for i, g in enumerate(GENS)}
PARITY = {"X": 0, "A": 1, "H": 0, "B": 1, "Y": 0}
WEIGHT = {
    "X": Fraction(1),
    "A": Fraction(1, 2),
    "H": Fraction(0),
    "B": Fraction(-1, 2),
    "Y": Fraction(-1),
}

# pairs exactly as the reference table lists them; keys of the stored rows
PAIR_ORDER = (
    ("H", "X"), ("H", "Y"), ("X", "Y"),
    ("H", "A"), ("X", "A"), ("Y", "A"),
    ("H", "B"), ("X", "B"), ("Y", "B"),
    ("A", "A"), ("A", "B"), ("B", "B"),
)

OFF_DIAGONAL_PAIRS = tuple(p for p in PAIR_ORDER if p[0] != p[1])


class NoConsistentRepair(Mismatch):
    """No table in the audit search space passes both consistency checks."""


def combo_scale(src, coeff):
    if not coeff:
        return {}
    return {g: coeff * v for g, v in src.items()}


def format_combo(combo):
    """'2H', '-B', '1/2A', '0' -- generators in canonical order."""
    if not combo:
        return "0"
    parts = []
    for g in GENS:
        if g not in combo:
            continue
        c = combo[g]
        if c == 1:
            s = g
        elif c == -1:
            s = "-" + g
        else:
            s = f"{c}{g}"
        parts.append(s)
    out = parts[0]
    for s in parts[1:]:
        out += s if s.startswith("-") else "+" + s
    return out


class StructureTable:
    """Bracket coefficients of a candidate osp(1|2) structure.

    Rows are stored for the pairs in PAIR_ORDER. `scaled_brackets` is
    the one fill-in of the other ordered pairs, through graded
    antisymmetry [U,V] = -(-1)^{UV} [V,U], with even diagonals zero;
    `bracket` reads it. The rows are never changed after construction,
    so the key that equality and the hash read is computed once, and the
    integer brackets are built once too, on first use. Tables vary
    only in the audit, the module-axiom check and the realization
    oracle; the cohomology layers use the adopted table as a constant.
    """

    def __init__(self, rows, label):
        self.label = label
        self._rows = {}
        for pair in PAIR_ORDER:
            row = {g: Fraction(v) for g, v in rows.get(pair, {}).items() if v}
            self._rows[pair] = row
        self._key = tuple(tuple(sorted(self._rows[p].items()))
                          for p in PAIR_ORDER)
        self._scaled = None

    def row(self, pair):
        return dict(self._rows[pair])

    def bracket(self, u, v):
        """[u, v] as a {generator: Fraction} combination (`scaled_brackets`)."""
        T, br = self.scaled_brackets()
        return {g: Fraction(c, T) for g, c in br[(u, v)]}

    def scaled_brackets(self):
        """(T, {(u, v): ((g, T * c), ...)}) for all 25 ordered pairs.

        T is the lcm of the bracket denominators, so every scaled
        coefficient is an int; [u, v] = sum c g. Computed once: the rows
        never change. `bracket`, the Jacobi expansion (`_signed_defects`),
        the module-axiom check and the differential's bracket terms all
        read these.
        """
        if self._scaled is None:
            T = lcm(*(c.denominator for row in self._rows.values()
                      for c in row.values()))
            br = {(g, g): () for g in GENS}     # even diagonals stay empty
            for (u, v), row in self._rows.items():
                br[(u, v)] = tuple((g, c.numerator * (T // c.denominator))
                                   for g, c in row.items())
                sign = 1 if PARITY[u] and PARITY[v] else -1
                br[(v, u)] = tuple((g, sign * c) for g, c in br[(u, v)])
            self._scaled = (T, br)
        return self._scaled

    def jacobi_failures(self):
        """[((u, v, w), defect)] for the failing triples, in product order.

        The defect is [[u,v],w] + (-1)^{uv} [v,[u,w]] - [u,[v,w]], zero on
        every triple iff ad_u is a graded derivation for all u, i.e. iff
        the table is a Lie superalgebra. Read off `_signed_defects` with
        no row flipped: the terms of a (triple, component) sum to T^2 *
        defect, and only a nonzero sum is divided by T^2, so it equals the
        Fraction definition (`jacobi_defect` in tests_support_dense).
        """
        return _unflipped_failures(self, _signed_defects(self)[1])

    def is_jacobi(self):
        """True iff the graded Jacobi identity holds on all 125 triples."""
        return not self.jacobi_failures()

    def check_weights(self):
        """Every term of [u,v] must carry weight wt(u)+wt(v)."""
        for (u, v), row in self._rows.items():
            for g in row:
                if WEIGHT[g] != WEIGHT[u] + WEIGHT[v]:
                    return False
        return True

    def check_antisymmetry(self):
        for u, v in itertools.product(GENS, repeat=2):
            lhs = self.bracket(u, v)
            sign = Fraction(-1 if PARITY[u] * PARITY[v] == 0 else 1)
            rhs = combo_scale(self.bracket(v, u), sign)
            if lhs != rhs:
                return False
        return True

    def changes_from(self, other):
        """[(pair_label, other_row_str, self_row_str)] for differing rows."""
        out = []
        for pair in PAIR_ORDER:
            if self._rows[pair] != other._rows[pair]:
                out.append((f"[{pair[0]},{pair[1]}]",
                            format_combo(other._rows[pair]),
                            format_combo(self._rows[pair])))
        return out

    def __eq__(self, other):
        return isinstance(other, StructureTable) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"StructureTable({self.label!r})"


_PRINTED_ROWS = {
    ("H", "X"): {"X": 1},
    ("H", "Y"): {"Y": -1},
    ("X", "Y"): {"H": 2},
    ("H", "A"): {"A": Fraction(1, 2)},
    ("X", "A"): {},
    ("Y", "A"): {"B": -1},
    ("H", "B"): {"B": Fraction(-1, 2)},
    ("X", "B"): {"A": 1},
    ("Y", "B"): {},
    ("A", "A"): {"X": 2},
    ("A", "B"): {"H": 2},
    ("B", "B"): {"Y": -2},
}


def printed_table():
    return StructureTable(_PRINTED_ROWS, "printed")


def adopted_table():
    """The normative table "repaired-V"; the audit rediscovers it."""
    rows = dict(_PRINTED_ROWS)
    rows[("A", "B")] = {"H": -2}
    rows[("Y", "A")] = {"B": 1}
    return StructureTable(rows, "repaired-V")


def _signed_defects(base):
    """(flippable, defects): T^2 * the Jacobi defects of all sign flips.

    The one Jacobi evaluator. The variant `mask` negates the row
    flippable[i] for each bit i of mask; T is the same for every variant.
    A product c * d of the defect (`jacobi_failures`) takes the signs of
    its two rows, so defects maps each (u, v, w, h), in product order, to
    (bits, x) pairs, and its defect in the variant `mask` is
    sum x * (-1)^popcount(mask & bits); mask 0 is `base` itself.
    """
    flippable = [p for p in OFF_DIAGONAL_PAIRS if base._rows[p]]
    bits = dict.fromkeys(itertools.product(GENS, repeat=2), 0)
    for i, (u, v) in enumerate(flippable):
        bits[(u, v)] = bits[(v, u)] = 1 << i
    _, br = base.scaled_brackets()
    acc = {}        # (u, v, w, h) -> {bits: x}
    for u, v, w in itertools.product(GENS, repeat=3):
        sign = -1 if PARITY[u] and PARITY[v] else 1
        terms = [((u, v), (g, w), h, c * d)
                 for g, c in br[(u, v)] for h, d in br[(g, w)]]
        terms += [((u, w), (v, g), h, sign * c * d)
                  for g, c in br[(u, w)] for h, d in br[(v, g)]]
        terms += [((v, w), (u, g), h, -c * d)
                  for g, c in br[(v, w)] for h, d in br[(u, g)]]
        for p, q, h, x in terms:
            entry, b = acc.setdefault((u, v, w, h), {}), bits[p] ^ bits[q]
            entry[b] = entry.get(b, 0) + x
    return flippable, {key: [(b, x) for b, x in entry.items() if x]
                       for key, entry in acc.items()}


def _unflipped_failures(base, defects):
    """`base.jacobi_failures()` read off its signed defects (mask 0)."""
    T, _ = base.scaled_brackets()
    fails = {}
    for (u, v, w, h), terms in defects.items():
        x = sum(x for _, x in terms)
        if x:
            fails.setdefault((u, v, w), {})[h] = Fraction(x, T * T)
    return list(fails.items())


def _flip_is_jacobi(defects, mask):
    """True iff the variant `mask` has no Jacobi defect (`_signed_defects`)."""
    return not any(sum(-x if (mask & b).bit_count() & 1 else x
                       for b, x in terms) for terms in defects.values())


def _flip_variants(base, expansion):
    """The sign-flip variants of `base` that satisfy Jacobi, in mask order.

    Each mask is decided on `expansion`, the signed defects of `base`
    (`_signed_defects`); only a passing one becomes a StructureTable,
    confirmed by `is_jacobi()` on its own expansion.
    """
    flippable, defects = expansion
    for mask in range(1 << len(flippable)):
        if _flip_is_jacobi(defects, mask):
            rows = {p: base.row(p) for p in PAIR_ORDER}
            for i, pair in enumerate(flippable):
                if mask >> i & 1:
                    rows[pair] = combo_scale(rows[pair], Fraction(-1))
            table = StructureTable(rows, f"flip-{mask:#x}")
            if table.is_jacobi():
                yield table


class AuditReport:
    def __init__(self, variant, table, changes, jacobi_failures_printed,
                 consistent_variants):
        self.variant = variant
        self.table = table              # StructureTable
        self.changes = changes
        self.jacobi_failures_printed = jacobi_failures_printed
        self.consistent_variants = consistent_variants

    def to_json(self):
        return {
            "variant": self.variant,
            "changes": [
                {"pair": pair, "from": frm, "to": to}
                for pair, frm, to in self.changes
            ],
            "jacobi_failures_printed": [
                {"triple": list(t), "defect": format_combo(d)}
                for t, d in self.jacobi_failures_printed
            ],
            "consistent_variants": self.consistent_variants,
        }


def audit_and_repair(printed, module_check):
    """Search for the minimal consistent repair of `printed`.

    Search space: per-row sign flips on the off-diagonal bracket rows.
    A candidate is accepted when it passes the graded Jacobi identity on
    all 125 triples AND `module_check(table)` confirms the
    differential-operator action satisfies the module axiom for it.
    Among accepted candidates the one with the fewest changed rows wins;
    with none, NoConsistentRepair is raised.

    Rescalings of the generators are not searched: g -> s_g g multiplies
    the Jacobi defect of (u, v, w) in component h by s_u s_v s_w / s_h,
    so a rescaled table fails Jacobi on exactly the triples its input
    fails on, and no rescaling repairs a table that fails Jacobi.

    The printed table's failures and the sign-flip search read one
    expansion of its defects (`_signed_defects`).
    """
    expansion = _signed_defects(printed)
    failures = _unflipped_failures(printed, expansion[1])
    candidates = []
    consistent = []
    for table in _flip_variants(printed, expansion):
        changes = table.changes_from(printed)
        consistent.append(changes)
        if module_check(table):
            candidates.append((len(changes), changes, table))
    if not candidates:
        raise NoConsistentRepair(
            "no sign-flip variant passes Jacobi and the module-axiom check")
    candidates.sort(key=lambda c: (c[0], [p for p, _, _ in c[1]]))
    nch, changes, table = candidates[0]
    table.label = "repaired-V" if nch else printed.label
    return AuditReport(
        variant=table.label,
        table=table,
        changes=changes,
        jacobi_failures_printed=failures,
        consistent_variants=[
            [{"pair": p, "from": f, "to": t} for p, f, t in ch]
            for ch in consistent
        ],
    )


# --- super-exterior monomials -------------------------------------------

def canonicalize(gens):
    """Sort a generator tuple into canonical order with its Koszul sign.

    Swapping two odd neighbours costs +1, any other swap costs -1; a
    repeated even generator returns sign 0. The sign equals
    eps(sigma) * eps(tau) where tau is the permutation induced on the
    odd entries.
    """
    gens = list(gens)
    sign = 1
    for i in range(1, len(gens)):
        j = i
        while j > 0 and ORDER[gens[j - 1]] > ORDER[gens[j]]:
            if not (PARITY[gens[j - 1]] and PARITY[gens[j]]):
                sign = -sign
            gens[j - 1], gens[j] = gens[j], gens[j - 1]
            j -= 1
    for i in range(1, len(gens)):
        if gens[i] == gens[i - 1] and PARITY[gens[i]] == 0:
            return tuple(gens), 0
    return tuple(gens), sign


def monomial_basis(n, universe=GENS):
    """All degree-n monomials over `universe`, canonically ordered.

    Even generators appear at most once; odd ones repeat freely. For the
    full universe the count is sum_{j<=min(3,n)} C(3,j) (n-j+1).
    """
    ordered = sorted(universe, key=ORDER.get)
    out = []
    for combo in itertools.combinations_with_replacement(ordered, n):
        ok = all(combo[i] != combo[i + 1] or PARITY[combo[i]]
                 for i in range(len(combo) - 1))
        if ok:
            out.append(combo)
    return out


def monomial_parity(mono):
    return sum(PARITY[g] for g in mono) % 2


def monomial_weight(mono):
    return sum((WEIGHT[g] for g in mono), Fraction(0))


def monomial_str(mono):
    """'A^2 H B' style label for a canonical monomial; '1' for degree 0."""
    if not mono:
        return "1"
    parts = []
    for g, group in itertools.groupby(mono):
        n = len(list(group))
        parts.append(g if n == 1 else f"{g}^{n}")
    return " ".join(parts)
