"""Symbolic differential operators on the superline R^{1|1}.

Operators have polynomial coefficients and are kept in the normal order
x^m theta^e1 dtheta^e2 dx^k; composition rewrites with

    dx o x^m   = x^m dx + m x^{m-1}      (Leibniz)
    dtheta o theta = 1 - theta o dtheta  (left-derivative convention)
    theta o theta = 0,  dtheta o dtheta = 0

while x and dx commute past theta and dtheta. A function
G(x, theta) = g0(x) + g1(x) theta is the operator of order 0 that
multiplies by it, the one whose terms all have e2 = k = 0. For such a
G, P o G is P(G) plus terms that end in dtheta or dx, so the value
P(G) is the zeroth-order part of P o G (`zeroth`).

The contact structure enters through eta = dtheta + theta dx and
etabar = dtheta - theta dx: the contact field of G is
X_G = G dx + 1/2 eta(G) etabar, with eta(G) = zeroth(eta o G), and
[X_F, X_G] = X_{F,G} for the bracket
{F,G} = F G' - F' G + 1/2 eta(F) etabar(G) (checked in the tests,
`contact_bracket`). Scaled copies of X_1, X_x, X_{x^2}, X_theta and
X_{x theta} realize osp(1|2); the scaling constants are solved from the
adopted bracket table, not assumed.

An OpPoly keeps its coefficients as Fractions, but composition runs in
integers: `compose`, `graded_commutator` and `derived_module_action`
take each operand's int numerators over the lcm of its own denominators
(`OpPoly.numerators`), accumulate the products in ints in the one
composition loop (`_compose_into`), and make one Fraction per output
term at most. `derived_module_action`, the realization oracle, returns
its numerators and their denominator as they are, so the self-test
compares them with the integer action table by divmod and makes no
Fraction. The oracle stays independent of the table: it is built from
the contact fields alone, and of the table the comparison reads only
the scale D.
"""

import itertools
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .algebra import PARITY

_ZERO = Fraction(0)


def _dict_add(target, key, coeff):
    s = target.get(key, _ZERO) + coeff
    if s:
        target[key] = s
    else:
        target.pop(key, None)


def _exact(v):
    return v if type(v) is Fraction else Fraction(v)


def _theta_terms(a1, b1, a2, b2):
    """theta^a1 dtheta^b1 o theta^a2 dtheta^b2 in normal order, as
    (e1, e2, sign) terms: dtheta^b1 is resolved against theta^a2, the
    remaining theta power merges into theta^a1 and the remaining dtheta
    power into dtheta^b2."""
    if b1 and a2:
        # dtheta theta = 1 - theta dtheta
        cross = ((1, 1, -1),) if not a1 and not b2 else ()
        return ((a1, b2, 1),) + cross
    if b1:
        return () if b2 else ((a1, 1, 1),)
    if a2:
        return () if a1 else ((1, b2, 1),)
    return ((a1, b2, 1),)


_THETA_TERMS = {key: _theta_terms(*key)
                for key in itertools.product((0, 1), repeat=4)}


def _compose_into(out, p, q, scale=1):
    """out += scale * (p o q) for {(m, e1, e2, k): int} operators.

    The one composition loop. By Leibniz, x^m1 dx^k1 o x^m2 dx^k2 is
    sum_j binom(k1, j) falling(m2, j) x^(m1+m2-j) dx^(k1-j+k2); each
    coefficient is the previous one times (k1-j+1)(m2-j+1), divided
    exactly by j. The theta part is read off `_THETA_TERMS`. A sum that
    cancels stays in `out` as 0.
    """
    get = out.get
    for (m1, a1, b1, k1), v1 in p.items():
        v1 *= scale
        for (m2, a2, b2, k2), v2 in q.items():
            thetas = _THETA_TERMS[a1, b1, a2, b2]
            if not thetas:
                continue
            c = v1 * v2
            m, k = m1 + m2, k1 + k2
            for j in range(min(k1, m2) + 1):
                if j:
                    c = c * (k1 - j + 1) * (m2 - j + 1) // j
                for e1, e2, sign in thetas:
                    key = (m - j, e1, e2, k - j)
                    out[key] = get(key, 0) + sign * c


class OpPoly:
    """Operator polynomial: {(m, e1, e2, k): Fraction} in normal order."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: _exact(v) for k, v in (terms or {}).items() if v}

    @classmethod
    def from_numerators(cls, ints, den):
        """The operator ints / den, one Fraction per nonzero term."""
        return cls({key: Fraction(n, den) for key, n in ints.items() if n})

    def numerators(self):
        """(ints, den): the terms as int numerators over den, the lcm of
        their denominators."""
        den = lcm(*(v.denominator for v in self.terms.values()))
        return {key: v.numerator * (den // v.denominator)
                for key, v in self.terms.items()}, den

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            _dict_add(out, k, v)
        return OpPoly(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return OpPoly({k: c * v for k, v in self.terms.items()})

    def compose(self, other):
        """Normal-ordered operator product self o other, composed in
        integers over the product of the two denominators."""
        p, dp = self.numerators()
        q, dq = other.numerators()
        out = {}
        _compose_into(out, p, q)
        return OpPoly.from_numerators(out, dp * dq)

    def parity(self):
        ps = {(e1 + e2) % 2 for (_, e1, e2, _) in self.terms}
        return ps.pop() if len(ps) == 1 else None

    def max_dx_order(self):
        return max((k for (_, _, _, k) in self.terms), default=0)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, OpPoly) and self.terms == other.terms

    def __repr__(self):
        return f"OpPoly({op_str(self)})"


def graded_commutator(p, q):
    """[p, q] = p o q - (-1)^{pq} q o p for parity-homogeneous p, q,
    composed in integers over the product of the two denominators."""
    sign = -1 if p.parity() and q.parity() else 1
    a, da = p.numerators()
    b, db = q.numerators()
    out = {}
    _compose_into(out, a, b)
    _compose_into(out, b, a, -sign)
    return OpPoly.from_numerators(out, da * db)


ETA = OpPoly({(0, 0, 1, 0): 1, (0, 1, 0, 1): 1})
ETABAR = OpPoly({(0, 0, 1, 0): 1, (0, 1, 0, 1): -1})
DX = OpPoly({(0, 0, 0, 1): 1})


def zeroth(op):
    """The zeroth-order part of op: its terms with no dtheta and no dx.

    For a function G (an operator of order 0), zeroth(P o G) is P(G).
    """
    return OpPoly({(m, e1, e2, k): c for (m, e1, e2, k), c
                   in op.terms.items() if not e2 and not k})


def vector_field(g):
    """X_G = G dx + 1/2 eta(G) etabar."""
    half_eta = zeroth(ETA.compose(g)).scale(Fraction(1, 2))
    return g.compose(DX) + half_eta.compose(ETABAR)


def density_action(g, lam):
    """First-order action of X_G on weight-lam densities: X_G + lam G'."""
    return vector_field(g) + zeroth(DX.compose(g)).scale(lam)


# symbols of the base contact fields, functions as operators of order 0
_BASE_SYMBOLS = {
    "X": OpPoly({(0, 0, 0, 0): 1}),   # 1
    "A": OpPoly({(0, 1, 0, 0): 1}),   # theta
    "H": OpPoly({(1, 0, 0, 0): 1}),   # x
    "B": OpPoly({(1, 1, 0, 0): 1}),   # x theta
    "Y": OpPoly({(2, 0, 0, 0): 1}),   # x^2
}


class RealizationConstants(namedtuple("RealizationConstants",
                                      "cH cX cY cA cB")):
    """Scalings g = c_g X_{symbol(g)} realizing the adopted bracket table.

    Equal and hashed by value: `_generator_action` is cached on it.
    """

    __slots__ = ()

    def scale_of(self, gen):
        return {"H": self.cH, "X": self.cX, "Y": self.cY,
                "A": self.cA, "B": self.cB}[gen]

    def symbol(self, gen):
        return _BASE_SYMBOLS[gen].scale(self.scale_of(gen))


_CANDIDATE_SCALES = tuple(
    s * Fraction(n, d)
    for n, d in ((1, 1), (2, 1), (4, 1), (1, 2), (1, 4))
    for s in (1, -1)
)


def solve_realization_constants(table):
    """Solve the five field scalings from the bracket table.

    Backtracking over candidate rationals (+-1, +-2, +-4, +-1/2, +-1/4
    per generator); each partial assignment is pruned against every
    bracket row it already determines, and a full assignment is accepted
    only if all 25 commutators reproduce the table exactly. The five
    unscaled fields X_symbol(g), and each commutator of two, are built
    once per solve and scaled for each trial: vector_field is linear and
    the graded commutator bilinear, so [c_u X_u, c_v X_v] is
    c_u c_v [X_u, X_v] exactly.
    """
    order = ("X", "H", "Y", "A", "B")  # gauge first, cheap prunes early
    fields = {g: vector_field(_BASE_SYMBOLS[g]) for g in order}
    commutators = {}                   # of the unscaled fields

    def matches(scales):
        for u, v in itertools.product(scales, repeat=2):
            row = table.bracket(u, v)
            if any(g not in scales for g in row):
                continue
            if (u, v) not in commutators:
                commutators[(u, v)] = graded_commutator(fields[u],
                                                        fields[v])
            lhs = commutators[(u, v)].scale(scales[u] * scales[v])
            if lhs != sum((fields[g].scale(c * scales[g])
                           for g, c in row.items()), OpPoly()):
                return False
        return True

    def extend(scales, depth):
        if depth == len(order):
            return scales
        g = order[depth]
        for c in _CANDIDATE_SCALES:
            trial = {**scales, g: c}
            if matches(trial):
                found = extend(trial, depth + 1)
                if found is not None:
                    return found
        return None

    scales = extend({}, 0)
    if scales is None:
        raise ValueError("no realization constants reproduce the table")
    return RealizationConstants(cH=scales["H"], cX=scales["X"],
                                cY=scales["Y"], cA=scales["A"],
                                cB=scales["B"])


@lru_cache(maxsize=16)
def _generator_action(gen, lam, consts):
    """density_action of gen's field at weight lam, as its numerators
    (`OpPoly.numerators`); the 16 latest kept. The dict is shared by
    every caller, which reads it only."""
    return density_action(consts.symbol(gen), lam).numerators()


def derived_module_action(gen, op, lam, mu, consts):
    """Action of a generator on an operator from lam- to mu-densities,
    as (ints, den): the action is ints / den (`OpPoly.from_numerators`).

    This is the commutator construction
    L^mu_G o T - (-1)^{T G} T o L^lam_G, a representation by
    construction; it serves as the oracle for the tabulated action. The
    two cached density actions are brought to the lcm of their
    denominators and composed with T's numerators in integers, so a call
    makes no Fraction; a term that cancels is returned as 0.
    """
    sign = -1 if PARITY[gen] and op.parity() else 1
    left, dl = _generator_action(gen, mu, consts)
    right, dr = _generator_action(gen, lam, consts)
    t, dt = op.numerators()
    d = lcm(dl, dr)
    out = {}
    _compose_into(out, left, t, d // dl)
    _compose_into(out, t, right, -sign * (d // dr))
    return out, d * dt


# --- pretty-printing -----------------------------------------------------

def _factor_str(base, power):
    if power == 0:
        return ""
    if power == 1:
        return base
    return f"{base}^{power}"


def op_str(op):
    """Operator in the classical notation, e.g. '3/2 x^2 θ ∂x^3 - ∂θ'."""
    if not op.terms:
        return "0"
    parts = []
    for key in sorted(op.terms):
        m, e1, e2, k = key
        c = op.terms[key]
        factors = [f for f in (_factor_str("x", m), _factor_str("θ", e1),
                               _factor_str("∂θ", e2), _factor_str("∂x", k))
                   if f]
        body = " ".join(factors) if factors else "1"
        if c == 1:
            term = body
        elif c == -1:
            term = f"-{body}" if factors else "-1"
        else:
            term = f"{c} {body}" if factors else f"{c}"
        parts.append(term)
    out = parts[0]
    for t in parts[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out
