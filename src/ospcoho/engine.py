"""Brute-force cohomology dimensions and their closed-form cross-checks.

Every complex here is built on the adopted bracket table (`cochains`);
a table is an argument only of the audit (`run_audit`).

For one truncated module and one cochain weight w the differential
d_n: C^n_w -> C^{n+1}_w is a finite exact matrix, whose cochains all
have the parity t mod 2 of t = 2(w + p) (the module's slices fix it);
dim H^n_w = dim C^n_w - rank d_n - rank d_{n-1}. The ranks of a weight
chain (`cochains._WeightChain`: rows and columns at stride
indices, each column written once from integer stencils) are filed
with the chain, which the module keeps, in the order n = 0, 1, ...;
each step hands the next the pivot coordinates of an echelon basis V of
im d_{n-1}, the leads that the in-order reducer filed. Since
d_n d_{n-1} = 0 (the adopted table satisfies Jacobi and the module
axiom holds), d_n V = 0 gives
d_n[:, P] = -d_n[:, N] V_N V_P^{-1} with P the pivots and N the other
coordinates, V_P being triangular with a nonzero diagonal; so
rank d_n = rank d_n[:, N], and the columns at P are never assembled
(the "clearing" of persistent-homology reduction: Chen-Kerber 2011,
Bauer-Kerber-Reininghaus 2014); the columns in N are ranked by
`linalg.int_pivots`.

A report ranks the Casimir's zero piece (`zero_piece`), which has the
cohomology of D^{<=K} for every K >= p and at most 4 vectors per weight
slice. These brute-force numbers are compared against two independent
predictions:

  * the kernel description  H^0 = ker A ∩ ker B,
    H^1 ~ H^0 (+) (ker A)^{-1/2}/B((ker A)^0), H^2 ~ that quotient,
    H^{>2} = 0, evaluated on the truncation in integers on its slices
    of weight 0 and -1/2 only (`_kernel_description`): one integer
    kernel of A's stencil on each, the weight-0 one mapped through B's
    stencil, the quotient ranked with
    `linalg.quotient_dim` and H^0 by rank-nullity. Its hypothesis,
    that A maps each weight slice onto the next, is a theorem of the
    action table (`TruncatedDlm.check_a_onto`), so a report scans no
    slice for it, and nothing in a report grows with K but those two
    slices;
  * the closed-form dimension table for D_{lambda,mu}, decided by the
    case split on p = mu - lambda over exact rationals.

The sl(2) analogue (ker X / Y((ker X)^0) formulas) is checked the same
way. The certificates stay on D^{<=K}: class representatives are the
integer kernel of the cleared block d_n[:, N] (`class_representatives`),
a cocycle is nontrivial when the integer solve for a primitive has none
(`is_coboundary`), and the restriction to sl(2) is injective when the
restricted representatives enlarge the span of the sl(2) coboundaries.
They read the chains' blocks at the same stride indices as the ranks,
and a cochain's coordinates there (`cochains._coords`).
"""

import math
import os
from collections import namedtuple
from fractions import Fraction
from itertools import product

from . import Mismatch, algebra, linalg
from .algebra import GENS, SL2, adopted_table
from .cochains import (Cochain, _a_monomial, _basis, _coords,
                       _graded_monomials, _kernel_cochains, _weight_chain,
                       coboundary, cup, is_reduced, make_f_k, make_ftilde_k,
                       make_h_lambda, primitive, reduce_cochain,
                       restrict_sl2, zero_cochain)
from .superdiff import OpPoly, derived_module_action, op_str, \
    solve_realization_constants
from .weightmod import (TWICE_WEIGHT, TruncatedDlm, _compose, action_scale,
                        from_oppoly, module_axiom_holds, to_oppoly)

NMAX_DEFAULT = 4
WMAX_DEFAULT = Fraction(2)
# the deepest truncation --kmax asks for. A report at p >= 0 ranks the
# weight-0 slice of D^{<=K}, about 2(K - p) vectors, so its cost is
# linear in K: about 20 us and 3.5 KB per unit, 0.014 s at K = 128 and
# 1.6 s and 242 MB at K = 65,536 (build_report(-3/2, 2, K, nmax=6), one
# fresh interpreter each; 2-CPU Intel Xeon, Python 3.11.7). A point's
# own guard depth ceil|p| + 1 is not capped: at p < 0 the slices of
# weight 0 and -1/2 hold no m = 0 vector, so `kernel_slice` builds
# neither, and build_report(16384, 0) at K = 16,385 takes 0.3 ms
K_MAX = 128
# the widest weight window `dims` takes: |w| <= W_MAX is 4 W_MAX + 1
# weights per point for n <= 2. At K = K_MAX, |w| <= 8 took 0.016 s
W_MAX = 8


class NotACocycle(Mismatch):
    pass


class HypothesisViolated(Mismatch):
    """The module does not satisfy the surjectivity hypothesis."""


class NotProportional(Mismatch):
    """Cup values on sl(2) pairs admit no single proportionality constant."""


# --- brute-force dimensions -------------------------------------------------

def _chain_rank(mod, chain, n):
    """(rank, columns, pivots) of d_n on `mod`, filed with the chain.

    `pivots` are the pivot coordinates, in C^{n+1}_w, of an echelon
    basis of im d_n. The columns of d_n at the pivots of im d_{n-1}
    are left out (step n-1 is computed first if it is missing): they
    lie in the span of the others because d_n d_{n-1} = 0. The other
    columns are built and ranked by `linalg.int_pivots`. An empty C^n_w
    answers (0, 0, {}) with nothing assembled.
    """
    hit = chain.ranks.get(n)
    if hit is None and not chain.sources(mod, n)[1]:
        hit = chain.ranks[n] = (0, 0, frozenset())
    if hit is None:
        skip = _chain_rank(mod, chain, n - 1)[2] if n > 0 else frozenset()
        cols = chain.block(mod, n, skip)[0]
        pivots = frozenset(linalg.int_pivots(cols))
        hit = chain.ranks[n] = (len(pivots), len(cols), pivots)
    return hit


class DimCount(namedtuple("DimCount", "total even odd")):
    """dim H^n_w and its split by cochain parity; equal and hashed by
    value, and pickled by its fields to and from pool workers."""

    __slots__ = ()

    def to_json(self):
        return {"total": self.total, "even": self.even, "odd": self.odd}


def twice_h_dim(mod, n, t, universe=GENS):
    """dim H^n at cochain weight w, split by cochain parity, at
    t = 2(w + p) (`twice_shifted`: an int, or None when no vector has
    weight w and every block is empty).

    dim H^n_w = cols_n - rank d_n - rank d_{n-1}, all of cochain parity
    t mod 2. The ranks are chained on the weight chain of t (see
    `_chain_rank`), which presumes d^2 = 0; the adopted table and the
    module axiom guarantee it, and blocks may be asked for in any order.
    """
    if t is None:
        return DimCount(0, 0, 0)
    chain = _weight_chain(mod, t, universe)
    rank_n, cols, _ = _chain_rank(mod, chain, n)
    rank_prev = _chain_rank(mod, chain, n - 1)[0] if n > 0 else 0
    dim = cols - rank_n - rank_prev
    return DimCount(dim, 0, dim) if t % 2 else DimCount(dim, dim, 0)


# --- closed-form predictions ------------------------------------------------

def _kernel_description(mod, kernel_gen, image_gen, nmax):
    """{n: dim} for n <= nmax from the kernel description of g = kernel_gen
    and h = image_gen: H^0 = ker g ∩ ker h, Q = (ker g)^top / h((ker g)^0)
    with top the weight of h, H^1 ~ H^0 (+) Q, H^2 ~ Q and H^{>2} = 0.

    One kernel of g is taken on each of the slices t0 = 2p (weight 0)
    and top. In the adopted table [A, B] = -2H and [X, Y] = 2H, and the
    module axiom holds on D^{<=K} and on its cuts (the tier-1 proof grid
    of `test_casimir_is_triangular_in_k_with_the_proven_diagonal`). So a
    vector killed by g and h is killed by H, which acts on the slice t by
    its weight, and H^0 is the kernel of h on (ker g)^0. The kernels
    are at slice positions, and the (ker g)^0 vectors are mapped through
    h's stencil on t0 by `weightmod._compose`, built only when there is
    one, so the images and (ker g)^top share the positions of the slice
    top. The quotient is ranked in integers (`linalg.quotient_dim`),
    which raises NotContained when the image does not lie in
    (ker g)^top. By
    rank-nullity dim H^0 = dim (ker g)^0 - rank h((ker g)^0), and that
    rank is dim (ker g)^top - dim Q, the kernel basis being independent.
    With 2p not an integer no vector has weight 0 or top: all dims are 0.
    """
    t0 = mod.twice_shifted(0)
    if t0 is None:
        return dict.fromkeys(range(nmax + 1), 0)
    top = t0 + TWICE_WEIGHT[image_gen]
    ker0 = mod.kernel_slice(kernel_gen, t0)
    kertop = mod.kernel_slice(kernel_gen, top)
    images = _compose([v.items() for v in ker0],
                      mod.stencil(image_gen, t0)) if ker0 else []
    q = linalg.quotient_dim(kertop, images)
    d0 = len(ker0) - (len(kertop) - q)
    dims = {0: d0, 1: d0 + q, 2: q}
    return {n: dims.get(n, 0) for n in range(nmax + 1)}


def predict_theorem(mod, nmax=NMAX_DEFAULT):
    """Dimensions from the kernel description of A and B, on the
    truncation itself, once `check_a_onto` confirms its hypothesis that
    A maps each weight slice onto the next: by a proof for the table's
    own action, with no stencil built, and by a scan for a module that
    overrides it. Only the slices of weight 0 and -1/2 are read and
    ranked, so the cost is linear in K at most."""
    if not mod.check_a_onto():
        raise HypothesisViolated(f"A is not onto on {mod}")
    return _kernel_description(mod, "A", "B", nmax)


# no caller in the program yet: `ospcoho restrict` is to print it
def predict_sl2(mod, nmax=NMAX_DEFAULT):
    """sl(2) dimensions from the ker X / Y((ker X)^0) description."""
    return _kernel_description(mod, "X", "Y", nmax)


def special_k(lam, mu):
    """k >= 0 with lam = -k/2, mu = (k+1)/2, or None."""
    lam, mu = Fraction(lam), Fraction(mu)
    k = mu - lam - Fraction(1, 2)
    if k.denominator == 1 and k >= 0 and lam == Fraction(-k, 1) / 2:
        return int(k)
    return None


def predict_proposition(lam, mu, nmax=NMAX_DEFAULT):
    """The closed-form dimension table, decided exactly over Q."""
    lam, mu = Fraction(lam), Fraction(mu)
    if lam == mu:
        dims = {0: 1, 1: 1}
    elif special_k(lam, mu) is not None:
        dims = {0: 1, 1: 2, 2: 1}
    else:
        dims = {}
    return {n: dims.get(n, 0) for n in range(nmax + 1)}


def guard_K(lam, mu, K=None):
    """Truncation depth honoring the closed-form comparison guard.

    The full-module predictions are only valid on truncations with
    K >= ceil(|p|) + 1 (shallower cuts lose the vector generating
    B((ker A)^0) when p is a positive integer).
    """
    p = Fraction(mu) - Fraction(lam)
    base = 3 if K is None else int(K)
    return max(base, math.ceil(abs(p)) + 1)


# --- coboundary membership ---------------------------------------------------

def is_coboundary(f):
    """A verified primitive g with dg = f, or None; f must be a cocycle."""
    if not coboundary(f).is_zero():
        raise NotACocycle("df != 0")
    n = f.degree
    if n == 0:
        return zero_cochain(f.mod, 0, f.parity, f.universe) \
            if f.is_zero() else None
    g = primitive(f)
    if g is None or not coboundary(g).sub(f).is_zero():
        return None
    return g


def class_representatives(mod, n, t, universe=GENS):
    """Cocycle representatives of a basis of H^n_w, at t = 2(w + p)
    (`twice_shifted`), all of parity t mod 2; [] when t is None.

    They are the integer kernel of d_n[:, N], N being the coordinates
    outside the pivots P of an echelon basis of im d_{n-1}
    (`_chain_rank`): a cocycle reduces modulo that basis to one that is
    zero on P, and a nonzero vector zero on P is not in im d_{n-1} (a
    nonzero combination of the echelon rows is nonzero at its smallest
    pivot), so v -> [v] maps ker d_n[:, N] onto H^n_w isomorphically.
    Both steps presume d^2 = 0. The one reduction of d_n[:, N]
    (`cochains._kernel_cochains`) files d_n's rank with the chain too.
    """
    if t is None:
        return []
    chain = _weight_chain(mod, t, universe)
    skip = _chain_rank(mod, chain, n - 1)[2] if n > 0 else ()
    ranked, reps = _kernel_cochains(mod, n, t, universe, skip)
    chain.ranks.setdefault(n, ranked)
    return reps


# --- localization and restriction checks -------------------------------------

# no caller in the program yet: `ospcoho restrict` is to print it
def localization_kernel_dim(mod, n, w):
    """dim of {reduced n-cocycles at weight w with f(B^n) = 0}.

    Zero for every weight certifies that a reduced cocycle is determined
    by its value on B^n. The cocycles vanishing on the listed slots are
    the kernel of d_n stacked with one unit row per such slot; the unit
    rows clear their columns, so the rank is their number plus the rank
    of the other columns, which are all that is assembled.
    """
    b_mono = tuple(["B"] * n)
    t = mod.twice_shifted(w)
    if t is None:
        return 0
    dom = _basis(mod, t, n, GENS)
    units = {index for index, u, _ in dom if _a_monomial(u) or u == b_mono}
    cols = _weight_chain(mod, t, GENS).block(mod, n, units)[0]
    return (len(dom) - len(units)
            - len(linalg.int_pivots([c for c in cols if c])))


def restriction_injectivity_check(lam, mu, K=None, nmax=2):
    """Restriction to sl(2) must be injective on H^n at weight 0.

    Per degree n the sl(2) restrictions of the class representatives
    become coordinates at the stride indices of the sl(2) C^n_0
    (`_coords`) and are ranked in integers against the columns of the
    sl(2) differential d_{n-1}, whose rows carry the same indices
    (`linalg.greedy_independent`): the restriction is injective iff
    every one of them enlarges the span, and a class restricts
    nontrivially iff its vector alone lies outside that image, as every
    vector that enlarged the span does. The representatives come from
    `class_representatives` (premise d^2 = 0), all of parity t mod 2:
    where H^n_0 is zero, only the sl(2) ranking is skipped.
    """
    mod = TruncatedDlm(lam, mu, guard_K(lam, mu, K))
    t = mod.twice_shifted(0)
    entries = []
    ok = True
    for n in range(nmax + 1):
        reps = class_representatives(mod, n, t)
        if not reps:
            continue
        vecs = [_coords(restrict_sl2(rep)).get(t, {}) for rep in reps]
        image = []
        if n > 0:
            image = [c for c in _weight_chain(mod, t, SL2).block(
                mod, n - 1, ())[0] if c]
        kept = set(linalg.greedy_independent(image, vecs))
        ok &= len(kept) == len(vecs)
        for i, vec in enumerate(vecs):
            entries.append({
                "n": n,
                "parity": t % 2,
                "class": i,
                "restriction_nontrivial": i in kept
                or linalg.greedy_independent(image, [vec]) == [0],
            })
    return {"lambda": str(Fraction(lam)), "mu": str(Fraction(mu)),
            "K": mod.K, "classes": entries, "ok": ok}


# --- cup product and its vector-field restriction -----------------------------

def gelfand_fuchs_omega(a, b):
    """omega(x^a, x^b) = (x^a)'(x^b)'' - (x^b)'(x^a)'' = ab(b-a) x^{a+b-3}."""
    return Fraction(a * b * (b - a))


_SL2_FIELDS = {0: ("X", Fraction(1)), 1: ("H", Fraction(-1)),
               2: ("Y", Fraction(-1))}


def gelfand_fuchs_check(k):
    """Certify Omega_k and extract its restriction constant C_k.

    Omega_k = f_k v h_{-k/2} must be an exact 2-cocycle, and on the
    contact fields of 1, x, x^2 (identified with X, -H, -Y) its values
    must equal C_k * omega(f,g) * (k dtheta dx^{k-1} - (k+1) theta dx^k)
    for a single constant C_k. Returns (report, Omega_k).
    """
    f, _ = make_f_k(k)
    h, _ = make_h_lambda(Fraction(-k, 2))
    omega = cup(f, h)
    if not coboundary(omega).is_zero():
        raise NotACocycle(f"cup product Omega_{k} is not a cocycle")
    target = OpPoly({(0, 0, 1, k - 1): Fraction(k)}) if k else OpPoly()
    target = target + OpPoly({(0, 1, 0, k): Fraction(-(k + 1))})
    c_k = None
    for a in range(3):
        for b in range(3):
            gen_a, sign_a = _SL2_FIELDS[a]
            gen_b, sign_b = _SL2_FIELDS[b]
            value = omega.evaluate((gen_a, gen_b))
            op = to_oppoly(value).scale(sign_a * sign_b)
            expected_scale = gelfand_fuchs_omega(a, b)
            if expected_scale == 0:
                if not op.is_zero():
                    raise NotProportional(
                        f"Omega_{k}(X_{{x^{a}}}, X_{{x^{b}}}) should vanish")
                continue
            scaled_target = target.scale(expected_scale)
            ratios = {key: op.terms.get(key, Fraction(0)) / c
                      for key, c in scaled_target.terms.items()}
            if len(set(ratios.values())) != 1 or \
                    set(op.terms) - set(scaled_target.terms):
                raise NotProportional(
                    f"Omega_{k} value is not a multiple of the target")
            ratio = ratios.popitem()[1]
            if c_k is None:
                c_k = ratio
            elif c_k != ratio:
                raise NotProportional(
                    f"no single constant works for Omega_{k}")
    printed = Fraction(-(-1) ** k)
    return {
        "k": k,
        "C_k": str(c_k),
        "printed_constant": str(printed),
        "ratio_to_printed": str(c_k / printed),
        "cup_sign_variant": "printed",
        "omega_is_cocycle": True,
        "target": op_str(target),
    }, omega


# --- audit wiring -------------------------------------------------------------

def run_audit(printed=None):
    """Audit the printed bracket table against Jacobi + the module axiom.

    The module axiom is checked on one module, built once, whose
    stencils every candidate table reads.
    """
    printed = printed if printed is not None else algebra.printed_table()
    mod = TruncatedDlm(Fraction(1, 3), Fraction(1, 3), 2)
    return algebra.audit_and_repair(
        printed, lambda table: module_axiom_holds(mod, table))


# --- reports ------------------------------------------------------------------

class CohomologyReport:
    def __init__(self, lam, mu, K, nmax, computed, theorem, proposition,
                 match):
        self.lam = lam                  # Fraction
        self.mu = mu                    # Fraction
        self.K = K
        self.nmax = nmax
        self.computed = computed        # {n: {w: DimCount}}
        self.theorem = theorem          # {n: int}
        self.proposition = proposition  # {n: int}
        self.match = match

    def to_json(self):
        return {
            "lambda": str(self.lam),
            "mu": str(self.mu),
            "K": self.K,
            "computed": {
                str(n): {str(w): dc.to_json()
                         for w, dc in sorted(row.items())}
                for n, row in sorted(self.computed.items())
            },
            "theorem": {str(n): d for n, d in sorted(self.theorem.items())},
            "proposition": {str(n): d
                            for n, d in sorted(self.proposition.items())},
            "match": self.match,
        }

    def csv_rows(self):
        rows = []
        for n, row in sorted(self.computed.items()):
            for w, dc in sorted(row.items()):
                rows.append({
                    "lambda": str(self.lam),
                    "mu": str(self.mu),
                    "K": self.K,
                    "n": n,
                    "w": str(w),
                    "total": dc.total,
                    "even": dc.even,
                    "odd": dc.odd,
                    "theorem": self.theorem.get(n, 0) if w == 0 else 0,
                    "proposition": self.proposition.get(n, 0)
                    if w == 0 else 0,
                    "match": self.match,
                })
        return rows


CSV_FIELDS = ("lambda", "mu", "K", "n", "w", "total", "even", "odd",
              "theorem", "proposition", "match")


def zero_piece(lam, mu):
    """The Casimir's zero piece of D_{lam,mu}, or None when it is 0.

    The Casimir z = H^2 + XY + AB/2 - H/2 is central, so it acts on
    H(g; M) = Ext_{U(g)}(k, M) through M as through the trivial module,
    by eps(z) = 0 (Weibel 1994, 7.8; Fuks 1986, ch. 1). It never raises
    k, and within one k its diagonal is (k - p)(k - p + 1/2) on a and c
    and (k - p + 1)(k - p + 1/2) on b and d. The action's coefficients
    are affine in (m, k, lam, p), so these are polynomial identities,
    and the tier-1 test
    `test_casimir_is_triangular_in_k_with_the_proven_diagonal` proves
    them for every (lam, mu) on a finite grid. Where no diagonal entry
    is 0, z is invertible on every weight slice, so H = 0 there: on the
    submodule below the piece and on the quotient of D^{<=K} above it.
    The long exact sequences then give
    H(D^{<=K}) = H(piece) for every K >= p, the piece being
    D^{<=p}/D^{<=p-2} for an integer p >= 0, D^{<=p-1/2}/D^{<=p-3/2} for
    a half-integer p > 0, and 0 otherwise.
    """
    p = Fraction(mu) - Fraction(lam)
    if p < 0 or (2 * p).denominator != 1:
        return None
    K = math.floor(p)
    return TruncatedDlm(lam, mu, K, max(K - 2 if K == p else K - 1, -1))


def build_report(lam, mu, K=None, nmax=NMAX_DEFAULT, wmax=WMAX_DEFAULT):
    """Brute-force dims vs predictions for one (lambda, mu).

    Weight 0 is computed for n <= nmax; nonzero weights in the window
    only for n <= 2 (they must all vanish). The predictions, and the
    report's K, are on D^{<=guard_K}, as the closed-form comparison needs.
    The dims are those of the Casimir's zero piece (`zero_piece`), 0 and
    with no complex built when it is 0.
    """
    lam, mu = Fraction(lam), Fraction(mu)
    K_eff = guard_K(lam, mu, K)
    mod = TruncatedDlm(lam, mu, K_eff)
    theorem = predict_theorem(mod, nmax)
    proposition = predict_proposition(lam, mu, nmax)
    piece = zero_piece(lam, mu)
    # the window in integer offsets j = 2w from the weight-0 slice t0
    t0 = mod.twice_shifted(0)
    computed = {n: {} for n in range(nmax + 1)}
    match = theorem == proposition
    zero = DimCount(0, 0, 0)
    m = int(2 * Fraction(wmax))
    for j in range(-m, m + 1):
        w = Fraction(j, 2)
        for n in range((nmax if j == 0 else min(nmax, 2)) + 1):
            dc = zero if piece is None else twice_h_dim(piece, n, t0 + j)
            computed[n][w] = dc
            match &= dc.total == (theorem[n] if j == 0 else 0)
    return CohomologyReport(lam, mu, K_eff, nmax, computed, theorem,
                            proposition, match)


def _report_worker(args):
    lam, mu, K, nmax, wmax = args
    return build_report(lam, mu, K, nmax, wmax)


def grid_reports(pairs, K=None, nmax=NMAX_DEFAULT, wmax=WMAX_DEFAULT,
                 threads=1):
    """Reports over a list of (lambda, mu) pairs, serially by default.

    More workers than points or CPUs are never started. Results are
    identical regardless of worker count (pure block computations). The
    process pool, and with it `multiprocessing`, is imported only when a
    pool starts, so a serial run never loads it.
    """
    jobs = [(Fraction(l), Fraction(m), K, nmax, wmax) for l, m in pairs]
    threads = min(threads, os.cpu_count() or 1, len(jobs))
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(_report_worker, jobs))
    return [_report_worker(j) for j in jobs]


# --- self-test suites ----------------------------------------------------------

def _random_cochain(mod, degree, parity, rng, *, universe=GENS,
                    weights=(Fraction(0), Fraction(1, 2), Fraction(-1))):
    """A cochain of parity `parity` with random small rational values at
    the cochain weights `weights`, drawn from `rng` monomial by monomial.

    A weight w holds cochains of the parity t mod 2 of t = 2(w + p)
    only, on the slices t + 2 wt(u); the other weights are skipped.
    """
    ts = [t for t in map(mod.twice_shifted, weights)
          if t is not None and t % 2 == parity]
    vals = {}
    for u, (_, w2) in _graded_monomials(degree, universe).items():
        for t in ts:
            for bv in mod.slice(t + w2):
                if rng.random() < 0.3:
                    c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    if c:
                        vals.setdefault(u, {})[bv] = c
    return Cochain(mod, degree, parity, vals, universe)


def _realized_image(mod, gen, bv, consts, D):
    """D * gen.bv by the realization oracle, as {BasisVector: int}, or
    None when a coefficient is not in (1/D)Z.

    The oracle's numerators (`derived_module_action`) are mapped to the
    basis in integers (`from_oppoly`), multiplied by D and divided by
    the oracle's denominator with divmod: a remainder refuses, and
    nothing is rounded. Of the table it reads only D.
    """
    ints, den = derived_module_action(gen, to_oppoly({bv: Fraction(1)}),
                                      mod.lam, mod.mu, consts)
    out = {}
    for v, c in from_oppoly(ints, mod).items():
        q, r = divmod(D * c, den)
        if r:
            return None
        out[v] = q
    return out


SELFTEST_SUITES = ("algebra", "module", "complex", "oracle", "all")


def selftest(suite="all"):
    """Run an invariant suite; returns a list of (name, ok, detail).

    The random cochains come from a fixed seed, so the output is
    deterministic. An unknown suite name raises ValueError rather than
    passing empty. A suite that raises, say when a broken action leaves
    the audit no repair or a cocycle template no solution, ends in the
    failed check `<suite>-suite-ran`, whose detail is the error's line.
    """
    if suite not in SELFTEST_SUITES:
        raise ValueError(f"unknown selftest suite {suite!r}")
    import random
    rng = random.Random(20240917)
    results = []

    def check(name, ok, detail=""):
        results.append((name, bool(ok), detail))

    table = adopted_table()
    printed = algebra.printed_table()

    def algebra_suite():
        fails = printed.jacobi_failures()
        check("printed-table-fails-jacobi",
              any(t == ("A", "A", "B") for t, _ in fails),
              f"{len(fails)} failing triples")
        check("adopted-table-jacobi", table.is_jacobi())
        check("adopted-antisymmetry", table.check_antisymmetry())
        check("adopted-weights", table.check_weights())
        report = run_audit()
        check("audit-finds-repaired-V",
              report.table == table and report.variant == "repaired-V",
              str(report.changes))
        check("monomial-counts",
              [len(algebra.monomial_basis(n)) for n in range(4)]
              == [1, 5, 12, 20])

    def module_suite():
        for lam, mu in ((Fraction(1, 3), Fraction(1, 3)),
                        (Fraction(0), Fraction(1, 2))):
            mod = TruncatedDlm(lam, mu, 3)
            check(f"module-axiom-{lam}-{mu}", module_axiom_holds(mod, table))
            check(f"a-onto-{lam}-{mu}", mod._a_onto_scan())

    def oracle_suite():
        consts = solve_realization_constants(table)
        check("realization-constants",
              (consts.cH, consts.cX, consts.cY, consts.cA, consts.cB)
              == (-1, 1, -1, 2, 2), str(consts))
        # the stencil rows every complex is built on (X and Y composed
        # in integers), read in the basis, must be D times the oracle's
        # commutator action
        mod = TruncatedDlm(Fraction(-1, 2), Fraction(1), 3)
        D = action_scale(mod)

        def row(g, bv):
            t = mod.twice_shifted_weight(bv)
            target = list(mod.slice(t + TWICE_WEIGHT[g]))
            return {target[i]: x
                    for i, x in mod.stencil(g, t)[mod.slice(t)[bv]]}

        check("table-action-equals-realization", all([
            row(g, bv) == _realized_image(mod, g, bv, consts, D)
            for g in GENS for bv in product("abcd", range(3), range(3))]))

    def complex_suite():
        mod = TruncatedDlm(Fraction(0), Fraction(1, 2), 3)
        check("d-squared-zero-random", all([
            coboundary(coboundary(_random_cochain(mod, n, q, rng))).is_zero()
            for n in (0, 1, 2) for q in (0, 1)]))
        f = _random_cochain(mod, 2, 1, rng)
        g, f_red = reduce_cochain(f)
        check("reduce-produces-reduced", is_reduced(f_red))
        check("reduce-difference-is-coboundary",
              f.sub(f_red).sub(coboundary(g)).is_zero())
        hcoc, _ = make_h_lambda(Fraction(1))
        check("h-lambda-cocycle", coboundary(hcoc).is_zero())
        fk, _ = make_f_k(1)
        ftk, _ = make_ftilde_k(1)
        check("f-k-cocycle", coboundary(fk).is_zero())
        check("ftilde-k-cocycle", coboundary(ftk).is_zero())

    for name, run in (("algebra", algebra_suite), ("module", module_suite),
                      ("oracle", oracle_suite), ("complex", complex_suite)):
        if suite in (name, "all"):
            try:
                run()
            except Exception as e:
                check(f"{name}-suite-ran", False, f"{type(e).__name__}: {e}")
    return results
