"""Mutation checks: each mutant of the program must fail its named test.

For each mutant the script copies src/ to a temporary directory, applies
one textual replacement to one file there, and runs the named test
against the copy with pytest. A mutant that is killed makes its test
fail; one whose test still passes survives. The script exits 1 if any
mutant survives or no longer applies (its text is not in the file
exactly once), and 0 when every mutant is killed.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

The file name has no test_ prefix, so pytest does not collect it; CI
runs it as its own step.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
ENGINE = "tests/test_engine.py::"

# (name, file under src/ospcoho, text, replacement, test that must fail)
MUTANTS = (
    # B's coefficient on b -> c perturbed by a polynomial in lambda that
    # vanishes at lambda = 0, 1/3, -1, 1, 5/2, -1/2 and -3/2, where the
    # other tests check the module axiom or the Casimir: only a grid of
    # lambda beyond the table's degree, or its affinity, sees it
    ("b-coefficient-off-the-checked-lambdas", "weightmod.py",
     "            c1 = lam2 + D * k\n",
     "            c1 = lam2 + D * k + int(D * self.lam * (3 * self.lam - 1)\n"
     "                * (self.lam + 1) * (self.lam - 1) * (2 * self.lam - 5)\n"
     "                * (2 * self.lam + 1) * (2 * self.lam + 3))\n",
     "tests/test_weightmod.py::"
     "test_casimir_is_triangular_in_k_with_the_proven_diagonal"),
    # a zero set that drops the root k = p - 1 of an integer p
    ("zero-set-drops-a-root", "engine.py",
     "max(K - 2 if K == p else K - 1, -1)",
     "max(K - 1 if K == p else K - 1, -1)",
     ENGINE + "test_zero_piece_has_the_cohomology_of_the_truncation"),
    # a piece cut one k too shallow
    ("piece-too-shallow", "engine.py",
     "    K = math.floor(p)\n",
     "    K = math.floor(p) - 1\n",
     ENGINE + "test_zero_piece_has_the_cohomology_of_the_truncation"),
    # H^0 counted as dim (ker A)^0 - dim Q instead of by rank-nullity,
    # dim (ker A)^0 - rank B((ker A)^0)
    ("h0-subtracts-the-quotient", "engine.py",
     "    d0 = len(ker0) - (len(kertop) - q)\n",
     "    d0 = len(ker0) - q\n",
     ENGINE + "test_predict_theorem_matches_proposition_on_grid"),
    # (ker g)^0 mapped through the kernel generator's stencil instead of
    # h's: the images vanish, so B((ker A)^0) is counted as 0
    ("prediction-images-through-the-kernel-generator", "engine.py",
     "mod.stencil(image_gen, t0)) if ker0 else []",
     "mod.stencil(kernel_gen, t0)) if ker0 else []",
     ENGINE + "test_predict_theorem_matches_proposition_on_grid"),
    # the rank that class_representatives files from its one reduction
    # of the cleared d_n, one too large
    ("recorded-rank-off-by-one", "cochains.py",
     "    return (len(pivots), len(cols), frozenset(pivots)), out\n",
     "    return (len(pivots) + 1, len(cols), frozenset(pivots)), out\n",
     ENGINE + "test_ranks_filed_by_representatives_equal_fresh_ranks"),
    # the same reduction filed with no pivots: the next degree clears no
    # column, and its kernel takes coboundaries in as classes
    ("recorded-reduction-files-no-pivots", "cochains.py",
     "    return (len(pivots), len(cols), frozenset(pivots)), out\n",
     "    return (len(pivots), len(cols), frozenset()), out\n",
     ENGINE + "test_representatives_only_where_classes_are"),
    # weight chains, and the ranks filed with them, kept in one
    # module-global dict, shared by every module with the same
    # (t, universe)
    ("chains-shared-across-modules", "cochains.py",
     "    chains = mod.chains\n",
     "    chains = _weight_chain.__dict__.setdefault('chains', {})\n",
     ENGINE + "test_zero_piece_has_the_cohomology_of_the_truncation"),
    # every module reads one class-level slice dict
    ("caches-shared-across-modules", "weightmod.py",
     "        self.slices, self.chains,",
     "        self.slices = TruncatedDlm.__init__.__dict__.setdefault(\n"
     "            'slices', {})\n"
     "        _, self.chains,",
     ENGINE + "test_modules_never_share_slices_or_chains"),
    # X = A o A / D and Y = -B o B / D rounded instead of refused when
    # they leave a remainder (`TruncatedDlm._square_stencil`)
    ("square-stencil-rounds", "weightmod.py",
     "                if r:\n",
     "                if False:\n",
     "tests/test_weightmod.py::test_composed_stencil_refuses_a_remainder"),
    # the module axiom checked on the even slices only
    ("axiom-even-slices-only", "weightmod.py",
     "for t in range(-2 * mod.K - 1, 2 * mod.K + 2):",
     "for t in range(-2 * mod.K, 2 * mod.K + 2, 2):",
     "tests/test_weightmod.py::"
     "test_module_axiom_check_reads_the_lowest_slice"),
    # A's image of b_{m,k} scaled by m, so b_{0,k} has none and d_{0,k}
    # no preimage: A is no longer onto, which `check_a_onto` answers by
    # the proof that the new test pins
    ("a-image-of-b-scaled-by-m", "weightmod.py",
     "                return (((\"d\", m, k), D),)\n",
     "                return (((\"d\", m, k), D * m),) if m else ()\n",
     "tests/test_weightmod.py::test_a_stencils_are_a_covering_matching"),
    # B's coefficient on b -> c shifted by D - 2, which is 0 where D = 2
    # (lam and p half-integers), so only a module with a larger scale
    # sees it
    ("b-coefficient-shifted-by-d-minus-2", "weightmod.py",
     "            c1 = lam2 + D * k\n",
     "            c1 = lam2 + D * k + (D - 2)\n",
     "tests/test_weightmod.py::test_the_cut_module_is_the_quotient"),
    # a composition that drops each row's first term
    ("compose-drops-a-term", "weightmod.py",
     "        for j, x in row:\n",
     "        for j, x in row[1:]:\n",
     "tests/test_weightmod.py::"
     "test_composed_stencils_equal_the_fraction_composition"),
    # a slice enumeration without the family shifts: the odd families
    # land at even t and the even ones at odd t, so a slice no longer
    # holds the one parity t mod 2 that every layer above reads off t
    ("slices-ignore-the-family-shift", "weightmod.py",
     "divmod(t - _SHIFT2[f], 2)",
     "divmod(t, 2)",
     "tests/test_weightmod.py::test_a_slice_holds_the_parity_of_its_key"),
    # a stride one smaller than the longest slice: the slice-length check
    # must refuse the slices that no longer fit
    ("stride-one-short", "weightmod.py",
     "self.stride = 2 * (self.K - max(self.K0, -1))",
     "self.stride = 2 * (self.K - max(self.K0, -1)) - 1",
     "tests/test_weightmod.py::test_slices_fit_the_stride"),
    # a Koszul skeleton without the bracket-only terms (gen None)
    ("skeleton-drops-bracket-terms", "cochains.py",
     "            if sign or coeff:\n",
     "            if sign:\n",
     ENGINE + "test_delta_block_equals_the_per_block_reference"),
    # a cup product of two cocycles returned without certifying that it
    # is a cocycle
    ("cup-certification-skipped", "cochains.py",
     "    if (coboundary(f).is_zero() and coboundary(h).is_zero()\n"
     "            and not coboundary(result).is_zero()):\n"
     "        raise NoCocycle(\"the cup product of two cocycles is not a "
     "cocycle\")\n",
     "",
     "tests/test_cochains.py::"
     "test_cup_of_cocycles_that_is_not_a_cocycle_raises"),
    # a primitive's target rows chosen by the monomial of the slice
    # position r % S instead of the monomial place r // S of the stride
    # index r
    ("primitive-target-reads-the-position", "cochains.py",
     "target(monomials[r // S])",
     "target(monomials[r % S])",
     ENGINE + "test_stride_solves_equal_the_positional_reference"),
    # the Jacobi expansion's third sum, -[u,[v,w]], added with its sign
    # dropped: the one evaluator then disagrees with the Fraction defect
    ("jacobi-third-sum-unsigned", "algebra.py",
     "((v, w), (u, g), h, -c * d)",
     "((v, w), (u, g), h, c * d)",
     "tests/test_algebra.py::test_integer_jacobi_equals_fraction_defect"),
    # the dtheta o theta cross term of the integer composition, the
    # -theta dtheta of dtheta theta = 1 - theta dtheta, added with its
    # sign flipped
    ("compose-cross-term-sign-flipped", "superdiff.py",
     "cross = ((1, 1, -1),)",
     "cross = ((1, 1, 1),)",
     "tests/test_superdiff.py::test_compose_equals_the_fraction_reference"),
    # the zeroth-order part of an operator read with its dtheta terms:
    # eta(G) keeps the terms of eta o G that end in dtheta, and every
    # contact field built on it changes
    ("zeroth-order-part-keeps-dtheta-terms", "superdiff.py",
     "if not e2 and not k",
     "if not k",
     "tests/test_superdiff.py::test_zeroth_order_part_is_the_application"),
    # a failed exact check that escapes the CLI as a traceback
    ("cli-lets-a-mismatch-escape", "cli.py",
     "    except Mismatch as exc:\n"
     "        print(f\"ospcoho {args.command}: {exc}\", file=sys.stderr)\n"
     "        return EXIT_MISMATCH\n",
     "",
     "tests/test_cli.py::test_failed_checks_exit_1_with_one_line"),
    # a module method that nothing in the program calls
    ("module-gains-an-uncalled-method", "weightmod.py",
     "    def scaled_act_basis(self, gen, bv):\n",
     "    def parameters(self):\n"
     "        return self.lam, self.mu, self.K, self.K0\n\n"
     "    def scaled_act_basis(self, gen, bv):\n",
     "tests/test_reachability.py::test_the_program_enters_every_function"),
)


def run(name, path, text, replacement, test):
    """True when the mutant is killed; prints one line either way."""
    with tempfile.TemporaryDirectory(prefix="ospcoho-mutant-") as tmp:
        src = pathlib.Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "ospcoho" / path
        code = target.read_text(encoding="utf-8")
        if code.count(text) != 1:
            print(f"{name}: does not apply, {text!r} is not in {path} "
                  f"exactly once")
            return False
        target.write_text(code.replace(text, replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src),
                   PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x",
             "-p", "no:cacheprovider", test],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
    # pytest exits 1 when a test failed; any other code is no verdict
    killed = done.returncode == 1
    print(f"{name}: {'killed' if killed else 'SURVIVED'} by {test} "
          f"(pytest exit {done.returncode})")
    return killed


def main(names):
    known = {m[0] for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    results = [run(*m) for m in chosen]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
