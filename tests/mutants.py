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
    # the Casimir's XY coefficient 2 -> 3 in 2 D^2 z: z no longer
    # commutes with A and B, nor has the proven diagonal
    ("casimir-coefficient", "weightmod.py",
     "row[k] = row.get(k, 0) + 2 * x",
     "row[k] = row.get(k, 0) + 3 * x",
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
    # a primitive's target rows chosen by the monomial of the slice
    # position r % S instead of the monomial place r // S of the stride
    # index r
    ("primitive-target-reads-the-position", "cochains.py",
     "target(monomials[r // S])",
     "target(monomials[r % S])",
     ENGINE + "test_stride_solves_equal_the_positional_reference"),
    # a failed exact check that escapes the CLI as a traceback
    ("cli-lets-a-mismatch-escape", "cli.py",
     "    except Mismatch as exc:\n"
     "        print(f\"ospcoho {args.command}: {exc}\", file=sys.stderr)\n"
     "        return EXIT_MISMATCH\n",
     "",
     "tests/test_cli.py::test_failed_checks_exit_1_with_one_line"),
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
