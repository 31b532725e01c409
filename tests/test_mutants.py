"""The mutants of tests/mutants.py still apply to src/ospcoho.

`python tests/mutants.py` refuses a mutant whose text is not in its file
exactly once. This test reads the same table without running a mutant
or starting a process, so a refactor that moves a mutant's text fails
here at once.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _mutants():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tests" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_mutant_applies_once_and_names_a_test():
    mutants = _mutants()
    assert len({name for name, *_ in mutants}) == len(mutants)
    for name, path, text, _, test in mutants:
        code = (ROOT / "src" / "ospcoho" / path).read_text(encoding="utf-8")
        assert code.count(text) == 1, name
        test_file, _, test_name = test.partition("::")
        tests = (ROOT / test_file).read_text(encoding="utf-8")
        assert f"\ndef {test_name}(" in tests, name
