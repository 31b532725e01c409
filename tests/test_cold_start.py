"""A serial run loads neither the process pool nor `dataclasses`.

Each check starts a fresh interpreter, since this one has imported
much more than the program does. A cold `ospcoho dims` point computes
in about 10 ms and its start-up is most of its cost, so a module that
only the pool uses is imported where the pool starts (`grid_reports`).
"""

import json
import os
import pathlib
import subprocess
import sys

import ospcoho

SRC = pathlib.Path(ospcoho.__file__).resolve().parent.parent
# modules that no serial run uses: the process pool and what it loads,
# and the class generator, which no class of the program uses
UNUSED = ("concurrent", "multiprocessing", "dataclasses")

SERIAL = """
import json, sys
from ospcoho import cli
code = cli.main(["dims", "--lambda", "0", "--mu", "1/2", "--nmax", "2",
                 "--wmax", "1/2", "--threads", "1", "--out", sys.argv[1]])
print(json.dumps({"code": code, "loaded": sorted(sys.modules)}))
"""

POOLED = """
import json, os, sys
from fractions import Fraction
from ospcoho import engine
os.cpu_count = lambda: 2        # a pool of two on any machine
pairs = [(Fraction(0), Fraction(1, 2)), (Fraction(1, 3), Fraction(0))]
pooled = [r.to_json() for r in engine.grid_reports(pairs, nmax=2,
                                                   wmax=Fraction(1, 2),
                                                   threads=2)]
loaded = sorted(sys.modules)
serial = [r.to_json() for r in engine.grid_reports(pairs, nmax=2,
                                                   wmax=Fraction(1, 2),
                                                   threads=1)]
print(json.dumps({"loaded": loaded, "agree": pooled == serial,
                  "match": all(r["match"] for r in pooled)}))
"""


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _unused(loaded):
    return [m for m in loaded if m.split(".")[0] in UNUSED]


def test_serial_run_loads_no_pool_and_no_dataclasses(tmp_path):
    out = tmp_path / "dims.json"
    result = _run(SERIAL, str(out))
    assert result["code"] == 0
    assert json.loads(out.read_text())["match"] is True
    assert _unused(result["loaded"]) == []


def test_pooled_run_loads_the_pool_and_agrees_with_serial():
    result = _run(POOLED)
    assert "concurrent.futures.process" in result["loaded"]
    assert "multiprocessing" in result["loaded"]
    assert result["agree"] is True and result["match"] is True
