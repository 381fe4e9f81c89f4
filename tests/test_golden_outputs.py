"""Every command's data outputs at tiny shapes match tests/data/golden_outputs.json.

Shapes, headers and every value that is not a number must match exactly, and
numbers to a relative 1e-10.  The file digests are printed but not asserted:
another BLAS build may move the last bit of a number.  A change that moves an
output regenerates the file with ``python scripts/golden_outputs.py``.
"""
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RTOL = 1e-10


def _script():
    spec = importlib.util.spec_from_file_location("golden_outputs",
                                                  ROOT / "scripts" / "golden_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_golden_file(tmp_path):
    golden = _script()
    want = json.loads(golden.GOLDEN.read_text())
    got = golden.collect(tmp_path)
    moved = golden.compare(want, got)
    for name in sorted(got):
        print(f"{got[name]['sha256'][:16]} {name}" + ("  (digest moved)" if name in moved else ""))
    problems = {name: (change, notes) for name, (change, notes) in moved.items()
                if notes or change > RTOL}
    assert not problems, f"outputs differ from {golden.GOLDEN.name}: {problems}"
