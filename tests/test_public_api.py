"""Every public function has a caller outside the tests: another tarpreg
module, a demo, a script, the benchmark harness, or the acceptance gate.
A function only unit tests call is not part of the API.  Classes are exempt:
they are the functions' return types.  Likewise every backend, aggregation
and simulation scheme is named by a demo, a script, the benchmark harness or
the acceptance gate."""
import inspect
import re
from pathlib import Path

import tarpreg
from tarpreg.ensemble import AGGREGATIONS, BACKENDS
from tarpreg.simulate import SCHEMES

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tarpreg"


def _callers():
    files = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    for folder in ("demos", "scripts", "perfbench"):
        files += [path for path in (ROOT / folder).rglob("*") if path.suffix in (".py", ".sh")]
    return {path: path.read_text(encoding="utf-8") for path in files}


def _acceptance_imports():
    source = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    blocks = re.findall(r"^from tarpreg[\w.]* import (\([^)]*\)|.*)$", source, re.MULTILINE)
    return set(re.findall(r"\w+", " ".join(blocks)))


def test_every_public_function_has_a_caller_outside_the_tests():
    callers, gate = _callers(), _acceptance_imports()
    unused = []
    for name in tarpreg.__all__:
        obj = getattr(tarpreg, name)
        if not inspect.isfunction(obj):
            continue
        own = PACKAGE / (obj.__module__.rsplit(".", 1)[1] + ".py")
        word = re.compile(rf"\b{name}\b")
        if not (name in gate or any(word.search(text) for path, text in callers.items()
                                    if path != own)):
            unused.append(name)
    assert not unused, f"public functions that only tests call: {unused}"


def test_every_backend_aggregation_and_scheme_has_a_caller_outside_the_tests():
    # golden_outputs.py names every value on purpose, so it is no caller
    files = [*(ROOT / "demos").glob("*.*"),
             *(path for path in (ROOT / "scripts").glob("*.py")
               if path.name != "golden_outputs.py"),
             *(path for path in (ROOT / "perfbench").iterdir()
               if path.suffix in (".py", ".conf") and not path.name.startswith("test_")),
             ROOT / "tests" / "test_acceptance.py"]
    text = "\n".join(path.read_text(encoding="utf-8") for path in files)
    # a whole token: "ris-rp" inside "sparse-ris-rp" does not count
    unused = [value for value in (*BACKENDS, *AGGREGATIONS, *SCHEMES)
              if not re.search(rf"(?<![\w-]){re.escape(value)}(?![\w-])", text)]
    assert not unused, f"values that no demo, script, benchmark or gate names: {unused}"
