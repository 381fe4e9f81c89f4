"""Smoke test: each Python demo runs to completion in a fresh interpreter."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tarpreg

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0[1-4]_*.py"))


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(tarpreg.__file__).parents[1]))
    out = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr


def test_cli_workflow_demo_exits_zero(tmp_path):
    # the shell demo calls `tarpreg`; a shim on PATH runs the module from this checkout
    shim = tmp_path / "tarpreg"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m tarpreg.cli "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, PYTHONPATH=str(Path(tarpreg.__file__).parents[1]),
               PATH=f"{tmp_path}{os.pathsep}{os.environ.get('PATH', '')}")
    demo = Path(__file__).resolve().parents[1] / "demos" / "05_cli_workflow.sh"
    out = subprocess.run(["bash", str(demo)], env=env, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
