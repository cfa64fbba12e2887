"""Every demo runs to completion: the Python ones through the public API,
the shell one through the ``credo`` command."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))
CLI_DEMO = ROOT / "demos" / "06_cli_workflow.sh"


def _env(extra_path=()):
    src = str(ROOT / "src")
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        "PATH": os.pathsep.join([*extra_path, os.environ.get("PATH", "")]),
    }


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=_env(), capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr[-2000:]


def test_cli_demo_exits_zero(tmp_path):
    # a `credo` on PATH that runs this checkout's package with this interpreter
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "credo"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m credo "$@"\n')
    shim.chmod(0o755)
    done = subprocess.run(
        ["bash", str(CLI_DEMO)], cwd=tmp_path, env=_env([str(bin_dir)]),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert (tmp_path / "demo_out" / "replay" / "explanations" / "morris.csv").is_file()
