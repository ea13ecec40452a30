from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import powerperm

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, *argv: str) -> subprocess.CompletedProcess:
    src = str(Path(powerperm.__file__).resolve().parent.parent)
    extra = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + extra if extra else ""))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def test_cycle_survey_small_grid():
    proc = run_script("cycle_survey.py", "--primes", "3", "--nmax", "2",
                      "--size-cap", "27")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "p,n,l,r,size,cycles,fixed,longest,order\n"
        "3,1,1,1,3,3,3,1,1\n"
        "3,1,2,1,9,9,9,1,1\n"
        "3,1,3,1,27,27,27,1,1\n"
        "3,1,1,2,3,3,3,1,1\n"
        "3,1,2,2,9,9,9,1,1\n"
        "3,1,3,2,27,27,27,1,1\n"
        "3,2,1,1,3,2,1,2,2\n"
        "3,2,2,1,9,3,1,6,6\n"
        "3,2,3,1,27,4,1,18,18\n"
        "3,2,1,2,3,1,0,3,3\n"
        "3,2,2,2,9,3,0,3,3\n"
        "3,2,3,2,27,3,0,9,9\n"
    )


def test_scatter_figures_digests(tmp_path):
    proc = run_script("scatter_figures.py", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        f"{tmp_path / 'scatter_2_2_16.csv'}: 65536 rows sha256="
        "a48f0dd45be754021af777c5d5e36485fa6dceeccc4ee661ef89d8973d422392\n"
        f"{tmp_path / 'scatter_2_3_15.csv'}: 32768 rows sha256="
        "0eadd809b43f0b9f86461add6c7c3080b6e469804769aa967b48449a9fbb8daa\n"
    )
