import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import sanovdual
from sanovdual.laws import LogNormalLaw, StudentTLaw


@pytest.mark.parametrize("sigma", [0.3, 0.5, 0.8, 1.2])
def test_lognormal_pdf_matches_scipy(sigma):
    law = LogNormalLaw(sigma)
    x = np.geomspace(1e-3, 1e3, 2001) - law.shift
    ref = stats.lognorm(s=sigma).pdf(x + law.shift)
    assert np.all(np.abs(law.pdf(x) - ref) <= 1e-12 * ref)


@pytest.mark.parametrize("df", [1.5, 3.0, 5.0, 30.0])
def test_student_t_pdf_matches_scipy(df):
    x = np.sinh(np.linspace(-10.0, 10.0, 2001))
    ref = stats.t(df).pdf(x)
    assert np.all(np.abs(StudentTLaw(df).pdf(x) - ref) <= 1e-12 * ref)


def test_cli_import_leaves_out_scipy_stats():
    src = str(Path(sanovdual.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, sanovdual.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
