import ast
import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import sanovdual
from oracles import sequential_expect
from sanovdual.laws import (EmpiricalLaw, FiniteSupportLaw, LogNormalLaw,
                            ParetoLaw, StudentTLaw)
from sanovdual.montecarlo import rate_fit


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


def test_finite_expect_is_the_weighted_sum():
    atoms, weights = [-1.0, 0.5, 2.0], [0.3, 0.5, 0.2]
    law = FiniteSupportLaw(np.array(atoms), np.array(weights))
    assert law.dim == 1
    want = [sum(w * a for a, w in zip(atoms, weights)),
            sum(w * a ** 3 for a, w in zip(atoms, weights))]
    got = law.expect(lambda x: np.stack([x, x ** 3]))
    assert np.allclose(got, want, rtol=1e-15, atol=0.0)
    assert law.expect(np.abs) == pytest.approx(
        sum(w * abs(a) for a, w in zip(atoms, weights)), rel=1e-15)


def test_finite_expect_in_two_dimensions():
    atoms = [(1.0, -2.0), (0.5, 3.0), (-1.5, 0.25)]
    weights = [0.2, 0.3, 0.5]
    law = FiniteSupportLaw(np.array(atoms), np.array(weights))
    assert law.dim == 2
    # one row per coordinate, then their product
    want = [sum(w * a[0] for a, w in zip(atoms, weights)),
            sum(w * a[1] for a, w in zip(atoms, weights)),
            sum(w * a[0] * a[1] for a, w in zip(atoms, weights))]
    got = law.expect(lambda x: np.vstack([x.T, x[:, 0] * x[:, 1]]))
    assert np.allclose(got, want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("shape", [(7,), (7, 3)])
def test_empirical_expect_is_the_sample_mean(shape):
    samples = np.random.default_rng(3).normal(size=shape)
    law = EmpiricalLaw(samples)
    assert law.dim == (1 if len(shape) == 1 else shape[1])
    if len(shape) == 1:
        assert law.expect(np.exp) == np.mean(np.exp(samples))
    else:
        assert law.expect(lambda x: x[:, 0] * x[:, 1] - x[:, 2]) == \
            np.mean(samples[:, 0] * samples[:, 1] - samples[:, 2])


@pytest.mark.parametrize("law", [ParetoLaw(2.5), ParetoLaw(3.0, False),
                                 StudentTLaw(4.0), LogNormalLaw(0.5)],
                         ids=repr)
def test_density_expect_matches_sequential_quadrature(law):
    # A kinked integrand whose kink is passed as a break point.
    kink = 0.5

    def fn(x):
        return np.maximum(x - kink, 0.0) ** 1.5 + np.abs(x) ** 0.5
    assert law.dim == 1
    got = law.expect(fn, breaks=(kink,))
    want, _ = sequential_expect(law.pdf, *law.support, fn, (kink,),
                                centre=law.centre)
    assert abs(got - want) <= 1e-14 * abs(want)


# scipy.stats and scipy.special would double the time of a fresh
# `import sanovdual.cli`, so only a Student t density and the tail-rate fit
# may load scipy.special, and nothing loads scipy.stats.  Each check below
# runs in a fresh interpreter, where nothing has imported scipy yet.

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_fresh(code: str) -> str:
    src = str(Path(sanovdual.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_leaves_out_scipy():
    # No scipy module at all, so neither scipy.stats nor scipy.special.
    out = run_fresh("import sys, sanovdual.cli; "
                    "print([m for m in sys.modules if m.split('.')[0] "
                    "== 'scipy'])")
    assert out.strip() == "[]"


@pytest.mark.parametrize("command, config", [
    ("sanov", "sanov_classical.json"),
    ("superhedge", "superhedge_power2.json"),
    ("rho", "rho_shortfall_power2.json"),
    ("transport", "transport_longrun.json"),
    ("cramer", "cramer_small.json"),
])
def test_run_leaves_out_scipy_special(tmp_path, command, config):
    argv = [command, "--config", str(CONFIGS / config),
            "--out", str(tmp_path / "out")]
    out = run_fresh("import sys; from sanovdual.cli import main; "
                    f"code = main({argv!r}); "
                    "print(code, 'scipy.special' in sys.modules)")
    assert out.splitlines()[-1].split() == ["0", "False"]


@pytest.mark.parametrize("call", [
    "StudentTLaw(3.0).pdf(np.linspace(-50.0, 50.0, 101)).tolist()",
    "astuple(rate_fit([10, 20, 40, 80], [0.1, 0.04, 0.02, 0.006]))",
], ids=["student_t_pdf", "rate_fit"])
def test_lazy_scipy_call_matches_in_process(call):
    out = run_fresh("import sys\nfrom dataclasses import astuple\n"
                    "import numpy as np\n"
                    "from sanovdual.laws import StudentTLaw\n"
                    "from sanovdual.montecarlo import rate_fit\n"
                    "assert 'scipy.special' not in sys.modules\n"
                    f"print(repr({call}))")
    scope = {"np": np, "StudentTLaw": StudentTLaw, "astuple": astuple,
             "rate_fit": rate_fit}
    assert ast.literal_eval(out) == eval(call, scope)
