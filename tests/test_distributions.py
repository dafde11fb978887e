import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.special import chdtrc, chdtri
from scipy.stats import chi2, ncx2

import mqrank
from helpers import contour_rule_gaps, make_dataset, mixture_grid
from mqrank import (HypothesisSubset, QuantileSpec, WeightedChiSquareMixture,
                    WeightingMatrix, analytic_power, bridge_covariance,
                    chisq_noncentral_upper, chisq_upper, closed_test,
                    distributions, imhof_upper, mixture_quantile,
                    score_state, upper_tails)
from mqrank.distributions import _certified_upper, chisq_quantile
from mqrank.exceptions import QuadratureFailure
from mqrank.rankscore import SubsetPlan, mixture_weights

# Monte Carlo oracle values, frozen from 1e7-draw runs (helpers/oracle
# draws with numpy Philox-family generators, seed 20260809); each entry
# is (estimate, standard error).
MC_NCX2_K2_Z8_AT_5991 = (0.7175106, 0.000142)
MC_MIX_25_125_AT_05 = (0.2574601, 0.000138)
MC_MIX_25_125_Q95 = (1.157131, 0.00057)
MC_NCMIX_3Z3_15Z1_AT_2 = (0.2705645, 0.000141)

# imhof_upper's quadrature budgets keep its p-value error below 1e-10, and
# the contour rule returns 0 only where its tail is below 1e-12
RULE_TOL = 1e-9
# the contour rule is accepted only where N = 16 and N = 20 agree this well
CONTOUR_TOL = 1e-10


def test_chisq_upper_canonical_quantiles():
    assert chisq_upper(3.841, 1) == pytest.approx(0.05, abs=1e-3)
    assert chisq_upper(5.991, 2) == pytest.approx(0.05, abs=1e-3)
    assert chisq_upper(0.0, 3) == 1.0


def test_chisq_closed_forms_equal_scipy_stats_exactly():
    rng = np.random.default_rng(31)
    xs = np.concatenate([[-5.0, -1e-12, 0.0, 1e-300, 1e-8, 1e3],
                         rng.exponential(8.0, 200)])
    alphas = np.concatenate([[1e-15, 1e-9, 0.05, 0.5, 1.0 - 1e-9],
                             rng.random(200)])
    for k in range(1, 16):
        for x in xs:
            assert chisq_upper(float(x), k) == float(chi2.sf(x, k))
        for alpha in alphas:
            assert chisq_quantile(float(alpha), k) == float(chi2.isf(alpha, k))


def test_chisq_quantile_rejects_alpha_outside_unit_interval():
    for alpha in (0.0, 1.0, 1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match="alpha must be in"):
            chisq_quantile(alpha, 3)


def test_chisq_noncentral_matches_scipy_stats_on_grid():
    xs = np.concatenate([[1e-6, 0.01], np.linspace(0.1, 60.0, 40)])
    for k in range(1, 16):
        for zeta in (0.0, 1e-8, 0.1, 1.0, 5.0, 12.5, 30.0, 50.0):
            got = np.array([chisq_noncentral_upper(float(x), k, zeta) for x in xs])
            assert np.max(np.abs(got - ncx2.sf(xs, k, zeta))) <= 1e-12


def _fresh_stdout(code, **env):
    """The last line that a fresh interpreter prints when it runs `code`,
    with `env` over this process's environment; None unsets a name."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(mqrank.__file__)),
               **env)
    env = {name: value for name, value in env.items() if value is not None}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def _loaded_after(code, modules):
    """The entries of `modules` loaded after a fresh interpreter runs `code`."""
    return _fresh_stdout(
        f"import sys\n{code}\nprint([m for m in {modules!r} if m in sys.modules])")


def _numpy_ma_if_lazy():
    """["numpy.ma"] where a bare `import numpy` leaves it unloaded, as
    numpy 2 does; numpy 1.x imports it in its own init."""
    return ["numpy.ma"] if _loaded_after("import numpy", ["numpy.ma"]) == "[]" else []


def test_import_leaves_scipy_stats_unloaded():
    # nor the process pool, which only run_monte_carlo imports, nor the
    # parts of scipy that only an LP solve needs, nor scipy.special's
    # package init and what its array-API support loads
    unloaded = ["scipy.stats", "multiprocessing", "concurrent.futures.process",
                "scipy.optimize", "scipy.sparse", "scipy.linalg",
                "scipy.special", "scipy._lib._array_api", "numpy.f2py",
                "numpy.testing"]
    assert _loaded_after("import mqrank, mqrank.cli", unloaded) == "[]"


def test_import_loads_no_numpy_and_no_submodule():
    code = ("import sys, mqrank\n"
            "print([m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')\n"
            "       or m.startswith('mqrank.')])")
    assert _fresh_stdout(code) == "[]"


def test_every_public_name_is_its_submodules_object():
    code = ("import sys, mqrank\n"
            "owners = {n: getattr(mqrank, n).__module__ for n in mqrank.__all__}\n"
            "print(len(owners), all(o.startswith('mqrank.') and\n"
            "      getattr(mqrank, n) is getattr(sys.modules[o], n)\n"
            "      for n, o in owners.items()))")
    assert _fresh_stdout(code) == f"{len(mqrank.__all__)} True"


def test_star_import_binds_all_public_names():
    code = ("from mqrank import *\n"
            "import mqrank\n"
            "print(all(globals()[n] is getattr(mqrank, n) for n in mqrank.__all__))")
    assert _fresh_stdout(code) == "True"


def test_submodule_resolves_without_an_explicit_import():
    code = ("import sys, mqrank\n"
            "print(mqrank.simulation is sys.modules['mqrank.simulation'],\n"
            "      mqrank.simulation.run_monte_carlo is mqrank.run_monte_carlo)")
    assert _fresh_stdout(code) == "True True"


def test_unknown_name_raises_attribute_error():
    code = ("import mqrank\n"
            "try:\n"
            "    mqrank.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(exc)")
    assert _fresh_stdout(code) == "module 'mqrank' has no attribute 'no_such_name'"


def test_dir_lists_public_names_and_submodules_without_loading_them():
    # not cli, which sets OPENBLAS_NUM_THREADS when it is imported
    code = ("import sys, mqrank\n"
            "names = set(dir(mqrank))\n"
            "print(set(mqrank.__all__) <= names, 'simulation' in names,\n"
            "      'cli' in names,\n"
            "      'numpy' in sys.modules or 'mqrank.simulation' in sys.modules)")
    assert _fresh_stdout(code) == "True True False False"


def test_cli_defaults_blas_to_one_thread():
    # on Linux, /proc/self/task lists the threads of the process
    code = ("import os, sys\n"
            "from mqrank.cli import main\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir("
            "'/proc/self/task')) if sys.platform == 'linux' else 1)")
    assert _fresh_stdout(code, OPENBLAS_NUM_THREADS=None) == "1 1"


def test_cli_keeps_a_blas_thread_count_the_user_set():
    code = ("import os\n"
            "from mqrank.cli import main\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'])")
    assert _fresh_stdout(code, OPENBLAS_NUM_THREADS="2") == "2"


def test_library_import_leaves_blas_threads_unset():
    # inspect.getmembers, as help() does, loads every name in dir(mqrank)
    code = ("import inspect, os, mqrank\n"
            "inspect.getmembers(mqrank)\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))")
    assert _fresh_stdout(code, OPENBLAS_NUM_THREADS=None) == "None"


_SAME_UFUNCS = ("import scipy.special\n"
                "names = ('betaln', 'chdtrc', 'chdtri', 'chndtr', 'ndtri', 'stdtrit')\n"
                "print(all(getattr(mqrank._special, f) is getattr(scipy.special, f)"
                " for f in names))")


def test_special_functions_are_scipy_specials_own_objects():
    assert _fresh_stdout(f"import mqrank._special\n{_SAME_UFUNCS}") == "True"


def test_scipy_special_stats_and_optimize_still_load_after_mqrank():
    code = ("import mqrank.cli\n"
            "import scipy.special\n"
            "from scipy.stats import ncx2\n"
            "from scipy.optimize import linprog\n"
            "fit = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0])\n"
            "print(scipy.special.chdtrc(3, 2.5), ncx2.sf(2.5, 3, 1.0), fit.fun)")
    special, stats, lp = map(float, _fresh_stdout(code).split())
    assert special == chdtrc(3, 2.5)
    assert abs(stats - chisq_noncentral_upper(2.5, 3, 1.0)) <= 1e-12
    assert lp == 1.0


def test_special_functions_when_scipy_special_is_loaded_first():
    code = ("import scipy.special\n"
            "import mqrank._special\n"
            "assert mqrank._special._module is scipy.special\n"
            f"{_SAME_UFUNCS}")
    assert _fresh_stdout(code) == "True"


def test_special_functions_when_the_private_load_fails():
    # a finder that refuses scipy.special._ufuncs while a module without
    # a file stands in for scipy.special, as another scipy layout would
    code = ("import sys\n"
            "class Refuse:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        parent = sys.modules.get('scipy.special')\n"
            "        if (name == 'scipy.special._ufuncs'\n"
            "                and getattr(parent, '__file__', None) is None):\n"
            "            raise ImportError('refused')\n"
            "sys.meta_path.insert(0, Refuse())\n"
            "import mqrank._special\n"
            "assert mqrank._special._module is sys.modules['scipy.special']\n"
            "from mqrank import chisq_upper\n"
            "assert chisq_upper(2.5, 3) == mqrank._special.chdtrc(3, 2.5)\n"
            f"{_SAME_UFUNCS}")
    assert _fresh_stdout(code) == "True"


def test_power_command_never_loads_scipy_optimize():
    run = ("from mqrank.cli import main\n"
           "assert main(['power', '--taus', '0.1,0.25,0.5,0.75,0.9', '--g', "
           "'0.3,0.2,0.1,0,0', '--weighting', 'density:normal']) == 0")
    unloaded = ["scipy.optimize", "mqrank.simulation", "mqrank.multiplicity"]
    assert _loaded_after(run, unloaded + _numpy_ma_if_lazy()) == "[]"


def test_test_command_on_continuous_data_never_loads_scipy_optimize(tmp_path):
    # the interior point's certificate accepts every program of a
    # continuous response, so no block reaches the simplex fallback
    rng = np.random.default_rng(41)
    x, z = rng.standard_normal((2, 200))
    y = 0.5 + 0.3 * x + 0.5 * z + rng.standard_normal(200)
    path = tmp_path / "data.csv"
    np.savetxt(path, np.column_stack([y, x, z]), delimiter=",", header="y,x,z",
               comments="")
    run = ("from mqrank.cli import main\n"
           f"assert main(['test', '--input', {str(path)!r}, '--response', 'y', "
           "'--target', 'x', '--nuisance', 'z', '--taus', "
           "'0.1,0.25,0.5,0.75,0.9', '--out', 'report.json']) == 0")
    unloaded = ["scipy.optimize", "scipy.sparse"] + _numpy_ma_if_lazy()
    assert _loaded_after(f"import os\nos.chdir({str(tmp_path)!r})\n{run}",
                         unloaded) == "[]"
    assert (tmp_path / "report.json").exists()


def test_serial_monte_carlo_never_loads_scipy_optimize():
    run = ("from dataclasses import replace\n"
           "from mqrank import simulation\n"
           "from mqrank.cli import _resolve_scenario\n"
           "simulation._worker_count = lambda replications: 1\n"
           "sc = replace(_resolve_scenario('null_calibration'), replications=20)\n"
           "report = simulation.run_monte_carlo(sc, methods=('closed', 'wald'), "
           "on_error='raise')\n"
           "assert report.replications_used == 20")
    assert _loaded_after(run, ["scipy.optimize", "scipy.sparse"]) == "[]"


@pytest.mark.parametrize("where", ["design", "response"])
def test_non_finite_fit_input_never_loads_scipy_optimize(where):
    # rejected before any solve, so no block reaches the simplex fallback
    run = ("import numpy as np\n"
           "from mqrank import fit\n"
           "Z = np.column_stack([np.ones(20), np.arange(20.0)])\n"
           "y = np.sin(np.arange(20.0))\n"
           f"{'Z[3, 1]' if where == 'design' else 'y[3]'} = np.nan\n"
           "try:\n"
           "    fit(Z, y, 0.5)\n"
           "except ValueError:\n"
           "    pass")
    assert _loaded_after(run, ["scipy.optimize"]) == "[]"


def test_chisq_noncentral_zero_equals_central():
    for x in (0.5, 3.0, 10.0):
        for k in (1, 2, 5):
            assert chisq_noncentral_upper(x, k, 0.0) == chisq_upper(x, k)


def test_chisq_noncentral_monotone_in_zeta():
    grid = [0.0, 0.5, 2.0, 8.0, 20.0]
    for x in (1.0, 5.991, 12.0):
        vals = [chisq_noncentral_upper(x, 2, z) for z in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_chisq_noncentral_vs_mc_oracle():
    est, se = MC_NCX2_K2_Z8_AT_5991
    assert abs(chisq_noncentral_upper(5.991, 2, 8.0) - est) <= 3 * se


def test_imhof_equal_weights_reduces_to_chisq():
    for k in (1, 2, 5):
        for w in (1.0, 0.5, 2.0):
            mix = WeightedChiSquareMixture(weights=(w,) * k)
            for x in (0.2, 1.0, 3.0, 5.991, 12.0):
                assert imhof_upper(mix, x) == pytest.approx(
                    chisq_upper(x / w, k), abs=1e-6)


def test_imhof_single_scaled_component():
    mix = WeightedChiSquareMixture(weights=(2.0,))
    assert imhof_upper(mix, 7.682) == pytest.approx(chisq_upper(3.841, 1), abs=1e-6)


def test_imhof_vs_mc_oracle_central():
    est, se = MC_MIX_25_125_AT_05
    mix = WeightedChiSquareMixture(weights=(0.25, 0.125))
    assert abs(imhof_upper(mix, 0.5) - est) <= 3 * se


def test_imhof_vs_mc_oracle_noncentral():
    est, se = MC_NCMIX_3Z3_15Z1_AT_2
    mix = WeightedChiSquareMixture(weights=(0.3, 0.15), noncentralities=(3.0, 1.0))
    assert abs(imhof_upper(mix, 2.0) - est) <= 3 * se


def test_imhof_monotone_and_limits():
    mix = WeightedChiSquareMixture(weights=(0.7, 0.2, 0.05))
    xs = np.linspace(0.0, 25.0, 40)
    ps = [imhof_upper(mix, x) for x in xs]
    assert ps[0] == 1.0
    assert all(b <= a + 1e-9 for a, b in zip(ps, ps[1:]))
    assert ps[-1] < 1e-6
    assert imhof_upper(mix, 1e-12) >= 1.0 - 1e-6


def test_imhof_noncentral_reduction_to_ncx2():
    mix = WeightedChiSquareMixture(weights=(1.0, 1.0), noncentralities=(3.0, 5.0))
    for x in (2.0, 5.991, 15.0):
        assert imhof_upper(mix, x) == pytest.approx(
            chisq_noncentral_upper(x, 2, 8.0), abs=1e-6)


def test_mixture_quantile_chisq_cases():
    mix = WeightedChiSquareMixture(weights=(1.0, 1.0))
    assert mixture_quantile(mix, 0.05) == pytest.approx(5.991, abs=1e-3)
    single = WeightedChiSquareMixture(weights=(2.0,))
    assert mixture_quantile(single, 0.05) == pytest.approx(7.682, abs=1e-3)


def test_mixture_quantile_vs_mc_percentile():
    est, se = MC_MIX_25_125_Q95
    mix = WeightedChiSquareMixture(weights=(0.25, 0.125))
    assert abs(mixture_quantile(mix, 0.05) - est) <= 3 * se


def test_mixture_quantile_roundtrip():
    mix = WeightedChiSquareMixture(weights=(0.9, 0.3, 0.1),
                                   noncentralities=(0.0, 1.0, 2.0))
    for x in (0.8, 2.5, 6.0):
        alpha = imhof_upper(mix, x)
        assert mixture_quantile(mix, alpha) == pytest.approx(x, abs=1e-4)


def test_power_stable_under_last_bit_changes_in_weights():
    # K = 9 plans give subset {2,3,4,5,7,9} the critical value of its mirror
    # image {1,3,5,6,7,8}; eigh and eigvalsh give the mirror's weights about
    # 5e-15 apart, which a root-finder stopping at xtol 1e-9 turned into
    # critical values 5.3e-10 apart and powers 5.3e-12 apart
    taus = tuple(round(0.1 * i, 1) for i in range(1, 10))
    subset = HypothesisSubset((1, 3, 5, 6, 7, 8))
    pos = subset.positions()
    a = bridge_covariance(taus)[pos][:, pos]
    b = WeightingMatrix.parse("density:t:3").materialize(taus, subset)
    eigval, eigvec = np.linalg.eigh(a)
    a_half = (eigvec * np.sqrt(eigval)) @ eigvec.T
    sym = a_half @ b @ a_half
    powers = []
    for lam in (mixture_weights(a, b), np.linalg.eigvalsh(0.5 * (sym + sym.T))):
        crit = mixture_quantile(WeightedChiSquareMixture(weights=tuple(lam)), 0.05)
        powers.append(imhof_upper(WeightedChiSquareMixture(
            weights=tuple(lam), noncentralities=(2.0,) * 6), crit))
    assert abs(powers[0] - powers[1]) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(weights=st.lists(st.floats(1e-3, 1e2), min_size=1, max_size=9),
       nc=st.lists(st.floats(0.0, 60.0), min_size=9, max_size=9),
       level=st.floats(-10.0, float(np.log10(0.9))))
def test_mixture_quantile_meets_alpha_property(weights, nc, level):
    # the returned x has tail alpha to 1e-12, or brackets alpha within
    # 1e-13 x where the tail's rounding is coarser than that
    lam, zet, alpha = np.array(weights), np.array(nc[:len(weights)]), 10.0 ** level
    x = mixture_quantile(WeightedChiSquareMixture(tuple(lam), tuple(zet)), alpha)
    around = x * np.array([1.0 - 1e-13, 1.0, 1.0 + 1e-13])
    tails = upper_tails(np.tile(lam, (3, 1)), around, np.tile(zet, (3, 1)))
    assert abs(tails[1] - alpha) <= 1e-12 or tails[0] >= alpha >= tails[2]


def test_quantile_iterate_with_tail_equal_to_alpha_is_returned(monkeypatch):
    # weights (1, 0.5) start at the moment-matched a chdtri(nu, alpha), with
    # mean 1.5, variance 2.5, a = 2.5 / 3 and nu = 1.8. A tail flat at alpha
    # on [start - 1.5, start - 0.5], falling like exp(-2 x) elsewhere, with
    # half its true density: the first Newton step lands at start - 1,
    # inside the flat stretch, where the tail equals alpha exactly; that
    # iterate is the quantile, and nothing is evaluated after it
    alpha = 0.05
    start = 2.5 / 3.0 * chdtri(1.8, alpha)
    seen = []

    def flat_at_alpha(lam, zet, x):
        seen.extend(x.tolist())
        tail = alpha * np.exp(-2.0 * (np.minimum(x - (start - 1.5), 0.0)
                                      + np.maximum(x - (start - 0.5), 0.0)))
        return tail, np.where(tail == alpha, 0.0, tail)

    monkeypatch.setattr(distributions, "_tail_and_density", flat_at_alpha)
    x = mixture_quantile(WeightedChiSquareMixture(weights=(1.0, 0.5)), alpha)
    assert seen[0] == start
    assert len(seen) == 2 and start - 1.5 < seen[1] < start - 0.5
    assert x == seen[1]


@pytest.mark.parametrize("name", ["identity", "density:t:3"])
def test_critical_values_equal_one_row_solves(name):
    # one batched solve per subset size gives each row the bits of its own
    # one-row solve; a size's mirror images share the first one's value
    taus = tuple(round(0.1 * i, 1) for i in range(1, 10))
    plan = SubsetPlan(taus, WeightingMatrix.parse(name))
    crit = plan.critical_values(0.05)
    for rows, _, _, lam, _ in plan._stacks:
        first = {}
        for i, row in zip(range(rows.start, rows.stop), lam):
            w = first.setdefault(tuple(np.round(row, 14)), row)
            if w[-1] - w[0] <= 1e-9 * w[-1]:
                want = float(w.mean()) * chisq_quantile(0.05, w.size)
            else:
                want = mixture_quantile(WeightedChiSquareMixture(tuple(w)), 0.05)
            assert crit[i] == want, plan.subsets[i]


def test_quantile_that_never_settles_raises_quadrature_failure(monkeypatch):
    # a tail that never falls to alpha: the solver keeps doubling x and
    # gives up after its iteration cap
    monkeypatch.setattr(distributions, "_tail_and_density",
                        lambda lam, zet, x: (np.ones(x.size), np.zeros(x.size)))
    with pytest.raises(QuadratureFailure, match="did not converge"):
        mixture_quantile(WeightedChiSquareMixture(weights=(1.0, 0.5)), 0.05)


def test_mixture_quantile_rejects_alpha_at_the_tail_floor():
    # mixture tails below 1e-12 read 0, so a quantile search there would
    # land below the true quantile (51.77 at 1e-15, under 51.79 at 1e-13)
    mix = WeightedChiSquareMixture(weights=(1.0, 0.5, 0.25))
    for alpha in (1e-15, 1e-12):
        with pytest.raises(ValueError, match="1e-12"):
            mixture_quantile(mix, alpha)
    with pytest.raises(ValueError, match="1e-12"):
        SubsetPlan((0.1, 0.5, 0.9), WeightingMatrix.identity()).critical_values(1e-15)


def test_equal_weight_critical_values_below_the_tail_floor():
    # equal-weight rows take the chi-square quantile, which has no floor
    taus = (0.1, 0.25, 0.5, 0.75, 0.9)
    plan = SubsetPlan(taus, WeightingMatrix.inverse())
    sizes = np.array([s.size for s in plan.subsets])
    crit = plan.critical_values(1e-15)
    want = np.array([chisq_quantile(1e-15, int(m)) for m in sizes])
    assert np.max(np.abs(crit / want - 1.0)) <= 1e-12
    power = analytic_power(taus, np.zeros(5), 1.0, WeightingMatrix.inverse(),
                           alpha=1e-15)
    assert max(abs(p / 1e-15 - 1.0) for p in power.values()) <= 1e-9


def test_equal_weight_tails_and_quantiles_match_the_plan_bit_for_bit():
    # the inverse weighting's mixture weights are equal, so each subset's
    # law is a scaled chi-square: the one-row functions take the plan's
    # closed form, deep tails and alpha below 1e-12 included
    m = WeightedChiSquareMixture(weights=(1.0, 1.0, 1.0))
    assert imhof_upper(m, 80.0) == chdtrc(3, 80.0) > 0.0
    assert imhof_upper(m, 3.0) == chdtrc(3, 3.0)
    assert mixture_quantile(m, 1e-15) == chdtri(3, 1e-15)
    plan = SubsetPlan((0.1, 0.25, 0.5, 0.75, 0.9), WeightingMatrix.inverse())
    mixtures = [WeightedChiSquareMixture(tuple(row))
                for _, _, _, lam, _ in plan._stacks for row in lam]
    for alpha in (0.05, 1e-15):
        crit = plan.critical_values(alpha)
        power = plan.power(np.zeros(5), 1.0, alpha)
        first = {}
        for i, mix in enumerate(mixtures):
            w = first.setdefault((mix.k, tuple(np.round(mix.weights, 14))), mix)
            assert mixture_quantile(w, alpha) == crit[i], plan.subsets[i]
            assert imhof_upper(mix, crit[i]) == power[i] > 0.0, plan.subsets[i]
    # statistics from 0.04 to 505, tails down to 5e-108
    for v_bar in (1.0, 0.01):
        score = np.array([0.3, -0.2, 0.1, 0.4, -0.1])
        q = plan.statistics(score, v_bar)
        p = plan.p_values(score, v_bar)
        for i, mix in enumerate(mixtures):
            assert imhof_upper(mix, q[i]) == p[i] > 0.0, plan.subsets[i]


def test_mixture_validation():
    with pytest.raises(ValueError):
        WeightedChiSquareMixture(weights=(1.0, -0.5))
    with pytest.raises(ValueError):
        WeightedChiSquareMixture(weights=(1.0,), noncentralities=(-1.0,))
    with pytest.raises(ValueError):
        WeightedChiSquareMixture(weights=(1.0, 2.0), noncentralities=(0.0,))
    # with no component the tail rules would have nothing to reduce over
    for weights, noncentralities in (((), None), ([], []), (np.empty(0), ())):
        with pytest.raises(ValueError, match="at least one weight"):
            WeightedChiSquareMixture(weights=weights,
                                     noncentralities=noncentralities)
    for weights, noncentralities in (((float("nan"),), None),
                                     ((float("inf"), 1.0), None),
                                     ((1.0,), (float("nan"),)),
                                     ((1.0, 2.0), (0.0, float("inf")))):
        with pytest.raises(ValueError, match="finite"):
            WeightedChiSquareMixture(weights=weights,
                                     noncentralities=noncentralities)
    with pytest.raises(ValueError):
        mixture_quantile(WeightedChiSquareMixture(weights=(1.0,)), 1.5)


def test_upper_tails_rejects_invalid_mixtures():
    # the rule of WeightedChiSquareMixture, applied to every row of a batch
    lam = np.array([[0.5, 2.0], [1.0, 1.0]])
    zet = np.array([[0.0, 1.5], [0.25, 0.0]])
    x = np.array([1.0, 2.0])
    assert np.isfinite(upper_tails(lam, x, zet)).all()
    for row, col, bad, match in ((1, 0, -1.0, "strictly positive"),
                                 (0, 1, 0.0, "strictly positive"),
                                 (0, 0, float("nan"), "finite"),
                                 (1, 1, float("inf"), "finite")):
        weights = lam.copy()
        weights[row, col] = bad
        with pytest.raises(ValueError, match=match):
            upper_tails(weights, x, zet)
    for row, col, bad, match in ((0, 1, -0.5, "nonnegative"),
                                 (1, 0, float("nan"), "finite"),
                                 (0, 0, float("inf"), "finite")):
        noncentralities = zet.copy()
        noncentralities[row, col] = bad
        with pytest.raises(ValueError, match=match):
            upper_tails(lam, x, noncentralities)
    with pytest.raises(ValueError, match="strictly positive"):
        upper_tails([[-1.0, 2.0]], [1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        upper_tails([[1.0, 2.0]], [1.0], [[0.0, -0.5]])


def test_tails_without_densities_have_the_same_bits():
    # upper_tails skips the density sums; its tails, certified rows
    # included, are those the quantile solver sees
    certified = 0
    for lam, zet, x in mixture_grid(83, 60, harsh=True):
        lam, zet, x = lam[None], zet[None], np.array([x])
        tail, density = distributions._tail_and_density(lam, zet, x)
        alone, none = distributions._tail_and_density(lam, zet, x, density=False)
        assert none is None
        assert np.array_equal(alone, tail)
        if lam.size > 1:  # one component is a scaled chi-square
            assert np.array_equal(upper_tails(lam, x, zet), tail)
        certified += int(np.isnan(density[0]))
    assert certified > 0


def test_mixture_moments():
    mix = WeightedChiSquareMixture(weights=(2.0, 0.5), noncentralities=(1.0, 3.0))
    assert mix.mean() == pytest.approx(2 * 2 + 0.5 * 4)
    assert mix.variance() == pytest.approx(4 * (2 + 4) + 0.25 * (2 + 12))


def _pair_upper_by_convolution(l1, l2, x):
    """P(l1 X1 + l2 X2 > x), X1, X2 iid chi-square(1), without Imhof.

    Conditioning on X1 = t gives P(X1 > x/l1) plus the integral over
    t < x/l1 of the chi-square(1) density times P(X2 > (x - l1 t)/l2);
    t = (x/l1) sin^2(phi) removes the density's singularity at 0.
    """
    a = x / l1

    def integrand(phi):
        return (2.0 * np.sqrt(a / (2.0 * np.pi)) * np.cos(phi)
                * np.exp(-0.5 * a * np.sin(phi) ** 2)
                * chi2.sf(x * np.cos(phi) ** 2 / l2, 1))

    body, _ = integrate.quad(integrand, 0.0, 0.5 * np.pi,
                             epsabs=1e-13, epsrel=1e-13, limit=200)
    return chi2.sf(a, 1) + body


@pytest.mark.parametrize("l1, l2", [(1.0, 0.3), (0.2, 0.05), (5.0, 0.01),
                                    (0.02, 20.0), (0.7, 0.69)])
def test_imhof_pairs_match_convolution(l1, l2):
    mix = WeightedChiSquareMixture(weights=(l1, l2))
    top = 45.0 * max(l1, l2)   # past the 1e-9 deep tail
    for x in np.geomspace(1e-3, top, 40):
        assert imhof_upper(mix, x) == pytest.approx(
            _pair_upper_by_convolution(l1, l2, x), abs=RULE_TOL)


_weights = st.lists(st.floats(1e-3, 1e2), min_size=1, max_size=9)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(weights=_weights, x=st.floats(1e-3, 60.0), step=st.floats(1e-6, 5.0))
def test_imhof_non_increasing_in_x(weights, x, step):
    mix = WeightedChiSquareMixture(weights=tuple(weights))
    scale = sum(weights)
    assert imhof_upper(mix, (x + step) * scale) <= \
        imhof_upper(mix, x * scale) + RULE_TOL


@settings(max_examples=60, deadline=None, derandomize=True)
@given(k=st.integers(1, 9), w=st.floats(1e-2, 1e2),
       level=st.floats(-9.0, -1e-6))
def test_imhof_equal_weights_match_chisq_property(k, w, level):
    x = w * chi2.isf(10.0 ** level, k)
    mix = WeightedChiSquareMixture(weights=(w,) * k)
    assert imhof_upper(mix, x) == pytest.approx(chisq_upper(x / w, k),
                                                 abs=RULE_TOL)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 9])
def test_imhof_noncentral_equal_weights_match_ncx2(k):
    rng = np.random.default_rng(100 + k)
    for w in (0.05, 1.0, 12.0):
        zetas = rng.uniform(0.0, 6.0, size=k)
        mix = WeightedChiSquareMixture(weights=(w,) * k,
                                       noncentralities=tuple(zetas))
        for level in (-9.0, -6.0, -3.0, -1.0, -0.1, -1e-4):
            x = w * ncx2.isf(10.0 ** level, k, zetas.sum())
            assert imhof_upper(mix, x) == pytest.approx(
                ncx2.sf(x / w, k, zetas.sum()), abs=RULE_TOL)


@pytest.mark.parametrize("seed, count, harsh", [(20261018, 400, False),
                                                (7, 600, True)])
def test_contour_rule_matches_certified_rule(seed, count, harsh):
    assert contour_rule_gaps(mixture_grid(seed, count, harsh)).max() <= RULE_TOL


@settings(max_examples=60, deadline=None, derandomize=True)
@given(weights=st.lists(st.floats(1e-3, 1e2), min_size=1, max_size=12),
       nc=st.lists(st.floats(0.0, 20.0), min_size=12, max_size=12),
       level=st.floats(-3.0, 1.0))
def test_contour_rule_agrees_with_certified_property(weights, nc, level):
    lam = np.array(weights)
    zet = np.array(nc[:lam.size])
    x = float(lam @ (1.0 + zet)) * 10.0 ** level
    assert contour_rule_gaps([(lam, zet, x)])[0] <= RULE_TOL


def test_upper_tails_exact_chisq_forms():
    # upper_tails takes equal weights in closed form; the contour evaluator
    # meets the same forms within its agreement tolerance
    rng = np.random.default_rng(41)
    levels = 10.0 ** np.linspace(-9.0, -1e-6, 40)
    for k in range(1, 16):
        for w in (1e-3, 0.05, 1.0, 12.0, 1e3):
            lam = np.full((levels.size, k), w)
            x = w * chi2.isf(levels, k)
            want = chi2.sf(x / w, k)
            assert np.max(np.abs(upper_tails(lam, x) - want)) <= CONTOUR_TOL
            got = distributions._tail_and_density(lam, np.zeros_like(lam), x)[0]
            assert np.max(np.abs(got - want)) <= CONTOUR_TOL
            zetas = np.tile(rng.uniform(0.0, 50.0 / k, k), (levels.size, 1))
            x = w * ncx2.isf(levels, k, zetas[0].sum())
            want = ncx2.sf(x / w, k, zetas[0].sum())
            assert np.max(np.abs(upper_tails(lam, x, zetas) - want)) <= CONTOUR_TOL
            got = distributions._tail_and_density(lam, zetas, x)[0]
            assert np.max(np.abs(got - want)) <= CONTOUR_TOL


def test_upper_tails_deep_central_tails():
    # the contour evaluator is within 2e-12 of the deep chi-square tail
    # and returns 0 below 1e-12; upper_tails' closed form has no floor
    levels = 10.0 ** np.linspace(-30.0, -9.0, 43)
    for k in range(1, 16):
        for w in (1e-3, 0.05, 1.0, 12.0, 1e3):
            lam = np.full((levels.size, k), w)
            x = w * chi2.isf(levels, k)
            want = chi2.sf(x / w, k)
            got = distributions._tail_and_density(lam, np.zeros_like(lam), x)[0]
            assert np.max(np.abs(got - want)) <= 2e-12
            assert not np.any((got > 0.0) & (got < distributions._DEEP_TAIL))
            closed = upper_tails(lam, x)
            assert np.all(closed > 0.0)
            assert np.max(np.abs(closed / want - 1.0)) <= 1e-12


def test_upper_tails_rows_match_imhof_upper():
    rng = np.random.default_rng(43)
    rows, k = 300, 6
    lam = 10.0 ** rng.uniform(-2.0, 1.0, (rows, k))
    zet = np.where(rng.random((rows, k)) < 0.5, rng.uniform(0.0, 8.0, (rows, k)), 0.0)
    dfs = rng.integers(1, 4, (rows, k))
    x = np.sum(lam * (dfs + zet), axis=1) * 10.0 ** rng.uniform(-2.0, 1.0, rows)
    x[:3] = (0.0, -1.0, 1e4)
    # a component w chisq(h, z) is h one-degree components of weight w with
    # noncentralities (z, 0, ...); rows of equal length form one batch
    lam = [np.repeat(lam[r], dfs[r]) for r in range(rows)]
    zet = [np.concatenate([[z] + [0.0] * (h - 1) for z, h in zip(zet[r], dfs[r])])
           for r in range(rows)]
    got = np.empty(rows)
    for size in {w.size for w in lam}:
        batch = [r for r in range(rows) if lam[r].size == size]
        got[batch] = upper_tails([lam[r] for r in batch], x[batch],
                                 [zet[r] for r in batch])
    assert got[:3].tolist() == [1.0, 1.0, 0.0]
    # each row's nodes are summed on their own, so a row's tail is the same
    # bits in a batch as alone
    for r in range(rows):
        mix = WeightedChiSquareMixture(tuple(lam[r]), tuple(zet[r]))
        assert got[r] == imhof_upper(mix, x[r])


def test_disagreeing_rules_return_certified_value(monkeypatch):
    rng = np.random.default_rng(47)
    lam = rng.uniform(0.1, 2.0, (5, 4))
    x = lam.sum(axis=1) * np.array([0.3, 0.8, 1.0, 1.5, 3.0])

    def disagreeing(values):
        # N = 16 and N = 20 read 0.3 and 0.7 on every row
        return np.column_stack([np.full(len(values), 0.3),
                                np.full(len(values), 0.7)])

    monkeypatch.setattr(distributions, "_rule_sums", disagreeing)
    got = upper_tails(lam, x)
    for r in range(5):
        assert got[r] == _certified_upper(lam[r], np.zeros(4), x[r])


def test_certified_fallback_never_fires_on_benchmark_style_inputs(monkeypatch):
    """Closures at n = 200, K = 9, analytic power at K = 5 over three
    weightings and four directions, and K = 5 critical values."""
    calls = []

    def counting(*args):
        calls.append(args)
        return _certified_upper(*args)

    monkeypatch.setattr(distributions, "_certified_upper", counting)
    rng = np.random.default_rng(53)
    spec = QuantileSpec(tuple(round(0.1 * i, 1) for i in range(1, 10)))
    closures = 0
    for beta in (0.05, 0.05, 0.05, 0.3, 0.6):
        state = score_state(make_dataset(rng, n=200, beta=beta, scale="hetero"),
                            spec)
        closures += len(closed_test(state, WeightingMatrix.identity()).local_p)
    assert closures == 5 * 511

    taus = (0.1, 0.25, 0.5, 0.75, 0.9)
    for name in ("identity", "diag-delta", "density:normal"):
        weighting = WeightingMatrix.parse(name)
        for shape in ((1.0,) * 5, (1.0, 0.75, 0.5, 0.25, 0.0),
                      (0.0, 0.25, 0.5, 0.75, 1.0), (0.0,) * 5):
            analytic_power(taus, 0.5 * np.array(shape), 1.1, weighting)
    SubsetPlan(taus, WeightingMatrix.identity()).critical_values(0.05)
    assert calls == []
