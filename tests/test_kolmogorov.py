import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.special
import scipy.stats  # the reference the port must reproduce; the lab never loads it

import mmlab
import mmlab.kolmogorov as kolmogorov
from mmlab.kolmogorov import chi2_sf, kolmogorov_sf, kstest_uniform, ndtri

SRC = os.path.dirname(os.path.dirname(os.path.abspath(mmlab.__file__)))


def _midpoints(n, noise, seed):
    """(i + 1/2)/n plus normal noise of scale noise/n: D sits near 1/(2n)
    plus the largest noise, which keeps n D small."""
    rng = np.random.default_rng(seed)
    return (np.arange(n) + 0.5) / n + rng.normal(0.0, noise / n, n)


def _uniform(n, seed, power=1.0, scale=1.0):
    return scale * np.random.default_rng(seed).random(n) ** power


# each sample with the route P(D_n >= D) takes: an end formula (no helper
# called), twice the one-sided tail, 0 past n D^2 = 370, DMTW or Pelz-Good
BRANCHES = {
    "n=1": (lambda: np.array([0.3]), "low end"),
    "n=2": (lambda: np.array([0.2, 0.7]), "low end"),
    "low end, n<=140": (lambda: _midpoints(100, 0.1, 1), "low end"),
    "low end, n>140": (lambda: _midpoints(1000, 0.1, 2), "low end"),
    "high end": (lambda: _uniform(5, 3, scale=1e-3), "high end"),
    "D>=1/2": (lambda: _uniform(10, 4, scale=0.4), "smirnov"),
    "tail, n<=140": (lambda: _uniform(100, 5, power=2.0), "smirnov"),
    "tail, n>140": (lambda: _uniform(1000, 6, power=1.3), "smirnov"),
    "nD^2>=370": (lambda: _uniform(5000, 7, scale=0.7), "zero"),
    "DMTW, n<=140": (lambda: _midpoints(100, 1.0, 8), "dmtw"),
    "DMTW, n>140": (lambda: _midpoints(2000, 1.0, 9), "dmtw"),
    "Pelz-Good": (lambda: _uniform(10000, 10), "pelz_good"),
    "Pelz-Good, n>100000": (lambda: _uniform(150000, 11), "pelz_good"),
    "Pelz-Good underflow, n>100000": (lambda: _midpoints(200000, 0.3, 12), "pelz_good"),
}


def _spy_routes(monkeypatch):
    calls = []
    # kolmogorov_sf imports smirnov from scipy.special on the branch that calls it
    for owner, name, route in [(kolmogorov, "_durbin_mtw", "dmtw"),
                               (kolmogorov, "_pelz_good", "pelz_good"),
                               (scipy.special, "smirnov", "smirnov")]:
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *a, real=real, route=route: calls.append(route) or real(*a))
    return calls


@pytest.mark.parametrize("case", sorted(BRANCHES))
def test_kstest_uniform_equals_scipy_on_every_branch(monkeypatch, case):
    make, route = BRANCHES[case]
    x = make()
    # scipy.stats reaches scipy.special.smirnov too, so it runs before the spy
    ref = scipy.stats.kstest(x, "uniform")
    calls = _spy_routes(monkeypatch)
    statistic, pvalue = kstest_uniform(x)
    assert statistic == ref.statistic
    assert pvalue == ref.pvalue
    n = len(x)
    t = n * statistic
    if route == "low end":
        assert calls == [] and 0.5 < t <= 1.0
    elif route == "high end":
        assert calls == [] and t >= n - 1
    elif route == "zero":
        assert calls == [] and pvalue == 0.0 and t * statistic >= 370
    else:
        assert calls == [route]


def test_kstest_uniform_takes_pelz_good_at_the_bundled_point(monkeypatch):
    # the bundled reflected run at dt 5e-4: 10 000 points, D = 0.012714
    calls = _spy_routes(monkeypatch)
    d = 0.012713507382966838
    assert kolmogorov_sf(10000, d) == scipy.stats.kstwo.sf(d, 10000)
    assert calls == ["pelz_good"]


def test_kstest_uniform_near_scipy_where_it_runs_pomeranz(monkeypatch):
    # scipy runs the Pomeranz recursion for n <= 140 and 0.754693 < n D^2 <= 4
    # (with 1 < n D < n - 1 and D < 1/2); the port runs DMTW there
    calls = _spy_routes(monkeypatch)
    worst, count = 0.0, 0
    for n in range(2, 141, 3):
        for nx2 in (0.8, 1.5, 3.0, 3.9):
            d = np.sqrt(nx2 / n)
            if not (1.0 < n * d < n - 1 and d < 0.5):
                continue
            # shifting the midpoints by delta gives D = 1/(2n) + delta
            x = (np.arange(n) + 0.5) / n + (d - 0.5 / n)
            statistic, pvalue = kstest_uniform(x)
            ref = scipy.stats.kstest(x, "uniform")
            assert statistic == ref.statistic
            assert 0.754693 < n * statistic ** 2 <= 4
            worst = max(worst, abs(pvalue - ref.pvalue) / ref.pvalue)
            count += 1
    assert count >= 100 and set(calls) == {"dmtw"}
    assert worst <= 1e-10


def test_kstest_uniform_clips_to_the_unit_interval_and_propagates_nan():
    x = np.array([-0.5, 0.1, 0.4, 0.9, 1.7])
    ref = scipy.stats.kstest(x, "uniform")
    assert kstest_uniform(x) == (ref.statistic, ref.pvalue)
    assert np.isnan(kstest_uniform([0.2, np.nan])).all()
    with pytest.raises(ValueError):
        kstest_uniform([])


def test_lab_leaves_scipy_stats_unloaded(tmp_path):
    # a run of each scenario that once called scipy.stats: the OU limit's
    # normal quantiles and the reflected occupation KS test
    configs = {"ou_family": {"n_grid": [2], "mc_count": 40, "dt": 0.05},
               "reflected_family": {"n_grid": [2], "mc_count": 40, "dt": 0.01}}
    script = """
import json, sys
import mmlab.cli
seen = ["scipy.stats" in sys.modules]
for kind, cfg in json.loads(sys.argv[1]).items():
    mmlab.cli.main(["run", sys.argv[2] + "/" + kind + ".json"])
    seen.append("scipy.stats" in sys.modules)
print(json.dumps(seen))
"""
    for kind, cfg in configs.items():
        cfg = {"scenario": kind, "out_dir": str(tmp_path / kind), **cfg}
        (tmp_path / (kind + ".json")).write_text(json.dumps(cfg))
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(configs), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [False, False, False]
    assert (tmp_path / "reflected_family" / "occupation_ks.csv").exists()


def _same_doubles(a, b):
    """Equal bit for bit, NaN payloads aside."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.all((a.view(np.int64) == b.view(np.int64))
                                              | (np.isnan(a) & np.isnan(b))))


EXPM2 = np.exp(-2.0)
NDTRI_INPUTS = {
    "ou quantiles": lambda: (np.arange(4096) + 0.5) / 4096,
    "linspace": lambda: np.linspace(0.0, 1.0, 200001),
    "uniforms": lambda: np.random.default_rng(5).random(200000),
    "lower tail": lambda: np.logspace(-320, -1, 20001),
    "upper tail": lambda: 1.0 - np.logspace(-16, -1, 20001),
    # each side of the branch points, the subnormal end and the centre
    "branch points": lambda: np.array([
        EXPM2, 1.0 - EXPM2, np.nextafter(EXPM2, 0.0), np.nextafter(EXPM2, 1.0),
        np.nextafter(1.0 - EXPM2, 0.0), np.nextafter(1.0 - EXPM2, 1.0),
        np.exp(-32.0), 0.5, 5e-324]),
}


@pytest.mark.parametrize("case", sorted(NDTRI_INPUTS))
def test_ndtri_equals_scipy_bit_for_bit(case):
    p = NDTRI_INPUTS[case]()
    assert _same_doubles(ndtri(p), scipy.special.ndtri(p))


def test_ndtri_ends_and_invalid_input():
    out = ndtri(np.array([0.0, -0.0, 1.0, np.nan, -1e-300, -0.5, 1.0 + 2e-16, 2.0,
                          np.inf, -np.inf]))
    assert out[0] == out[1] == -np.inf and out[2] == np.inf
    assert np.isnan(out[3:]).all()
    assert ndtri(0.5) == 0.0 and np.isscalar(ndtri(0.25))
    assert ndtri(np.zeros((2, 3))).shape == (2, 3)


# every dof to 100, then 120 up to 20,000; q from 12 standard deviations
# below the mean (or near 0) to 40 above, in both tails
CHI2_DOFS = list(range(1, 101)) + np.unique(np.geomspace(100, 20000, 120).astype(int)).tolist()
CHI2_Z = np.concatenate([np.linspace(-12, 40, 53), [-3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0]])


def test_chi2_sf_equals_scipy_gammaincc_in_both_tails():
    # measured worst relative gaps: 7.8e-12 where Q >= 1e-100, 3.1e-11 below
    # (at Q ~ 1e-275, where gammaincc itself is 3.2e-11 off a 50-digit value
    # and chi2_sf 4.2e-13); 1 - chi2_sf is within 3.4e-15 of gammainc
    worst, count = {"mid": 0.0, "far": 0.0}, 0
    for dof in CHI2_DOFS:
        qs = dof + CHI2_Z * np.sqrt(2.0 * dof)
        qs = np.concatenate([qs[qs > 0], dof * np.array([1e-8, 1e-3, 0.1, 0.5, 2.0, 10.0])])
        for q in qs:
            sf, ref = chi2_sf(dof, q), scipy.special.gammaincc(dof / 2, q / 2)
            assert abs((1.0 - sf) - scipy.special.gammainc(dof / 2, q / 2)) <= 1e-14
            if ref >= 1e-300:
                band = "mid" if ref >= 1e-100 else "far"
                worst[band] = max(worst[band], abs(sf - ref) / ref)
                count += 1
    assert count > 10000
    assert worst["mid"] <= 2e-11 and worst["far"] <= 5e-11


def test_chi2_sf_closed_forms_and_ends():
    for q in (1e-6, 0.3, 1.0, 2.0, 7.5, 40.0):
        assert chi2_sf(1, q) == pytest.approx(math.erfc(math.sqrt(q / 2)), rel=1e-15)
        assert chi2_sf(2, q) == pytest.approx(math.exp(-q / 2), rel=1e-15)
        assert chi2_sf(4, q) == pytest.approx(math.exp(-q / 2) * (1 + q / 2), rel=1e-15)
    assert chi2_sf(5, 0.0) == chi2_sf(5, -1.0) == 1.0
    assert chi2_sf(10000, 1e6) == chi2_sf(7, math.inf) == 0.0
    assert math.isnan(chi2_sf(3, math.nan))
    for dof in (0, -2, 1.5, 2.0):
        with pytest.raises(ValueError):
            chi2_sf(dof, 1.0)
