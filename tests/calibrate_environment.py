"""Seed-pooled calibration of the multilevel environment estimators.

`envexact.environment_survival_curve` and `envexact.environment_laplace`
run n environments on the coarsest grid that holds every checkpoint, in
antithetic pairs or (the curve with antithetic=False) i.i.d., plus the
coupled corrections down to dt, and report an estimate and a standard
error: level 0's from the spread of its pair sums or of its values, each
correction level's from its i.i.d. spread. A 3-se gate at one seed sees
a bias only once it exceeds about 3 se; pooled over K seeds the same runs
see about 3 / sqrt(K) se. Per record this script runs K = 50 calls on seeds
20001-20050, which `bdrelab verify` does not use, takes
z = (p - target) / se per call and reports:

- the mean z, with its own se 1 / sqrt(K) if the z are standard;
- the mean z^2, with the chi^2_K / K bounds at 0.001 and 0.999 that it
  falls between if the z are standard: above them the se is too small
  for the spread and the bias together;
- the share of |z| > 3 (0.0027 for standard z);
- the pooled bias, mean p - target, with its se sqrt(mean se^2 / K), and
  the same bias in units of verify's own se (the mean se scaled to
  verify's n; for the paired extinct curve, whose level 0 verify runs
  i.i.d., that is the se a paired call at verify's n would have).

The records, at n = 10,000 level-0 paths:
- the extinct curve e^{-z/I_T} at T = 30, dt 0.01 at the standard
  alpha = sigma_e = sigma_b = z0 = 1, against the closed form 1/4, with
  level 0 i.i.d. (extinct_curve_iid, criterion 2's Rao-Blackwell half, at
  n = 1e5 there) and paired (extinct_curve);
- the transform exp(-z/(I_t + 1/lambda)) at t = 20, dt 0.0025 and
  lambda = 0.5, 1, 2, 10 (criterion 7, at n = 1e5) at the standard
  point, against laplace_Y under the inverse-gamma reading, a
  quadrature. The four lambda run on the same environments, so their z
  are strongly correlated within a seed. Each also reports its finest
  level's correction (the transform on dt minus on 2 dt) pooled over
  the seeds, dt_bias with dt_bias_se;
- criterion 5's three tilted survival curves (alpha = 0.5, 1, 2, drift
  negated, tilt min(alpha / sigma_e^2, 1), dt 0.01, at n = 1e5 there) at
  t = 4 and t = 12, against the pooled mean of the single-level i.i.d.
  tilted curve on dt, whose expectation the levels reproduce (run with
  envexact._COARSEST_STEP at 0, which leaves no correction level). That
  reference runs 50 calls of its own on seeds 30001-30050: on a shared
  seed its first step would reuse level 0's first normals. Its own se,
  target_se = sqrt(mean se^2 / K), adds about (target_se / se)^2 to the
  mean z^2 of a record, and pooled_bias_z is the pooled bias over the
  se of the difference of the two pooled means.

The trapezoid rule for I_t and the finite horizon are part of what a
calibration sees against a closed form or a quadrature. Pytest does not
collect this file (its name does not start with test_). Run it from the
repository root:

    python tests/calibrate_environment.py > CALIB_27.json

It prints one JSON object; about 70 s of CPU on a 2-core Xeon.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
import time

import numpy as np
import scipy
from scipy.stats import chi2

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from bdrelab import envexact  # noqa: E402
from bdrelab.envexact import environment_laplace, environment_survival_curve  # noqa: E402
from bdrelab.model import ModelParams, extinction_probability  # noqa: E402
from bdrelab.specfun import Reading, laplace_Y  # noqa: E402

SEEDS = range(20001, 20051)
N = 10_000
STD = ModelParams(alpha=1.0, sigma_e=1.0, sigma_b=1.0, z0=1.0)
EXTINCT_T, EXTINCT_DT, EXTINCT_VERIFY_N = 30.0, 0.01, 100_000
LAPLACE_T, LAPLACE_DT, LAPLACE_VERIFY_N = 20.0, 0.0025, 100_000
LAMBDAS = (0.5, 1.0, 2.0, 10.0)
REFERENCE_SEEDS = range(30001, 30051)
CURVE_TIMES, CURVE_DT, CURVE_VERIFY_N = (4.0, 12.0), 0.01, 100_000
ALPHAS = (0.5, 1.0, 2.0)


def pooled(p: np.ndarray, se: np.ndarray, target: float, verify_n: int) -> dict:
    """The pooled z statistics of K (estimate, se) pairs against target."""
    z = (p - target) / se
    k = p.shape[0]
    bias = float(p.mean() - target)
    return {
        "target": target,
        "mean_p": float(p.mean()),
        "mean_se": float(se.mean()),
        "mean_z": float(z.mean()),
        "mean_z_se": 1.0 / math.sqrt(k),
        "mean_z2": float((z * z).mean()),
        "mean_z2_bounds": [float(chi2.ppf(0.001, k) / k), float(chi2.ppf(0.999, k) / k)],
        "share_abs_z_over_3": float(np.mean(np.abs(z) > 3.0)),
        "pooled_bias": bias,
        "pooled_bias_se": float(math.sqrt(np.mean(se * se) / k)),
        "pooled_bias_in_verify_se": bias / (float(se.mean()) * math.sqrt(N / verify_n)),
    }


def single_level(call):
    """call() with no correction level: each curve is one level on dt."""
    coarsest = envexact._COARSEST_STEP
    envexact._COARSEST_STEP = 0.0
    try:
        return call()
    finally:
        envexact._COARSEST_STEP = coarsest


def extinct_record(paired: bool) -> dict:
    t0 = time.process_time()
    runs = np.array([
        environment_survival_curve(STD, [EXTINCT_T], N, EXTINCT_DT, seed, collect="extinct",
                                   antithetic=paired)[EXTINCT_T]
        for seed in SEEDS
    ])
    cpu = time.process_time() - t0
    out = {"t": EXTINCT_T, "dt": EXTINCT_DT, "antithetic": paired, "provenance": "closed form"}
    out.update(pooled(runs[:, 0], runs[:, 1], extinction_probability(STD.z0, STD),
                      EXTINCT_VERIFY_N))
    out["cpu_s"] = round(cpu, 1)
    return out


def laplace_records() -> dict:
    t0 = time.process_time()
    calls = [environment_laplace(STD, LAMBDAS, LAPLACE_T, N, LAPLACE_DT, seed)
             for seed in SEEDS]
    cpu = time.process_time() - t0
    out = {}
    for lam in LAMBDAS:
        runs = np.array([c[lam][:2] for c in calls])
        bias = np.array([c[lam][2][:2] for c in calls])
        ref = laplace_Y(lam, STD.z0, STD, Reading.INVERSE_GAMMA)
        rec = {"t": LAPLACE_T, "dt": LAPLACE_DT, "provenance": "quadrature"}
        rec.update(pooled(runs[:, 0], runs[:, 1], ref, LAPLACE_VERIFY_N))
        # the finest level, the transform on dt minus on 2 dt, pooled
        rec["dt_bias"] = float(bias[:, 0].mean())
        rec["dt_bias_se"] = float(math.sqrt(np.mean(bias[:, 1] ** 2) / len(bias)))
        out[f"laplace.lam={lam:g}"] = rec
    out["cpu_s_all_lambdas"] = round(cpu, 1)
    return out


def curve_records() -> dict:
    out = {}
    for alpha in ALPHAS:
        neg = ModelParams(alpha=-alpha, sigma_e=1.0, sigma_b=1.0, z0=1.0)
        tilt = min(alpha, 1.0)
        t0 = time.process_time()
        calls = [environment_survival_curve(neg, CURVE_TIMES, N, CURVE_DT, seed, tilt=tilt,
                                            antithetic=True) for seed in SEEDS]
        cpu = time.process_time() - t0
        refs = single_level(lambda: [
            environment_survival_curve(neg, CURVE_TIMES, N, CURVE_DT, seed, tilt=tilt)
            for seed in REFERENCE_SEEDS
        ])
        for t in CURVE_TIMES:
            runs = np.array([c[t] for c in calls])
            ref = np.array([r[t] for r in refs])
            rec = {"t": t, "dt": CURVE_DT, "tilt": tilt,
                   "provenance": "pooled single-level i.i.d. curve on dt, seeds "
                                 f"{REFERENCE_SEEDS.start}-{REFERENCE_SEEDS.stop - 1}"}
            rec.update(pooled(runs[:, 0], runs[:, 1], float(ref[:, 0].mean()),
                              CURVE_VERIFY_N))
            rec["target_se"] = float(math.sqrt(np.mean(ref[:, 1] ** 2) / len(ref)))
            rec["pooled_bias_z"] = rec["pooled_bias"] / math.hypot(rec["pooled_bias_se"],
                                                                  rec["target_se"])
            out[f"decay.alpha={alpha:g}.p(t={t:g})"] = rec
        out[f"decay.alpha={alpha:g}.cpu_s"] = round(cpu, 1)
    return out


def main() -> None:
    out = {
        "what": "multilevel environment estimators against closed form, quadrature "
                "and the single-level curve, pooled over seeds",
        "n": N,
        "multilevel": True,
        "seeds": f"{SEEDS.start}-{SEEDS.stop - 1}",
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "records": {"extinct_curve_iid.t=30": extinct_record(False),
                    "extinct_curve.t=30": extinct_record(True), **laplace_records(),
                    **curve_records()},
    }
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
