"""Seed-pooled calibration of the pathwise extinction count against its closed form.

`sde.absorbed_fraction` reports an estimate and a standard error. A 3-se
gate at one seed sees a bias only once it exceeds about 3 se; pooled over
K seeds the same runs see about 3 / sqrt(K) se. Per configuration this
script runs K = 50 calls on seeds 18001-18050, which `bdrelab verify`
does not use, takes z = (p - p_closed) / se per call, with p_closed =
(1 + sigma_e^2 z0 / sigma_b^2)^(-beta), and reports:

- the mean z, with its own se 1 / sqrt(K) if the z are standard;
- the mean z^2, with the chi^2_K / K bounds at 0.001 and 0.999 that it
  falls between if the z are standard: above them the se is too small
  for the spread and the bias together;
- the share of |z| > 3 (0.0027 for standard z);
- the pooled bias, mean p - p_closed, with its se sqrt(mean se^2 / K).

The three configurations, at n = 10,000 paths (verify's n / 10) and the
standard alpha = sigma_e = sigma_b = 1 unless stated:
- z0 = 1 at verify's dt 1e-3 and horizon 30 (criterion 2's pathwise half);
- z0 = 5 at dt 0.002, horizon 30, where nearly every path plays the
  roulette;
- alpha = 0.3, z0 = 1 at dt 0.002 and horizon 60 (at 30 the count of
  paths absorbed by the horizon reads about 0.005 below the eventual
  probability, by the Rao-Blackwell route at n = 20,000).

The Euler chain's own bias is part of what a calibration sees: it shows
as a mean z away from 0 and a mean z^2 above its bound, at a rate that
grows with K. Pytest does not collect this file (its name does not start
with test_). Run it from the repository root:

    python tests/calibrate_pathwise.py > CALIB_18.json

It prints one JSON object; about 2 minutes of CPU on a 2-core Xeon.
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

from bdrelab.model import ModelParams, extinction_probability  # noqa: E402
from bdrelab.sde import SchemeConfig, absorbed_fraction  # noqa: E402

SEEDS = range(18001, 18051)
N = 10_000
STD = ModelParams(alpha=1.0, sigma_e=1.0, sigma_b=1.0, z0=1.0)
CONFIGS = {
    "z0=1, dt=1e-3": (STD, SchemeConfig(dt=1e-3, horizon=30.0)),
    "z0=5, dt=0.002": (ModelParams(1.0, 1.0, 1.0, 5.0), SchemeConfig(dt=0.002, horizon=30.0)),
    "alpha=0.3, dt=0.002": (ModelParams(0.3, 1.0, 1.0, 1.0), SchemeConfig(dt=0.002, horizon=60.0)),
}


def calibrate(params: ModelParams, cfg: SchemeConfig) -> dict:
    """The pooled z statistics of absorbed_fraction over SEEDS."""
    closed = extinction_probability(params.z0, params)
    t0 = time.process_time()
    runs = np.array([absorbed_fraction(params, cfg, N, seed) for seed in SEEDS])
    cpu = time.process_time() - t0
    p, se = runs[:, 0], runs[:, 1]
    z = (p - closed) / se
    k = len(SEEDS)
    return {
        "params": {"alpha": params.alpha, "sigma_e": params.sigma_e,
                   "sigma_b": params.sigma_b, "z0": params.z0},
        "dt": cfg.dt,
        "horizon": cfg.horizon,
        "closed_form": closed,
        "mean_p": float(p.mean()),
        "mean_se": float(se.mean()),
        "mean_z": float(z.mean()),
        "mean_z_se": 1.0 / math.sqrt(k),
        "mean_z2": float((z * z).mean()),
        "mean_z2_bounds": [float(chi2.ppf(0.001, k) / k), float(chi2.ppf(0.999, k) / k)],
        "share_abs_z_over_3": float(np.mean(np.abs(z) > 3.0)),
        "pooled_bias": float(p.mean() - closed),
        "pooled_bias_se": float(math.sqrt(np.mean(se * se) / k)),
        "cpu_s": round(cpu, 1),
    }


def main() -> None:
    out = {
        "what": "absorbed_fraction against the closed form, pooled over seeds",
        "n": N,
        "seeds": f"{SEEDS.start}-{SEEDS.stop - 1}",
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "configs": {name: calibrate(*pc) for name, pc in CONFIGS.items()},
    }
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
