"""Reference limiting laws on a checkpoint grid.

All three laws have exactly known finite-dimensional distributions, so
joint samples come from a Cholesky factor of the analytic covariance
rather than path discretization; acceptance comparisons then carry no
discretization bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .innovations import RngStream

STD_NORMAL_IID = "std-normal-iid"
TIME_WEIGHTED_WIENER = "time-weighted-wiener"
WIENER_MARGINALS = "wiener-marginals"


@dataclass(frozen=True)
class LimitSample:
    law: str
    t_values: Tuple[float, ...]
    draws: np.ndarray  # (replications, checkpoints)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc (no cancellation in either tail)."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_cdfs(x) -> np.ndarray:
    """normal_cdf element-wise, bit for bit: numpy negates, divides and
    halves as Python floats do, and erfc is the C library's."""
    z = -np.asarray(x, dtype=float) / math.sqrt(2.0)
    erfc = np.fromiter(map(math.erfc, z.ravel().tolist()), float, z.size)
    return 0.5 * erfc.reshape(z.shape)


def sample_std_normal_iid(n_checkpoints: int, reps: int,
                          stream: RngStream) -> LimitSample:
    if n_checkpoints < 1 or reps < 1:
        raise ValueError("need n_checkpoints >= 1 and reps >= 1")
    rng = stream.generator()
    draws = rng.standard_normal((reps, n_checkpoints))
    return LimitSample(STD_NORMAL_IID,
                       tuple(float(m) for m in range(1, n_checkpoints + 1)),
                       draws)


def time_weighted_wiener_cov(t_values: Sequence[float]) -> np.ndarray:
    """Cov of int_0^{t} x dW at the grid: min(t_m, t_l)^3 / 3 (Ito isometry)."""
    t = np.asarray(t_values, dtype=float)
    return np.minimum.outer(t, t) ** 3 / 3.0


def wiener_cov(t_values: Sequence[float]) -> np.ndarray:
    t = np.asarray(t_values, dtype=float)
    return np.minimum.outer(t, t)


def _gaussian_sample(law: str, cov: np.ndarray, t_values, reps: int,
                     stream: RngStream) -> LimitSample:
    chol = np.linalg.cholesky(cov)
    rng = stream.generator()
    z = rng.standard_normal((reps, cov.shape[0]))
    return LimitSample(law, tuple(float(t) for t in t_values), z @ chol.T)


def sample_time_weighted_wiener(t_values: Sequence[float], reps: int,
                                stream: RngStream) -> LimitSample:
    _check_grid(t_values, reps)
    return _gaussian_sample(TIME_WEIGHTED_WIENER,
                            time_weighted_wiener_cov(t_values), t_values,
                            reps, stream)


def sample_wiener_marginals(t_values: Sequence[float], reps: int,
                            stream: RngStream) -> LimitSample:
    _check_grid(t_values, reps)
    return _gaussian_sample(WIENER_MARGINALS, wiener_cov(t_values), t_values,
                            reps, stream)


def _check_grid(t_values: Sequence[float], reps: int) -> None:
    if reps < 1:
        raise ValueError("reps must be >= 1")
    t = list(t_values)
    if not t or any(x <= 0.0 for x in t):
        raise ValueError("checkpoint fractions must be positive")
    if any(b <= a for a, b in zip(t, t[1:])):
        raise ValueError("checkpoint fractions must be strictly increasing")
