"""Two-phase MMPP fitting and generation (KPC-Toolbox substitute, §IV-A).

The paper regenerates real traces by fitting a two-phase Markov-
modulated Poisson process (a MAP(2)) to extracted statistics with the
KPC-Toolbox and replaying it.  This module implements the same pipeline:

* :class:`MMPP2` — the process itself, with exact inter-arrival moment
  and lag-1 autocorrelation formulas derived from its MAP
  representation ``(D0, D1)``;
* :func:`fit_mmpp2` — least-squares moment matching of
  ``(mean, SCV, lag-1 autocorrelation)`` in log-parameter space;
* :func:`generate_mmpp_trace` — CTMC simulation producing a bursty
  request trace, with request sizes drawn from a lognormal matched to a
  target mean/SCV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.sim.rng import make_rng
from repro.workloads.micro import DEFAULT_ADDRESS_SPACE_SECTORS
from repro.workloads.request import IORequest, OpType
from repro.workloads.traces import Trace


@dataclass(frozen=True)
class MMPP2:
    """A two-state Markov-modulated Poisson process.

    State ``i`` emits arrivals at Poisson rate ``lambdas[i]`` (events per
    ns) and switches to the other state at rate ``switch[i]``.
    """

    lambda1: float
    lambda2: float
    r12: float
    r21: float

    def __post_init__(self) -> None:
        for name in ("lambda1", "lambda2", "r12", "r21"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    # -- MAP representation ------------------------------------------------
    @property
    def d0(self) -> np.ndarray:
        """Generator of phase transitions without arrivals."""
        return np.array(
            [
                [-(self.lambda1 + self.r12), self.r12],
                [self.r21, -(self.lambda2 + self.r21)],
            ]
        )

    @property
    def d1(self) -> np.ndarray:
        """Arrival-rate matrix (diagonal for an MMPP)."""
        return np.diag([self.lambda1, self.lambda2])

    @property
    def stationary_phase(self) -> np.ndarray:
        """Stationary distribution of the CTMC modulating chain."""
        total = self.r12 + self.r21
        return np.array([self.r21 / total, self.r12 / total])

    @property
    def mean_rate(self) -> float:
        """Long-run arrival rate (events per ns)."""
        pi = self.stationary_phase
        return float(pi[0] * self.lambda1 + pi[1] * self.lambda2)

    def _embedded(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(φ, (-D0)^{-1}, P): stationary arrival-phase vector, inverse, P."""
        inv = np.linalg.inv(-self.d0)
        p = inv @ self.d1
        # Stationary vector of P: solve φP = φ, φ1 = 1.
        eigvals, eigvecs = np.linalg.eig(p.T)
        idx = int(np.argmin(np.abs(eigvals - 1.0)))
        phi = np.real(eigvecs[:, idx])
        phi = phi / phi.sum()
        return phi, inv, p

    # -- inter-arrival statistics -------------------------------------------
    # Each statistic is a function of the embedded chain; the public
    # methods build it once per call, :meth:`fit_statistics` once for all.
    def interarrival_mean(self) -> float:
        phi, inv, _ = self._embedded()
        return _mean(phi, inv)

    def interarrival_moment(self, k: int) -> float:
        """k-th raw moment of the stationary inter-arrival time."""
        if k < 1:
            raise ValueError(f"moment order must be >= 1, got {k}")
        phi, inv, _ = self._embedded()
        return _moment(k, phi, inv)

    def interarrival_scv(self) -> float:
        phi, inv, _ = self._embedded()
        return _scv(phi, inv)

    def autocorrelation(self, lag: int = 1) -> float:
        """Lag-``k`` autocorrelation of consecutive inter-arrival times."""
        if lag < 1:
            raise ValueError(f"lag must be >= 1, got {lag}")
        return _autocorrelation(lag, *self._embedded())

    def fit_statistics(self) -> tuple[float, float, float]:
        """(mean, SCV, lag-1 autocorrelation) from one embedded chain.

        Bit-identical to the three public methods; :func:`fit_mmpp2`'s
        residual calls this once per evaluation.
        """
        phi, inv, p = self._embedded()
        return _mean(phi, inv), _scv(phi, inv), _autocorrelation(1, phi, inv, p)

    # -- generation ----------------------------------------------------------
    def sample_interarrivals(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Simulate ``n`` inter-arrival times (ns, float) from the CTMC."""
        if n < 0:
            raise ValueError("n must be non-negative")
        lambdas = (self.lambda1, self.lambda2)
        switch = (self.r12, self.r21)
        # Start in the stationary phase of the modulating chain.
        state = 0 if rng.random() < self.stationary_phase[0] else 1
        out = np.empty(n)
        for i in range(n):
            t = 0.0
            while True:
                lam, sw = lambdas[state], switch[state]
                dwell = rng.exponential(1.0 / (lam + sw))
                t += dwell
                # The event ending the dwell is an arrival w.p. λ/(λ+r).
                if rng.random() < lam / (lam + sw):
                    break
                state = 1 - state
            out[i] = t
        return out


def _mean(phi: np.ndarray, inv: np.ndarray) -> float:
    ones = np.ones(2)
    return float(phi @ inv @ ones)


def _moment(k: int, phi: np.ndarray, inv: np.ndarray) -> float:
    ones = np.ones(2)
    return float(math.factorial(k) * phi @ np.linalg.matrix_power(inv, k) @ ones)


def _scv(phi: np.ndarray, inv: np.ndarray) -> float:
    m1 = _moment(1, phi, inv)
    m2 = _moment(2, phi, inv)
    return (m2 - m1**2) / m1**2


def _autocorrelation(lag: int, phi: np.ndarray, inv: np.ndarray, p: np.ndarray) -> float:
    """Lag-``lag`` autocorrelation from the embedded chain (phi, inv, P)."""
    ones = np.ones(2)
    m1 = float(phi @ inv @ ones)
    m2 = float(2.0 * phi @ inv @ inv @ ones)
    var = m2 - m1**2
    if var <= 0:
        return 0.0
    joint = float(phi @ inv @ np.linalg.matrix_power(p, lag) @ inv @ ones)
    return (joint - m1**2) / var


def _mmpp_from_logparams(x: np.ndarray) -> MMPP2:
    l1, l2, r12, r21 = np.exp(x)
    return MMPP2(lambda1=l1, lambda2=l2, r12=r12, r21=r21)


def fit_mmpp2(
    mean_interarrival_ns: float,
    scv: float,
    autocorr_lag1: float = 0.0,
    *,
    max_iter: int = 200,
) -> MMPP2:
    """Fit an MMPP(2) to (mean, SCV, lag-1 autocorrelation).

    SCV must exceed 1 for a genuinely bursty MMPP; values at or below 1
    are clamped to a near-Poisson process (SCV→1⁺), which is what the
    KPC-Toolbox does for non-bursty traces as well.  Feasible lag-1
    autocorrelation for an MMPP(2) is bounded by roughly
    ``(scv-1)/(2*scv)``; infeasible targets are clamped.
    """
    if mean_interarrival_ns <= 0:
        raise ValueError("mean inter-arrival must be positive")
    if scv < 0:
        raise ValueError("SCV must be non-negative")

    scv = max(scv, 1.0 + 1e-6)
    rho_max = (scv - 1.0) / (2.0 * scv)
    autocorr_lag1 = float(np.clip(autocorr_lag1, 0.0, 0.98 * rho_max))

    rate = 1.0 / mean_interarrival_ns
    # Initial guess: two rates straddling the mean, slow switching.
    x0 = np.log([rate * 2.0, rate * 0.4, rate / 50.0, rate / 50.0])
    target = np.array([np.log(mean_interarrival_ns), scv, autocorr_lag1])

    def residuals(x: np.ndarray) -> np.ndarray:
        try:
            mean, scv, rho1 = _mmpp_from_logparams(x).fit_statistics()
            return np.array(
                [
                    np.log(mean) - target[0],
                    scv - target[1],
                    # Autocorrelation is small in magnitude; weight it up so
                    # the optimizer does not ignore it next to the SCV term.
                    10.0 * (rho1 - target[2]),
                ]
            )
        except (np.linalg.LinAlgError, ValueError, OverflowError):
            return np.array([1e3, 1e3, 1e3])

    # Imported here: scipy.optimize costs ~0.6 s and ~45 MB, and only fitting needs it.
    from scipy.optimize import least_squares

    result = least_squares(residuals, x0, max_nfev=max_iter * 4, xtol=1e-12, ftol=1e-12)
    return _mmpp_from_logparams(result.x)


def lognormal_params(mean: float, scv: float) -> tuple[float, float]:
    """(mu, sigma) of a lognormal with the given mean and SCV."""
    if mean <= 0:
        raise ValueError("mean must be positive")
    if scv < 0:
        raise ValueError("SCV must be non-negative")
    sigma2 = np.log(1.0 + max(scv, 1e-9))
    mu = np.log(mean) - sigma2 / 2.0
    return float(mu), float(np.sqrt(sigma2))


def generate_mmpp_trace(
    process: MMPP2,
    *,
    n_requests: int,
    op: OpType,
    mean_size_bytes: float,
    size_scv: float = 1.0,
    size_align_bytes: int = 4096,
    address_space_sectors: int = DEFAULT_ADDRESS_SPACE_SECTORS,
    seed: int | None = None,
    start_ns: int = 0,
) -> Trace:
    """Generate a single-direction trace with MMPP arrivals.

    Sizes are lognormal with the requested mean and SCV, aligned up to
    ``size_align_bytes``.
    """
    if n_requests < 0:
        raise ValueError("n_requests must be non-negative")
    rng = make_rng(seed)
    inter = process.sample_interarrivals(n_requests, rng)
    arrivals = start_ns + np.cumsum(inter).astype(np.int64)
    align = size_align_bytes
    # Compensate the ~align/2 mean inflation of ceil-alignment.
    target = max(align / 2.0, mean_size_bytes - align / 2.0)
    mu, sigma = lognormal_params(target, size_scv)
    raw = rng.lognormal(mu, sigma, size=n_requests)
    sizes = np.maximum(align, (np.ceil(raw / align) * align).astype(np.int64))
    requests = [
        IORequest(
            arrival_ns=int(t),
            op=op,
            lba=int(rng.integers(0, address_space_sectors)),
            size_bytes=int(s),
        )
        for t, s in zip(arrivals, sizes)
    ]
    return Trace(requests)

