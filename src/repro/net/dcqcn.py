"""DCQCN reaction-point (RP) state machine — Zhu et al., SIGCOMM'15.

Per-flow sender-side rate control:

* **on CNP**: remember the current rate as the target, cut the current
  rate by ``alpha/2``, and raise ``alpha`` (congestion severity
  estimate);
* **alpha decay**: every ``alpha_timer_ns`` without a CNP, decay alpha;
* **rate increase**: two independent counters — an elapsed-time timer
  and a transmitted-byte counter — each advance a stage; the first
  ``fast_recovery_threshold`` stages halve the gap to the target (fast
  recovery), later stages grow the target additively, and much later
  hyper-additively.

The :class:`RateChange` listener hook is the integration point SRC uses:
every decrease is a *pause* event carrying the demanded sending rate,
and increases back toward line rate are *retrieval* events (§III-C).

Timer implementation
--------------------
The original RP as specified runs *two* always-rescheduling timer events
per congested flow.  Only one of them — the rate-increase timer — has
externally visible effects at its firing time (rate changes feed pacing
and listeners).  Alpha, by contrast, is only ever *read* when the next
CNP arrives, so its decay is evaluated lazily here: :attr:`alpha` is
computed from the elapsed time since the last CNP, replaying exactly the
multiplicative decays the scheduled events would have applied (same
repeated-multiplication float sequence, so results are bit-identical).
A decay boundary coinciding exactly with a CNP counts as having fired
first, matching the event engine's tie-break (the decay event is pushed
long before the packet-arrival event, so it carries the lower sequence
number whenever the propagation delay is below ``alpha_timer_ns``).
Each flow therefore schedules at most one real event — the increase
timer — and a CNP burst cancels/reschedules one event instead of two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import numpy.typing as npt

from repro.sim.engine import Simulator
from repro.sim.units import gbps_to_bytes_per_ns

FloatArray = npt.NDArray[np.float64]


@dataclass(frozen=True, slots=True)
class DCQCNConfig:
    """RP parameters (SIGCOMM'15 defaults, scaled to 40 Gbps links)."""

    line_rate_gbps: float = 40.0
    min_rate_gbps: float = 0.1
    g: float = 1 / 16  # alpha gain
    initial_alpha: float = 1.0
    alpha_timer_ns: int = 55_000
    increase_timer_ns: int = 55_000
    byte_counter_bytes: int = 10 * 1024 * 1024
    fast_recovery_threshold: int = 5
    rate_ai_gbps: float = 0.4  # additive increase step
    rate_hai_gbps: float = 4.0  # hyper increase step

    def __post_init__(self) -> None:
        if self.line_rate_gbps <= 0 or self.min_rate_gbps <= 0:
            raise ValueError("rates must be positive")
        if self.min_rate_gbps > self.line_rate_gbps:
            raise ValueError("min rate exceeds line rate")
        if not 0 < self.g <= 1:
            raise ValueError("g must be in (0, 1]")
        if self.alpha_timer_ns <= 0 or self.increase_timer_ns <= 0:
            raise ValueError("timers must be positive")
        if self.byte_counter_bytes <= 0:
            raise ValueError("byte counter must be positive")
        if self.fast_recovery_threshold < 1:
            raise ValueError("fast recovery threshold must be >= 1")


@dataclass(frozen=True)
class RateChange:
    """One rate adjustment, as reported to listeners."""

    time_ns: int
    rate_gbps: float
    decreased: bool  # True = cut (pause-like), False = raise (retrieval-like)


class DCQCNRateControl:
    """RP state for one flow."""

    __slots__ = (
        "sim",
        "config",
        "current_rate_gbps",
        "target_rate_gbps",
        "current_bytes_per_ns",
        "_alpha_value",
        "_alpha_anchor_ns",
        "_decay_cap",
        "_bytes_since_increase",
        "_timer_stage",
        "_byte_stage",
        "_congested",
        "_timer_event",
        "listeners",
        "cnp_count",
    )

    def __init__(self, sim: Simulator, config: DCQCNConfig | None = None) -> None:
        self.sim = sim
        self.config = config or DCQCNConfig()
        self.current_rate_gbps = self.config.line_rate_gbps
        self.target_rate_gbps = self.config.line_rate_gbps
        #: Pacing-ready form of ``current_rate_gbps`` (NIC hot path).
        self.current_bytes_per_ns = gbps_to_bytes_per_ns(self.current_rate_gbps)
        # Lazy alpha: value as of the anchor instant, plus the window in
        # which decay boundaries (anchor + k*alpha_timer_ns) still fire.
        self._alpha_value = self.config.initial_alpha
        self._alpha_anchor_ns: int | None = None  # None = no decay accruing
        self._decay_cap: int | None = None  # max decays after congestion cleared
        self._bytes_since_increase = 0
        self._timer_stage = 0
        self._byte_stage = 0
        self._congested = False  # a CNP has been seen since line rate
        self._timer_event = None  # the one real scheduled event per flow
        self.listeners: list[Callable[[RateChange], None]] = []
        self.cnp_count = 0

    # -- lazy alpha --------------------------------------------------------
    @property
    def alpha(self) -> float:
        """Congestion severity estimate, decayed up to the current instant."""
        return self._alpha_at(self.sim.now)

    def _alpha_at(self, now: int) -> float:
        anchor = self._alpha_anchor_ns
        if anchor is None:
            return self._alpha_value
        period = self.config.alpha_timer_ns
        n = (now - anchor) // period
        if n <= 0:
            return self._alpha_value
        cap = self._decay_cap
        if cap is not None and n > cap:
            n = cap
        # Replay the exact repeated multiplication the eager timer
        # performed — (a*f)*f != a*(f*f) in floats, so no pow() shortcut.
        value = self._alpha_value
        factor = 1.0 - self.config.g
        for _ in range(n):
            if value == 0.0:
                break
            value *= factor
        return value

    # -- listener plumbing -------------------------------------------------
    def _notify(self, decreased: bool) -> None:
        change = RateChange(
            time_ns=self.sim.now, rate_gbps=self.current_rate_gbps, decreased=decreased
        )
        for listener in self.listeners:
            listener(change)

    def _set_rate(self, rate_gbps: float, *, decreased: bool) -> None:
        rate_gbps = min(
            self.config.line_rate_gbps, max(self.config.min_rate_gbps, rate_gbps)
        )
        if rate_gbps == self.current_rate_gbps:
            return
        self.current_rate_gbps = rate_gbps
        self.current_bytes_per_ns = gbps_to_bytes_per_ns(rate_gbps)
        self._notify(decreased)

    # -- CNP reaction ----------------------------------------------------------
    def on_cnp(self) -> None:
        """React to a congestion notification packet."""
        self.cnp_count += 1
        now = self.sim.now
        alpha = self._alpha_at(now)  # materialise decays pending since anchor
        self.target_rate_gbps = self.current_rate_gbps
        self._set_rate(self.current_rate_gbps * (1.0 - alpha / 2.0), decreased=True)
        self._alpha_value = (1.0 - self.config.g) * alpha + self.config.g
        self._alpha_anchor_ns = now
        self._decay_cap = None
        self._congested = True
        self._timer_stage = 0
        self._byte_stage = 0
        self._bytes_since_increase = 0
        if self._timer_event is not None:
            self._timer_event.cancel()
        self._timer_event = self.sim.schedule(
            self.config.increase_timer_ns, self._timer_tick
        )

    def _timer_tick(self) -> None:
        if not self._congested:
            return
        self._timer_stage += 1
        # Tie-break for a recovery landing exactly on a decay boundary:
        # the boundary's decay event was pushed one alpha period before
        # the tick's push, so it carries the lower sequence number (and
        # fires first) exactly when alpha_timer_ns >= increase_timer_ns.
        self._increase_rate(
            tie_decay_first=self.config.alpha_timer_ns >= self.config.increase_timer_ns
        )
        self._timer_event = self.sim.schedule(
            self.config.increase_timer_ns, self._timer_tick
        )

    # -- byte counter (driven by the NIC on each data packet sent) -----------
    def on_bytes_sent(self, nbytes: int) -> None:
        if not self._congested:
            return
        self._bytes_since_increase += nbytes
        if self._bytes_since_increase >= self.config.byte_counter_bytes:
            self._bytes_since_increase = 0
            self._byte_stage += 1
            # The byte counter fires from the NIC pump; near recovery the
            # flow paces at ~line rate, so the pump's wake-up was pushed
            # well under one alpha period ago — a same-instant decay
            # boundary always carries the lower sequence number.
            self._increase_rate(tie_decay_first=True)

    # -- increase logic ----------------------------------------------------------
    def _increase_rate(self, *, tie_decay_first: bool) -> None:
        cfg = self.config
        stage = min(self._timer_stage, self._byte_stage)
        if max(self._timer_stage, self._byte_stage) <= cfg.fast_recovery_threshold:
            pass  # fast recovery: target unchanged
        elif stage <= cfg.fast_recovery_threshold:
            self.target_rate_gbps = min(
                cfg.line_rate_gbps, self.target_rate_gbps + cfg.rate_ai_gbps
            )
        else:
            self.target_rate_gbps = min(
                cfg.line_rate_gbps, self.target_rate_gbps + cfg.rate_hai_gbps
            )
        self._set_rate(
            (self.target_rate_gbps + self.current_rate_gbps) / 2.0, decreased=False
        )
        if (
            self.current_rate_gbps >= cfg.line_rate_gbps
            and self.target_rate_gbps >= cfg.line_rate_gbps
        ):
            # Fully recovered; stop the increase machinery until the next
            # CNP.  Freeze the number of decays that may still accrue:
            # every boundary strictly before this instant fired, plus the
            # one decay event still in flight.  A boundary coinciding
            # exactly with this instant counts as already fired only when
            # its decay event carried the lower sequence number
            # (``tie_decay_first``); counting it unconditionally applied
            # one decay too many whenever the clearing event won the tie.
            self._congested = False
            anchor = self._alpha_anchor_ns
            if anchor is not None:
                j, rem = divmod(self.sim.now - anchor, self.config.alpha_timer_ns)
                if rem == 0 and j >= 1 and not tie_decay_first:
                    self._decay_cap = j
                else:
                    self._decay_cap = j + 1


def fluid_rate_step(
    rate_gbps: FloatArray, alpha: FloatArray, mark_prob: FloatArray, config: DCQCNConfig
) -> tuple[FloatArray, FloatArray]:
    """One mean-field DCQCN update, elementwise over fluid-modelled flows.

    The fluid domain (:mod:`repro.net.fluid`) does not see individual
    CNPs; it sees a per-interval ECN marking *probability* derived from
    link utilization.  This function is the expectation of the packet-
    level RP over one control interval under that probability:

    * alpha tracks congestion severity exactly as the RP's EWMA does,
      with the CNP indicator replaced by its mean ``mark_prob``;
    * the multiplicative cut ``rate * alpha/2`` is applied weighted by
      the probability a CNP would have arrived this interval;
    * recovery is the additive-increase step weighted by the
      probability the interval stayed clean (fast recovery and hyper
      increase average out of the mean-field limit — they accelerate
      convergence, not the fixed point).

    Arguments are floats or equal-shape arrays, one element per flow.
    Returns the clamped ``(new_rate_gbps, new_alpha)`` pair.  Pure
    function of its arguments so the solver stays trivially replayable.
    """
    if not np.all((mark_prob >= 0.0) & (mark_prob <= 1.0)):
        raise ValueError(f"mark probability must be in [0, 1], got {mark_prob}")
    g = config.g
    new_alpha = (1.0 - g) * alpha + g * mark_prob
    new_rate = rate_gbps * (1.0 - mark_prob * new_alpha / 2.0)
    new_rate = new_rate + config.rate_ai_gbps * (1.0 - mark_prob)
    new_rate = np.minimum(config.line_rate_gbps, np.maximum(config.min_rate_gbps, new_rate))
    return new_rate, new_alpha
