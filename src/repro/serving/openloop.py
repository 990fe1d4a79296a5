"""Open-loop load generation and saturating-rate (knee) search.

Closed-loop replay — the repository's historical mode — feeds the next
request only after earlier ones make room, so an overloaded server
quietly slows its own offered load and every configuration looks
feasible.  **Open-loop** load is the capacity-measurement discipline: a
constant-rate Poisson process fixes every arrival stamp *before the
simulator runs a single step*, so arrivals are completion-independent by
construction and overload shows up as what it is — queues growing
without bound, TTFT diverging, goodput collapsing below the offered
rate.

Three layers:

* :func:`open_loop_arrivals` — the arrival process itself: exponential
  gaps drawn until the horizon is crossed, so the *count* is
  Poisson-random (unlike :func:`~repro.serving.trace.poisson_trace`,
  which fixes the count and lets the horizon float);
* :func:`run_open_loop` — one measurement: materialise a
  :class:`~repro.serving.profiles.WorkloadProfile` trace on those
  stamps, serve it under a hard ``deadline_s`` (overloaded runs
  *terminate*, with the backlog counted as ``n_unfinished``), and
  summarise the steady-state window — arrivals inside
  ``[warmup_s, duration_s - cooldown_s)`` — via
  :meth:`~repro.serving.metrics.ContinuousResult.window_metrics`;
* :func:`find_knee` — bisection over offered rate for the **knee**: the
  highest rate whose measurement still looks feasible (by default
  :func:`goodput_feasible` — steady goodput within ``rel_eps`` of the
  offered rate).  The bracket is probe-bounded, so non-monotone noise
  near saturation can cost accuracy but never termination.

Conservation (property-tested in ``tests/test_openloop.py``): at every
deadline, ``finished + unfinished + rejected == offered``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..utils import require_finite
from .metrics import ContinuousResult, ServingMetrics, SLOTarget
from .profiles import WorkloadProfile, get_profile
from .scheduler import Request

__all__ = [
    "open_loop_arrivals",
    "OpenLoopResult",
    "run_open_loop",
    "goodput_feasible",
    "KneeResult",
    "find_knee",
]

#: Gap-draw chunk size: E[count] + 6 sigma covers almost every horizon
#: in one draw; the loop below handles the tail.
_CHUNK_SLACK_SIGMA = 6.0


def open_loop_arrivals(
    rate_rps: float,
    duration_s: float,
    seed: int = 0,
) -> np.ndarray:
    """Poisson arrival stamps in ``[0, duration_s)`` at ``rate_rps``.

    The defining open-loop property: the stamps are a pure function of
    ``(rate_rps, duration_s, seed)`` — the server's speed cannot touch
    them.  Exponential gaps are drawn in vectorised chunks until their
    cumulative sum crosses the horizon, then truncated, so the arrival
    *count* is Poisson-distributed (mean ``rate * duration``) rather
    than fixed.  May legitimately be empty when ``rate * duration`` is
    tiny.
    """
    require_finite(rate_rps=rate_rps, duration_s=duration_s)
    if rate_rps <= 0:
        raise ConfigError("rate_rps must be positive")
    if duration_s <= 0:
        raise ConfigError("duration_s must be positive")
    rng = np.random.default_rng(seed)
    expected = rate_rps * duration_s
    chunk = max(16, int(expected + _CHUNK_SLACK_SIGMA * np.sqrt(expected)))
    gaps = rng.exponential(1.0 / rate_rps, size=chunk)
    total = float(gaps.sum())
    parts = [gaps]
    while total < duration_s:
        more = rng.exponential(1.0 / rate_rps, size=chunk)
        parts.append(more)
        total += float(more.sum())
    arrivals = np.cumsum(np.concatenate(parts) if len(parts) > 1 else gaps)
    return arrivals[arrivals < duration_s]


@dataclass(frozen=True)
class OpenLoopResult:
    """One open-loop measurement at one offered rate.

    ``result`` is the full deadline-bounded
    :class:`~repro.serving.metrics.ContinuousResult` (conservation:
    ``result.n_requests + result.n_unfinished + result.n_rejected ==
    n_offered``); ``steady`` summarises only the steady-state cohort —
    requests that *arrived* inside ``[steady_start_s, steady_end_s)`` —
    with the window length as the goodput denominator, so
    ``steady.goodput_rps`` is directly comparable to ``rate_rps``.
    """

    profile: str
    rate_rps: float
    duration_s: float
    warmup_s: float
    cooldown_s: float
    deadline_s: float
    n_offered: int
    result: ContinuousResult
    steady: ServingMetrics
    #: Requests whose arrival stamp fell inside the steady window —
    #: counted from the *offered* trace, so never-started requests are
    #: in (``steady.n_timings`` can be smaller).
    n_steady_offered: int = 0

    @property
    def steady_start_s(self) -> float:
        """Steady window start (end of warmup)."""
        return self.warmup_s

    @property
    def steady_end_s(self) -> float:
        """Steady window end (start of cooldown)."""
        return self.duration_s - self.cooldown_s

    @property
    def offered_rps(self) -> float:
        """Realised offered rate (drawn count over the horizon)."""
        return self.n_offered / self.duration_s

    @property
    def steady_offered_rps(self) -> float:
        """Realised offered rate inside the steady window.

        The feasibility reference: at the small request counts a short
        horizon draws, Poisson count noise makes the realised window
        rate differ materially from the nominal ``rate_rps``, and
        goodput can only answer for what actually arrived.
        """
        return self.n_steady_offered / (self.steady_end_s
                                        - self.steady_start_s)

    @property
    def steady_slo_violation_rate(self) -> float:
        """Fraction of steady-offered requests that missed the SLO.

        Offered-based, unlike ``steady.slo_violation_rate`` (which is
        timing-based): a request that never produced a first token by
        the deadline has no timing at all, yet is plainly a violation —
        in deep overload the *entire* steady cohort can be in that
        state.  Good count is recovered from the window goodput
        (``goodput_rps * window length``), so this is exactly
        ``1 - good / offered``; 0 when nothing was offered.
        """
        if self.n_steady_offered == 0:
            return 0.0
        window = self.steady_end_s - self.steady_start_s
        n_good = self.steady.goodput_rps * window
        return max(0.0, 1.0 - n_good / self.n_steady_offered)


def run_open_loop(
    serve,
    profile: str | WorkloadProfile,
    rate_rps: float,
    duration_s: float,
    *,
    warmup_s: float = 0.0,
    cooldown_s: float = 0.0,
    deadline_s: float | None = None,
    slo: SLOTarget | None = None,
    seed: int = 0,
) -> OpenLoopResult:
    """One open-loop run: offer ``rate_rps`` for ``duration_s`` seconds.

    ``serve`` is any callable ``(requests, deadline_s) -> ContinuousResult``
    honouring the deadline contract —
    ``functools.partial``-style wrappers over
    :meth:`~repro.serving.engine.InferenceEngine.serve` in practice, a
    synthetic stub in the unit tests.  Arrivals come from
    :func:`open_loop_arrivals` and lengths from the named profile, both
    fixed before ``serve`` runs: nothing the server does can reshape its
    own offered load.

    ``deadline_s`` defaults to ``3 * duration_s`` — generous drain time
    for a feasible run (which finishes early anyway; the kernel stops at
    its last event, not at the deadline) while bounding an overloaded
    one.  It must cover the full offered horizon (``>= duration_s``).

    ``warmup_s``/``cooldown_s`` trim the steady window: warmup excludes
    the empty-system transient (the first arrivals see an idle server no
    steady state ever sees), cooldown excludes the tail cohort whose
    completions race the deadline.
    """
    profile = get_profile(profile)
    if duration_s <= 0:
        raise ConfigError("duration_s must be positive")
    if warmup_s < 0 or cooldown_s < 0:
        raise ConfigError("warmup_s and cooldown_s must be >= 0")
    if warmup_s + cooldown_s >= duration_s:
        raise ConfigError(
            "warmup_s + cooldown_s must leave a non-empty steady window"
            f" (got {warmup_s} + {cooldown_s} >= {duration_s})"
        )
    if deadline_s is None:
        deadline_s = 3.0 * duration_s
    if deadline_s < duration_s:
        raise ConfigError(
            "deadline_s must cover the offered horizon"
            f" ({deadline_s} < {duration_s})"
        )
    arrivals = open_loop_arrivals(rate_rps, duration_s, seed=seed)
    if arrivals.size == 0:
        # Legitimately nothing offered (tiny rate * duration): an empty
        # measurement, not an error — the knee search probes low rates.
        empty = ContinuousResult.from_run(
            [], makespan_s=0.0, n_steps=0, peak_running=0, slo=slo,
            deadline_s=deadline_s,
        )
        return OpenLoopResult(
            profile=profile.name, rate_rps=rate_rps,
            duration_s=duration_s, warmup_s=warmup_s,
            cooldown_s=cooldown_s, deadline_s=deadline_s, n_offered=0,
            result=empty, steady=empty.metrics,
        )
    requests = profile.trace(arrivals, seed=seed)
    result = serve(requests, deadline_s)
    if result.n_offered != len(requests):
        raise ConfigError(
            "serve callable lost requests:"
            f" finished {result.n_requests} + unfinished"
            f" {result.n_unfinished} + rejected {result.n_rejected}"
            f" != offered {len(requests)}"
        )
    steady = result.window_metrics(
        warmup_s, duration_s - cooldown_s, slo=slo
    )
    n_steady = int(np.count_nonzero(
        (arrivals >= warmup_s) & (arrivals < duration_s - cooldown_s)
    ))
    return OpenLoopResult(
        profile=profile.name,
        rate_rps=rate_rps,
        duration_s=duration_s,
        warmup_s=warmup_s,
        cooldown_s=cooldown_s,
        deadline_s=deadline_s,
        n_offered=len(requests),
        result=result,
        steady=steady,
        n_steady_offered=n_steady,
    )


def goodput_feasible(
    measurement: OpenLoopResult, rel_eps: float = 0.1
) -> bool:
    """Did the steady window sustain the offered rate (within ε)?

    Feasible means steady-window SLO goodput within ``rel_eps`` of the
    *realised* steady-window offered rate
    (:attr:`OpenLoopResult.steady_offered_rps` — what actually arrived,
    which Poisson count noise separates from the nominal rate at short
    horizons).  Below the knee goodput tracks the offered rate; past it
    goodput flattens or collapses while the offered rate keeps climbing,
    so this predicate flips — which is exactly the boundary
    :func:`find_knee` bisects.  A measurement with an empty steady
    window is vacuously feasible (nothing was asked, nothing was
    missed).
    """
    if measurement.n_steady_offered == 0:
        return True
    return measurement.steady.goodput_rps >= (
        (1.0 - rel_eps) * measurement.steady_offered_rps
    )


@dataclass(frozen=True)
class KneeResult:
    """Outcome of a saturating-rate bisection."""

    #: Highest offered rate observed feasible (the knee's lower edge).
    knee_rps: float
    #: Final bracket: ``knee_rps`` feasible, ``infeasible_rps`` not
    #: (``inf`` when even the top of the search range was feasible).
    infeasible_rps: float
    #: Probes actually run, including the bracket endpoints.
    n_probes: int
    #: Every probe as ``(rate_rps, feasible)``, in probe order.
    history: tuple[tuple[float, bool], ...] = field(default=())

    @property
    def converged(self) -> bool:
        """Whether a finite bracket was found and tightened."""
        return np.isfinite(self.infeasible_rps) and self.knee_rps > 0.0


def find_knee(
    probe,
    lo_rps: float,
    hi_rps: float,
    *,
    rate_tol_rps: float = 0.25,
    max_probes: int = 12,
) -> KneeResult:
    """Bisect the feasible/infeasible boundary of ``probe`` over rate.

    ``probe`` is ``(rate_rps) -> bool`` — one open-loop measurement fed
    through a feasibility predicate (:func:`goodput_feasible` composed
    over :func:`run_open_loop`, in the capacity bench).  The search
    first classifies the endpoints: an infeasible ``lo_rps`` returns
    knee 0 (nothing in range is sustainable), a feasible ``hi_rps``
    returns the knee clamped to ``hi_rps`` (saturation is beyond the
    range).  Otherwise it halves the bracket until it is narrower than
    ``rate_tol_rps`` or ``max_probes`` measurements have run.

    Termination is **unconditional**: every iteration either shrinks the
    bracket by half or spends a probe, so a noisy, non-monotone probe
    (goodput jitter near saturation) can misplace the knee by at most
    the bracket width — it cannot loop.  The invariant maintained is
    only that ``lo`` *observed* feasible and ``hi`` *observed*
    infeasible.
    """
    if not 0 < lo_rps < hi_rps:
        raise ConfigError(
            f"need 0 < lo_rps < hi_rps, got ({lo_rps}, {hi_rps})"
        )
    if rate_tol_rps <= 0:
        raise ConfigError("rate_tol_rps must be positive")
    if max_probes < 2:
        raise ConfigError("max_probes must be >= 2 (the endpoints)")
    history: list[tuple[float, bool]] = []

    def measure(rate: float) -> bool:
        ok = bool(probe(rate))
        history.append((rate, ok))
        return ok

    if not measure(lo_rps):
        return KneeResult(
            knee_rps=0.0, infeasible_rps=lo_rps,
            n_probes=len(history), history=tuple(history),
        )
    if measure(hi_rps):
        return KneeResult(
            knee_rps=hi_rps, infeasible_rps=float("inf"),
            n_probes=len(history), history=tuple(history),
        )
    lo, hi = lo_rps, hi_rps
    while hi - lo > rate_tol_rps and len(history) < max_probes:
        mid = 0.5 * (lo + hi)
        if measure(mid):
            lo = mid
        else:
            hi = mid
    return KneeResult(
        knee_rps=lo, infeasible_rps=hi,
        n_probes=len(history), history=tuple(history),
    )
