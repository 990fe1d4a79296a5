"""Synthetic workload traces for continuous-batching experiments.

Serving benchmarks beyond fixed batches need request traces; this module
generates them with the usual shape assumptions: Poisson arrivals and
log-normal prompt/output lengths (heavy-tailed, like real chat traffic).
Everything is seeded for reproducibility.

Three generators: :func:`poisson_trace` (one homogeneous stream),
:func:`multi_tenant_trace` (several streams with per-tenant arrival rates,
length mixes and priorities — the priority scheduler's natural workload)
and :func:`session_trace` (multi-turn sessions with a shared system
prompt, growing history and think-time gaps — the prefix-cache
workload).  All take an explicit ``start_at`` time origin instead of
silently rewriting the first arrival.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..utils import bounded, check_fields, require_finite
from .scheduler import Request


@dataclass(frozen=True)
class LengthDistribution:
    """Clipped log-normal token-length distribution."""

    mean: float = bounded(gt=0.0)
    cv: float = bounded(ge=0.0)  # coefficient of variation (std / mean)
    minimum: int = bounded(ge=1)
    maximum: int = bounded(ge=1)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.maximum < self.minimum:
            raise ConfigError(
                f"maximum must be >= minimum ({self.minimum}),"
                f" got {self.maximum}"
            )

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` integer lengths."""
        if self.cv == 0:
            values = np.full(n, self.mean)
        else:
            # Parameterise the log-normal by its arithmetic mean and CV.
            sigma2 = np.log(1.0 + self.cv**2)
            mu = np.log(self.mean) - sigma2 / 2.0
            values = rng.lognormal(mu, np.sqrt(sigma2), size=n)
        return np.clip(np.rint(values), self.minimum, self.maximum).astype(int)


#: Chat-like defaults: medium prompts, shorter heavy-tailed outputs.
DEFAULT_PROMPTS = LengthDistribution(mean=256, cv=0.8, minimum=16, maximum=2048)
DEFAULT_OUTPUTS = LengthDistribution(mean=192, cv=1.0, minimum=8, maximum=1024)


def _poisson_arrivals(
    n: int,
    rate_rps: float,
    rng: np.random.Generator,
    start_at: float | None,
) -> np.ndarray:
    """Cumulative exponential gaps, optionally re-anchored to ``start_at``.

    ``start_at=None`` keeps the raw process (the first request arrives one
    exponential gap after time zero); a number shifts the whole stream so
    the first arrival lands exactly there, preserving every gap.
    """
    arrivals = np.cumsum(rng.exponential(1.0 / rate_rps, size=n))
    if start_at is not None:
        arrivals += start_at - arrivals[0]
    return arrivals


def poisson_trace(
    n_requests: int,
    rate_rps: float,
    prompts: LengthDistribution = DEFAULT_PROMPTS,
    outputs: LengthDistribution = DEFAULT_OUTPUTS,
    seed: int = 0,
    start_at: float | None = 0.0,
) -> list[Request]:
    """Generate ``n_requests`` with Poisson arrivals at ``rate_rps``.

    ``start_at`` is the explicit time origin: the whole arrival stream is
    shifted so the first request arrives at that instant (default 0.0),
    preserving every inter-arrival gap.  Note this differs from the seed's
    hidden ``arrivals[0] = 0.0`` rewrite, which collapsed only the first
    gap and left later arrivals in place — same-seed traces therefore have
    slightly earlier absolute arrivals than the seed's.  Pass ``None`` to
    keep the unshifted Poisson process.
    """
    if n_requests <= 0:
        raise ConfigError("need at least one request")
    require_finite(rate_rps=rate_rps, start_at=start_at)
    if rate_rps <= 0:
        raise ConfigError("arrival rate must be positive")
    rng = np.random.default_rng(seed)
    arrivals = _poisson_arrivals(n_requests, rate_rps, rng, start_at)
    prompt_lens = prompts.sample(n_requests, rng)
    output_lens = outputs.sample(n_requests, rng)
    return [
        Request(
            request_id=i,
            prompt_len=int(prompt_lens[i]),
            max_new_tokens=int(output_lens[i]),
            arrival_s=float(arrivals[i]),
        )
        for i in range(n_requests)
    ]


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's traffic: arrival rate, length mix, priority."""

    rate_rps: float = bounded(gt=0.0)
    n_requests: int = bounded(ge=1)
    prompts: LengthDistribution = DEFAULT_PROMPTS
    outputs: LengthDistribution = DEFAULT_OUTPUTS
    priority: int = 0

    def __post_init__(self) -> None:
        check_fields(self)


#: An interactive chat tenant plus a bulk batch tenant — the canonical
#: priority-scheduling scenario (short urgent vs long background work).
DEFAULT_TENANTS: dict[str, TenantSpec] = {
    "chat": TenantSpec(
        rate_rps=8.0,
        n_requests=32,
        prompts=LengthDistribution(mean=128, cv=0.6, minimum=16, maximum=512),
        outputs=LengthDistribution(mean=96, cv=0.8, minimum=8, maximum=384),
        priority=1,
    ),
    "batch": TenantSpec(
        rate_rps=2.0,
        n_requests=8,
        prompts=LengthDistribution(mean=768, cv=0.5, minimum=128,
                                   maximum=2048),
        outputs=LengthDistribution(mean=384, cv=0.6, minimum=64,
                                   maximum=1024),
        priority=0,
    ),
}


def multi_tenant_trace(
    tenants: dict[str, TenantSpec] | None = None,
    seed: int = 0,
    start_at: float | None = 0.0,
) -> list[Request]:
    """Merge per-tenant Poisson streams into one trace.

    Each tenant gets its own arrival process and length distributions; the
    merged trace is sorted by arrival time and re-numbered, with every
    request tagged with its tenant name and priority (what the priority
    scheduler keys on).  ``start_at`` anchors the earliest arrival across
    all tenants (``None`` keeps the raw processes).
    """
    tenants = tenants if tenants is not None else DEFAULT_TENANTS
    if not tenants:
        raise ConfigError("need at least one tenant")
    require_finite(start_at=start_at)
    rng = np.random.default_rng(seed)
    drafts: list[tuple[float, str, int, int, TenantSpec]] = []
    for name in sorted(tenants):
        spec = tenants[name]
        arrivals = _poisson_arrivals(
            spec.n_requests, spec.rate_rps, rng, start_at=None
        )
        prompt_lens = spec.prompts.sample(spec.n_requests, rng)
        output_lens = spec.outputs.sample(spec.n_requests, rng)
        for i in range(spec.n_requests):
            drafts.append((
                float(arrivals[i]), name, int(prompt_lens[i]),
                int(output_lens[i]), spec,
            ))
    drafts.sort(key=lambda d: d[0])
    shift = start_at - drafts[0][0] if start_at is not None else 0.0
    return [
        Request(
            request_id=i,
            prompt_len=prompt,
            max_new_tokens=output,
            arrival_s=arrival + shift,
            tenant=name,
            priority=spec.priority,
        )
        for i, (arrival, name, prompt, output, spec) in enumerate(drafts)
    ]


#: Session defaults: short user turns, medium answers — history does the
#: growing, so per-turn drafts stay small.
DEFAULT_SESSION_USER_TURNS = LengthDistribution(
    mean=64, cv=0.6, minimum=8, maximum=256
)
DEFAULT_SESSION_OUTPUTS = LengthDistribution(
    mean=128, cv=0.7, minimum=16, maximum=384
)


def session_trace(
    n_sessions: int,
    session_rate_rps: float,
    mean_turns: float = 4.0,
    max_turns: int = 16,
    system_prompt_len: int = 256,
    user_turns: LengthDistribution = DEFAULT_SESSION_USER_TURNS,
    outputs: LengthDistribution = DEFAULT_SESSION_OUTPUTS,
    think_time_s: float = 2.0,
    seed: int = 0,
    start_at: float | None = 0.0,
) -> list[Request]:
    """Generate a multi-turn session trace (prefix-reuse workload).

    Sessions open as a Poisson process at ``session_rate_rps``.  Each
    session draws a geometric turn count (mean ``mean_turns``, capped at
    ``max_turns``); its first prompt is the shared system prompt plus a
    user turn, and every later turn's prompt is the **whole previous
    context** (prompt + generated answer) plus a fresh user turn —
    conversation history grows monotonically.  Turns are spaced by
    exponential think-time gaps (mean ``think_time_s``) from the
    previous turn's *arrival* (open-loop stamps are fixed up front, so
    gaps cannot depend on simulated completions).

    Every request carries ``session_id`` and ``prefix_tokens`` — the
    leading tokens shared with the previous turn, i.e. what a prefix
    cache can skip.  First turns have ``prefix_tokens=0``.

    Deterministic per seed: one RNG, sessions drawn in index order
    (turn count, user lengths, output lengths, think gaps), merged by
    arrival stamp and renumbered, with ``start_at`` anchoring the
    earliest arrival like the other generators.
    """
    if n_sessions <= 0:
        raise ConfigError("need at least one session")
    require_finite(
        session_rate_rps=session_rate_rps, mean_turns=mean_turns,
        think_time_s=think_time_s, start_at=start_at,
    )
    if session_rate_rps <= 0:
        raise ConfigError("session arrival rate must be positive")
    if mean_turns < 1.0:
        raise ConfigError("mean_turns must be >= 1")
    if max_turns < 1:
        raise ConfigError("max_turns must be >= 1")
    if system_prompt_len < 0:
        raise ConfigError("system_prompt_len must be >= 0")
    if think_time_s < 0:
        raise ConfigError("think_time_s must be >= 0")
    rng = np.random.default_rng(seed)
    starts = _poisson_arrivals(
        n_sessions, session_rate_rps, rng, start_at=None
    )
    drafts: list[tuple[float, int, int, int, int, int]] = []
    for sid in range(n_sessions):
        n_turns = min(int(rng.geometric(1.0 / mean_turns)), max_turns)
        user_lens = user_turns.sample(n_turns, rng)
        output_lens = outputs.sample(n_turns, rng)
        gaps = (
            rng.exponential(think_time_s, size=n_turns - 1)
            if n_turns > 1 and think_time_s > 0
            else np.zeros(max(n_turns - 1, 0))
        )
        arrival = float(starts[sid])
        context = 0
        for turn in range(n_turns):
            if turn:
                arrival += float(gaps[turn - 1])
            prefix = context
            prompt = (
                (context if context else system_prompt_len)
                + int(user_lens[turn])
            )
            drafts.append((
                arrival, sid, turn, prompt, int(output_lens[turn]),
                prefix,
            ))
            context = prompt + int(output_lens[turn])
    drafts.sort(key=lambda d: (d[0], d[1], d[2]))
    shift = start_at - drafts[0][0] if start_at is not None else 0.0
    return [
        Request(
            request_id=i,
            prompt_len=prompt,
            max_new_tokens=output,
            arrival_s=arrival + shift,
            session_id=sid,
            prefix_tokens=prefix,
        )
        for i, (arrival, sid, turn, prompt, output, prefix)
        in enumerate(drafts)
    ]


def closed_loop_trace(
    n_requests: int,
    prompt_len: int,
    output_len: int,
) -> list[Request]:
    """All requests present at time zero (offline / batch inference)."""
    if n_requests <= 0:
        raise ConfigError("need at least one request")
    return [
        Request(i, prompt_len=prompt_len, max_new_tokens=output_len)
        for i in range(n_requests)
    ]


def total_tokens(trace: list[Request]) -> int:
    """Output tokens the trace will produce when fully served."""
    return sum(r.max_new_tokens for r in trace)
