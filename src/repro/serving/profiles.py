"""Named workload profiles: declarative traffic shapes for capacity runs.

A capacity study asks the same question of many configurations — *what
arrival rate can this stack sustain under its SLO?* — and the answer is
only comparable when every configuration faces the **same traffic
shape**.  This module gives those shapes names: a
:class:`WorkloadProfile` declares its request mix as weighted
:class:`WorkloadStream` components (each a prompt/output
:class:`~repro.serving.trace.LengthDistribution` pair plus a scheduler
priority), and compiles to a concrete request trace for any arrival
process — the open-loop driver (:mod:`repro.serving.openloop`) hands it
Poisson arrival stamps, the profile fills in the lengths.

Profiles are registered like codecs and scheduler policies: a module
registry (:data:`PROFILES`), a :func:`get_profile` lookup that raises
:class:`~repro.errors.UnknownSpecError` with a nearest-match hint, and a
:func:`register_profile` hook so experiments can add shapes without
editing this file (docs recipe 6 in ``docs/adding-a-scenario.md``).

Built-in shapes (all deterministic per seed, golden-pinned in
``tests/test_profiles.py``):

* ``fixed_length`` — every request identical (512 prompt / 128 output;
  cv=0).  The control shape: capacity differences between stacks are
  pure configuration, zero workload variance.
* ``chat`` — the interactive mix: 90% short chat turns at priority 1
  over 10% background batch jobs at priority 0 (the multi-tenant
  scenario of :data:`repro.serving.trace.DEFAULT_TENANTS`, recast as a
  single-rate stream mix).
* ``code_generation`` — long prefill, short decode: fat prompts (whole
  files of context) answered with short completions.  Prefill-bound,
  the regime where chunked prefill and prefill/decode disaggregation
  move the knee.
* ``rag_long_context`` — retrieval-augmented generation: very long
  stuffed-context prompts with medium answers.  KV-heaviest shape per
  request, so compressed KV (residency *and* wire) pays most here.
* ``chat_sessions`` — multi-turn sessions (:class:`SessionProfile`):
  a shared system prompt plus per-turn growing history, so consecutive
  turns share a long prompt prefix.  The prefix-cache workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, UnknownSpecError
from ..utils import bounded, check_fields
from .scheduler import Request
from .trace import LengthDistribution, TenantSpec

__all__ = [
    "WorkloadStream",
    "WorkloadProfile",
    "SessionProfile",
    "PROFILES",
    "register_profile",
    "get_profile",
    "list_profiles",
]


@dataclass(frozen=True)
class WorkloadStream:
    """One component of a profile's request mix.

    ``weight`` is the stream's share of arrivals (normalised over the
    profile's streams); lengths come from the clipped log-normal
    :class:`~repro.serving.trace.LengthDistribution` pair, and
    ``priority`` tags the generated requests for priority-aware
    scheduler policies (higher runs first, matching
    :class:`~repro.serving.trace.TenantSpec`).
    """

    weight: float = bounded(gt=0.0)
    prompts: LengthDistribution
    outputs: LengthDistribution
    priority: int = 0

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class WorkloadProfile:
    """A named traffic shape: weighted streams compiling to traces.

    The profile is **rate-free**: it describes what requests look like,
    not how fast they arrive.  Callers bring the arrival process —
    :meth:`trace` pairs the profile with explicit arrival stamps (the
    open-loop driver's path), :meth:`tenant_specs` re-expresses the mix
    as :class:`~repro.serving.trace.TenantSpec` entries for the
    closed-trace :func:`~repro.serving.trace.multi_tenant_trace`
    generator (weights become per-tenant rate shares).
    """

    name: str
    description: str
    streams: dict[str, WorkloadStream] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_fields(self)  # a SessionProfile's two numeric fields
        if not self.name:
            raise ConfigError("profile needs a name")
        if not self.streams:
            raise ConfigError(f"profile {self.name!r} needs >= 1 stream")

    # ------------------------------------------------------------------
    @property
    def total_weight(self) -> float:
        """Sum of stream weights (the mix normaliser)."""
        return sum(s.weight for s in self.streams.values())

    def tenant_specs(
        self, rate_rps: float, n_requests: int
    ) -> dict[str, TenantSpec]:
        """The mix as per-tenant specs at one total offered rate.

        Each stream gets its weight share of both the rate and the
        request count (at least one request each), so
        :func:`~repro.serving.trace.multi_tenant_trace` reproduces the
        profile's mix as superposed Poisson processes.
        """
        if rate_rps <= 0:
            raise ConfigError("rate_rps must be positive")
        if n_requests < len(self.streams):
            raise ConfigError(
                f"profile {self.name!r} needs >= {len(self.streams)}"
                " requests (one per stream)"
            )
        total = self.total_weight
        return {
            name: TenantSpec(
                rate_rps=rate_rps * s.weight / total,
                n_requests=max(1, round(n_requests * s.weight / total)),
                prompts=s.prompts,
                outputs=s.outputs,
                priority=s.priority,
            )
            for name, s in self.streams.items()
        }

    def sample(
        self, n: int, rng: np.random.Generator
    ) -> tuple[list[str], np.ndarray, np.ndarray, list[int]]:
        """Draw ``n`` requests' (stream, prompt_len, output_len, priority).

        Deterministic per RNG state: streams are visited in sorted-name
        order — one weighted assignment draw (skipped entirely for
        single-stream profiles, so their draw sequence matches a bare
        ``LengthDistribution.sample`` pair), then one vectorised length
        pair per stream, scattered back to request positions.
        """
        names = sorted(self.streams)
        if len(names) == 1:
            choice = np.zeros(n, dtype=int)
        else:
            weights = np.array(
                [self.streams[nm].weight for nm in names], dtype=float
            )
            choice = rng.choice(len(names), size=n, p=weights / weights.sum())
        prompts = np.zeros(n, dtype=int)
        outputs = np.zeros(n, dtype=int)
        for i, nm in enumerate(names):
            idx = np.flatnonzero(choice == i)
            if idx.size == 0:
                continue
            stream = self.streams[nm]
            prompts[idx] = stream.prompts.sample(idx.size, rng)
            outputs[idx] = stream.outputs.sample(idx.size, rng)
        tenants = [names[c] for c in choice]
        priorities = [self.streams[t].priority for t in tenants]
        return tenants, prompts, outputs, priorities

    def trace(
        self,
        arrivals: np.ndarray | list[float],
        seed: int = 0,
    ) -> list[Request]:
        """Materialise requests for explicit arrival stamps.

        The arrival process is the caller's (open-loop constant-rate,
        recorded production stamps, anything); the profile only fills in
        per-request lengths, tenants and priorities — which is exactly
        what makes open-loop arrivals completion-independent: the stamps
        are fixed before the simulator runs a single step.
        """
        arrivals = np.asarray(arrivals, dtype=float)
        if arrivals.size == 0:
            raise ConfigError("trace needs at least one arrival")
        if np.any(np.diff(arrivals) < 0):
            raise ConfigError("arrival stamps must be non-decreasing")
        rng = np.random.default_rng(seed)
        tenants, prompts, outputs, priorities = self.sample(
            arrivals.size, rng
        )
        return [
            Request(
                request_id=i,
                prompt_len=int(prompts[i]),
                max_new_tokens=int(outputs[i]),
                arrival_s=float(arrivals[i]),
                tenant=tenants[i],
                priority=priorities[i],
            )
            for i in range(arrivals.size)
        ]


@dataclass(frozen=True)
class SessionProfile(WorkloadProfile):
    """A multi-turn session shape: arrivals are turns, not requests.

    The open-loop driver hands any profile a flat arrival-stamp array;
    a session profile reinterprets stamp ``i`` as **turn ``i // S`` of
    session ``i % S``** with ``S = ceil(n / mean_turns)`` concurrent
    sessions — every arrival keeps its stamp and its draw order (the
    stream's prompt distribution supplies the *user turn* lengths), but
    prompts grow with the session's accumulated history on top of the
    shared ``system_prompt_len``, and each request carries
    ``session_id`` and ``prefix_tokens`` (the context cached by the
    previous turn).  Rate sweeps therefore scale the *session count*,
    not the turns per session, keeping the prefix-reuse structure
    comparable across rates.
    """

    system_prompt_len: int = bounded(256, ge=0)
    mean_turns: float = bounded(4.0, ge=1.0)

    def trace(
        self,
        arrivals: np.ndarray | list[float],
        seed: int = 0,
    ) -> list[Request]:
        arrivals = np.asarray(arrivals, dtype=float)
        if arrivals.size == 0:
            raise ConfigError("trace needs at least one arrival")
        if np.any(np.diff(arrivals) < 0):
            raise ConfigError("arrival stamps must be non-decreasing")
        rng = np.random.default_rng(seed)
        n = int(arrivals.size)
        tenants, user_lens, outputs, priorities = self.sample(n, rng)
        n_sessions = max(1, -(-n // int(round(self.mean_turns))))
        context: dict[int, int] = {}
        requests = []
        for i in range(n):
            sid = i % n_sessions
            cached = context.get(sid, 0)
            prompt = (
                (cached if cached else self.system_prompt_len)
                + int(user_lens[i])
            )
            requests.append(Request(
                request_id=i,
                prompt_len=prompt,
                max_new_tokens=int(outputs[i]),
                arrival_s=float(arrivals[i]),
                tenant=tenants[i],
                priority=priorities[i],
                session_id=sid,
                prefix_tokens=cached,
            ))
            context[sid] = prompt + int(outputs[i])
        return requests


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
#: Registered profiles by name.  Mutated only via
#: :func:`register_profile`; look up via :func:`get_profile`.
PROFILES: dict[str, WorkloadProfile] = {}


def register_profile(profile: WorkloadProfile) -> WorkloadProfile:
    """Add a profile to the registry (its ``name`` is the key).

    Re-registering an existing name raises — capacity baselines key on
    profile names, and silently redefining one would corrupt every
    comparison against the committed knees.
    """
    if profile.name in PROFILES:
        raise ConfigError(
            f"workload profile {profile.name!r} is already registered"
        )
    PROFILES[profile.name] = profile
    return profile


def get_profile(name: str | WorkloadProfile) -> WorkloadProfile:
    """Look up a profile by name (instances pass through unchanged)."""
    if isinstance(name, WorkloadProfile):
        return name
    try:
        return PROFILES[name]
    except KeyError:
        raise UnknownSpecError(
            "workload profile", name, list(PROFILES)
        ) from None


def list_profiles() -> list[str]:
    """Registered profile names, sorted."""
    return sorted(PROFILES)


# ----------------------------------------------------------------------
# Built-in shapes
# ----------------------------------------------------------------------
register_profile(WorkloadProfile(
    name="fixed_length",
    description=(
        "Every request identical: 512-token prompt, 128-token output."
        " The control shape — zero workload variance, so capacity"
        " differences are pure configuration."
    ),
    streams={
        "fixed": WorkloadStream(
            weight=1.0,
            prompts=LengthDistribution(mean=512, cv=0.0, minimum=512,
                                       maximum=512),
            outputs=LengthDistribution(mean=128, cv=0.0, minimum=128,
                                       maximum=128),
        ),
    },
))

register_profile(WorkloadProfile(
    name="chat",
    description=(
        "Interactive mix: 90% short chat turns (priority 1) over 10%"
        " background batch jobs — the DEFAULT_TENANTS scenario as a"
        " single-rate stream mix."
    ),
    streams={
        "interactive": WorkloadStream(
            weight=0.9,
            prompts=LengthDistribution(mean=128, cv=0.6, minimum=16,
                                       maximum=512),
            outputs=LengthDistribution(mean=96, cv=0.8, minimum=8,
                                       maximum=384),
            priority=1,
        ),
        "batch": WorkloadStream(
            weight=0.1,
            prompts=LengthDistribution(mean=768, cv=0.5, minimum=128,
                                       maximum=2048),
            outputs=LengthDistribution(mean=384, cv=0.6, minimum=64,
                                       maximum=1024),
        ),
    },
))

register_profile(WorkloadProfile(
    name="code_generation",
    description=(
        "Long prefill, short decode: whole-file prompts answered with"
        " short completions. Prefill-bound — the regime where chunked"
        " prefill and disaggregation move the knee."
    ),
    streams={
        "completion": WorkloadStream(
            weight=1.0,
            prompts=LengthDistribution(mean=1536, cv=0.5, minimum=256,
                                       maximum=4096),
            outputs=LengthDistribution(mean=48, cv=0.6, minimum=8,
                                       maximum=192),
        ),
    },
))

register_profile(SessionProfile(
    name="chat_sessions",
    description=(
        "Multi-turn chat sessions: a shared system prompt plus history"
        " that grows every turn, so consecutive turns share a long"
        " prompt prefix. The prefix-cache workload — cached prefill is"
        " skipped, turning cache capacity (and cold-tier compression"
        " ratio) into knee throughput."
    ),
    streams={
        "sessions": WorkloadStream(
            weight=1.0,
            prompts=LengthDistribution(mean=64, cv=0.6, minimum=8,
                                       maximum=256),
            outputs=LengthDistribution(mean=128, cv=0.7, minimum=16,
                                       maximum=384),
        ),
    },
    system_prompt_len=256,
    mean_turns=4.0,
))

register_profile(WorkloadProfile(
    name="rag_long_context",
    description=(
        "Retrieval-augmented generation: very long stuffed-context"
        " prompts with medium answers. KV-heaviest shape per request,"
        " where compressed KV (residency and wire) pays most."
    ),
    streams={
        "rag": WorkloadStream(
            weight=1.0,
            prompts=LengthDistribution(mean=3072, cv=0.4, minimum=512,
                                       maximum=8192),
            outputs=LengthDistribution(mean=256, cv=0.5, minimum=32,
                                       maximum=768),
        ),
    },
))
