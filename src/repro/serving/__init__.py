"""LLM serving substrate (the vLLM-equivalent the paper integrates into).

The serving simulator is organised as three decoupled layers plus shared
substrate:

* **cost layer** — :mod:`repro.serving.costs`: :class:`StepCostModel`
  implementations turning kernel profiles into per-step time
  (:class:`EngineCostModel`), with :class:`MemoizedStepCostModel` bucketing
  decode contexts so long traces stop recomputing near-identical steps;
* **scheduling layer** — :mod:`repro.serving.scheduler`: FCFS / priority /
  aging-priority / shortest-job-first policies, chunked-prefill planning
  under ``max_batched_tokens``, and recompute preemption when KV fills;
* **serving core + metrics** — :mod:`repro.serving.serve` drives the
  event-driven clock loop; :mod:`repro.serving.metrics` reports TTFT/TPOT,
  interpolated latency percentiles and SLO goodput.

On top of the layers sit two serving topologies, selected by
``ServingConfig.mode`` and both driven by the shared event kernel
(:mod:`repro.serving.kernel` — :class:`EventKernel` over pluggable
:class:`Stage` objects): the colocated :class:`ServingCore` and the
disaggregated :class:`DisaggregatedCore`
(:mod:`repro.serving.disagg` — prefill pool → KV-transfer link → decode
pool, with optional decode→prefill backpressure, per-replica links,
chunked pool prefill and transfer/prefill overlap via
:class:`DisaggConfig`).  Every engine in either topology runs one
iteration, :meth:`EngineReplica.step`; each topology's engine instance
is a *cell* (:class:`ColocatedStage` or :class:`DisaggCell`), which is
also what a fleet router delivers to.  Compression is a first-class
property across the stack: the ``weight_codec`` / ``kv_codec`` /
``transfer_codec`` slots of :class:`ServingConfig` each accept any codec
registered in the unified registry (:mod:`repro.compression`), in any
combination — or ``"auto"``, resolved at config time by a
hardware-aware codec policy (``codec_policy=``) over measured
calibration ratios (``calibration=``; see
:mod:`repro.compression.calibrate` and :mod:`repro.compression.policy`).

Shared substrate: a model zoo with the real layer shapes of the paper's
models, synthetic weight statistics, a paged KV-cache manager, tensor
parallelism, a GPU memory planner, workload-trace generators, and the
:class:`InferenceEngine` facade that wires everything together per
(model, gpu, backend) triple.

The repository-level walkthrough of this architecture — including the
disaggregated data path diagram — lives in ``docs/ARCHITECTURE.md``; the
recipes for adding a scheduler policy or a serving mode live in
``docs/adding-a-scenario.md``.
"""

from .backends import BACKENDS, BackendConfig, get_backend
from .costs import (
    EngineCostModel,
    MemoizedStepCostModel,
    StepBreakdown,
    StepCostModel,
)
from .disagg import (
    ChunkedPrefillPoolStage,
    DecodePoolStage,
    DisaggCell,
    DisaggregatedCore,
    PrefillPoolStage,
    TransferLinkStage,
    resolve_transfer_ratio,
)
from .engine import (
    ContinuousResult,
    InferenceEngine,
    ServeResult,
)
from .fleet import (
    AutoscalerConfig,
    AutoscalerStage,
    FleetConfig,
    FleetCore,
    ScaleEvent,
)
from .kvcache import CompressedKVCacheSpec, KVCacheSpec, PagedKVCache
from .memory_plan import MemoryPlan, plan_memory
from .metrics import (
    LatencySummary,
    PoolStats,
    ReplicaStats,
    RequestTiming,
    ServingMetrics,
    SLOTarget,
    TransferRecord,
    TransferStats,
    collect_timings,
    percentile,
)
from .models import MODELS, LayerShape, ModelSpec, get_model
from .openloop import (
    KneeResult,
    OpenLoopResult,
    find_knee,
    goodput_feasible,
    open_loop_arrivals,
    run_open_loop,
)
from .parallel import TensorParallelLayout, allreduce_time, shard_layer
from .prefixcache import (
    PrefixCache,
    PrefixCacheConfig,
    PrefixCacheStats,
    cold_hit_seconds_per_token,
)
from .profiles import (
    PROFILES,
    SessionProfile,
    WorkloadProfile,
    WorkloadStream,
    get_profile,
    list_profiles,
    register_profile,
)
from .scheduler import (
    POLICIES,
    AgingPriorityPolicy,
    ContinuousBatchScheduler,
    FCFSPolicy,
    PriorityPolicy,
    Request,
    RequestState,
    SchedulerLimits,
    SchedulerPolicy,
    SJFPolicy,
    StaticBatchScheduler,
    StepPlan,
    get_policy,
)
from .kernel import EventKernel, Stage
from .router import (
    ROUTING_POLICIES,
    LeastKVOccupancyPolicy,
    LeastOutstandingPolicy,
    RoundRobinPolicy,
    RouterConfig,
    RouterStage,
    RoutingPolicy,
    SessionAffinityPolicy,
    get_routing_policy,
    list_routing_policies,
    register_routing_policy,
)
from .serve import (
    AUTO_CODEC,
    BackpressureConfig,
    ColocatedStage,
    DisaggConfig,
    EngineReplica,
    ServingConfig,
    ServingCore,
    build_prefix_cache,
)
from .telemetry import (
    PHASES,
    MetricsRegistry,
    RequestAttribution,
    TelemetryConfig,
    TraceEvent,
    TraceRecorder,
    build_recorder,
    recording,
)
from .trace import (
    DEFAULT_SESSION_OUTPUTS,
    DEFAULT_SESSION_USER_TURNS,
    LengthDistribution,
    TenantSpec,
    closed_loop_trace,
    multi_tenant_trace,
    poisson_trace,
    session_trace,
    total_tokens,
)
from .weights import (
    estimate_layer_compression,
    layer_sigma,
    materialize_layer,
    model_compression_report,
)

__all__ = [
    "ModelSpec",
    "LayerShape",
    "MODELS",
    "get_model",
    "BackendConfig",
    "BACKENDS",
    "get_backend",
    "PagedKVCache",
    "KVCacheSpec",
    "CompressedKVCacheSpec",
    "MemoryPlan",
    "plan_memory",
    "Request",
    "RequestState",
    "StaticBatchScheduler",
    "ContinuousBatchScheduler",
    "SchedulerPolicy",
    "FCFSPolicy",
    "PriorityPolicy",
    "AgingPriorityPolicy",
    "SJFPolicy",
    "POLICIES",
    "get_policy",
    "StepPlan",
    "TensorParallelLayout",
    "shard_layer",
    "allreduce_time",
    "InferenceEngine",
    "ServeResult",
    "StepBreakdown",
    "StepCostModel",
    "EngineCostModel",
    "MemoizedStepCostModel",
    "ContinuousResult",
    "SchedulerLimits",
    "AUTO_CODEC",
    "ServingConfig",
    "ServingCore",
    "Stage",
    "EventKernel",
    "EngineReplica",
    "ColocatedStage",
    "DisaggConfig",
    "BackpressureConfig",
    "DisaggregatedCore",
    "DisaggCell",
    "PrefillPoolStage",
    "ChunkedPrefillPoolStage",
    "TransferLinkStage",
    "DecodePoolStage",
    "resolve_transfer_ratio",
    "RoutingPolicy",
    "RoundRobinPolicy",
    "LeastOutstandingPolicy",
    "LeastKVOccupancyPolicy",
    "SessionAffinityPolicy",
    "ROUTING_POLICIES",
    "register_routing_policy",
    "get_routing_policy",
    "list_routing_policies",
    "RouterConfig",
    "RouterStage",
    "PrefixCache",
    "PrefixCacheConfig",
    "PrefixCacheStats",
    "cold_hit_seconds_per_token",
    "build_prefix_cache",
    "FleetConfig",
    "FleetCore",
    "AutoscalerConfig",
    "AutoscalerStage",
    "ScaleEvent",
    "ReplicaStats",
    "PHASES",
    "TelemetryConfig",
    "TraceEvent",
    "TraceRecorder",
    "RequestAttribution",
    "MetricsRegistry",
    "build_recorder",
    "recording",
    "SLOTarget",
    "LatencySummary",
    "PoolStats",
    "RequestTiming",
    "ServingMetrics",
    "TransferRecord",
    "TransferStats",
    "collect_timings",
    "percentile",
    "LengthDistribution",
    "TenantSpec",
    "poisson_trace",
    "multi_tenant_trace",
    "session_trace",
    "DEFAULT_SESSION_USER_TURNS",
    "DEFAULT_SESSION_OUTPUTS",
    "closed_loop_trace",
    "total_tokens",
    "WorkloadStream",
    "WorkloadProfile",
    "SessionProfile",
    "PROFILES",
    "register_profile",
    "get_profile",
    "list_profiles",
    "open_loop_arrivals",
    "OpenLoopResult",
    "run_open_loop",
    "goodput_feasible",
    "KneeResult",
    "find_knee",
    "layer_sigma",
    "estimate_layer_compression",
    "materialize_layer",
    "model_compression_report",
]
