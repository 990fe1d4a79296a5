"""The declared field contract of every config dataclass.

Each config field declares its contract where it is declared: the type
by its annotation (``int``, ``float``, ``bool``, a nested config, a
``str`` with ``choices``, or one of these ``| None``) and its range by
``repro.utils.bounded``.  ``check_fields``, called first in each
``__post_init__``, enforces it.  This file walks every such field of
the 14 config dataclasses, reading the declaration itself rather than
the checker's view of it:

* every bad value derived from the declaration raises a ``ConfigError``
  whose message starts with the field name;
* every valid one constructs and is stored as given (never converted);
* every field is under the contract or listed, with its reason, in
  ``EXEMPT``, so a new field cannot skip it.
"""

import math
import typing
from dataclasses import fields, is_dataclass

import pytest

from repro.errors import ConfigError, UnknownSpecError
from repro.serving.fleet import AutoscalerConfig, FleetConfig
from repro.serving.metrics import SLOTarget
from repro.serving.prefixcache import PrefixCacheConfig
from repro.serving.profiles import SessionProfile, WorkloadStream, get_profile
from repro.serving.router import RouterConfig
from repro.serving.scheduler import SchedulerLimits
from repro.serving.serve import (
    BackpressureConfig,
    DisaggConfig,
    ServingConfig,
)
from repro.serving.telemetry import TelemetryConfig
from repro.serving.trace import LengthDistribution, TenantSpec

CONFIGS = (
    BackpressureConfig, DisaggConfig, ServingConfig, SchedulerLimits,
    AutoscalerConfig, FleetConfig, RouterConfig, PrefixCacheConfig,
    SLOTarget, TelemetryConfig,
    LengthDistribution, TenantSpec, WorkloadStream, SessionProfile,
)

_LENGTHS = LengthDistribution(mean=64, cv=0.5, minimum=1, maximum=128)

#: Required arguments, chosen so every field's bounds can be probed
#: alone: ``maximum=10**9`` leaves ``minimum`` its whole range under
#: the ``minimum <= maximum`` rule.
BASE = {
    LengthDistribution: dict(mean=64, cv=0.5, minimum=1, maximum=10**9),
    TenantSpec: dict(rate_rps=1.0, n_requests=4),
    WorkloadStream: dict(weight=1.0, prompts=_LENGTHS, outputs=_LENGTHS),
    SessionProfile: dict(
        name="p", description="d",
        streams=get_profile("chat_sessions").streams,
    ),
}

#: Fields outside the contract, each checked by an explicit line in its
#: class's ``__post_init__`` (or not at all, where it is free text).
EXEMPT = {
    # Registry names: the registry lookup rejects an unknown name with
    # an UnknownSpecError listing the known ones.
    (DisaggConfig, "transfer_codec"),
    (ServingConfig, "policy"),
    (ServingConfig, "weight_codec"),
    (ServingConfig, "kv_codec"),
    (ServingConfig, "transfer_codec"),
    (PrefixCacheConfig, "codec"),
    # Typed ``object``.  ``fleet`` keeps the fleet import lazy and is
    # isinstance-checked by hand; ``codec_policy`` and ``routing`` take
    # a registry name or a policy instance; ``calibration`` holds a
    # MeasuredRatioProfile, which is not a config dataclass.
    (ServingConfig, "fleet"),
    (ServingConfig, "codec_policy"),
    (ServingConfig, "calibration"),
    (FleetConfig, "routing"),
    # A tuple of ServingConfigs, checked element by element.
    (FleetConfig, "instances"),
    # Inherited from WorkloadProfile: free text and the stream mix.
    (SessionProfile, "name"),
    (SessionProfile, "description"),
    (SessionProfile, "streams"),
}

#: SNIPPETS.md's chunk-size boundaries, tried wherever they are in range.
BOUNDARIES = (1024, 64 * 1024, 64 * 1024 + 1, 10**9)


def _declared(cls):
    """(name, type, optional, bounds, inf_ok, choices) per field under
    the contract, read from the annotation and the field metadata."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in fields(cls):
        kind = hints[f.name]
        args = typing.get_args(kind)
        optional = len(args) == 2 and type(None) in args
        if optional:
            kind = next(a for a in args if a is not type(None))
        choices = f.metadata.get("choices", ())
        if kind in (int, float, bool) or is_dataclass(kind) or choices:
            bounds = {op: b for _, op, b in f.metadata.get("bounds", ())}
            out.append((f.name, kind, optional, bounds,
                        f.metadata.get("inf_ok", False), choices))
    return out


FIELDS = [(cls, *spec) for cls in CONFIGS for spec in _declared(cls)]
IDS = [f"{cls.__name__}.{spec[0]}" for cls, *spec in FIELDS]


def _in_range(value, bounds):
    return all({">": value > b, ">=": value >= b, "<": value < b,
                "<=": value <= b}[op] for op, b in bounds.items())


def _bad_values(kind, optional, bounds, inf_ok, choices):
    if kind is bool:
        return ["false", 0, 1, None, math.nan]
    bad = [math.nan, True, "2", object(), {}]
    if not optional:
        bad.append(None)
    if kind is int:
        bad += [1.5, 2.0, math.inf, -math.inf]
    if kind is float:
        bad += [v for v in (math.inf, -math.inf)
                if not inf_ok or not _in_range(v, bounds)]
        for op, b in bounds.items():
            toward = -math.inf if op.startswith(">") else math.inf
            bad.append(b if len(op) == 1 else math.nextafter(b, toward))
    elif kind is int:
        for op, b in bounds.items():
            step = -1 if op.startswith(">") else 1
            bad.append(b if len(op) == 1 else b + step)
    if is_dataclass(kind):
        bad.append(ServingConfig() if kind is not ServingConfig
                   else DisaggConfig())
    if choices:
        bad.append("bogus")
    return bad


def _good_values(kind, optional, bounds, inf_ok, choices):
    if kind is bool:
        return [True, False]
    good = [None] if optional else []
    if choices:
        return good + list(choices)
    if kind in (int, float):
        inclusive = [b for op, b in bounds.items() if len(op) == 2]
        good += [v for v in (*inclusive, *BOUNDARIES)
                 if _in_range(v, bounds)]
    if kind is float:
        good += [math.inf] if inf_ok else []
        good += [v for v in (0.5, 1.0) if _in_range(v, bounds)]
    return good


def _outcome(cls, name, value):
    """None when ``value`` is rejected as the contract says; otherwise
    what happened instead."""
    try:
        cls(**{**BASE.get(cls, {}), name: value})
    except ConfigError as exc:
        if str(exc).startswith(f"{name} must be "):
            return None
        return f"ConfigError({exc})"
    except Exception as exc:  # reported as the outcome, not hidden
        return f"{type(exc).__name__}({exc})"
    return "constructed"


class TestContract:
    @pytest.mark.parametrize("cls", CONFIGS, ids=lambda c: c.__name__)
    def test_every_field_is_under_the_contract_or_exempt(self, cls):
        declared = {name for name, *_ in _declared(cls)}
        exempt = {name for owner, name in EXEMPT if owner is cls}
        assert not declared & exempt
        assert declared | exempt == {f.name for f in fields(cls)}

    @pytest.mark.parametrize(
        "cls, name, kind, optional, bounds, inf_ok, choices", FIELDS,
        ids=IDS,
    )
    def test_bad_values_raise_naming_the_field(
        self, cls, name, kind, optional, bounds, inf_ok, choices
    ):
        bad = _bad_values(kind, optional, bounds, inf_ok, choices)
        escaped = {
            repr(value): outcome for value in bad
            if (outcome := _outcome(cls, name, value)) is not None
        }
        assert escaped == {}

    @pytest.mark.parametrize(
        "cls, name, kind, optional, bounds, inf_ok, choices", FIELDS,
        ids=IDS,
    )
    def test_good_values_are_stored_as_given(
        self, cls, name, kind, optional, bounds, inf_ok, choices
    ):
        default = cls(**BASE.get(cls, {}))
        good = _good_values(kind, optional, bounds, inf_ok, choices)
        for value in [getattr(default, name), *good]:
            config = cls(**{**BASE.get(cls, {}), name: value})
            assert getattr(config, name) is value

    def test_inf_means_no_bound_only_where_declared(self):
        unbounded = {(cls, name) for cls, name, _, _, _, inf_ok, _ in FIELDS
                     if inf_ok}
        assert unbounded == {
            (DisaggConfig, "link_gb_per_s"),
            (SLOTarget, "ttft_s"),
            (SLOTarget, "tpot_s"),
        }

    def test_contract_resolves_once_per_class(self, monkeypatch):
        # Configs are rebuilt on every fleet serve (replace(),
        # resolve_instances), so type hints must not be re-read per
        # instance.
        calls = []
        real = typing.get_type_hints
        monkeypatch.setattr(
            typing, "get_type_hints",
            lambda *a, **k: calls.append(a) or real(*a, **k),
        )
        for _ in range(3):
            for cls in CONFIGS:
                cls(**BASE.get(cls, {}))
        assert len(calls) <= len(CONFIGS)


@pytest.mark.parametrize("entry", [None, {}], ids=["None", "dict"])
def test_fleet_instances_hold_serving_configs(entry):
    # A None entry was skipped and still counted as a replica.
    with pytest.raises(ConfigError, match="^instances must hold"):
        FleetConfig(instances=(ServingConfig(), entry))


def test_scheduler_policy_resolves_at_construction():
    # It used to construct and fail only inside serve().
    with pytest.raises(UnknownSpecError, match="nope"):
        ServingConfig(policy="nope")


@pytest.mark.parametrize(("kwargs", "message"), [
    (dict(kv_low_frac=0.5, kv_high_frac=0.5),
     "^kv_low_frac must be < kv_high_frac"),
    (dict(min_replicas=3, max_replicas=2), "^max_replicas must be >= 3"),
])
def test_autoscaler_cross_field_rules(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        AutoscalerConfig(**kwargs)


def test_length_bounds_cross_field_rule():
    with pytest.raises(ConfigError, match="^maximum must be >= minimum"):
        LengthDistribution(mean=64, cv=0.5, minimum=16, maximum=8)
