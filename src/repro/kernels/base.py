"""Common kernel-model types."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from ..errors import ConfigError
from ..gpu.memory import TrafficRecord
from ..gpu.specs import GpuSpec


@dataclass
class KernelProfile:
    """Modelled outcome of one kernel (or short kernel sequence) launch."""

    kernel: str
    time_s: float
    traffic: TrafficRecord
    flops: float = 0.0
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ConfigError("kernel time must be non-negative")

    @property
    def achieved_gbps(self) -> float:
        """Achieved DRAM bandwidth in GB/s."""
        if self.time_s == 0:
            return 0.0
        return self.traffic.dram_total / self.time_s / 1e9

    def speedup_over(self, other: "KernelProfile") -> float:
        """``other.time / self.time`` — how much faster this kernel is."""
        if self.time_s == 0:
            raise ConfigError("cannot compute speedup of a zero-time kernel")
        return other.time_s / self.time_s

    @staticmethod
    def combine(kernel: str, parts: list["KernelProfile"]) -> "KernelProfile":
        """Serial composition: times and traffic add up."""
        traffic = TrafficRecord()
        time_s = 0.0
        flops = 0.0
        for part in parts:
            time_s += part.time_s
            flops += part.flops
            traffic.add(part.traffic)
        return KernelProfile(
            kernel=kernel,
            time_s=time_s,
            traffic=traffic,
            flops=flops,
            details={"parts": [p.kernel for p in parts]},
        )


@dataclass(frozen=True)
class WeightCompression:
    """Compression statistics of a weight matrix, as the kernels see them.

    ``ratio`` is original bytes / compressed bytes *including* container
    metadata; ``coverage`` is the in-window element fraction (TCA-TBE only).
    """

    scheme: str
    ratio: float
    coverage: float = 0.0

    def __post_init__(self) -> None:
        if self.ratio < 1.0:
            raise ConfigError(
                f"compression ratio must be >= 1, got {self.ratio}"
            )

    @property
    def compressed_fraction(self) -> float:
        """Compressed size as a fraction of the original."""
        return 1.0 / self.ratio

    @classmethod
    def from_tcatbe(cls, matrix) -> "WeightCompression":
        """Statistics of an actual compressed matrix."""
        return cls(
            scheme="tcatbe", ratio=matrix.ratio, coverage=matrix.coverage
        )

    @classmethod
    def identity(cls) -> "WeightCompression":
        """No compression (dense BF16)."""
        return cls(scheme="dense", ratio=1.0)


@lru_cache(maxsize=None)
def default_compression(scheme: str = "tcatbe") -> WeightCompression:
    """Measured compression statistics of a representative Gaussian layer.

    Compresses a sampled N(0, 0.02^2) matrix once per scheme and caches the
    result; used wherever a kernel model needs a ratio but the caller has no
    specific layer at hand.
    """
    from ..bf16 import gaussian_bf16_matrix

    sample = gaussian_bf16_matrix(512, 512, sigma=0.02, seed=99)
    if scheme == "tcatbe":
        from ..tcatbe import compress

        return WeightCompression.from_tcatbe(compress(sample))
    if scheme == "dense":
        return WeightCompression.identity()

    from ..codecs import get_bf16_codec

    blob = get_bf16_codec(scheme).compress(sample)
    return WeightCompression(scheme=scheme, ratio=blob.ratio)


def saturation_fraction(spec: GpuSpec, ctas: int, ctas_frac: float) -> float:
    """DRAM saturation achieved by ``ctas`` thread blocks.

    Streaming kernels need roughly ``ctas_frac x SM-count`` resident CTAs to
    reach peak bandwidth; below that, achieved bandwidth scales ~linearly.
    """
    if ctas <= 0:
        raise ConfigError("CTA count must be positive")
    return min(1.0, ctas / (ctas_frac * spec.sm_count))
