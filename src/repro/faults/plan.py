"""Deterministic, seeded fault plans for the storage hierarchy.

A :class:`FaultPlan` describes *what can go wrong* per device — transient
read errors, latency spikes, degraded-bandwidth windows, corrupted
payloads — without any mutable state.  Every decision is a pure function
of ``(seed, device, block, step, attempt, channel)`` through a counter
based hash (splitmix64), so

- two runs with the same seed draw identical faults,
- ``fetch_many`` and a per-block ``fetch`` loop (which issue the same
  reads in the same order) see identical faults, and
- concurrent readers (thread-pool fetchers) draw race-free: no shared
  RNG stream exists to contend on, and
- a batched caller draws a whole key array at once (:func:`unit_draws`,
  :meth:`FaultPlan.fails_many`, :meth:`FaultPlan.spike_s_many`), bit-equal
  to the per-key draws in any grouping.

Named profiles (:data:`FAULT_PROFILES`) give the CLI and the bench suite
reproducible chaos scenarios; ``FaultPlan.from_profile("none")`` is the
null plan that injects nothing.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "DeviceFaultProfile",
    "FaultPlan",
    "FAULT_PROFILES",
    "unit_draw",
    "unit_draws",
]

_M64 = (1 << 64) - 1

# Hash channels: one per decision kind so draws never alias.
_CH_ERROR = 1
_CH_SPIKE = 2
_CH_CORRUPT = 3


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def unit_draw(seed: int, *parts: int) -> float:
    """A deterministic draw in ``[0, 1)`` keyed by ``(seed, *parts)``.

    Counter-based (stateless): the value depends only on the arguments,
    never on call order — the property the fault model's determinism and
    batched-vs-per-block equivalence guarantees rest on.
    """
    x = seed & _M64
    for p in parts:
        x = _splitmix64(x ^ (int(p) & _M64))
    return _splitmix64(x) / 2.0**64


def _splitmix64_many(x: np.ndarray) -> np.ndarray:
    """:func:`_splitmix64` over a ``uint64`` array (numpy wraps mod 2**64)."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    z = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def unit_draws(seed: int, device: int, keys: np.ndarray, *parts: int) -> np.ndarray:
    """``unit_draw(seed, device, key, *parts)`` for every ``key``, as one
    array: bit-equal to the scalar draws (the same 64-bit words, converted
    to float with the same round-to-nearest)."""
    x = _splitmix64((seed & _M64) ^ (int(device) & _M64))
    words = np.ascontiguousarray(keys, dtype=np.int64).view(np.uint64)
    z = _splitmix64_many(np.uint64(x) ^ words)
    for p in parts:
        z = _splitmix64_many(z ^ np.uint64(int(p) & _M64))
    return _splitmix64_many(z).astype(np.float64) / 2.0**64


def _device_id(name: str) -> int:
    """Stable 32-bit id for a device name (crc32; not Python ``hash``,
    which is salted per process)."""
    return zlib.crc32(name.encode("utf-8"))


@dataclass(frozen=True)
class DeviceFaultProfile:
    """What can go wrong on one named device.

    Parameters
    ----------
    device:
        Device/level name the profile applies to (``"hdd"``, ``"ssd"``, ...).
    error_rate:
        Probability that one read *attempt* fails with a transient error.
        Retries draw independently, so a retry can succeed.
    spike_rate / spike_s:
        Probability that a read attempt pays an extra ``spike_s`` seconds
        of latency (queueing, thermal throttle, rotational miss).
    slow_windows:
        ``(start_step, end_step, slowdown)`` triples: during replay steps
        in ``[start, end)`` every read from this device takes ``slowdown``
        times its nominal cost (degraded-bandwidth window, e.g. a RAID
        rebuild or a noisy neighbour).
    corruption_rate:
        Probability that a *payload* read returns corrupted bytes
        (checksum mismatch).  Only meaningful for payload stores
        (:class:`~repro.faults.store.FaultyBlockStore`); the timing-model
        hierarchy has no payloads to corrupt.
    """

    device: str
    error_rate: float = 0.0
    spike_rate: float = 0.0
    spike_s: float = 0.0
    slow_windows: Tuple[Tuple[int, int, float], ...] = ()
    corruption_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("error_rate", "spike_rate", "corruption_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.spike_s < 0:
            raise ValueError(f"spike_s must be >= 0, got {self.spike_s}")
        for window in self.slow_windows:
            if len(window) != 3:
                raise ValueError(f"slow window must be (start, end, slowdown), got {window}")
            start, end, slowdown = window
            if end <= start:
                raise ValueError(f"slow window must have end > start, got {window}")
            if slowdown < 1.0:
                raise ValueError(f"slowdown must be >= 1, got {slowdown}")

    @property
    def is_null(self) -> bool:
        return (
            self.error_rate == 0.0
            and self.spike_rate == 0.0
            and not self.slow_windows
            and self.corruption_rate == 0.0
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, immutable set of per-device fault profiles.

    All queries are pure: the plan holds no RNG state, so it can be
    shared between hierarchies, stores, and threads.
    """

    seed: int = 0
    profiles: Tuple[DeviceFaultProfile, ...] = ()
    _by_device: Dict[str, DeviceFaultProfile] = field(
        init=False, repr=False, compare=False, hash=False, default=None  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        by_device: Dict[str, DeviceFaultProfile] = {}
        for p in self.profiles:
            if p.device in by_device:
                raise ValueError(f"duplicate fault profile for device {p.device!r}")
            by_device[p.device] = p
        object.__setattr__(self, "_by_device", by_device)

    # -- queries (all pure) ---------------------------------------------------

    def profile_for(self, device: str) -> Optional[DeviceFaultProfile]:
        return self._by_device.get(device)

    @property
    def is_null(self) -> bool:
        """True when the plan can never inject anything."""
        return all(p.is_null for p in self.profiles)

    def fails(self, device: str, key: int, step: int, attempt: int) -> bool:
        """Does read attempt ``attempt`` of ``key`` at ``step`` error out?"""
        p = self._by_device.get(device)
        if p is None or p.error_rate == 0.0:
            return False
        u = unit_draw(self.seed, _device_id(device), key, step, attempt, _CH_ERROR)
        return u < p.error_rate

    def spike_s(self, device: str, key: int, step: int, attempt: int) -> float:
        """Extra latency-spike seconds for this attempt (0.0 = no spike)."""
        p = self._by_device.get(device)
        if p is None or p.spike_rate == 0.0 or p.spike_s == 0.0:
            return 0.0
        u = unit_draw(self.seed, _device_id(device), key, step, attempt, _CH_SPIKE)
        return p.spike_s if u < p.spike_rate else 0.0

    def fails_many(self, device: str, keys: np.ndarray, step: int, attempt: int) -> np.ndarray:
        """:meth:`fails` for every key of ``keys``, as a boolean array."""
        p = self._by_device.get(device)
        if p is None or p.error_rate == 0.0:
            return np.zeros(len(keys), dtype=bool)
        u = unit_draws(self.seed, _device_id(device), keys, step, attempt, _CH_ERROR)
        return u < p.error_rate

    def spike_s_many(
        self, device: str, keys: np.ndarray, step: int, attempt: int
    ) -> np.ndarray:
        """:meth:`spike_s` for every key of ``keys``, as a float array."""
        p = self._by_device.get(device)
        if p is None or p.spike_rate == 0.0 or p.spike_s == 0.0:
            return np.zeros(len(keys), dtype=np.float64)
        u = unit_draws(self.seed, _device_id(device), keys, step, attempt, _CH_SPIKE)
        return np.where(u < p.spike_rate, p.spike_s, 0.0)

    def slowdown(self, device: str, step: int) -> float:
        """Read-time multiplier at ``step`` (1.0 outside degraded windows)."""
        p = self._by_device.get(device)
        if p is None or not p.slow_windows:
            return 1.0
        factor = 1.0
        for start, end, slowdown in p.slow_windows:
            if start <= step < end:
                factor = max(factor, slowdown)
        return factor

    def corrupts(self, device: str, key: int, attempt: int) -> bool:
        """Does this payload read return corrupted bytes?"""
        p = self._by_device.get(device)
        if p is None or p.corruption_rate == 0.0:
            return False
        u = unit_draw(self.seed, _device_id(device), key, attempt, _CH_CORRUPT)
        return u < p.corruption_rate

    # -- construction / description -------------------------------------------

    @classmethod
    def from_profile(cls, name: str, seed: int = 0) -> "FaultPlan":
        """A named chaos scenario (see :data:`FAULT_PROFILES`)."""
        try:
            profiles = _PROFILES[name]
        except KeyError:
            raise ValueError(
                f"unknown fault profile {name!r}; expected one of {FAULT_PROFILES}"
            ) from None
        return cls(seed=seed, profiles=profiles)

    def as_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "devices": [
                {
                    "device": p.device,
                    "error_rate": p.error_rate,
                    "spike_rate": p.spike_rate,
                    "spike_s": p.spike_s,
                    "slow_windows": [list(w) for w in p.slow_windows],
                    "corruption_rate": p.corruption_rate,
                }
                for p in self.profiles
            ],
        }


#: The named chaos scenarios ``--faults`` accepts.
_PROFILES: Dict[str, Tuple[DeviceFaultProfile, ...]] = {
    # Nothing ever goes wrong; with this plan every wrapper is a no-op.
    "none": (),
    # An ageing spinning disk: occasional transient read errors plus
    # rotational/queueing latency spikes.  Retries almost always recover.
    "flaky-hdd": (
        DeviceFaultProfile("hdd", error_rate=0.05, spike_rate=0.05, spike_s=0.04),
    ),
    # The SSD spends part of the replay in a degraded-bandwidth window
    # (firmware GC / RAID rebuild) while the HDD hiccups occasionally.
    "degraded-ssd": (
        DeviceFaultProfile("ssd", spike_rate=0.02, spike_s=0.002,
                           slow_windows=((8, 24, 4.0),)),
        DeviceFaultProfile("hdd", error_rate=0.01),
    ),
    # Heavy, persistent failures: enough to exhaust retries, trip circuit
    # breakers, and drop blocks — exercises the graceful-degradation path.
    "lossy": (
        DeviceFaultProfile("hdd", error_rate=0.55, spike_rate=0.1, spike_s=0.05),
        DeviceFaultProfile("ssd", error_rate=0.25),
    ),
    # Everything at once, at rates a resilient reader should mostly absorb.
    "chaos": (
        DeviceFaultProfile("hdd", error_rate=0.15, spike_rate=0.10, spike_s=0.05,
                           slow_windows=((5, 15, 3.0),), corruption_rate=0.05),
        DeviceFaultProfile("ssd", error_rate=0.05, spike_rate=0.05, spike_s=0.004,
                           slow_windows=((20, 30, 2.0),), corruption_rate=0.02),
    ),
}

#: Names accepted by ``FaultPlan.from_profile`` and every ``--faults`` flag.
FAULT_PROFILES: Tuple[str, ...] = tuple(sorted(_PROFILES))
