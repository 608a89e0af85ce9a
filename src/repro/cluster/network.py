"""Network transfer device + per-link ledger for the simulated cluster.

:class:`NetworkLink` mirrors :class:`~repro.storage.device.StorageDevice`
— a transfer costs ``latency_s * latency_scale + nbytes / bandwidth_bps``
on the same simulated clock as every storage read.  The default link
(50 µs, 1.25 GB/s ≈ 10 GbE) sits between DRAM and SSD: a peer-DRAM fetch
is cheaper than a local SSD read, which is what makes ghost-layer and
replication prefetch worth comparing.

:class:`NetworkFabric` is a full mesh over K nodes with one link per
unordered node pair (``n0-n1``, ``n0-n2``, ...).  It keeps the per-link
byte/time/transfer ledger that the conservation tests reconcile against
``bytes_moved``: every byte a peer serves appears on exactly one link,
and link bytes never double into the storage byte ledger (the ``xfer``
trace kind is outside ``MOVEMENT_KINDS``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.utils.validation import check_positive

__all__ = ["NetworkFabric", "NetworkLink", "link_name"]

#: Default link parameters: ~10 GbE point-to-point (50 us request latency,
#: 1.25 GB/s payload bandwidth).
DEFAULT_LINK_LATENCY_S = 50e-6
DEFAULT_LINK_BANDWIDTH_BPS = 1.25e9


def link_name(a: int, b: int) -> str:
    """Canonical name of the link between nodes ``a`` and ``b``."""
    lo, hi = (a, b) if a <= b else (b, a)
    return f"n{lo}-n{hi}"


@dataclass(frozen=True)
class NetworkLink:
    """One point-to-point link, costed like a storage device."""

    name: str
    latency_s: float = DEFAULT_LINK_LATENCY_S
    bandwidth_bps: float = DEFAULT_LINK_BANDWIDTH_BPS

    def __post_init__(self) -> None:
        check_positive("latency_s", self.latency_s)
        check_positive("bandwidth_bps", self.bandwidth_bps)

    def transfer_time(self, nbytes: int, latency_scale: float = 1.0) -> float:
        """Seconds to move ``nbytes`` across this link.

        ``latency_scale`` amortises the per-request latency for queued
        (prefetch) transfers, exactly as
        :meth:`~repro.storage.device.StorageDevice.read_time` does.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if not 0.0 <= latency_scale <= 1.0:
            raise ValueError(f"latency_scale must be in [0, 1], got {latency_scale}")
        return self.latency_s * latency_scale + nbytes / self.bandwidth_bps


class NetworkFabric:
    """Full-mesh links over K nodes plus the exact per-link ledger."""

    def __init__(
        self,
        n_nodes: int,
        latency_s: float = DEFAULT_LINK_LATENCY_S,
        bandwidth_bps: float = DEFAULT_LINK_BANDWIDTH_BPS,
    ) -> None:
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        self.n_nodes = int(n_nodes)
        self._links: Dict[Tuple[int, int], NetworkLink] = {}
        for a in range(self.n_nodes):
            for b in range(a + 1, self.n_nodes):
                self._links[(a, b)] = NetworkLink(link_name(a, b), latency_s, bandwidth_bps)
        # Per-link ledger: bytes / seconds / transfer count actually moved,
        # plus fallbacks (transfers abandoned to the cold store on a link
        # fault — those bytes never touch the link).
        self._bytes: Dict[str, int] = {lk.name: 0 for lk in self._links.values()}
        self._time_s: Dict[str, float] = {lk.name: 0.0 for lk in self._links.values()}
        self._transfers: Dict[str, int] = {lk.name: 0 for lk in self._links.values()}
        self._fallbacks: Dict[str, int] = {lk.name: 0 for lk in self._links.values()}

    def link(self, a: int, b: int) -> NetworkLink:
        if a == b:
            raise ValueError(f"no self-link for node {a}")
        lo, hi = (a, b) if a < b else (b, a)
        try:
            return self._links[(lo, hi)]
        except KeyError:
            raise ValueError(f"no link between n{a} and n{b} (n_nodes={self.n_nodes})")

    def link_names(self) -> Tuple[str, ...]:
        return tuple(lk.name for lk in self._links.values())

    def charge(self, a: int, b: int, nbytes: int, time_s: float) -> None:
        """Record one completed transfer of ``nbytes`` taking ``time_s``."""
        name = self.link(a, b).name
        self._bytes[name] += int(nbytes)
        self._time_s[name] += float(time_s)
        self._transfers[name] += 1

    def charge_many(self, a: int, b: int, nbytes: int, times_s: np.ndarray) -> None:
        """Record one completed transfer of ``nbytes`` per entry of
        ``times_s``, in order: the link's seconds fold exactly as that
        many :meth:`charge` calls add them."""
        name = self.link(a, b).name
        n = int(times_s.size)
        self._bytes[name] += int(nbytes) * n
        self._time_s[name] = float(
            np.add.accumulate(np.concatenate(([self._time_s[name]], times_s)))[-1]
        )
        self._transfers[name] += n

    def record_fallback(self, a: int, b: int, n: int = 1) -> None:
        self._fallbacks[self.link(a, b).name] += n

    @property
    def total_bytes(self) -> int:
        return sum(self._bytes.values())

    @property
    def total_time_s(self) -> float:
        return sum(self._time_s.values())

    @property
    def total_transfers(self) -> int:
        return sum(self._transfers.values())

    @property
    def total_fallbacks(self) -> int:
        return sum(self._fallbacks.values())

    def ledger(self) -> Dict[str, Dict[str, object]]:
        """Per-link snapshot: bytes, seconds, transfers, fallbacks."""
        return {
            name: {
                "bytes": self._bytes[name],
                "time_s": self._time_s[name],
                "transfers": self._transfers[name],
                "fallbacks": self._fallbacks[name],
            }
            for name in self._bytes
        }

    def reset(self) -> None:
        for name in self._bytes:
            self._bytes[name] = 0
            self._time_s[name] = 0.0
            self._transfers[name] = 0
            self._fallbacks[name] = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NetworkFabric(n_nodes={self.n_nodes}, links={len(self._links)})"
