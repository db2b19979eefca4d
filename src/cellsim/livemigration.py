"""Live-migration transfer-size estimator.

Moving a running VM copies a roughly constant chunk of kernel/canonical memory
plus an application-dependent term that grows exponentially with the amount of
actively rewritten application memory.  The estimate feeds the per-task
migration cost of the resource model.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

#: Infrastructure constant: MB shipped per migration round by the hypervisor.
DEFAULT_MF_MB = 9.6


@dataclass(frozen=True)
class MigrationProfile:
    """Per-application transfer profile.

    cmdt_mb: canonical/kernel memory shipped on every migration, MB.
    af: application factor, how aggressively the app dirties memory.
    mf_mb: infrastructure migration factor, MB.
    """

    cmdt_mb: float
    af: float
    mf_mb: float = DEFAULT_MF_MB

    def __post_init__(self) -> None:
        if self.cmdt_mb < 0:
            raise ValueError("cmdt_mb must be >= 0")
        if self.af < 0:
            raise ValueError("af must be >= 0")
        if not self.mf_mb > 0:
            raise ValueError("mf_mb must be > 0")


def lmdt_estimate(profile: MigrationProfile, am_mb: float) -> float:
    """Estimated MB transferred: cmdt + mf * e^(af * am).

    Strictly increasing in ``am_mb`` whenever ``af`` is positive; the idle
    profile (af = 0) degenerates to the constant cmdt + mf.
    """
    if am_mb < 0:
        raise ValueError("application memory must be >= 0")
    return profile.cmdt_mb + profile.mf_mb * math.exp(profile.af * am_mb)


# Calibrated per-application profiles for a 1024 MB VM configuration.  The
# idle profile has no application working set, so its factor is zero and the
# estimate is constant.
BUILTIN_PROFILES: dict[str, MigrationProfile] = {
    "idle": MigrationProfile(90.0, 0.0),
    "apache": MigrationProfile(175.0, 0.00682),
    "specjvm2008": MigrationProfile(115.0, 0.03305),
    "postgresql": MigrationProfile(145.0, 0.01072),
    "vm-allocator-i": MigrationProfile(213.0, 0.00620),
    "vm-allocator-ii": MigrationProfile(213.0, 0.00676),
    "vm-allocator-iii": MigrationProfile(213.0, 0.00714),
}


class ProfileCatalog:
    """Profile registry; starts from the built-ins, extensible from config."""

    def __init__(self, profiles: dict[str, MigrationProfile] | None = None):
        self._profiles = dict(BUILTIN_PROFILES)
        if profiles:
            self._profiles.update(profiles)

    def get(self, kind: str) -> MigrationProfile:
        try:
            return self._profiles[kind.lower()]
        except KeyError:
            raise KeyError(f"unknown migration profile {kind!r}") from None

    def kinds(self) -> list[str]:
        return sorted(self._profiles)

    @classmethod
    def from_file(cls, path: str | Path) -> "ProfileCatalog":
        """Load extra profiles from JSON: {"name": {"cmdt_mb": .., "af": .., "mf_mb": ..}}."""
        raw = json.loads(Path(path).read_text())
        profiles = {
            name.lower(): MigrationProfile(
                cmdt_mb=float(entry["cmdt_mb"]),
                af=float(entry["af"]),
                mf_mb=float(entry.get("mf_mb", DEFAULT_MF_MB)),
            )
            for name, entry in raw.items()
        }
        return cls(profiles)


def profile_for(kind: str, catalog: ProfileCatalog | None = None) -> MigrationProfile:
    return (catalog or ProfileCatalog()).get(kind)


@dataclass(frozen=True)
class TraceCostModel:
    """Maps normalized trace memory readings to a migration-cost estimate.

    Trace memory values are normalized per machine class, so they are scaled
    by an assumed node memory size before entering the estimator.  The chosen
    profile and scale are recorded in the run config for reproducibility.
    """

    profile: MigrationProfile
    node_memory_mb: float = 64.0 * 1024

    def cost_mb(self, used_memory_norm: float, canonical_memory_norm: float = 0.0) -> float:
        total = max(0.0, used_memory_norm) * self.node_memory_mb
        canonical = min(max(0.0, canonical_memory_norm) * self.node_memory_mb, total)
        return lmdt_estimate(self.profile, total - canonical)
