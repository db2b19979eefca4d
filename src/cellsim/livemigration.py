"""Live-migration transfer-size estimator.

Moving a running VM copies a roughly constant chunk of kernel/canonical memory
plus an application-dependent term that grows exponentially with the amount of
actively rewritten application memory, up to the ``CALIBRATION_VM_MB`` VM the
profiles were calibrated on.  Beyond it the estimate grows linearly: a
pre-copy migration with bounded rounds sends at most a fixed multiple of the
VM's memory (Clark et al., "Live Migration of Virtual Machines", NSDI 2005).
``CellState`` prices every task with ``memory_mb`` and ``lmdt_estimate``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

#: Infrastructure constant: MB shipped per migration round by the hypervisor.
DEFAULT_MF_MB = 9.6
#: VM memory size, MB, every built-in profile was calibrated on.
CALIBRATION_VM_MB = 1024.0
#: Memory of one node, MB: the unit of the memory shares in traces.
NODE_MEMORY_MB = 64.0 * 1024


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
        if self.af * CALIBRATION_VM_MB > 700:
            raise ValueError("af overflows the estimate at the calibrated VM size")


def lmdt_estimate(profile: MigrationProfile, am_mb: float) -> float:
    """Estimated MB transferred: cmdt + mf * e^(af * am) up to
    ``CALIBRATION_VM_MB``, then the value there times ``am / CALIBRATION_VM_MB``.

    Strictly increasing in ``am_mb`` whenever ``af`` is positive; the idle
    profile (af = 0) is the constant cmdt + mf up to the calibrated size.
    """
    if am_mb < 0:
        raise ValueError("application memory must be >= 0")
    if am_mb > CALIBRATION_VM_MB:
        return lmdt_estimate(profile, CALIBRATION_VM_MB) * am_mb / CALIBRATION_VM_MB
    return profile.cmdt_mb + profile.mf_mb * math.exp(profile.af * am_mb)


def memory_mb(used_share: float, canonical_share: float = 0.0) -> float:
    """MB of application memory: a used share of a node less its canonical share."""
    total = max(0.0, used_share) * NODE_MEMORY_MB
    return total - min(max(0.0, canonical_share) * NODE_MEMORY_MB, total)


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
        """Load extra profiles from JSON: {"name": {"cmdt_mb": .., "af": .., "mf_mb": ..}}.

        Raises OSError when the file cannot be read and ValueError when it
        is not such an object."""
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, dict):
            raise ValueError("profiles are a JSON object of name -> profile")
        profiles = {}
        for name, entry in raw.items():
            try:
                profiles[name.lower()] = MigrationProfile(
                    cmdt_mb=float(entry["cmdt_mb"]),
                    af=float(entry["af"]),
                    mf_mb=float(entry.get("mf_mb", DEFAULT_MF_MB)),
                )
            except (KeyError, TypeError):
                raise ValueError(f"profile {name!r} needs numeric cmdt_mb and af") from None
        return cls(profiles)
