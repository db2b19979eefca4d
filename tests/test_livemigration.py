import json
import math

import pytest
from hypothesis import given, strategies as st

from cellsim.livemigration import (
    BUILTIN_PROFILES,
    CALIBRATION_VM_MB,
    DEFAULT_MF_MB,
    NODE_MEMORY_MB,
    MigrationProfile,
    ProfileCatalog,
    lmdt_estimate,
    memory_mb,
)

profile_for = ProfileCatalog().get

# Calibrated constants: (cmdt_mb, af) per application kind.
TABLE_CONSTANTS = {
    "idle": (90.0, 0.0),
    "apache": (175.0, 0.00682),
    "specjvm2008": (115.0, 0.03305),
    "postgresql": (145.0, 0.01072),
    "vm-allocator-i": (213.0, 0.00620),
    "vm-allocator-ii": (213.0, 0.00676),
    "vm-allocator-iii": (213.0, 0.00714),
}


class TestEstimate:
    def test_zero_am_is_cmdt_plus_mf(self):
        for kind in TABLE_CONSTANTS:
            p = profile_for(kind)
            assert lmdt_estimate(p, 0.0) == p.cmdt_mb + p.mf_mb

    def test_apache_am_100(self):
        # Oracle: direct scalar evaluation of cmdt + mf * e^(af * am).
        p = profile_for("apache")
        expected = 175.0 + 9.6 * math.exp(0.00682 * 100.0)
        assert expected == pytest.approx(193.987, abs=0.001)
        assert lmdt_estimate(p, 100.0) == pytest.approx(expected)

    def test_specjvm_exponential_blowup(self):
        p = profile_for("specjvm2008")
        expected = 115.0 + 9.6 * math.exp(0.03305 * 200.0)
        assert expected == pytest.approx(7242.84, abs=0.01)
        assert lmdt_estimate(p, 200.0) == pytest.approx(expected)
        # two orders of magnitude above the idle-ish baseline
        assert lmdt_estimate(p, 200.0) > 50 * lmdt_estimate(p, 0.0)

    def test_idle_constant(self):
        p = profile_for("idle")
        assert lmdt_estimate(p, 0.0) == 99.6
        assert lmdt_estimate(p, 500.0) == 99.6

    def test_monotone_in_am(self):
        for kind in TABLE_CONSTANTS:
            p = profile_for(kind)
            values = [lmdt_estimate(p, am) for am in range(0, 1001, 25)]
            for lo, hi in zip(values, values[1:]):
                assert lo <= hi
                if p.af > 0:
                    assert lo < hi

    def test_always_positive(self):
        for kind in TABLE_CONSTANTS:
            assert lmdt_estimate(profile_for(kind), 0.0) > 0

    def test_negative_am_rejected(self):
        with pytest.raises(ValueError):
            lmdt_estimate(profile_for("apache"), -1.0)


class TestCatalog:
    def test_builtin_constants(self):
        for kind, (cmdt, af) in TABLE_CONSTANTS.items():
            p = profile_for(kind)
            assert (p.cmdt_mb, p.af, p.mf_mb) == (cmdt, af, DEFAULT_MF_MB)

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            profile_for("not-a-profile")

    def test_register_and_case_insensitive(self):
        catalog = ProfileCatalog({"myapp": MigrationProfile(50.0, 0.001, 5.0)})
        assert catalog.get("MyApp").cmdt_mb == 50.0
        assert catalog.get("Apache").af == 0.00682

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps({
            "custom": {"cmdt_mb": 10, "af": 0.002, "mf_mb": 4.0},
            "nomf": {"cmdt_mb": 20, "af": 0.0},
        }))
        catalog = ProfileCatalog.from_file(path)
        assert catalog.get("custom") == MigrationProfile(10.0, 0.002, 4.0)
        assert catalog.get("nomf").mf_mb == DEFAULT_MF_MB
        assert catalog.get("apache").cmdt_mb == 175.0  # built-ins kept

    def test_invalid_profile_values(self):
        with pytest.raises(ValueError):
            MigrationProfile(-1.0, 0.0)
        with pytest.raises(ValueError):
            MigrationProfile(1.0, -0.1)
        with pytest.raises(ValueError):
            MigrationProfile(1.0, 0.1, 0.0)


class TestTraceCostModel:
    """A memory share of a node becomes MB, then the estimate."""

    def test_scales_normalized_memory(self):
        assert memory_mb(0.5, 0.1) == pytest.approx(0.4 * 64 * 1024)
        assert lmdt_estimate(profile_for("apache"), memory_mb(0.01)) == pytest.approx(
            175.0 + 9.6 * math.exp(0.00682 * 0.01 * 64 * 1024))

    def test_canonical_clamped_to_total(self):
        assert memory_mb(0.1, 0.5) == 0.0
        assert memory_mb(-0.1, 0.0) == 0.0

    def test_default_node_memory_is_64g(self):
        assert NODE_MEMORY_MB == 64.0 * 1024


class TestBoundedEstimate:
    def test_calibration_size_is_1024_mb(self):
        assert CALIBRATION_VM_MB == 1024

    def test_linear_above_calibration(self):
        p = profile_for("apache")
        at_calibration = 175.0 + 9.6 * math.exp(0.00682 * 1024.0)
        assert lmdt_estimate(p, 1024.0) == at_calibration
        assert lmdt_estimate(p, 4096.0) == pytest.approx(4 * at_calibration)
        # a whole 64 GiB node, where the exponential would overflow
        assert lmdt_estimate(p, NODE_MEMORY_MB) == pytest.approx(64 * at_calibration)

    def test_profile_overflowing_at_calibration_rejected(self):
        with pytest.raises(ValueError):
            MigrationProfile(100.0, 1.0)


@given(kind=st.sampled_from(sorted(BUILTIN_PROFILES)),
       am=st.floats(0.0, 1e7), other=st.floats(0.0, 1e7))
def test_estimate_is_finite_monotone_and_at_most_linear(kind, am, other):
    p = BUILTIN_PROFILES[kind]
    cost = lmdt_estimate(p, am)
    assert math.isfinite(cost)
    lo, hi = sorted((am, other))
    assert lmdt_estimate(p, lo) <= lmdt_estimate(p, hi)
    if am <= CALIBRATION_VM_MB:
        # exactly the calibrated scalar formula
        assert cost == p.cmdt_mb + p.mf_mb * math.exp(p.af * am)
    if am >= CALIBRATION_VM_MB:
        assert lmdt_estimate(p, 2 * am) <= 2 * cost
