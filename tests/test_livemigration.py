import json
import math

import pytest

from cellsim.livemigration import (
    DEFAULT_MF_MB,
    MigrationProfile,
    ProfileCatalog,
    TraceCostModel,
    lmdt_estimate,
    profile_for,
)

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
    def test_scales_normalized_memory(self):
        model = TraceCostModel(profile_for("apache"), node_memory_mb=1000.0)
        assert model.cost_mb(0.5, 0.1) == pytest.approx(lmdt_estimate(profile_for("apache"), 400.0))

    def test_canonical_clamped_to_total(self):
        model = TraceCostModel(profile_for("apache"), node_memory_mb=1000.0)
        assert model.cost_mb(0.1, 0.5) == pytest.approx(lmdt_estimate(profile_for("apache"), 0.0))

    def test_default_node_memory_is_64g(self):
        assert TraceCostModel(profile_for("idle")).node_memory_mb == 64.0 * 1024
