import numpy as np
import pytest

from crflow.errors import ConfigError
from crflow.rates import (
    MortalitySpec,
    UptakeSpec,
    VitalRates,
    default_truncation_level,
    mortality_floor,
    truncate,
    validate_assumptions,
)
from crflow.space import build_grid


def make_rates(n=1, family="monod", b=1.0, a=1.0, d_family="constant",
               d0=0.5, c=None, inflow=1.0, dilution=1.0):
    return VitalRates(
        inflow=inflow,
        dilution=dilution,
        uptake=UptakeSpec.build(family, n, b, a=a if family == "monod" else None),
        mortality=MortalitySpec.build(d_family, n, d0, c=c),
    )


class TestUptake:
    def test_monod_vanishes_at_zero(self):
        assert make_rates().uptake_values(0.0)[0] == 0.0

    def test_monod_half_saturation(self):
        # b = a = 1: B(1) = 1/(1+1) = 0.5
        assert make_rates().uptake_values(1.0)[0] == 0.5

    def test_monod_saturates_at_b(self):
        r = make_rates(b=2.0, a=0.5)
        assert r.uptake_values(1e9)[0] == pytest.approx(2.0, rel=1e-8)

    def test_linear(self):
        r = make_rates(family="linear", b=0.7)
        assert r.uptake_values(3.0)[0] == pytest.approx(2.1)

    def test_per_atom_coefficients(self):
        r = make_rates(n=2, b=[1.0, 2.0], a=[1.0, 1.0])
        assert r.uptake_values(1.0)[0] == 0.5
        assert r.uptake_values(1.0)[1] == 1.0

    def test_vectorized_grid_shape(self):
        r = make_rates(n=3, b=[1.0, 1.0, 1.0], a=[1.0, 2.0, 3.0])
        out = r.uptake_values(np.linspace(0.0, 2.0, 5))
        assert out.shape == (5, 3)

    def test_rejects_bad_coefficients(self):
        with pytest.raises(ConfigError):
            UptakeSpec.build("monod", 1, 0.0, a=1.0)
        with pytest.raises(ConfigError):
            UptakeSpec.build("monod", 1, 1.0, a=-1.0)
        with pytest.raises(ConfigError):
            UptakeSpec.build("monod", 1, 1.0)
        with pytest.raises(ConfigError):
            UptakeSpec.build("hill", 1, 1.0)


class TestMortality:
    def test_constant(self):
        r = make_rates(d0=0.3)
        assert r.mortality_values(0.0)[0] == 0.3
        assert r.mortality_values(10.0)[0] == 0.3

    def test_decreasing_values(self):
        r = make_rates(d_family="decreasing", d0=0.3, c=0.2)
        assert r.mortality_values(0.0)[0] == 0.5
        assert r.mortality_values(1.0)[0] == pytest.approx(0.4)

    def test_decreasing_floor_is_d0(self):
        r = make_rates(d_family="decreasing", d0=0.3, c=0.2)
        assert r.mortality_values(1e12)[0] == pytest.approx(0.3, abs=1e-10)

    def test_rejects_negative_c(self):
        with pytest.raises(ConfigError):
            MortalitySpec.build("decreasing", 1, 0.3, c=-0.1)


class TestVitalRates:
    def test_rejects_negative_inflow(self):
        with pytest.raises(ConfigError):
            make_rates(inflow=-1.0)

    def test_rejects_zero_dilution(self):
        with pytest.raises(ConfigError):
            make_rates(dilution=0.0)


class TestTruncation:
    def test_identity_inside_band(self):
        r = truncate(make_rates(), 5.0)
        for S in (0.0, 0.5, 2.0, 5.0):
            assert r.uptake_values(S)[0] == make_rates().uptake_values(S)[0]

    def test_negative_argument_clamps_to_zero(self):
        r = truncate(make_rates(), 5.0)
        assert r.uptake_values(-1.0)[0] == 0.0
        assert r.mortality_values(-1.0)[0] == r.mortality_values(0.0)[0]

    def test_large_argument_clamps_to_level(self):
        r = truncate(make_rates(), 5.0)
        assert r.uptake_values(10.0)[0] == r.uptake_values(5.0)[0]

    def test_rejects_nonpositive_level(self):
        with pytest.raises(ConfigError):
            truncate(make_rates(), 0.0)

    def test_default_level(self):
        r = make_rates(inflow=2.0, dilution=1.0)
        assert default_truncation_level(r, 0.5, 0.3) == 4.0
        assert default_truncation_level(r, 10.0, 0.3) == 20.0
        r2 = make_rates(inflow=0.0, dilution=1.0)
        assert default_truncation_level(r2, 0.0, 0.0) == 1.0


class TestFloorAndValidation:
    def test_floor_constant(self):
        assert mortality_floor(make_rates(d0=0.3), 4.0) == 0.3

    def test_floor_decreasing_attained_at_s_max(self):
        r = make_rates(d_family="decreasing", d0=0.3, c=0.2)
        assert mortality_floor(r, 4.0) == pytest.approx(0.3 + 0.2 / 5.0)

    def test_admissible_rates_pass(self):
        sp = build_grid(1, [(0.0, 1.0)], [2])
        r = make_rates(n=2, b=[1.0, 1.2], a=[1.0, 0.5],
                       d_family="decreasing", d0=[0.3, 0.4], c=[0.1, 0.0])
        report = validate_assumptions(r, sp, 4.0)
        assert report.ok
        assert report.messages == ()
        assert report.floor > 0
        assert report.uptake_lip > 0

    def test_zero_mortality_fails(self):
        sp = build_grid(1, [(0.0, 0.0)], [1])
        r = make_rates(d0=0.0)
        report = validate_assumptions(r, sp, 4.0)
        assert not report.ok
        assert any("floor" in m for m in report.messages)

    def test_atom_count_mismatch(self):
        sp = build_grid(1, [(0.0, 1.0)], [3])
        with pytest.raises(ConfigError):
            validate_assumptions(make_rates(n=2, b=[1.0, 1.0]), sp, 4.0)

    def test_lipschitz_estimate_monod(self):
        # slope of b*S/(a+S) at 0 is b/a; the sampled estimate is close
        sp = build_grid(1, [(0.0, 0.0)], [1])
        r = make_rates(b=2.0, a=0.5)
        report = validate_assumptions(r, sp, 4.0)
        assert report.uptake_lip == pytest.approx(4.0, rel=0.05)

    def test_monotone_uptake_on_grid(self):
        r = make_rates(n=2, b=[1.0, 2.0], a=[0.5, 1.5])
        grid = np.linspace(0.0, 6.0, 200)
        B = r.uptake_values(grid)
        assert np.all(np.diff(B, axis=0) >= 0)


FAMILY_PAIRS = [
    ("monod", "constant"),
    ("monod", "decreasing"),
    ("linear", "constant"),
    ("linear", "decreasing"),
]
CLAMP_LEVEL = 2.5


def three_atom_rates(family, d_family, clamp):
    r = make_rates(
        n=3, family=family, b=[0.7, 1.0, 1.3], a=[0.6, 1.0, 2.0],
        d_family=d_family, d0=[0.2, 0.3, 0.4],
        c=[0.1, 0.0, 0.3] if d_family == "decreasing" else None,
    )
    return r if clamp is None else truncate(r, clamp)


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


class TestScalarSubstrate:
    """A Python-float S takes a scalar path that must match the array path."""

    @pytest.mark.parametrize("family,d_family", FAMILY_PAIRS)
    @pytest.mark.parametrize("clamp", [None, CLAMP_LEVEL])
    def test_bitwise_equal_to_array_path(self, family, d_family, clamp):
        r = three_atom_rates(family, d_family, clamp)
        for S in (-0.5, -0.0, 0.0, 0.3, CLAMP_LEVEL, 10 * CLAMP_LEVEL):
            assert type(S) is float
            for method in (r.uptake_values, r.mortality_values):
                scalar = method(S)
                row = method(np.array([S]))[0]
                assert scalar.shape == (3,)
                assert np.array_equal(scalar, row)
                assert np.array_equal(bits(scalar), bits(row)), (method, S)

    @pytest.mark.parametrize("family,d_family", FAMILY_PAIRS)
    def test_results_are_fresh_and_writable(self, family, d_family):
        r = three_atom_rates(family, d_family, CLAMP_LEVEL)
        d0 = r.mortality.d0.copy()
        for method in (r.uptake_values, r.mortality_values):
            first, second = method(0.3), method(0.3)
            assert first.flags.writeable
            assert not np.shares_memory(first, second)
            first[:] = -1.0
            assert np.array_equal(second, method(0.3))
        assert np.array_equal(r.mortality.d0, d0)
        assert not np.shares_memory(r.mortality_values(0.3), r.mortality.d0)
