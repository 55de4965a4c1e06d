import dataclasses
import math

import numpy as np
import pytest

from crflow.errors import ConfigError, ValidationError
from crflow.rates import (
    MortalitySpec,
    UptakeSpec,
    VitalRates,
    default_truncation_level,
)

# A truncation level above every substrate level the value tests evaluate.
WIDE = 1e12


def make_rates(n=1, family="monod", b=1.0, a=1.0, d_family="constant",
               d0=0.5, c=None, inflow=1.0, dilution=1.0, clamp=WIDE):
    return VitalRates(
        inflow=inflow,
        dilution=dilution,
        uptake=UptakeSpec.build(family, n, b, a=a if family == "monod" else None),
        mortality=MortalitySpec.build(d_family, n, d0, c=c),
        clamp=clamp,
    )


def with_uptake(uptake, clamp=4.0):
    """make_rates(clamp=clamp) with uptake(S) on the truncated substrate in
    place of the closed form, to reach checks no closed form fails."""

    class Custom(VitalRates):
        def uptake_values(self, S):
            return uptake(np.clip(np.asarray(S, dtype=float), 0.0, self.clamp)[..., None])

    r = make_rates()
    return Custom(r.inflow, r.dilution, r.uptake, r.mortality, clamp=clamp)


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

    @pytest.mark.parametrize("key, message", [
        ("inflow", "inflow must be nonnegative"),
        ("dilution", "dilution must be positive"),
    ])
    def test_rejects_nan_inflow_and_dilution(self, key, message):
        with pytest.raises(ConfigError, match=message):
            make_rates(**{key: math.nan})

    def test_clamp_is_required(self):
        r = make_rates()
        with pytest.raises(TypeError, match="clamp"):
            VitalRates(r.inflow, r.dilution, r.uptake, r.mortality)

    @pytest.mark.parametrize("clamp, message", [
        (0.0, "truncation level must be positive"),
        (-2.0, "truncation level must be positive"),
        (math.nan, "truncation level must be positive"),
        (math.inf, "truncation level must be finite"),
    ])
    def test_rejects_clamp_not_positive_and_finite(self, clamp, message):
        with pytest.raises(ConfigError, match=message):
            make_rates(clamp=clamp)
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(make_rates(), clamp=clamp)


class TestAdmissibleByConstruction:
    """A failed sampled check raises where the rates are built, naming every
    check that fails."""

    @pytest.mark.parametrize("build, failed", [
        (lambda: with_uptake(lambda S: 0.1 + S),
         "uptake does not vanish at S = 0"),
        (lambda: with_uptake(lambda S: S / (1.0 + S * S)),
         "uptake is not nondecreasing in S"),
        (lambda: VitalRates(1.0, 1.0, UptakeSpec.build("monod", 1, 1.0, a=1.0),
                            MortalitySpec("decreasing", np.array([0.5]),
                                          np.array([-0.2])), clamp=4.0),
         "mortality is not nonincreasing in S"),
    ])
    def test_failed_check_raises_when_built(self, build, failed):
        with pytest.raises(ValidationError) as info:
            build()
        assert str(info.value) == "rate assumptions failed: " + failed

    def test_every_failed_check_is_named(self):
        with pytest.raises(ValidationError) as info:
            with_uptake(lambda S: -S)
        assert str(info.value) == ("rate assumptions failed: uptake must be "
                                   "positive for S > 0; uptake is not "
                                   "nondecreasing in S")


class TestTruncation:
    def test_identity_inside_band(self):
        r = make_rates(clamp=5.0)
        for S in (0.0, 0.5, 2.0, 5.0):
            assert r.uptake_values(S)[0] == make_rates().uptake_values(S)[0]

    def test_negative_argument_clamps_to_zero(self):
        r = make_rates(clamp=5.0)
        assert r.uptake_values(-1.0)[0] == 0.0
        assert r.mortality_values(-1.0)[0] == r.mortality_values(0.0)[0]

    def test_large_argument_clamps_to_level(self):
        r = make_rates(clamp=5.0)
        assert r.uptake_values(10.0)[0] == r.uptake_values(5.0)[0]

    def test_default_level(self):
        assert default_truncation_level(2.0, 1.0, 0.5, 0.3) == 4.0
        assert default_truncation_level(2.0, 1.0, 10.0, 0.3) == 20.0
        assert default_truncation_level(0.0, 1.0, 0.0, 0.0) == 1.0

    @pytest.mark.parametrize("dilution", [0.0, -1.0])
    def test_default_level_without_washout(self, dilution):
        # the rates refuse such a dilution; the level must not divide by it
        assert default_truncation_level(2.0, dilution, 0.5, 0.3) == 1.0


class TestFloorAndValidation:
    def test_floor_constant(self):
        assert make_rates(d0=0.3, clamp=4.0).assumptions.floor == 0.3

    def test_floor_decreasing_attained_at_s_max(self):
        r = make_rates(d_family="decreasing", d0=0.3, c=0.2, clamp=4.0)
        assert r.assumptions.floor == pytest.approx(0.3 + 0.2 / 5.0)

    def test_admissible_rates_pass(self):
        report = make_rates(n=2, b=[1.0, 1.2], a=[1.0, 0.5],
                            d_family="decreasing", d0=[0.3, 0.4], c=[0.1, 0.0],
                            clamp=4.0).assumptions
        assert report.floor > 0
        assert report.uptake_lip > 0

    def test_zero_mortality_fails(self):
        with pytest.raises(ValidationError) as info:
            make_rates(d0=0.0, clamp=4.0)
        assert str(info.value) == ("rate assumptions failed: mortality floor 0.0 "
                                   "is not positive")

    def test_lipschitz_estimate_monod(self):
        # slope of b*S/(a+S) at 0 is b/a; the sampled estimate is close
        report = make_rates(b=2.0, a=0.5, clamp=4.0).assumptions
        assert report.uptake_lip == pytest.approx(4.0, rel=0.05)

    def test_sampled_once_per_truncation(self):
        r = make_rates(d_family="decreasing", d0=0.3, c=0.2, clamp=4.0)
        assert r.assumptions is r.assumptions
        wider = dataclasses.replace(r, clamp=8.0)
        assert wider.assumptions is not r.assumptions
        assert wider.assumptions.floor == pytest.approx(0.3 + 0.2 / 9.0)

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


def three_atom_rates(family, d_family):
    return make_rates(
        n=3, family=family, b=[0.7, 1.0, 1.3], a=[0.6, 1.0, 2.0],
        d_family=d_family, d0=[0.2, 0.3, 0.4],
        c=[0.1, 0.0, 0.3] if d_family == "decreasing" else None,
        clamp=CLAMP_LEVEL,
    )


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


class TestScalarSubstrate:
    """A Python-float S takes a scalar path that must match the array path."""

    @pytest.mark.parametrize("family,d_family", FAMILY_PAIRS)
    def test_bitwise_equal_to_array_path(self, family, d_family):
        r = three_atom_rates(family, d_family)
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
        r = three_atom_rates(family, d_family)
        d0 = r.mortality.d0.copy()
        for method in (r.uptake_values, r.mortality_values):
            first, second = method(0.3), method(0.3)
            assert first.flags.writeable
            assert not np.shares_memory(first, second)
            first[:] = -1.0
            assert np.array_equal(second, method(0.3))
        assert np.array_equal(r.mortality.d0, d0)
        assert not np.shares_memory(r.mortality_values(0.3), r.mortality.d0)
