import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optlab.errors import ContractViolationError
from optlab.schedules import (
    EmaScheduleSpec,
    ScheduleSpec,
    ademamix_alpha_at,
    ademamix_beta3_at,
    lr_at,
)


def cosine(total=1000, warmup=100, factor=None):
    return ScheduleSpec("cosine", 1.0, total, warmup, final_lr_factor=factor)


def test_warmup_is_linear_from_zero():
    spec = cosine()
    for t in (1, 37, 100):
        assert lr_at(spec, t) == 1.0 * t / 100


def test_cosine_endpoints_and_midpoint():
    spec = cosine()
    assert lr_at(spec, 100) == 1.0
    assert abs(lr_at(spec, 1000) - 0.01) < 1e-12
    assert abs(lr_at(spec, 550) - (1.0 + 0.01) / 2.0) < 1e-12


def test_linear_default_factor():
    spec = ScheduleSpec("linear", 2.0, 1000, 0)
    assert abs(lr_at(spec, 1000) - 2.0 * 0.001) < 1e-15


def test_wsd_plateau_and_cooldown():
    spec = ScheduleSpec("wsd", 1.0, 1000, 100)
    assert all(lr_at(spec, t) == 1.0 for t in range(101, 801, 7))
    assert lr_at(spec, 800) == 1.0  # cooldown starts strictly after 0.8 T
    assert lr_at(spec, 801) < 1.0
    assert abs(lr_at(spec, 1000) - 0.01) < 1e-12
    # (1 - sqrt(x)) shape at the cooldown midpoint
    x = (900 - 800) / 200
    assert lr_at(spec, 900) == pytest.approx(0.01 + 0.99 * (1 - math.sqrt(x)), abs=1e-12)


def test_constant_family():
    spec = ScheduleSpec("constant", 0.5, 100, 10)
    assert lr_at(spec, 5) == 0.5 * 5 / 10
    assert lr_at(spec, 60) == 0.5


def test_out_of_range_steps():
    spec = cosine()
    for t in (0, 1001, -4):
        with pytest.raises(ContractViolationError):
            lr_at(spec, t)


def test_spec_validation():
    with pytest.raises(ContractViolationError):
        ScheduleSpec("cosine", 1.0, 100, 100)  # warmup must be < total
    with pytest.raises(ContractViolationError):
        ScheduleSpec("nope", 1.0, 100, 0)
    with pytest.raises(ContractViolationError):
        ScheduleSpec("cosine", -1.0, 100, 0)
    with pytest.raises(ContractViolationError):
        ScheduleSpec("wsd", 1.0, 100, 0, wsd_cooldown_fraction=0.0)
    for gamma_max in (math.inf, math.nan):
        with pytest.raises(ContractViolationError, match=f"^gamma_max must be positive and finite, got {gamma_max!r}$"):
            ScheduleSpec("cosine", gamma_max, 100, 0)


def test_wsd_warmup_past_the_cooldown_start_rejected():
    # the cooldown starts at (1 - 0.5) * 100 = 50: a warmup to 80 would drop the lr 78% at t=81
    message = "wsd warmup_steps (80) must not exceed the cooldown start (1 - wsd_cooldown_fraction) * total_steps = 50.0"
    with pytest.raises(ContractViolationError, match=re.escape(message)):
        ScheduleSpec("wsd", 1.0, 100, 80, wsd_cooldown_fraction=0.5)
    spec = ScheduleSpec("wsd", 1.0, 100, 50, wsd_cooldown_fraction=0.5)  # a warmup may end where the cooldown starts
    assert lr_at(spec, 50) == 1.0
    assert all(lr_at(spec, t + 1) <= lr_at(spec, t) for t in range(50, 100))


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["cosine", "linear", "wsd"]),
    total=st.integers(10, 2000),
    data=st.data(),
)
def test_monotone_nonincreasing_after_warmup(family, total, data):
    # a wsd warmup must end by the cooldown start
    last_warmup = int(ScheduleSpec("wsd", 1.0, total).cooldown_start) if family == "wsd" else total - 2
    warmup = data.draw(st.integers(0, last_warmup))
    spec = ScheduleSpec(family, 1.0, total, warmup)
    t = data.draw(st.integers(max(warmup, 1), total - 1))
    assert lr_at(spec, t + 1) <= lr_at(spec, t) + 1e-15


@settings(max_examples=60, deadline=None)
@given(total=st.integers(10, 500), data=st.data())
def test_wsd_equals_constant_before_cooldown(total, data):
    warmup = data.draw(st.integers(0, total // 2))
    wsd = ScheduleSpec("wsd", 1.0, total, warmup)
    const = ScheduleSpec("constant", 1.0, total, warmup)
    t = data.draw(st.integers(1, int(0.8 * total)))
    assert lr_at(wsd, t) == lr_at(const, t)


class TestEmaSchedulers:
    SPEC = EmaScheduleSpec(alpha=8.0, beta3=0.9999, beta_start=0.9, t_alpha=128000, t_beta3=10000)

    def test_alpha_ramp(self):
        assert ademamix_alpha_at(self.SPEC, 128000) == 8.0
        assert ademamix_alpha_at(self.SPEC, 64000) == 4.0
        assert ademamix_alpha_at(self.SPEC, 16000) == 1.0
        assert ademamix_alpha_at(self.SPEC, 10**9) == 8.0

    def test_beta3_endpoints(self):
        assert ademamix_beta3_at(self.SPEC, 10000) == 0.9999
        assert ademamix_beta3_at(self.SPEC, 10**8) == 0.9999
        long = EmaScheduleSpec(alpha=8.0, beta3=0.9999, beta_start=0.9, t_alpha=1, t_beta3=10**9)
        assert ademamix_beta3_at(long, 1) == pytest.approx(0.9, abs=1e-6)

    def test_beta3_midpoint_frozen_value(self):
        # exp(log(0.9) * log(0.9999) / (0.5 log(0.9999) + 0.5 log(0.9))),
        # frozen from a 40-digit mpmath evaluation
        assert ademamix_beta3_at(self.SPEC, 5000) == pytest.approx(0.9998001996254803, abs=1e-15)

    def test_beta3_monotone_and_bounded(self):
        values = [ademamix_beta3_at(self.SPEC, t) for t in range(1, 10001, 37)]
        assert all(b <= 0.9999 for b in values)
        assert all(b2 >= b1 for b1, b2 in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ContractViolationError):
            EmaScheduleSpec(alpha=8.0, beta3=1.0, beta_start=0.9, t_alpha=10, t_beta3=10)
        with pytest.raises(ContractViolationError):
            EmaScheduleSpec(alpha=-1.0, beta3=0.999, beta_start=0.9, t_alpha=10, t_beta3=10)
        with pytest.raises(ContractViolationError):
            ademamix_beta3_at(self.SPEC, 0)


def test_continuity_bound_at_warmup_boundary():
    for family in ("cosine", "linear", "wsd", "constant"):
        spec = ScheduleSpec(family, 1.0, 1000, 100)
        step_gap = abs(lr_at(spec, 101) - lr_at(spec, 100))
        assert step_gap <= 1.0 / (1000 - 100) * math.pi
