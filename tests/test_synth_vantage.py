"""Unit tests for vantage-point traffic models."""

import datetime as dt

import numpy as np
import pytest

from repro import timebase
from repro.synth import diurnal
from repro.synth import events as ev
from repro.synth.flowgen import BYTES_PER_UNIT
from repro.synth.profiles import RAMP_DAYS
from repro.synth.scenario import build_scenario
from repro.synth.spec import ScenarioSpec
from repro.synth.vantage import VantagePoint


class TestIntensityModel:
    def test_profile_names_sorted(self, scenario):
        names = scenario.isp_ce.profile_names()
        assert names == sorted(names)

    def test_unknown_profile_raises(self, scenario):
        with pytest.raises(KeyError):
            scenario.isp_ce.profile_volumes(
                "nonexistent", dt.date(2020, 2, 1), dt.date(2020, 2, 2)
            )

    def test_backwards_range_raises(self, scenario):
        with pytest.raises(ValueError):
            scenario.isp_ce.profile_volumes(
                "quic", dt.date(2020, 2, 2), dt.date(2020, 2, 1)
            )

    def test_volumes_positive(self, scenario):
        series = scenario.isp_ce.profile_volumes(
            "web-hypergiant", dt.date(2020, 2, 19), dt.date(2020, 2, 25)
        )
        assert np.all(series.values > 0)

    def test_hourly_traffic_is_sum_of_profiles(self, scenario):
        start, end = dt.date(2020, 2, 19), dt.date(2020, 2, 20)
        vantage = scenario.isp_ce
        total = vantage.hourly_traffic(start, end)
        manual = sum(
            vantage.profile_volumes(name, start, end).values
            for name in vantage.profile_names()
        )
        assert np.allclose(total.values, manual)

    def test_profile_subset_selection(self, scenario):
        start, end = dt.date(2020, 2, 19), dt.date(2020, 2, 19)
        sub = scenario.isp_ce.hourly_traffic(start, end, profiles=["quic"])
        quic = scenario.isp_ce.profile_volumes("quic", start, end)
        assert np.allclose(sub.values, quic.values)

    def test_empty_profile_selection_raises(self, scenario):
        with pytest.raises(ValueError):
            scenario.isp_ce.hourly_traffic(
                dt.date(2020, 2, 19), dt.date(2020, 2, 19), profiles=[]
            )

    def test_noise_consistent_across_query_ranges(self, scenario):
        # The same calendar hour must carry the same value regardless of
        # the requested range (noise is anchored to absolute time).
        wide = scenario.isp_ce.profile_volumes(
            "quic", dt.date(2020, 2, 18), dt.date(2020, 2, 22)
        )
        narrow = scenario.isp_ce.profile_volumes(
            "quic", dt.date(2020, 2, 20), dt.date(2020, 2, 20)
        )
        assert np.allclose(
            wide.slice_day(dt.date(2020, 2, 20)).values, narrow.values
        )

    def test_weekend_shape_differs_from_workday(self, scenario):
        series = scenario.isp_ce.profile_volumes(
            "web-hypergiant", dt.date(2020, 2, 19), dt.date(2020, 2, 23)
        )
        workday = series.day_values(dt.date(2020, 2, 19))
        weekend = series.day_values(dt.date(2020, 2, 22))
        workday_shape = workday / workday.sum()
        weekend_shape = weekend / weekend.sum()
        assert not np.allclose(workday_shape, weekend_shape, atol=0.005)

    def test_lockdown_increases_isp_traffic(self, scenario):
        base = scenario.isp_ce.hourly_traffic(
            dt.date(2020, 2, 19), dt.date(2020, 2, 25)
        ).total()
        lockdown = scenario.isp_ce.hourly_traffic(
            dt.date(2020, 3, 18), dt.date(2020, 3, 24)
        ).total()
        assert 1.10 < lockdown / base < 1.45


class TestFlowGeneration:
    def test_flows_match_aggregate(self, scenario, isp_base_week_flows):
        base = scenario.isp_ce.hourly_traffic(
            dt.date(2020, 2, 19), dt.date(2020, 2, 25)
        )
        assert isp_base_week_flows.total_bytes() == pytest.approx(
            base.total() * BYTES_PER_UNIT, rel=0.001
        )

    def test_flows_sorted_by_hour(self, isp_base_week_flows):
        hours = isp_base_week_flows.column("hour")
        assert np.all(np.diff(hours) >= 0)

    def test_generation_deterministic(self, scenario):
        week = timebase.MACRO_WEEKS["base"]
        a = scenario.ixp_se.generate_week_flows(week, fidelity=0.3)
        b = scenario.ixp_se.generate_week_flows(week, fidelity=0.3)
        assert a == b

    def test_profile_filter_restricts_ports(self, scenario):
        week = timebase.MACRO_WEEKS["base"]
        flows = scenario.isp_ce.generate_week_flows(
            week, fidelity=0.3, profiles=["quic"]
        )
        keys = set(flows.transport_keys())
        assert keys == {"UDP/443"}

    def test_flow_hours_inside_requested_range(self, isp_base_week_flows):
        start, stop = timebase.MACRO_WEEKS["base"].hour_range()
        hours = isp_base_week_flows.column("hour")
        assert hours.min() >= start
        assert hours.max() < stop


class TestVantageValidation:
    def test_unknown_vantage_kind(self, scenario):
        from repro.synth.vantage import VantagePoint

        with pytest.raises(ValueError):
            VantagePoint(
                name="x", kind="satellite",
                region=timebase.Region.CENTRAL_EUROPE,
                mix=scenario.isp_ce.mix, base_daily_volume=1.0,
                registry=scenario.registry,
                prefix_map=scenario.prefix_map,
                local_eyeball_asns=[1], seed=0,
            )

    def test_empty_mix_rejected(self, scenario):
        from repro.synth.vantage import VantagePoint

        with pytest.raises(ValueError):
            VantagePoint(
                name="x", kind="isp",
                region=timebase.Region.CENTRAL_EUROPE,
                mix={}, base_daily_volume=1.0,
                registry=scenario.registry,
                prefix_map=scenario.prefix_map,
                local_eyeball_asns=[1], seed=0,
            )

    def test_nonpositive_volume_rejected(self, scenario):
        from repro.synth.vantage import VantagePoint

        with pytest.raises(ValueError):
            VantagePoint(
                name="x", kind="isp",
                region=timebase.Region.CENTRAL_EUROPE,
                mix=scenario.isp_ce.mix, base_daily_volume=0.0,
                registry=scenario.registry,
                prefix_map=scenario.prefix_map,
                local_eyeball_asns=[1], seed=0,
            )


def per_day_multiplier(profile, day, timeline, weekend):
    """The scalar ramp/event/growth rule (reference)."""
    phase, phase_start, prev_phase = timeline.ramp_context(day)
    target = profile.response.multiplier(phase, weekend)
    if phase_start is not None:
        days_in = (day - phase_start).days
        if days_in < RAMP_DAYS:
            prev = profile.response.multiplier(prev_phase, weekend)
            frac = (days_in + 1) / (RAMP_DAYS + 1)
            target = prev + (target - prev) * frac
    for event in profile.events:
        if event.applies(day):
            target *= event.multiplier
    growth_days = (day - dt.date(2020, 1, 1)).days
    target *= 1.0 + profile.annual_growth * growth_days / 365.0
    return target


def per_day_volumes(vantage, profile_name, start_day, end_day):
    """The per-day ``profile_volumes`` loop (reference)."""
    use = vantage.mix[profile_name]
    profile, world = use.profile, vantage.world
    n_days = (end_day - start_day).days + 1
    values = np.empty(n_days * 24, dtype=np.float64)
    for i, day in enumerate(timebase.iter_days(start_day, end_day)):
        if world is None:
            weekend = timebase.behaves_like_weekend(day, vantage.region)
        else:
            weekend = world.behaves_like_weekend(day, vantage.region)
        mult = per_day_multiplier(profile, day, vantage.timeline, weekend)
        if world is not None:
            modifier = world.volume_modifier(day, vantage.name, profile_name)
            if modifier != 1.0:
                mult *= modifier
            attenuation = world.wfh_attenuation(day, vantage.name)
            if attenuation > 0.0:
                mult = 1.0 + (mult - 1.0) * (1.0 - attenuation)
        shape = diurnal.get_shape(profile.response.shape_name(
            vantage.timeline.phase(day), weekend))
        daily = vantage.base_daily_volume * use.share * mult
        values[i * 24 : (i + 1) * 24] = daily / 24.0 * shape
    start_hour = timebase.hour_index(start_day, 0)
    noise = vantage._noise_for(profile_name)[
        start_hour : start_hour + n_days * 24
    ]
    return values * noise


def event_scenario():
    D = dt.date
    return build_scenario(spec=ScenarioSpec(
        name="volume-events", n_enterprise=20, n_hosting=5,
        events=(
            ev.SecondWave(timebase.Region.CENTRAL_EUROPE,
                          D(2020, 4, 27), D(2020, 5, 6)),
            ev.WFHReversal(ev.Envelope(D(2020, 4, 20), ramp_days=5,
                                       plateau_days=10, decay_days=4)),
            ev.DemandShift(ev.Envelope(D(2020, 3, 1), ramp_days=3,
                                       plateau_days=5, decay_days=2),
                           magnitude=1.7, vantages=("isp-ce", "edu")),
            ev.Holiday(D(2020, 2, 10), D(2020, 2, 12)),
        ),
    ))


class TestVectorizedIntensity:
    """``profile_volumes`` equals the per-day loop, bit for bit."""

    def assert_matches_loop(self, vantage, start, end):
        for name in vantage.profile_names():
            got = vantage.profile_volumes(name, start, end)
            assert got.start_hour == timebase.hour_index(start, 0)
            want = per_day_volumes(vantage, name, start, end)
            assert np.array_equal(got.values, want), (vantage.name, name)

    def test_default_world_whole_study(self, scenario):
        for vantage in scenario.vantages.values():
            self.assert_matches_loop(
                vantage, timebase.STUDY_START, timebase.STUDY_END
            )

    def test_event_world_whole_study_and_subrange(self):
        scenario = event_scenario()
        assert scenario.isp_ce.world.has_volume_events
        for vantage in scenario.vantages.values():
            self.assert_matches_loop(
                vantage, timebase.STUDY_START, timebase.STUDY_END
            )
        self.assert_matches_loop(
            scenario.isp_ce, dt.date(2020, 4, 25), dt.date(2020, 5, 2)
        )

    def test_vantage_without_world(self, scenario):
        vantage = VantagePoint(
            name="bare", kind="isp", region=timebase.Region.SOUTHERN_EUROPE,
            mix=scenario.isp_ce.mix, base_daily_volume=123.0,
            registry=scenario.registry, prefix_map=scenario.prefix_map,
            local_eyeball_asns=[3320], seed=5,
        )
        self.assert_matches_loop(
            vantage, timebase.STUDY_START, timebase.STUDY_END
        )

    def test_one_day_calls_match_the_rule(self, scenario):
        timeline = scenario.isp_ce.timeline
        for use in scenario.isp_ce.mix.values():
            for day in timebase.iter_days(dt.date(2020, 3, 8),
                                          dt.date(2020, 3, 24)):
                for weekend in (False, True):
                    assert use.profile.daily_multiplier(
                        day, timeline, weekend
                    ) == per_day_multiplier(
                        use.profile, day, timeline, weekend)
                    assert use.profile.shape_name(
                        day, timeline, weekend
                    ) == use.profile.response.shape_name(
                        timeline.phase(day), weekend)


class TestStudyBounds:
    @pytest.mark.parametrize("start, end", [
        (dt.date(2019, 12, 30), dt.date(2020, 1, 5)),
        (dt.date(2020, 5, 12), dt.date(2020, 5, 18)),
        (dt.date(2019, 6, 1), dt.date(2019, 6, 7)),
    ])
    def test_range_outside_study_raises(self, scenario, start, end):
        with pytest.raises(ValueError, match="2020-01-01..2020-05-17"):
            scenario.isp_ce.profile_volumes("quic", start, end)
        with pytest.raises(ValueError, match="2020-01-01..2020-05-17"):
            scenario.isp_ce.generate_flows(start, end, fidelity=0.1)

    def test_study_edges_are_inside(self, scenario):
        first = scenario.isp_ce.profile_volumes(
            "quic", timebase.STUDY_START, timebase.STUDY_START)
        last = scenario.isp_ce.profile_volumes(
            "quic", timebase.STUDY_END, timebase.STUDY_END)
        assert len(first.values) == len(last.values) == 24
        assert last.start_hour == timebase.STUDY_HOURS - 24
