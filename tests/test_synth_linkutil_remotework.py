"""Unit tests for the link-utilization and enterprise-flow generators."""

import datetime as dt

import numpy as np
import pytest

from repro import timebase
from repro.flows.record import PROTO_TCP
from repro.flows.table import COLUMNS, FlowTable
from repro.netbase.asdb import ASCategory
from repro.netbase.prefixes import deterministic_addresses_in
from repro.synth import diurnal, linkutil, remotework
from repro.synth.flowgen import BYTES_PER_UNIT, EPHEMERAL_START
from repro.synth.remotework import BEHAVIOR_SHARES


class TestLinkUtilGenerator:
    def test_series_shape(self, scenario):
        utils = linkutil.member_day_utilization(
            scenario.members["ixp-se"], dt.date(2020, 2, 19), 1.0, seed=1
        )
        assert len(utils) == len(scenario.members["ixp-se"])
        for series in utils.values():
            assert series.shape == (1440,)

    def test_utilization_bounded(self, scenario):
        utils = linkutil.member_day_utilization(
            scenario.members["ixp-se"], dt.date(2020, 2, 19), 3.0, seed=1
        )
        for series in utils.values():
            assert series.min() >= 0.0
            assert series.max() <= 1.0

    def test_growth_raises_utilization(self, scenario):
        members = scenario.members["ixp-se"]
        base = linkutil.member_day_utilization(
            members, dt.date(2020, 2, 19), 1.0, seed=5
        )
        grown = linkutil.member_day_utilization(
            members, dt.date(2020, 2, 19), 1.5, seed=5
        )
        base_mean = np.mean([u.mean() for u in base.values()])
        grown_mean = np.mean([u.mean() for u in grown.values()])
        assert grown_mean > base_mean * 1.2

    def test_deterministic(self, scenario):
        members = scenario.members["ixp-se"]
        a = linkutil.member_day_utilization(
            members, dt.date(2020, 2, 19), 1.0, seed=2
        )
        b = linkutil.member_day_utilization(
            members, dt.date(2020, 2, 19), 1.0, seed=2
        )
        some_asn = next(iter(a))
        assert np.array_equal(a[some_asn], b[some_asn])

    def test_rejects_nonpositive_multiplier(self, scenario):
        with pytest.raises(ValueError):
            linkutil.member_day_utilization(
                scenario.members["ixp-se"], dt.date(2020, 2, 19), 0.0,
                seed=1,
            )

    def test_upgraded_member_utilization_drops(self, scenario):
        # A capacity upgrade lowers utilization for the same traffic.
        members = scenario.members["ixp-ce"]
        upgraded = [
            m for m in members.members()
            if m.upgrades and m.base_capacity_gbps >= 10
        ]
        assert upgraded  # the scenario plants 1,500 Gbps of upgrades
        member = upgraded[0]
        before = member.capacity_on(dt.date(2020, 2, 1))
        after = member.capacity_on(dt.date(2020, 5, 1))
        assert after > before


class TestEnterpriseBehaviors:
    def test_behavior_shares_sum_to_one(self):
        assert sum(s for _, s in BEHAVIOR_SHARES) == pytest.approx(1.0)

    def test_every_enterprise_assigned(self, scenario):
        enterprise = scenario.registry.asns_by_category(
            ASCategory.ENTERPRISE
        )
        assert set(scenario.enterprise_behaviors) == set(enterprise)

    def test_transit_has_no_residential(self, scenario):
        for behavior in scenario.enterprise_behaviors.values():
            if behavior.kind == "transit":
                assert behavior.residential_share <= 0.03

    def test_declining_remote_quadrant_shape(self, scenario):
        for behavior in scenario.enterprise_behaviors.values():
            if behavior.kind == "declining-remote":
                assert behavior.lockdown_res_mult > 1.0
                assert behavior.lockdown_other_mult < 1.0

    def test_assignment_deterministic(self, scenario):
        again = remotework.assign_behaviors(
            scenario.registry, seed=scenario.seed + 31
        )
        assert again == scenario.enterprise_behaviors


class TestEnterpriseFlows:
    @pytest.fixture(scope="class")
    def weeks(self):
        return (
            timebase.Week(dt.date(2020, 2, 19), "base"),
            timebase.Week(dt.date(2020, 3, 18), "lockdown"),
        )

    def test_flows_cover_week(self, scenario, weeks):
        flows = scenario.generate_remote_work_flows(weeks[0], False)
        start, stop = weeks[0].hour_range()
        hours = flows.column("hour")
        assert hours.min() >= start
        assert hours.max() < stop

    def test_all_enterprises_present(self, scenario, weeks):
        flows = scenario.generate_remote_work_flows(weeks[0], False)
        src = set(np.unique(flows.column("src_asn")))
        assert set(scenario.enterprise_behaviors) <= src

    def test_lockdown_changes_volumes(self, scenario, weeks):
        base = scenario.generate_remote_work_flows(weeks[0], False)
        lockdown = scenario.generate_remote_work_flows(weeks[1], True)
        # Remote-work ASes push more traffic toward eyeballs.
        eyeballs = set(
            scenario.registry.eyeball_asns(timebase.Region.CENTRAL_EUROPE)
        )

        def eyeball_bytes(flows):
            dst = flows.column("dst_asn")
            mask = np.isin(dst, sorted(eyeballs))
            return flows.filter(mask).total_bytes()

        assert eyeball_bytes(lockdown) > eyeball_bytes(base) * 1.2

    def test_requires_eyeballs(self, scenario, weeks):
        with pytest.raises(ValueError):
            remotework.generate_enterprise_flows(
                scenario.registry, scenario.prefix_map,
                scenario.enterprise_behaviors, [], weeks[0], False, seed=1,
            )


def _scalar_enterprise_flows(registry, prefix_map, behaviors, eyeball_asns,
                             week, lockdown_active, seed, intensity=1.0):
    """The row-at-a-time generator the vectorized one must reproduce."""
    shape = diurnal.get_shape("business")
    weekend_shape = diurnal.get_shape("flat")
    hosting = registry.asns_by_category(ASCategory.HOSTING)
    names = ("hour", "src_ip", "dst_ip", "src_asn", "dst_asn", "proto",
             "src_port", "dst_port", "n_bytes", "n_packets", "connections")
    rows = {name: [] for name in names}
    for asn in sorted(behaviors):
        behavior = behaviors[asn]
        rng = remotework._rng_for(seed + 1, asn)

        def address(owner):
            return int(deterministic_addresses_in(
                prefix_map.prefixes_of(owner), 1, salt=asn)[0])

        own_ip = address(asn)
        eyeball = int(eyeball_asns[asn % len(eyeball_asns)])
        eyeball_ip = address(eyeball)
        peer = int(hosting[asn % len(hosting)]) if hosting else eyeball
        peer_ip = address(peer)
        res_mult = behavior.lockdown_res_mult if lockdown_active else 1.0
        other_mult = behavior.lockdown_other_mult if lockdown_active else 1.0
        if lockdown_active and intensity != 1.0:
            res_mult = 1.0 + (res_mult - 1.0) * intensity
            other_mult = 1.0 + (other_mult - 1.0) * intensity
        res_daily = behavior.base_total * behavior.residential_share * res_mult
        other_daily = (
            behavior.base_total * (1.0 - behavior.residential_share)
            * other_mult
        )
        for day in week.days():
            weekend = timebase.is_weekend(day)
            day_shape = weekend_shape if weekend else shape
            weekend_factor = 0.45 if weekend else 1.0
            day_noise = float(rng.lognormal(0.0, 0.08))
            base_hour = timebase.hour_index(day, 0)
            for hour in range(24):
                level = day_shape[hour] / 24.0 * weekend_factor * day_noise
                for daily, peer_asn, peer_addr in (
                    (res_daily, eyeball, eyeball_ip),
                    (other_daily, peer, peer_ip),
                ):
                    n_bytes = int(round(daily * level * BYTES_PER_UNIT))
                    if n_bytes <= 0:
                        continue
                    for name, value in zip(names, (
                        base_hour + hour, own_ip, peer_addr, asn, peer_asn,
                        PROTO_TCP, 443, EPHEMERAL_START, n_bytes,
                        max(1, n_bytes // 900), 1,
                    )):
                        rows[name].append(value)
    return FlowTable.from_arrays(
        **{name: np.asarray(col) for name, col in rows.items()}
    )


class TestVectorizedEnterpriseFlows:
    @pytest.mark.parametrize("start, lockdown, intensity", [
        (dt.date(2020, 2, 19), False, 1.0),
        (dt.date(2020, 3, 18), True, 1.0),
        (dt.date(2020, 3, 18), True, 0.4),
    ])
    def test_matches_scalar_generator(self, scenario, start, lockdown,
                                      intensity):
        week = timebase.Week(start, "week")
        args = (
            scenario.registry, scenario.prefix_map,
            scenario.enterprise_behaviors,
            scenario.registry.eyeball_asns(timebase.Region.CENTRAL_EUROPE),
            week, lockdown,
        )
        got = remotework.generate_enterprise_flows(
            *args, seed=7, intensity=intensity)
        want = _scalar_enterprise_flows(*args, seed=7, intensity=intensity)
        assert len(got) == len(want) > 0
        for name in COLUMNS:
            assert got.column(name).dtype == want.column(name).dtype, name
            np.testing.assert_array_equal(
                got.column(name), want.column(name), err_msg=name)
