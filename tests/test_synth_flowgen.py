"""Unit tests for the flow sampler."""

import datetime as dt

import numpy as np
import pytest

from repro import timebase
from repro.flows.record import PROTO_GRE, PROTO_TCP, PROTO_UDP
from repro.netbase.asdb import ASCategory, build_default_registry
from repro.netbase.prefixes import PrefixAllocator, random_addresses_in
from repro.series import HourlySeries
from repro.synth.flowgen import (
    BYTES_PER_UNIT,
    EPHEMERAL_PORT,
    EPHEMERAL_START,
    FlowSampler,
    PoolTables,
)
from repro.synth.profiles import (
    AppProfile,
    FlowTemplate,
    LockdownResponse,
    POOL_ANY,
    POOL_EYEBALL_LOCAL,
    POOL_VPN_GATEWAYS,
)


@pytest.fixture(scope="module")
def world():
    registry = build_default_registry(n_enterprise=30, n_hosting=10)
    prefix_map = PrefixAllocator(registry).allocate()
    return registry, prefix_map


def make_sampler(world, gateways=(), seed=1):
    registry, prefix_map = world
    return FlowSampler(
        registry=registry,
        prefix_map=prefix_map,
        local_eyeball_asns=[3320],
        seed=seed,
        vpn_gateway_ips=gateways,
    )


def profile_with(template):
    return AppProfile(
        name="test", templates=(template,), response=LockdownResponse()
    )


def volumes(hours=24, level=5.0):
    start = timebase.hour_index(dt.date(2020, 2, 19), 0)
    return HourlySeries(start, np.full(hours, level))


class TestSampling:
    def test_bytes_match_model(self, world):
        sampler = make_sampler(world)
        profile = profile_with(
            FlowTemplate(PROTO_TCP, ((443, 1.0),), ASCategory.HYPERGIANT,
                         POOL_EYEBALL_LOCAL, mean_flow_kbytes=100.0)
        )
        vols = volumes(level=10.0)
        table = sampler.sample_profile(profile, vols)
        expected = vols.total() * BYTES_PER_UNIT
        assert table.total_bytes() == pytest.approx(expected, rel=0.001)

    def test_per_hour_bytes_match(self, world):
        sampler = make_sampler(world)
        profile = profile_with(
            FlowTemplate(PROTO_TCP, ((443, 1.0),), ASCategory.HYPERGIANT,
                         POOL_EYEBALL_LOCAL, mean_flow_kbytes=50.0)
        )
        vols = volumes(hours=6, level=3.0)
        table = sampler.sample_profile(profile, vols)
        hourly = table.hourly_bytes(vols.start_hour, vols.stop_hour)
        assert np.allclose(
            hourly, vols.values * BYTES_PER_UNIT, rtol=0.001
        )

    def test_fidelity_scales_counts_not_bytes(self, world):
        profile = profile_with(
            FlowTemplate(PROTO_TCP, ((443, 1.0),), ASCategory.HYPERGIANT,
                         POOL_EYEBALL_LOCAL, mean_flow_kbytes=100.0)
        )
        low = make_sampler(world).sample_profile(profile, volumes(), 0.5)
        high = make_sampler(world).sample_profile(profile, volumes(), 2.0)
        assert len(high) > len(low) * 2
        assert high.total_bytes() == pytest.approx(
            low.total_bytes(), rel=0.01
        )

    def test_every_hour_with_volume_has_a_flow(self, world):
        sampler = make_sampler(world)
        profile = profile_with(
            FlowTemplate(PROTO_TCP, ((443, 1.0),), ASCategory.HYPERGIANT,
                         POOL_EYEBALL_LOCAL, mean_flow_kbytes=1e6)
        )
        vols = volumes(level=0.001)  # tiny volume
        table = sampler.sample_profile(profile, vols)
        hourly = table.hourly_connections(vols.start_hour, vols.stop_hour)
        assert np.all(hourly >= 1)

    def test_rejects_nonpositive_fidelity(self, world):
        sampler = make_sampler(world)
        profile = profile_with(
            FlowTemplate(PROTO_TCP, ((443, 1.0),), ASCategory.HYPERGIANT,
                         POOL_EYEBALL_LOCAL)
        )
        with pytest.raises(ValueError):
            sampler.sample_profile(profile, volumes(), fidelity=0)


class TestAddressing:
    def test_addresses_consistent_with_asn(self, world):
        registry, prefix_map = world
        sampler = make_sampler(world)
        profile = profile_with(
            FlowTemplate(PROTO_TCP, ((443, 1.0),), ASCategory.HYPERGIANT,
                         POOL_EYEBALL_LOCAL)
        )
        table = sampler.sample_profile(profile, volumes())
        src_owner = prefix_map.asn_for_many(table.column("src_ip"))
        assert np.array_equal(src_owner, table.column("src_asn"))
        dst_owner = prefix_map.asn_for_many(table.column("dst_ip"))
        assert np.array_equal(dst_owner, table.column("dst_asn"))

    def test_service_port_on_server_side(self, world):
        sampler = make_sampler(world)
        # Download: src is the server pool, so src_port carries 443.
        profile = profile_with(
            FlowTemplate(PROTO_TCP, ((443, 1.0),), ASCategory.HYPERGIANT,
                         POOL_EYEBALL_LOCAL)
        )
        table = sampler.sample_profile(profile, volumes())
        assert np.all(table.column("src_port") == 443)
        assert np.all(table.column("dst_port") >= EPHEMERAL_START)

    def test_upload_direction_port_placement(self, world):
        sampler = make_sampler(world)
        profile = profile_with(
            FlowTemplate(PROTO_UDP, ((4500, 1.0),), POOL_EYEBALL_LOCAL,
                         ASCategory.ENTERPRISE)
        )
        table = sampler.sample_profile(profile, volumes())
        assert np.all(table.column("dst_port") == 4500)
        assert np.all(table.column("src_port") >= EPHEMERAL_START)

    def test_portless_protocol_has_zero_ports(self, world):
        sampler = make_sampler(world)
        profile = profile_with(
            FlowTemplate(PROTO_GRE, ((0, 1.0),), ASCategory.ENTERPRISE,
                         ASCategory.ENTERPRISE)
        )
        table = sampler.sample_profile(profile, volumes())
        assert np.all(table.column("src_port") == 0)
        assert np.all(table.column("dst_port") == 0)

    def test_ephemeral_marker_gives_high_ports(self, world):
        sampler = make_sampler(world)
        profile = profile_with(
            FlowTemplate(PROTO_TCP, ((EPHEMERAL_PORT, 1.0),),
                         POOL_EYEBALL_LOCAL, ASCategory.HOSTING)
        )
        table = sampler.sample_profile(profile, volumes())
        assert np.all(table.column("dst_port") >= EPHEMERAL_START)
        assert np.all(table.column("src_port") >= EPHEMERAL_START)

    def test_gateway_pool_uses_exact_addresses(self, world):
        registry, prefix_map = world
        gateways = tuple(
            int(a)
            for a in prefix_map.prefixes_of(210001)[0].network.hosts()
        )[:3]
        sampler = make_sampler(world, gateways=gateways)
        profile = profile_with(
            FlowTemplate(PROTO_TCP, ((443, 1.0),), POOL_EYEBALL_LOCAL,
                         POOL_VPN_GATEWAYS)
        )
        table = sampler.sample_profile(profile, volumes())
        assert set(np.unique(table.column("dst_ip"))) <= set(gateways)
        # Gateway ASNs resolved through the prefix map.
        assert np.all(table.column("dst_asn") == 210001)

    def test_gateway_pool_requires_addresses(self, world):
        sampler = make_sampler(world, gateways=())
        profile = profile_with(
            FlowTemplate(PROTO_TCP, ((443, 1.0),), POOL_EYEBALL_LOCAL,
                         POOL_VPN_GATEWAYS)
        )
        with pytest.raises(ValueError):
            sampler.sample_profile(profile, volumes())

    def test_client_side_has_many_unique_ips(self, world):
        sampler = make_sampler(world)
        profile = profile_with(
            FlowTemplate(PROTO_TCP, ((443, 1.0),), ASCategory.HYPERGIANT,
                         POOL_EYEBALL_LOCAL, mean_flow_kbytes=20.0)
        )
        table = sampler.sample_profile(profile, volumes(level=20.0))
        # Clients are drawn uniformly: nearly all distinct.
        assert table.unique_ips("dst") > len(table) * 0.8
        # Servers come from small stable per-AS pools (15 hypergiants
        # at 4 + 4*weight addresses each).
        assert table.unique_ips("src") < 500


class TestVantagePointSampler:
    def test_requires_eyeballs(self, world):
        registry, prefix_map = world
        with pytest.raises(ValueError):
            FlowSampler(registry, prefix_map, [], seed=0)

    def test_deterministic_given_seed(self, world):
        profile = profile_with(
            FlowTemplate(PROTO_TCP, ((443, 1.0),), ASCategory.HYPERGIANT,
                         POOL_EYEBALL_LOCAL)
        )
        a = make_sampler(world, seed=9).sample_profile(profile, volumes())
        b = make_sampler(world, seed=9).sample_profile(profile, volumes())
        assert a == b


def per_as_draw(sampler, spec, asns, count):
    """The per-AS address loop the batched draw replaced (reference)."""
    rng = sampler._rng
    if spec.kind == "gateway":
        addresses = np.asarray(spec.addresses, dtype=np.uint32)
        return addresses[rng.integers(0, len(addresses), size=count)]
    result = np.empty(count, dtype=np.uint32)
    if count == 0:
        return result
    order = np.argsort(asns, kind="stable")
    sorted_asns = asns[order]
    boundaries = np.flatnonzero(sorted_asns[1:] != sorted_asns[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    stops = np.concatenate((boundaries, [count]))
    for start, stop in zip(starts, stops):
        asn = int(sorted_asns[start])
        rows = order[start:stop]
        n = stop - start
        if spec.kind == "client":
            prefixes = sampler._prefix_map.prefixes_of(asn)
            result[rows] = random_addresses_in(prefixes, n, rng)
        else:
            pool = sampler._server_pool_for(asn)
            result[rows] = pool[rng.integers(0, len(pool), size=n)]
    return result


class TestBatchedDraws:
    """The batched address draw equals the per-AS loop, stream included."""

    GATEWAYS = (0x0A000001, 0x0A000002, 0x0A000003)

    def assert_same_draws(self, world, pool, count, asns=None, seed=3):
        batched = make_sampler(world, gateways=self.GATEWAYS, seed=seed)
        looped = make_sampler(world, gateways=self.GATEWAYS, seed=seed)
        spec = batched._resolve_pool(pool)
        if asns is None:
            pick = np.random.default_rng(seed + 100)
            asns = np.asarray(spec.asns or (0,), dtype=np.int64)[
                pick.integers(0, max(1, len(spec.asns)), size=count)
            ]
        got = batched._draw_addresses(spec, asns, count)
        want = per_as_draw(looped, spec, asns, count)
        assert got.dtype == want.dtype == np.uint32
        assert np.array_equal(got, want)
        assert (batched._rng.bit_generator.state
                == looped._rng.bit_generator.state)
        assert batched._rng.integers(0, 1 << 40) == looped._rng.integers(
            0, 1 << 40)
        return spec

    def test_client_pool(self, world):
        registry, prefix_map = world
        spec = self.assert_same_draws(world, ASCategory.EYEBALL, 5000)
        assert spec.kind == "client"
        sizes = {len(prefix_map.prefixes_of(a)) for a in spec.asns}
        assert 1 in sizes and max(sizes) > 1

    def test_server_pool(self, world):
        spec = self.assert_same_draws(world, ASCategory.HYPERGIANT, 5000)
        assert spec.kind == "server"
        self.assert_same_draws(world, POOL_ANY, 3000, seed=8)

    def test_gateway_pool(self, world):
        spec = self.assert_same_draws(world, POOL_VPN_GATEWAYS, 500)
        assert spec.kind == "gateway"

    def test_single_prefix_as_consumes_no_pick_draws(self, world):
        registry, prefix_map = world
        assert len(prefix_map.prefixes_of(230002)) == 1
        asns = np.full(700, 230002, dtype=np.int64)
        self.assert_same_draws(world, ASCategory.EYEBALL, 700, asns=asns)
        # Interleaved with multi-prefix ASes in arbitrary row order.
        asns = np.tile(np.array([230002, 3320, 230000, 230006]), 50)
        self.assert_same_draws(world, ASCategory.EYEBALL, 200, asns=asns)

    @pytest.mark.parametrize(
        "pool", [ASCategory.EYEBALL, ASCategory.HYPERGIANT, POOL_VPN_GATEWAYS]
    )
    def test_count_zero(self, world, pool):
        self.assert_same_draws(
            world, pool, 0, asns=np.zeros(0, dtype=np.int64)
        )

    def test_as_without_prefixes_raises(self, world):
        registry, _ = world
        small = build_default_registry(n_enterprise=5, n_hosting=10)
        prefix_map = PrefixAllocator(small).allocate()
        sampler = FlowSampler(registry, prefix_map, [3320], seed=0)
        orphan = next(
            info.asn for info in registry.by_category(ASCategory.ENTERPRISE)
            if not prefix_map.prefixes_of(info.asn)
        )
        for pool in (ASCategory.ENTERPRISE, [orphan]):
            spec = sampler._resolve_pool(pool)
            with pytest.raises(ValueError, match=f"AS {orphan} has no"):
                sampler._draw_addresses(
                    spec, np.array([orphan], dtype=np.int64), 1
                )
        client = FlowSampler(registry, prefix_map, [orphan], seed=0)
        spec = client._resolve_pool(POOL_EYEBALL_LOCAL)
        with pytest.raises(ValueError, match=f"AS {orphan} has no"):
            client._draw_addresses(spec, np.array([orphan]), 1)

    def test_shared_tables_do_not_change_samples(self, world):
        registry, prefix_map = world
        profile = profile_with(
            FlowTemplate(PROTO_TCP, ((443, 1.0),), ASCategory.HYPERGIANT,
                         POOL_EYEBALL_LOCAL)
        )
        tables = PoolTables()
        for seed in (1, 2):
            shared = FlowSampler(registry, prefix_map, [3320], seed=seed,
                                 tables=tables)
            own = make_sampler(world, seed=seed)
            assert (shared.sample_profile(profile, volumes())
                    == own.sample_profile(profile, volumes()))
        assert tables.server_pools and tables.addresses
