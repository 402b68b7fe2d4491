"""The chaos drill's tenant placement: two distinct tenants on every
shard, so each faulted shard recovers two interleaved tenants from its
write-ahead log (and, under sharing, co-owned entries)."""

import pytest

from repro.service.bench import CHAOS_TENANTS_PER_SHARD, _chaos_specs
from repro.service.router import HashRing, RouterConfig

SHARDS = [f"shard-{index}" for index in range(4)]


def _specs(sharing: bool, benchmarks=None) -> list[dict]:
    return _chaos_specs(SHARDS, benchmarks, scale=0.1, accesses=64,
                        sharing=sharing, vnodes=RouterConfig().vnodes)


class TestChaosSpecs:
    @pytest.mark.parametrize("sharing, benchmarks",
                             [(False, None), (True, ["gzip"])])
    def test_every_shard_holds_exactly_two_distinct_tenants(
            self, sharing, benchmarks):
        specs = _specs(sharing, benchmarks)
        names = [spec["tenant"] for spec in specs]
        assert CHAOS_TENANTS_PER_SHARD == 2
        assert len(set(names)) == len(names) == 2 * len(SHARDS)
        ring = HashRing(SHARDS, vnodes=RouterConfig().vnodes)
        for shard in SHARDS:
            owned = [spec for spec in specs if spec["shard"] == shard]
            assert len(owned) == 2
            # The placement is the ring's, so the router agrees.
            assert all(ring.lookup(spec["tenant"]) == shard
                       for spec in owned)

    def test_sharing_runs_one_common_seed(self):
        specs = _specs(sharing=True, benchmarks=["gzip"])
        assert {spec["seed"] for spec in specs} == {1000}
        # One seed and one benchmark: every tenant carries the same
        # content, so tenants on one shard co-own its entries.
        assert len({tuple(spec["block_digests"]) for spec in specs}) == 1

    def test_legacy_tenants_run_distinct_seeds_without_digests(self):
        specs = _specs(sharing=False)
        assert len({spec["seed"] for spec in specs}) == len(specs)
        assert all("block_digests" not in spec for spec in specs)
