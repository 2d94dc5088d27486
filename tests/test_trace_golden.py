"""Golden traces: every variant on the canonical world, seeds 0 and 1, T = 300.

Each entry pins a sha256 over the discrete trace columns and the final
cumulative regret, so any change in what the agent or the greedy baseline
decides shows up here. Regenerate the table only for an intended change of
behaviour.
"""

import hashlib

import pytest

from camsel.harness import VARIANTS, run_pair
from camsel.presets import canonical_agent_config, canonical_world

HORIZON = 300

# (variant, seed) -> (sha256 of the discrete columns, final cumulative regret)
GOLDEN = {
    ("default", 0): ("ae8715c380eb8a04146dd613aa0086ee5158a9d52921cb20b2e63e9a575fdf49", 10.435358268198467),
    ("default", 1): ("7b100613cdcc04f204bfbf76092479d6d8262c5e9464e1c2910c4a5052d8513f", 14.10102988463942),
    ("no-grouping", 0): ("038b3c386d2ef815ac623bb4b9f628718571cffd759df3557e94bf8194ff9453", 10.435358268198467),
    ("no-grouping", 1): ("2576f52fb3b7c4999b992ae0fab5c49da3221e120dd7d67951ef17c953c7b0b2", 15.82029463530181),
    ("no-perspective", 0): ("97a8136b3d190a65b4c735188029c1a32f16230de945a9fc0d74d77819b57add", 13.797167820030065),
    ("no-perspective", 1): ("b7e3348f76d27af5b54d602bdfa07c10f06465848d31e05441d7e12bc19b5f5e", 10.36084285110071),
    ("no-combining", 0): ("6771789b4369f1b7ab059deb28921f6f553bf138d6cb86d89d3e2183906adbdd", 20.32260857745776),
    ("no-combining", 1): ("0f26c9554aa94cc0ad86e53b5d57eaf9c2ee38d3159482e485427b132bfc6af9", 23.340077694367395),
    ("set-based", 0): ("24cc21f4a8b9ee74e95e072f54b8bfb4e83b4e843c8f1b829cb49d668006163a", 9.56728286857067),
    ("set-based", 1): ("247af4f2d44b591f36ce36678d73d6921c67768b7fcefb9726beef3d1c887996", 15.089484005102985),
    ("tier-first", 0): ("9f7f2ae9e553df1abf8a8858d5da1c174a50c17e9257f1111d38925790671e45", 15.07988379782861),
    ("tier-first", 1): ("4f956f3be83b5517ff39d917e5ca330ecddd9bd0c97e243bdc130954a33c0209", 18.94530428719659),
    ("f1", 0): ("ae8715c380eb8a04146dd613aa0086ee5158a9d52921cb20b2e63e9a575fdf49", 10.435358268198467),
    ("f1", 1): ("7b100613cdcc04f204bfbf76092479d6d8262c5e9464e1c2910c4a5052d8513f", 14.10102988463942),
    ("f2", 0): ("ae8715c380eb8a04146dd613aa0086ee5158a9d52921cb20b2e63e9a575fdf49", 10.435358268198467),
    ("f2", 1): ("fcc58ccd98d2871b52387c6b2bd194488a78f169e4dd18419b2323c3dfe588de", 14.831840514838245),
    ("f3", 0): ("ae8715c380eb8a04146dd613aa0086ee5158a9d52921cb20b2e63e9a575fdf49", 10.435358268198467),
    ("f3", 1): ("7b100613cdcc04f204bfbf76092479d6d8262c5e9464e1c2910c4a5052d8513f", 14.10102988463942),
    ("f4", 0): ("ae8715c380eb8a04146dd613aa0086ee5158a9d52921cb20b2e63e9a575fdf49", 10.435358268198467),
    ("f4", 1): ("7b100613cdcc04f204bfbf76092479d6d8262c5e9464e1c2910c4a5052d8513f", 14.10102988463942),
    ("f5", 0): ("b36cc98afe065e4a4018f3ed9373e1c933647e556d515136d232e15e341f1501", 10.728245026634816),
    ("f5", 1): ("7b100613cdcc04f204bfbf76092479d6d8262c5e9464e1c2910c4a5052d8513f", 14.10102988463942),
    ("f6", 0): ("ae8715c380eb8a04146dd613aa0086ee5158a9d52921cb20b2e63e9a575fdf49", 10.435358268198467),
    ("f6", 1): ("7b100613cdcc04f204bfbf76092479d6d8262c5e9464e1c2910c4a5052d8513f", 14.10102988463942),
    ("greedy", 0): ("d9a79a95c3e16efb5b5116f59312f5b387f6b2d2ec5860e71c0cf81a23b08def", 136.80217239207707),
    ("greedy", 1): ("473d24f1e5923cda0732e2475473297a7cd7d2518d35816c848c2d3fa68486e7", 137.11650939462507),
}


def _digest(records) -> str:
    h = hashlib.sha256()
    for r in records:
        row = [r.t, r.camera, r.inferred_group, r.true_group,
               ";".join(map(str, r.tried_models)), ";".join(map(str, r.payoffs)),
               r.component_count, r.edges_deleted, int(r.graph_reset)]
        h.update((",".join(map(str, row)) + "\n").encode())
    return h.hexdigest()


def test_golden_table_covers_every_variant():
    assert {v for v, _ in GOLDEN} == set(VARIANTS)


@pytest.mark.parametrize("variant", VARIANTS)
def test_trace_matches_golden(variant):
    world, cfg = canonical_world(), canonical_agent_config()
    for seed in (0, 1):
        res = run_pair(variant, seed, world, cfg, HORIZON, keep_records=True)
        digest, regret = GOLDEN[(variant, seed)]
        assert _digest(res.records) == digest, (variant, seed)
        assert float(res.cum_regret[-1]) == pytest.approx(regret, abs=1e-9)
