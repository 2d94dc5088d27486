import importlib.util
import sys
from pathlib import Path

from camsel.harness import VARIANTS

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "record_digest.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module      # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _load_tool():
    return _load("record_digest", TOOL)


def test_digest_covers_every_variant_and_repeats(capsys):
    tool = _load_tool()
    outputs = []
    for _ in range(2):
        assert tool.main(["--horizon", "30"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    lines = [line.split() for line in outputs[0].splitlines()]
    names = [name for name, _ in lines]
    assert len(names) == len(set(names)) == 13 * 10 + 3 + 4 + 3 + 1
    assert {name.split("/")[0] for name in names[:130]} == set(VARIANTS)
    assert names[-1] == "overall"
    assert all(len(digest) == 64 for _, digest in lines)
    # each variant's seeds give different digests
    for variant in VARIANTS:
        assert len({digest for name, digest in lines
                    if name.startswith(variant + "/")}) == 10, variant


def test_bench_pairs_are_the_canonical_workloads_pairs():
    tool = _load_tool()
    workloads = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py").WORKLOADS
    expected = [(w.variant, seed, w.horizon)
                for w in (workloads["canonical-sweep"], workloads["canonical-pooled"])
                for workload_seed in range(10) for seed in w.run_seeds(workload_seed)]
    listed = list(tool.bench_pairs())
    names = [name for name, _ in listed]
    assert len(listed) == len(set(names)) == 800
    assert [(v, seed, horizon) for _, (v, seed, _, _, horizon, _) in listed] == expected
    assert {v for _, (v, *_rest) in listed} == {"default", "no-perspective"}
    assert names[0] == "bench/default/seed0" and names[-1] == "bench/no-perspective/seed399"
    assert all(events == () for _, (*_rest, events) in listed)
