import importlib.util
from pathlib import Path

from camsel.harness import VARIANTS

TOOL = Path(__file__).resolve().parent.parent / "tools" / "record_digest.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("record_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
