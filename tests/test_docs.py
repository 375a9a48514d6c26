"""Documentation stays honest: tutorial code runs, docs reference real things."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_tutorial_code_blocks_execute(tmp_path, monkeypatch):
    """Every ```python block in docs/TUTORIAL.md runs top to bottom."""
    monkeypatch.chdir(tmp_path)  # the persistence block writes a file
    text = (ROOT / "docs" / "TUTORIAL.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) >= 8
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"<tutorial block {i + 1}>", "exec"), namespace)


def test_api_md_matches_generator():
    """docs/API.md is exactly what tools/gen_api_docs.py renders."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", ROOT / "tools" / "gen_api_docs.py"
    )
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    assert (ROOT / "docs" / "API.md").read_text() == gen.render(), (
        "docs/API.md is stale: run python tools/gen_api_docs.py"
    )


def test_paper_map_symbols_exist():
    """Every `repro.*` dotted path named in docs/PAPER_MAP.md resolves."""
    import importlib

    text = (ROOT / "docs" / "PAPER_MAP.md").read_text()
    paths = set(re.findall(r"`(repro(?:\.\w+)+)`", text))
    assert len(paths) > 30
    missing = []
    for dotted in sorted(paths):
        parts = dotted.split(".")
        obj = None
        for cut in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            rest = parts[cut:]
            try:
                for attr in rest:
                    obj = getattr(obj, attr)
            except AttributeError:
                obj = None
            break
        if obj is None:
            missing.append(dotted)
    assert not missing, f"PAPER_MAP references unknown symbols: {missing}"


def test_experiments_md_covers_registry():
    """EXPERIMENTS.md has a section for every registered experiment."""
    from repro.experiments import EXPERIMENTS

    text = (ROOT / "EXPERIMENTS.md").read_text()
    for eid in EXPERIMENTS:
        assert f"## {eid} —" in text or f"## {eid} –" in text, eid


def test_design_md_maps_every_experiment():
    from repro.experiments import EXPERIMENTS

    text = (ROOT / "DESIGN.md").read_text()
    for eid in EXPERIMENTS:
        assert f"| {eid} |" in text, eid


def test_readme_quickstart_runs(tmp_path, monkeypatch):
    """The README's quickstart block executes."""
    monkeypatch.chdir(tmp_path)
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks, "README must contain a python quickstart"
    exec(compile(blocks[0], "<readme quickstart>", "exec"), {})
