"""Tier-1 wiring for the golden USaaS answers (tools/usaas_golden.py)."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
TOOL = REPO / "tools" / "usaas_golden.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("usaas_golden", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_answers_unchanged(capsys):
    tool = _load_tool()
    assert tool.main(["--check"]) == 0, capsys.readouterr().out


def test_golden_files_cover_every_seed_and_query():
    tool = _load_tool()
    for seed in tool.SEEDS:
        text = tool.golden_path(seed).read_text(encoding="utf-8")
        assert text.count("=== query ") == len(tool.queries())
        assert "source health:" in text and "trust:" in text


def test_corrupted_cache_hit_decode_is_caught(monkeypatch):
    """The cache-hit pass compares what a warm hit decodes: a block
    decoder that halves one column fails the check on that pass only."""
    import dataclasses

    from repro.perf.columnar import ParticipantColumns

    tool = _load_tool()
    monkeypatch.setattr(tool, "SEEDS", tool.SEEDS[:1])
    load = ParticipantColumns.load

    def lossy(path):
        cols = load(path)
        return dataclasses.replace(cols, presence_pct=cols.presence_pct / 2)

    monkeypatch.setattr(ParticipantColumns, "load", lossy)
    assert set(tool.check()) == {(tool.SEEDS[0], "cache hit")}
