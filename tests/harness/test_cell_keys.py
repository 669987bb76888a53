"""Pinned cell cache keys.

A cell's content-hash key names its ``.repro-cache/`` entry and its
journal records, so every way of forming a cell -- a session at a core
count, the 1-core baseline, a session with machine overrides, a
``run_cell`` preset, and a sweep point -- must keep producing the same
key.  The literals below were generated before cells carried their
``MachineConfig``; a change here orphans every existing cache entry and
journal.
"""

import json

from repro import api

GSM_HYBRID_4 = "87668346e0e8f1ef9393bbd09738d92ed465e05c45bf0d25864732b2161e6bf3"
GSM_BASELINE = "7aa0be973daeb17809de87faf08a4a6ffad250aedbb821c2ee848ece836c49b3"
GSM_HYBRID_16_DIRECTORY_VLINK = (
    "ae0226901759cbe0c04e25f12163de033b300d2704a52e718a35466584cfdbcf"
)
EPIC_LLP_MESH32_DIRECTORY = (
    "e744231a2dfb945a23e5c9dcd7792aae6633e0efcb1c65c83200a8f78abbfb99"
)
EPIC_REFERENCE = "9586269d036c5059b91d02d46f46e7de9d7b2af3cc8db2d28a781081394ab42d"
#: rawcaudio at the sweep point queue_depth=4, memory_latency=200.
RAW_SWEEP_HYBRID_2 = (
    "c1a267241d7a4858848672f9d7e7b55024bfb79b1929c76c6e86737fb3f2ef66"
)
RAW_SWEEP_BASELINE = (
    "34d657384fa0bbb7db9d9be9710aeb69d686599d4da81deff2d8cbeec1dcab77"
)
RAW_REFERENCE = "6d1797e0099b5e82b7e6597368c43d155602f13c4f1579ee33daef868ecc4c37"


def _cached_keys(cache_dir):
    return sorted(path.stem for path in cache_dir.glob("*.json"))


def test_session_cells():
    runner = api.session()
    assert runner._cell_key("gsmdecode", 4, "hybrid") == GSM_HYBRID_4
    assert runner._cell_key("gsmdecode", 1, "baseline") == GSM_BASELINE


def test_session_with_overrides():
    runner = api.session(
        config_overrides={"coherence": "directory", "queue_policy": "vlink"}
    )
    assert (
        runner._cell_key("gsmdecode", 16, "hybrid")
        == GSM_HYBRID_16_DIRECTORY_VLINK
    )


def test_run_cell_preset(tmp_path):
    api.run_cell("epic", "mesh32-directory", "llp", cache_dir=tmp_path)
    assert _cached_keys(tmp_path) == sorted(
        [EPIC_LLP_MESH32_DIRECTORY, EPIC_REFERENCE]
    )


def test_sweep_point_and_baseline(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    api.sweep(
        ["rawcaudio"],
        machines=[2],
        strategies=["hybrid"],
        queue_depths=[4],
        memory_latencies=[200],
        cache_dir=tmp_path / "cache",
        journal=journal,
    )
    assert _cached_keys(tmp_path / "cache") == sorted(
        [RAW_SWEEP_HYBRID_2, RAW_SWEEP_BASELINE, RAW_REFERENCE]
    )
    # Journal records name the cell by core count and carry the same key.
    planned = [
        record
        for record in map(json.loads, journal.read_text().splitlines())
        if record["event"] == "planned"
    ]
    assert [(record["cell"], record["key"]) for record in planned] == [
        (["rawcaudio", 1, "baseline"], RAW_SWEEP_BASELINE),
        (["rawcaudio", 2, "hybrid"], RAW_SWEEP_HYBRID_2),
    ]
