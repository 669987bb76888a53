"""Pinned program fingerprints.

Every cache key and reference key hashes ``program_fingerprint()``, so
its text must stay byte-identical whatever the program stores inside:
the sha256 of the rendered text and the reference key of every suite
benchmark at seeds 1 and 7, and of three generated programs, are pinned
in ``golden/fingerprints.json``.  Regenerate (only for a deliberate
cache-invalidating change) with::

    PYTHONPATH=src python tests/harness/test_fingerprint_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.harness.cache import program_fingerprint, reference_key
from repro.workloads.generator import GenKnobs, make_handle
from repro.workloads.suite import BENCHMARKS, build

GOLDEN = Path(__file__).parent / "golden" / "fingerprints.json"
SEEDS = (1, 7)
#: (generator seed, knobs) of the pinned generated programs.
GENERATED = (
    (3, None),
    (11, GenKnobs(trips=(8, 48))),
    (29, GenKnobs(regions=(4, 6), miss_heavy_pct=60)),
)


def _pin(program):
    return {
        "fingerprint": hashlib.sha256(
            program_fingerprint(program).encode()
        ).hexdigest(),
        "reference": reference_key(program),
    }


def _generated_handles():
    return [make_handle(seed, knobs) for seed, knobs in GENERATED]


def compute():
    return {
        "suite": {
            str(seed): {name: _pin(build(name, seed).program) for name in BENCHMARKS}
            for seed in SEEDS
        },
        "generated": {
            handle: _pin(build(handle).program) for handle in _generated_handles()
        },
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("seed", SEEDS)
def test_suite_fingerprints(golden, seed):
    pinned = golden["suite"][str(seed)]
    assert sorted(pinned) == sorted(BENCHMARKS)
    for name in BENCHMARKS:
        assert _pin(build(name, seed).program) == pinned[name], name


def test_generated_fingerprints(golden):
    handles = _generated_handles()
    assert sorted(golden["generated"]) == sorted(handles)
    for handle in handles:
        assert _pin(build(handle).program) == golden["generated"][handle], handle


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
