"""Per-cell fault seeding: distinct deterministic seeds, replayable runs.

The bug this pins down: every bench cell used to seed its fault injector
with the raw ``--fault-seed``, so all four (path, policy) cells saw the
*identical* fault schedule — correlated noise masquerading as four
independent samples.  Seeds are now derived per cell index, identically
in the serial and ``--workers N`` paths, by
:func:`repro.utils.rng.derive_seed`.
"""

from dataclasses import replace

import pytest

from repro.experiments.matrix import expand_cells, load_spec, run_matrix
from repro.utils.rng import derive_seed

_QUICK = load_spec("bench-quick")
_TINY = replace(
    _QUICK,
    base={**_QUICK.base, "blocks": 27, "scale": 0.03, "steps": 4},
    setup={**_QUICK.setup, "n_directions": 8, "tracer_capacity": 200_000},
)
_LOSSY = replace(_TINY, base={**_TINY.base, "faults": "lossy", "fault_seed": 42})


class TestDeriveFaultSeed:
    def test_unique_across_cells(self):
        seeds = [derive_seed(42, i) for i in range(len(expand_cells(_TINY)))]
        assert len(set(seeds)) == len(seeds)

    def test_deterministic(self):
        assert derive_seed(42, 2) == derive_seed(42, 2)

    def test_base_seed_matters(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_differs_from_base(self):
        # The derived seed is a hash, not base + index: cell 0 must not
        # silently reuse the raw base seed.
        assert derive_seed(42, 0) != 42

    def test_non_negative_int63(self):
        for base in (0, 42, 2**62):
            for i in range(4):
                s = derive_seed(base, i)
                assert 0 <= s < 2**63


class TestBenchFaultSeeding:
    @pytest.fixture(scope="class")
    def doc(self):
        return run_matrix(_LOSSY)

    def test_every_cell_records_base_and_derived(self, doc):
        for run in doc["cells"].values():
            assert run["faults"]["seed"] == 42
            assert run["faults"]["derived_seed"] != 42

    def test_derived_seeds_distinct_across_cells(self, doc):
        derived = [r["faults"]["derived_seed"] for r in doc["cells"].values()]
        assert len(set(derived)) == len(derived)

    def test_derived_seeds_match_cell_order(self, doc):
        cells = expand_cells(_LOSSY)
        assert [c.key for c in cells] == [
            "orbit/lru", "orbit/app-aware", "zoom/lru", "zoom/app-aware",
        ]
        for cell in cells:
            run = doc["cells"][cell.key]
            assert run["faults"]["derived_seed"] == derive_seed(42, cell.index)

    def test_replay_determinism(self, doc):
        again = run_matrix(_LOSSY)
        for key, run in doc["cells"].items():
            assert run["faults"] == again["cells"][key]["faults"]
            assert run["summary"] == again["cells"][key]["summary"]

    def test_parallel_matches_serial(self, doc):
        parallel = run_matrix(_LOSSY, workers=2)
        for key, run in doc["cells"].items():
            assert run["faults"] == parallel["cells"][key]["faults"]
            assert run["summary"] == parallel["cells"][key]["summary"]
