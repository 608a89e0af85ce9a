"""Smoke tests for the cheap extension experiments.

The expensive ones (prefetch sweep, scheduling, iso sweep, multinode)
run in the benchmark suite; the two sub-second ones are exercised here so
the extensions module has test coverage in the unit suite too.
"""

from repro.experiments import extensions


class TestLayoutLocality:
    def test_structure_and_claims(self):
        (panel,) = extensions.layout_locality()
        assert panel.figure == "ext_layout"
        assert set(panel.series) == {"morton", "row_major"}
        box_idx = panel.x_values.index("aligned 2^3 box span")
        assert panel.series["morton"][box_idx] == 7.0


class TestMultiresTradeoff:
    def test_structure_and_claims(self):
        (panel,) = extensions.multires_tradeoff()
        assert panel.figure == "ext_multires"
        assert panel.meta["lod_bytes"] < panel.meta["full_bytes"]
        assert panel.series["hist_L1"][0] == 0.0
        assert panel.series["hist_L1"][-1] > 0.0
