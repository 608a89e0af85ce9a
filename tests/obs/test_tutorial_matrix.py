"""Executes the TUTORIAL's "experiment matrix" code blocks.

Mirrors docs/TUTORIAL.md §15 line for line; if an API there drifts,
this file breaks with it.
"""

import pytest

from repro.experiments.matrix import expand_cells, load_spec


@pytest.fixture(scope="module")
def spec():
    return load_spec("smoke")


@pytest.fixture(scope="module")
def cells(spec):
    return expand_cells(spec)


class TestTutorialMatrixWalkthrough:
    def test_expansion_block(self, spec, cells):
        assert [c.key for c in cells] == [
            "orbit/lru", "orbit/app-aware", "zoom/lru", "zoom/app-aware",
        ]
        assert cells[0].config.workload == "spherical"  # labels only rename keys
        assert cells[0].config.blocks == 64             # from [base]

    def test_broken_spec_reports_every_problem(self, spec):
        from repro.experiments.matrix import spec_from_dict

        raw = spec.to_dict()
        raw["matrix"]["bogus"] = 1
        raw["figures"] = [{"metric": "total_miss_rate"}]  # missing 'x'
        with pytest.raises(ValueError) as err:
            spec_from_dict(raw, where="smoke")
        assert "bogus" in str(err.value) and "'x'" in str(err.value)

    def test_run_matrix_block(self, spec, cells):
        from repro.experiments.matrix import run_matrix

        doc = run_matrix(spec)
        assert sorted(doc["cells"]) == sorted(c.key for c in cells)
        miss = doc["cells"]["orbit/lru"]["summary"]["total_miss_rate"]
        assert 0.0 <= miss <= 1.0

    def test_cli_block(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["matrix", "run", "smoke",
                     "--report", "matrix_report.html"]) == 0
        assert main(["matrix", "compare", "MATRIX_smoke.json",
                     "MATRIX_smoke.json"]) == 0
        assert main(["analyze", "MATRIX_smoke.json",
                     "--out", "matrix_report.html"]) == 0
        html = (tmp_path / "matrix_report.html").read_text()
        assert "<script" not in html.lower()
        assert "http://" not in html and "https://" not in html
