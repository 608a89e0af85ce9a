"""The paper figures' bundled specs expand into the figures' grids.

Each figure is a pair of bundled matrix specs: ``figN-quick`` (seconds)
and ``figN`` (the paper-scale sweep).  These checks expand both, with no
replay, and pin the cell counts and axis values each figure sweeps; the
benchmark suite runs the specs and asserts the figures' shapes.
"""

from repro.experiments.extensions import FigureResult
from repro.experiments.matrix import expand_cells, load_spec
from repro.volume.datasets import dataset_table


def _expand(name):
    spec = load_spec(name)
    assert spec.label == name and spec.runner == "replay"
    return spec, expand_cells(spec)


def _values(cells, axis):
    values = []
    for cell in cells:
        if cell.axes[axis] not in values:
            values.append(cell.axes[axis])
    return values


def _pairs(*degrees):
    return [[float(d), float(d)] for d in degrees]


SPHERICAL = {"quick": _pairs(1, 10, 30), "paper": _pairs(1, 5, 10, 15, 20, 25, 30, 45)}
RANDOM = {
    "quick": [[0.0, 5.0], [10.0, 15.0], [25.0, 30.0]],
    "paper": [[float(lo), float(lo + 5)] for lo in range(0, 35, 5)],
}
SCALES = {"quick": "-quick", "paper": ""}


def _check_sampling(spec, scale):
    # The figures' T_visible: 96 x 2 samples over the default 2.2-2.8 at
    # quick scale, 720 x 4 over 2.1-2.9 at paper scale.
    if scale == "quick":
        expected = {"n_directions": 96, "n_distances": 2}
    else:
        expected = {"n_directions": 720, "n_distances": 4, "distance_range": [2.1, 2.9]}
    assert spec.setup == expected


class TestFigureResult:
    def test_report_renders(self):
        fr = FigureResult("figX", "demo", "x", [1, 2], {"a": [0.1, 0.2]})
        report = fr.report
        assert "figX" in report and "demo" in report
        assert "a" in report.splitlines()[1]


class TestTable1:
    def test_text(self):
        text = dataset_table()
        assert "climate" in text


class TestFig7:
    def test_structure(self):
        expected = {
            "quick": (["3d_ball", "lifted_rr"], [64, 512, 4096, 16384], 2, 512, 60),
            "paper": (["3d_ball", "lifted_mix_frac", "lifted_rr", "climate"],
                      [1024, 4096, 25920, 72000, 108000], 4, 1024, 400),
        }
        for scale, (datasets, samples, n_distances, blocks, steps) in expected.items():
            spec, cells = _expand(f"fig7{SCALES[scale]}")
            assert len(cells) == len(datasets) * len(samples)
            assert _values(cells, "dataset") == datasets
            # n_directions x n_distances is the table's sample count, and
            # each cell keys by it.
            assert [n * n_distances for n in _values(cells, "n_directions")] == samples
            assert spec.setup["n_distances"] == n_distances
            assert spec.setup["n_vicinal"] == 4
            assert [c.key.split("/")[1] for c in cells[:len(samples)]] == [str(n) for n in samples]
            for cell in cells:
                config = cell.config
                assert (config.blocks, config.steps, config.policy) == (blocks, steps, "app-aware")
                assert (config.workload, config.degrees) == ("random", (10.0, 15.0))


class TestFig9:
    def test_structure(self):
        divisions = {"quick": [512, 2048, 4096], "paper": [512, 1024, 2048, 4096, 8192, 16384]}
        for scale, suffix in SCALES.items():
            spec, cells = _expand(f"fig9{suffix}")
            _check_sampling(spec, scale)
            paths = len(SPHERICAL[scale]) + len(RANDOM[scale])
            assert len(cells) == paths * len(divisions[scale]) * 3
            assert _values(cells, "blocks") == divisions[scale]
            assert _values(cells, "policy") == ["fifo", "lru", "app-aware"]
            # Each workload keeps only its own degree values.
            for workload, degrees in (("spherical", SPHERICAL), ("random", RANDOM)):
                mine = [c for c in cells if c.axes["workload"] == workload]
                assert _values(mine, "degrees") == degrees[scale]
            assert all(c.config.distance == 2.5 for c in cells)


class TestFig11:
    def test_structure(self):
        for scale, suffix in SCALES.items():
            spec, cells = _expand(f"fig11{suffix}")
            _check_sampling(spec, scale)
            assert [c.key for c in cells] == [
                "optimal (Eq.6)", "r=0.1", "r=0.075", "r=0.05", "r=0.025"
            ]
            assert _values(cells, "fixed_radius") == ["eq6", 0.1, 0.075, 0.05, 0.025]
            for cell in cells:
                config = cell.config
                assert config.dataset == "lifted_rr" and config.blocks == 1024
                # A zooming user: the distance is drawn from 2.1-2.9.
                assert config.distance == (2.1, 2.9)
                assert config.steps == (120 if scale == "quick" else 400)


class TestFig12:
    def test_structure(self):
        for scale, suffix in SCALES.items():
            spec, cells = _expand(f"fig12{suffix}")
            _check_sampling(spec, scale)
            assert len(cells) == (len(SPHERICAL[scale]) + len(RANDOM[scale])) * 3
            spherical = [c for c in cells if c.axes["workload"] == "spherical"]
            rnd = [c for c in cells if c.axes["workload"] == "random"]
            assert _values(spherical, "degrees") == SPHERICAL[scale]
            assert _values(rnd, "degrees") == RANDOM[scale]
            assert {c.config.distance for c in spherical} == {2.5}
            assert {c.config.distance for c in rnd} == {(2.2, 2.8)}
            assert {c.config.blocks for c in cells} == {2048}


class TestFig13:
    def test_structure(self):
        for scale, suffix in SCALES.items():
            spec, cells = _expand(f"fig13{suffix}")
            _check_sampling(spec, scale)
            assert len(cells) == 2 * len(RANDOM[scale]) * 3
            assert _values(cells, "cache_ratio") == [0.5, 0.7]
            assert _values(cells, "degrees") == RANDOM[scale]
            assert {c.config.blocks for c in cells} == {2048 if scale == "quick" else 4096}
            assert {c.config.workload for c in cells} == {"random"}


class TestAblations:
    def test_structure(self):
        for scale, suffix in SCALES.items():
            spec, cells = _expand(f"ablations{suffix}")
            _check_sampling(spec, scale)
            assert {"fifo", "lru", "arc", "belady", "opt",
                    "opt(no-prefetch)", "opt(no-preload)", "opt(no-filter)",
                    "opt(adaptive-sigma)"} == {c.key for c in cells}
            # Knock-outs ride the optimizer axis of the app-aware cells only.
            knockouts = [c.axes["optimizer"] for c in cells if c.axes["optimizer"]]
            assert knockouts == [{"prefetch": False}, {"preload": False},
                                 {"use_importance_filter": False}, {"adaptive_sigma": True}]
            assert all(c.config.policy == "app-aware" for c in cells if c.axes["optimizer"])
