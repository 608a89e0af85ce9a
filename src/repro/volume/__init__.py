"""Volume data substrate.

Provides the volumetric datasets the paper visualizes (Table I analogues),
uniform block partitioning (the unit of data movement in the whole system),
and an on-disk block store for examples that want real file I/O.
"""

from repro.volume.volume import Volume
from repro.volume.blocks import BlockGrid
from repro.volume.synthetic import (
    ball_field,
    combustion_field,
    climate_field,
    multiscale_noise,
)
from repro.volume.datasets import (
    DatasetSpec,
    DATASETS,
    make_dataset,
    dataset_table,
)
from repro.volume.store import BlockStore, InMemoryBlockStore, FileBlockStore
from repro.volume.layout import (
    morton_layout,
    row_major_layout,
    total_seek_distance,
    mean_seek_distance,
)
from repro.volume.multires import MipPyramid, downsample2, select_levels_by_distance

__all__ = [
    "Volume",
    "BlockGrid",
    "ball_field",
    "combustion_field",
    "climate_field",
    "multiscale_noise",
    "DatasetSpec",
    "DATASETS",
    "make_dataset",
    "dataset_table",
    "BlockStore",
    "InMemoryBlockStore",
    "FileBlockStore",
    "morton_layout",
    "row_major_layout",
    "total_seek_distance",
    "mean_seek_distance",
    "MipPyramid",
    "downsample2",
    "select_levels_by_distance",
]
