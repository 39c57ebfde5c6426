"""Dataset generators.

* :mod:`repro.datasets.synthetic` — the paper's Section 5.1 simulation
  (users with Exp(lambda1) error variances).
* :mod:`repro.datasets.floorplan` — simulator standing in for the paper's
  real indoor-floorplan deployment (Section 5.2); see DESIGN.md for the
  substitution rationale.
"""

from repro.datasets.floorplan import (
    FloorplanDataset,
    WalkerProfile,
    generate_floorplan_dataset,
    generate_segment_lengths,
    sample_walker_profiles,
)
from repro.datasets.synthetic import (
    PAPER_NUM_OBJECTS,
    PAPER_NUM_USERS,
    SyntheticDataset,
    generate_synthetic,
    generate_with_adversaries,
    generate_with_variances,
    sample_error_variances,
)

__all__ = [
    "FloorplanDataset",
    "PAPER_NUM_OBJECTS",
    "PAPER_NUM_USERS",
    "SyntheticDataset",
    "WalkerProfile",
    "generate_floorplan_dataset",
    "generate_segment_lengths",
    "generate_synthetic",
    "generate_with_adversaries",
    "generate_with_variances",
    "sample_error_variances",
    "sample_walker_profiles",
]
