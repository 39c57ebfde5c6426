"""Dataset generators.

* :mod:`repro.datasets.synthetic` — the paper's Section 5.1 simulation
  (users with Exp(lambda1) error variances).
* :mod:`repro.datasets.floorplan` — simulator standing in for the paper's
  real indoor-floorplan deployment (Section 5.2); see DESIGN.md for the
  substitution rationale.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "FloorplanDataset": "repro.datasets.floorplan",
    "PAPER_NUM_OBJECTS": "repro.datasets.synthetic",
    "PAPER_NUM_USERS": "repro.datasets.synthetic",
    "SyntheticDataset": "repro.datasets.synthetic",
    "WalkerProfile": "repro.datasets.floorplan",
    "generate_floorplan_dataset": "repro.datasets.floorplan",
    "generate_segment_lengths": "repro.datasets.floorplan",
    "generate_synthetic": "repro.datasets.synthetic",
    "generate_with_adversaries": "repro.datasets.synthetic",
    "generate_with_variances": "repro.datasets.synthetic",
    "sample_error_variances": "repro.datasets.synthetic",
    "sample_walker_profiles": "repro.datasets.floorplan",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
