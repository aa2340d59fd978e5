"""mrsquant: synthetic MR spectroscopy simulation and random-forest quantification."""

from .basis import default_brain_basis
from .forest import ForestConfig
from .signal import AcquisitionParams
from .simulate import SimulationConfig, simulate_dataset

__version__ = "0.1.0"
