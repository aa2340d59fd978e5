"""mrsquant: synthetic MR spectroscopy simulation and random-forest quantification."""

from .basis import BasisSet, MetaboliteBasis, default_brain_basis, linear_combination
from .dataset import Dataset, config_fingerprint, dataset_from_labeled
from .errors import (
    FileFormatError,
    GridCompatibilityError,
    MrsQuantError,
    UndefinedResultError,
    UnknownMetaboliteError,
    UnsupportedVersionError,
    ValidationError,
)
from .evaluate import (
    EvalReport,
    ExperimentSpec,
    boxplot_stats,
    kfold_split,
    r_score,
    relative_error,
    run_experiment,
)
from .forest import ForestConfig, RandomForestModel, RegressionTree, fit_forest, fit_tree
from .signal import (
    AcquisitionParams,
    ComplexSpectrum,
    LorentzianComponent,
    TimeSignal,
    fid_to_spectrum,
    ppm_axis,
    spectrum_to_fid,
    synthesize_fid,
)
from .simulate import (
    LabeledSpectrum,
    SimulationConfig,
    add_noise,
    generate_baseline,
    generate_lipids,
    simulate_dataset,
)

__version__ = "0.1.0"
