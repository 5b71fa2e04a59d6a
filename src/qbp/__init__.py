"""Sparse stabilizer codes, quaternary BP decoding, and Monte Carlo evaluation."""

__version__ = "0.1.0"

from .pauli import PauliOperator
from .codes import (
    DETECTABLE,
    LOGICAL,
    STABILIZER,
    CodeFormatError,
    DependentChecksError,
    NonCommutingChecksError,
    StabilizerCode,
    design_rate,
    syndrome_from_string,
    syndrome_to_string,
)
from .constructions import (
    BicycleSpec,
    GenerationError,
    builtin,
    check_matrix,
    css_from_matrix,
    cyclic_matrix,
    generate_bicycle,
)
from .bp import (
    DecodeConfig,
    DecodeResult,
    MessageState,
    check_update,
    decode,
    depolarizing_prior,
    init_messages,
    qubit_update,
    validate_prior,
)
from .heuristics import (
    EventLog,
    Intervention,
    PerturbationEvent,
    collision_targets,
    decode_with_heuristics,
    freeze_step,
    perturb_step,
)
from .oracle import CosetTable, coset_decode, exact_map, exact_marginals
from .simulate import (
    PointStats,
    SimStats,
    TrialOutcome,
    run_simulation,
    run_trial,
    sample_error,
    sampling_table,
    stats_to_csv,
    stats_to_json,
    wilson_interval,
)

__all__ = [name for name in dir() if not name.startswith("_")]
