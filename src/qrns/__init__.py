"""Reversible modulo-adder synthesis, residue-set selection, and
distributed noisy simulation of carry-free quantum addition."""

__version__ = "0.1.0"

from .adders import (
    AdderFamily,
    AdderInstance,
    adder_instance,
    build_adder,
    dim1_decode,
    dim1_encode,
    family_for_modulus,
    make_adder,
)
from .circuit import (
    Circuit,
    CircuitValidationError,
    Gate,
    GateKind,
    Register,
    ccx,
    cx,
    from_text,
    to_text,
    x,
)
from .distributed import (
    ComparisonRow,
    DistributedSum,
    JobResult,
    RangeOverflowError,
    ResidueJob,
    SimulationError,
    aggregate,
    distributed_add,
    execute_jobs,
    gain_report,
    plan_jobs,
)
from .noise import (
    DEFAULT_NOISE,
    CalibrationResult,
    NoiseModel,
    ProbabilityEstimate,
    calibrate_noise,
    derive_seed,
    output_probability,
    run_shots,
)
from .resources import ResourceReport, resource_report
from .rns import (
    ResidueVector,
    RnsSet,
    crt_reconstruct,
    encode_residues,
    is_pairwise_coprime,
    rns_efficiency,
    rns_range,
)
from .select import (
    SelectionError,
    SelectionTrace,
    SelectorConfig,
    explain_selection,
    moduli_pool,
    select_rns,
    toffoli_depth_of,
)
