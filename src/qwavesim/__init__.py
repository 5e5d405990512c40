"""Classical emulation of quantum wave simulation with sources and losses.

Pipeline: staggered discretization -> constraint elimination -> Hermitian
encoding -> unitary evolution -> Pauli-estimated subspace losses, with pulse
pre-computation, windowed source slicing, and polar state preparation.
"""
from .constraints import (
    ConstraintSet,
    ReducedSystem,
    boundary_scalar_indices,
    dirichlet_constraints,
    reduce_system,
)
from .discretize import (
    MaterialModel,
    OperatorPair,
    RowForcing,
    StaggeredGrid,
    antisymmetry_defect,
    assemble_operator_pair,
    build_gradient_divergence,
    build_grid,
)
from .encoding import (
    Hamiltonian,
    QuantumRegisterState,
    StateLayout,
    build_hamiltonian,
    decode,
    encode,
    energy,
    next_power_of_two,
)
from .errors import (
    CausalityError,
    ComplexityWarning,
    ConstraintError,
    EncodingError,
    EvolutionError,
    GridError,
    IncompatibleConstraintError,
    InitCircuitError,
    MaterialError,
    MeasurementError,
    NumericalError,
    QwavesimError,
    ScenarioError,
    SourceError,
    SupportError,
    ValidationError,
)
from .evolution import (
    build_mult_hamiltonian,
    build_sync_hamiltonian,
    evolve,
)
from .initcircuit import (
    Gate,
    GateCircuit,
    PolarGridSpec,
    RadialField,
    ReferenceRay,
    build_circuit,
    covariance_defect,
    direct_polar_state,
    fidelity,
    sample_reference_ray,
    simulate_circuit,
)
from .measurement import (
    EstimateResult,
    EstimatorConfig,
    ObservableDecomposition,
    PauliString,
    SubspaceProjector,
    augment_state,
    estimate,
    masked_permutation,
    multi_state_observable,
    pauli_expectation,
    two_state_observable,
    weighted_l2,
)
from .reference import Trajectory, cfl_limit, leapfrog_evolve, spectral_forced_solution
from .scenario import (
    InitCircuitSpec,
    MeasurementRequest,
    Scenario,
    SourceSpec,
    load_scenario,
)
from .sources import (
    PointSource,
    PreSimResult,
    SourceTimeFunction,
    assemble_multisource_state,
    chi_pattern,
    gaussian_pulse,
    greens_decompose,
    presimulate_pulse,
    ricker_wavelet,
    time_function_from_samples,
    windowed_sine,
)

__version__ = "0.1.0"
