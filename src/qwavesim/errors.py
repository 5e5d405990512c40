"""Exception hierarchy shared by all qwavesim modules.

Two trunk classes split failures the way the CLI reports them: ValidationError
covers rejected inputs and violated preconditions (exit code 1), NumericalError
covers violated numerical contracts discovered while computing (exit code 2).
"""
from __future__ import annotations


class QwavesimError(Exception):
    """Base class for all package errors."""


class ValidationError(QwavesimError):
    """Bad inputs or violated preconditions; nothing was computed."""


class NumericalError(QwavesimError):
    """A numerical contract failed while computing (symmetry, support, norm)."""


class GridError(ValidationError):
    """Degenerate or inconsistent staggered-grid request."""


class MaterialError(ValidationError):
    """Nonpositive or mis-shaped material coefficients."""


class ConstraintError(ValidationError):
    """Mis-specified constraint set (bad indices, singular recoverable part)."""


class IncompatibleConstraintError(NumericalError):
    """Constraint reduction broke the antisymmetry of the generator."""


class EncodingError(ValidationError):
    """State encoding or decoding contract violated."""


class EvolutionError(ValidationError):
    """Evolution request rejected (dimension, schedule, non-finite time)."""


class MeasurementError(ValidationError):
    """Estimator request rejected (mask mismatch, missing seed, overlap)."""


class SourceError(ValidationError):
    """Source or window description rejected."""


class CausalityError(SourceError):
    """Pulse support would leave the homogeneous ball or the domain."""


class SupportError(NumericalError):
    """Computed field failed its compact-support contract."""


class InitCircuitError(ValidationError):
    """Polar state-preparation request rejected."""


class ScenarioError(ValidationError):
    """Scenario file missing, malformed, or referencing absent resources."""


class ComplexityWarning(UserWarning):
    """Requested subspace makes the index permutation expensive on hardware.

    The emulation still computes the exact result; this only flags that the
    gate-count of the masked permutation grows with min(d, L - d).
    """
