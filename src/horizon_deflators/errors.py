"""Exception hierarchy shared by all modules."""


class HorizonDeflatorError(Exception):
    """Base class for all library errors."""


class SpaceValidationError(HorizonDeflatorError):
    """A filtered space, measure, or model document failed validation."""


class DegenerateConditioningError(HorizonDeflatorError):
    """Conditioning on a zero-mass block without the degeneracy convention."""


class ContractViolationError(HorizonDeflatorError):
    """An operation precondition was violated (e.g. non-predictable integrand)."""


class StructuralError(HorizonDeflatorError):
    """A construction hit a degenerate cell; carries the offending location."""

    def __init__(self, message, *, time=None, atom=None):
        super().__init__(message)
        self.time = time
        self.atom = atom


class AdmissibilityError(HorizonDeflatorError):
    """Deflator parameters violate an admissibility inequality."""

    def __init__(self, message, *, inequality=None, time=None, atom=None):
        super().__init__(message)
        self.inequality = inequality
        self.time = time
        self.atom = atom


class UnsupportedDimensionError(HorizonDeflatorError):
    """The strategy-polytope oracle only supports up to three assets."""
