"""Exception types raised by the algebra, conformal model, versors and neuron."""


class GAError(Exception):
    """Base class for all domain errors raised by this package."""


class SignatureMismatchError(GAError):
    """Operands belong to algebras with different signatures."""


class GradeError(GAError):
    """An operand does not have the grade an operation requires."""


class NotVersorError(GAError):
    """A multivector failed the versor certificate (v * ~v must be scalar)."""


class MixedParityError(NotVersorError):
    """A multivector mixes even and odd grades and cannot act as a versor."""


class SingularVersorError(NotVersorError):
    """A versor candidate has vanishing norm and no inverse."""


class NotExponentiableError(GAError):
    """exp_special only accepts grade-2 arguments whose square is a scalar."""


class PointAtInfinityError(GAError):
    """A conformal point with no finite Euclidean location was encountered."""


class NotAPointError(GAError):
    """A multivector is not a (null, grade-1) conformal point."""


class MetricError(GAError):
    """Two conformal points have a positive inner product; no real distance."""


class DegenerateError(GAError):
    """Constructor inputs collapse (coincident points, vanishing wedge)."""


class DomainError(GAError):
    """A numeric argument is outside the valid domain of a constructor."""


class RowRoundingError(DomainError):
    """A versor's image of row `row` of an array is all rounding, for `reason`; a caller names the row."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"versor's action on row {row} is all rounding: {reason}")
        self.row, self.reason = row, reason


class FlatObjectError(GAError):
    """A flat object was passed where a round one is required."""


class NotABladeError(GAError):
    """A multivector is not (within tolerance) a single blade."""


class UnknownObjectError(GAError):
    """A blade does not match any supported conformal object kind."""


class ParityModeError(GAError):
    """Application mode does not match the versor's parity."""


class SingularWeightError(GAError):
    """The neuron weight multivector has no versor inverse."""


class DivergenceError(GAError):
    """Training loss exploded; carries the loss history seen so far."""

    def __init__(self, message: str, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class UnboundNameError(GAError):
    """An expression references a name the scene does not define."""


class ParseError(GAError):
    """Expression text is malformed; message carries line:column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"syntax error at {line}:{col}: {message}")
        self.line = line
        self.col = col
