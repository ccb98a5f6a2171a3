"""Exception types shared across the package."""


class PinquadError(Exception):
    """Base class for all library errors."""


class TieInSimplex(PinquadError):
    """Two vertices of one simplex share a rank."""


class NotPseudoManifold(PinquadError):
    """Some (n-1)-simplex has zero or more than two top cofaces."""


class BoundaryNotFull(PinquadError):
    """The boundary subcomplex is not full in the ambient complex."""


class OrderingViolation(PinquadError):
    """Boundary vertices do not precede interior vertices in some simplex."""


class NeedsSubdivision(PinquadError):
    """Manifold conditions fail but one barycentric subdivision repairs them."""

    def __init__(self, reasons):
        super().__init__("; ".join(reasons))
        self.reasons = tuple(reasons)


class EmptyBoundary(PinquadError):
    """Operation requires a nonempty boundary."""


class UnknownFixture(PinquadError):
    """No fixture with the requested name."""


class ComplexMismatch(PinquadError):
    """Cochains live on different complexes."""


class RingMismatch(PinquadError):
    """Cochains have incompatible coefficient rings."""


class OrientationRequired(PinquadError):
    """Signed integration needs an oriented manifold."""


class NotACocycle(PinquadError):
    """Argument must be a cocycle."""


class NotRelative(PinquadError):
    """Argument must vanish on the subcomplex."""


class WuObstruction(PinquadError):
    """v2 != 0; carries a witness cocycle."""

    def __init__(self, witness):
        super().__init__("Sq^2 obstruction is nonzero")
        self.witness = witness


class ConstraintViolation(PinquadError):
    """A basis value violates 2*q_j = 2*int(Sq^1 p_j)."""

    def __init__(self, index):
        super().__init__(f"basis value {index} violates the 2q constraint")
        self.index = index


class SpinOnNonorientable(PinquadError):
    """Spin mode requires an oriented manifold."""


class NotClosedSurface(PinquadError):
    """Operation is defined for closed surfaces only."""


class DegenerateSum(PinquadError):
    """Gauss sum magnitude check failed (input is not quadratic)."""


class NotNeatlyEmbedded(PinquadError):
    """Extension by zero of some cocycle is not a relative cocycle."""


class PairMismatch(PinquadError):
    """G-group pairs live on different pairs or degrees."""


class BudgetExceeded(PinquadError):
    """Brute-force enumeration would exceed the size budget."""


# The most elements an exponential enumeration may visit before it raises
# BudgetExceeded instead (the oracle's pairs, 2^dim quadratic functions).
SIZE_BUDGET = 1 << 20


def check_budget(log2: int, what: str, budget: int = SIZE_BUDGET, times: int = 1) -> None:
    """Refuse an enumeration of 2^log2 x times elements larger than budget.
    For a budget >= 0 and log2 >= 0, 2^log2 x times > budget exactly when
    times > budget >> log2, so no 2^log2 int is built."""
    if times > budget >> log2:
        count = f"2^{log2}" if times == 1 else f"2^{log2} x {times}"
        raise BudgetExceeded(f"{count} {what} exceed the budget {budget}")


# The most bytes a mod-2 operator may take stored densely, one bit per
# (k-simplex, (k+1)-simplex) pair; coboundary_bits refuses a larger one
# before it builds a column.  sd(solid_torus) needs 34 MB for d_1,
# sd^2(solid_torus) about 16 GB for d_2.
OPERATOR_BUDGET = 1 << 28


def check_operator(k: int, columns: int, bits: int) -> None:
    """Refuse d_k with the given number of columns of the given width when
    its dense size exceeds OPERATOR_BUDGET."""
    size = columns * ((bits + 7) // 8)
    if size > OPERATOR_BUDGET:
        raise BudgetExceeded(f"{size} bytes of d_{k} exceed the budget {OPERATOR_BUDGET}")


class InvariantViolation(PinquadError):
    """An internal consistency check failed: the computed result is wrong."""


class DegreeZero(PinquadError):
    """Push-forward needs a map of odd mod-2 degree."""


class ParseError(PinquadError):
    """Malformed input file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
