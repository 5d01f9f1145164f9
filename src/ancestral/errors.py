"""Exception types shared across the package."""


class AncestralError(Exception):
    """Base class for all errors raised by this package."""


# tree construction

class MultipleRoots(AncestralError):
    pass


class CycleDetected(AncestralError):
    pass


class IndexOutOfRange(AncestralError):
    pass


class InvalidParameter(AncestralError):
    pass


# Newick parsing

class NewickSyntaxError(AncestralError):
    """Malformed input; ``position`` is a 0-based byte offset."""

    def __init__(self, position: int, message: str):
        self.position = position
        super().__init__(f"at position {position}: {message}")


class EmptyInput(AncestralError):
    pass


class TrailingGarbage(AncestralError):
    def __init__(self, position: int):
        self.position = position
        super().__init__(f"unexpected trailing text at position {position}")


# spectral

class NoConvergence(AncestralError):
    """The eigensolver's residual exceeds its bound; the residual is inf
    when the solver itself failed."""

    def __init__(self, residual: float, bound: float):
        self.residual = residual
        self.bound = bound
        super().__init__(f"eigensolver residual {residual:.3g} exceeds "
                         f"the bound {bound:.3g}")


class SingleVertexTree(AncestralError):
    pass


class NotALeaf(AncestralError):
    pass


class NotDary(AncestralError):
    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} has the wrong outdegree")


# tree operations

class InvalidPath(AncestralError):
    pass


class BranchOnPath(AncestralError):
    pass


class VkIsLeaf(AncestralError):
    pass


class NotAllChildrenLeaves(AncestralError):
    pass


class TooFewChildren(AncestralError):
    pass


class NotAChild(AncestralError):
    pass


class W1IsLeaf(AncestralError):
    pass


class W2NotLeaf(AncestralError):
    pass


# caterpillar analysis

class PoleArgument(AncestralError):
    pass


class NoSignChange(AncestralError):
    pass


# enumeration / collection counting

class BudgetExceeded(AncestralError):
    def __init__(self, size: int):
        self.size = size
        super().__init__(f"enumeration size {size} exceeds the budget")


class ClassTooLarge(AncestralError):
    pass
