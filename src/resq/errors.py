"""Exception types shared across the package."""


class ResqError(Exception):
    """Base class for every error raised by this package."""


class GraphInputError(ResqError):
    """Invalid graph input: bad edge-list text or bad construction arguments."""


class MalformedLine(GraphInputError):
    """An edge-list line could not be parsed."""


class SelfLoop(GraphInputError):
    """An edge joins a vertex to itself."""


class DuplicateEdge(GraphInputError):
    """The same unordered vertex pair appears more than once."""


class VertexOutOfRange(GraphInputError):
    """An edge endpoint lies outside [0, n)."""


class InvalidFamilyParams(GraphInputError):
    """Parameters do not describe a valid graph family instance."""


class Disconnected(ResqError):
    """The graph is not connected; resistance distances are undefined."""


class NotSymmetric(ResqError):
    """A matrix expected to be symmetric is not, beyond tolerance."""


class InvalidPartition(ResqError):
    """Blocks do not form a partition of the vertex index set."""


class NegativeRadicand(ResqError):
    """A bound radicand is negative beyond the rounding floor."""
