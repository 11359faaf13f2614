"""Exception hierarchy shared across the package.

Exit codes used by the command line driver: config errors map to 2,
geometry errors to 3, meshing/coarsening errors to 4, solver errors to 5.
"""


class DfnError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(DfnError):
    exit_code = 2


class GeometryError(DfnError):
    exit_code = 3


class CollinearVertices(GeometryError):
    pass


class NonPlanarPolygon(GeometryError):
    pass


class CoplanarOverlap(GeometryError):
    """Two coplanar fractures overlap with positive area; unsupported."""


class CollinearOverlap(GeometryError):
    """Two intersection segments overlap along a common line."""


class MeshError(DfnError):
    exit_code = 4


class ConstraintConflict(MeshError):
    """Two constraint segments closer than tolerance without intersecting."""


class EmptyDomain(MeshError):
    pass


class InconsistentEndpoints(MeshError):
    """Trace partitions from different fractures disagree on the endpoints."""


class DegenerateCell(MeshError):
    pass


class SingularG(MeshError):
    """Degenerate cell geometry made the local projection matrix singular."""


class AssemblyError(DfnError):
    exit_code = 4


class MissingIntersectionProps(AssemblyError):
    """An intersection lacks tangential or normal permeability data."""


class ConflictingBC(AssemblyError):
    pass


class MissingExactSolution(DfnError):
    exit_code = 1


class SolverError(DfnError):
    exit_code = 5


class SingularSystem(SolverError):
    pass


class UnconstrainedPressureWarning(UserWarning):
    """A connected component has no Dirichlet data; one pressure is pinned.

    The well-posedness analysis assumes Dirichlet data somewhere; runs
    without it are permitted but flagged.
    """


class IgnoredInputWarning(UserWarning):
    """An input the chosen model has no use for was read and ignored; the
    message names its JSON path."""
