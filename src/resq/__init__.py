"""Resistance Laplacian and signless Laplacian matrices, spectra and energy.

Builds the resistance distance matrix of a connected graph from the
Laplacian pseudoinverse, forms Diag(RTr) -/+ R, computes spectra and the
associated energy, and checks the known closed forms and bounds.
"""

from .closed_forms import ClosedForm, closed_form
from .energy import (
    BoundCheck,
    EnergyReport,
    resistance_laplacian_energy,
)
from .errors import (
    Disconnected,
    DuplicateEdge,
    GraphInputError,
    InvalidFamilyParams,
    InvalidPartition,
    MalformedLine,
    NegativeRadicand,
    NotSymmetric,
    ResqError,
    SelfLoop,
    VertexOutOfRange,
)
from .graph import (
    FamilySpec,
    Graph,
    classical_distance_matrix,
    format_edge_list,
    generate,
    is_connected,
    laplacian,
    parse_edge_list,
    random_connected_graph,
    random_tree,
)
from .resistance import (
    laplacian_pseudoinverse,
    resistance_bundle,
    resistance_laplacian,
    resistance_matrix,
    resistance_signless_laplacian,
)
from .spectral import (
    Partition,
    Spectrum,
    eigenvalues_symmetric,
    quotient_matrix,
)
from .verify import VerifyOutcome, rq_quotient_report, run_verify

__version__ = "0.1.0"
