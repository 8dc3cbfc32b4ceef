"""Schur polynomials via nonintersecting lattice paths, two-coloured
changing trails, and exact verifiers for the product identities that
the recolouring bijection proves."""

__version__ = "0.1.0"

from .partitions import (
    Partition,
    SkewShape,
    CornerEncoding,
    BorderStripSpec,
    corner_encoding,
    partition_from_corners,
    apply_pi,
    apply_mu,
    apply_nested,
    apply_omega,
    partition_from_set,
)
from .polyring import Polynomial, FormalMatrix, determinant, minor
from .schur import (
    Tableau,
    LatticePath,
    PathFamily,
    TerminalSpec,
    enumerate_ssyt,
    schur_poly,
    tableau_to_paths,
    paths_to_tableau,
    path_weight,
    enumerate_families,
)
from .trails import (
    TwoColouredGraph,
    TerminalPoint,
    ChangingTrail,
    NoncrossingMatching,
    build_graph,
    terminal_points,
    trace_trail,
    trail_at_terminal,
    all_trails,
    recolour,
    terminal_matching,
    count_noncrossing_matchings,
)
from .identities import (
    IdentityReport,
    AuditReport,
    OrbitResult,
    verify_general,
    verify_kirillov,
    verify_dodgson,
    verify_pluecker,
    verify_ciucu,
    verify_kleber,
    bijection_audit,
    explore_orbit,
)
