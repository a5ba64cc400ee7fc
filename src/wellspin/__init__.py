"""wellspin: a desk-scale numerical laboratory for discrete multi-well
elastic energies and finite-range lattice spin Hamiltonians."""

from .wells import (
    WellSet,
    WellSetError,
    RankOneConnection,
    well_distance,
    solve_rank_one,
    solve_all_connections,
    compute_dbar,
    polar_rotation,
    rotation_2d,
    random_rotation,
)
from .mesh import (
    SimplicialMesh,
    MeshError,
    MeshResourceError,
    build_kuhn_mesh,
    kuhn_reference_normals,
    check_incompatibility,
    find_admissible_rotation,
)
from .fields import (
    PWAffineField,
    FieldError,
    EnergyReport,
    evaluate_energy,
    build_laminate,
)
from .spin import (
    BAD_LABEL,
    PhaseLabeling,
    SpinError,
    CaccioppoliPartition,
    classify,
    verify_spin_lemma,
    discrete_perimeter,
    extract_partition,
    count_bad_cells,
)
from .rigidity import (
    IncompatibleField,
    CurlMeasure,
    RigidityError,
    build_reduced_field,
    curl_total_variation,
    rigidity_ratio,
    bv_structure_check,
    weak_rigidity_ratio,
)
from .lattice import (
    LatticeSystem,
    LatticeDeformation,
    LatticeError,
    EnergyBoundError,
    GroundState,
    antiferro_system,
    antiferro_chain,
    synthetic_twin_system,
    ground_state_deformation,
    evaluate_hamiltonian,
    classify_lattice,
    verify_h2,
    averaged_gradient_field,
    lattice_partition_diagnostics,
)
from .harness import (
    SCENARIOS,
    ScalingReport,
    run,
    validate_config,
    substream,
)

__version__ = "0.1.0"
