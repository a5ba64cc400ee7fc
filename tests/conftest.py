"""Shared fixtures: the canonical two-well system and admissible meshes."""

import numpy as np
import pytest

from wellspin.fields import build_laminate
from wellspin.mesh import build_kuhn_mesh, find_admissible_rotation
from wellspin.wells import WellSet

DELTA0 = 0.05


@pytest.fixture(scope="session")
def wells_std():
    """diag(2, 1/2) / diag(1/2, 2) at delta0=0.05."""
    return WellSet([np.diag([2.0, 0.5]), np.diag([0.5, 2.0])], delta0=DELTA0)


@pytest.fixture(scope="session")
def admissible_rotation(wells_std):
    return find_admissible_rotation(wells_std)


@pytest.fixture(scope="session")
def admissible_meshes(wells_std, admissible_rotation):
    """Rotated Kuhn meshes keyed by m, twin-incompatible at delta0=0.05."""
    rot = admissible_rotation.rotation
    return {m: build_kuhn_mesh(2, m, lattice_rotation=rot) for m in (8, 16, 32, 64)}


def auto_laminate(
    mesh, wells, connection_index=0, volume_fraction=0.5, offset_frac=0.0, ripple=0.0
):
    """Laminate with the period chosen so the domain spans exactly four
    layers along the twin normal; keeps band populations stable across m."""
    conn = wells.connections[connection_index]
    corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    proj = corners @ conn.b
    span = proj.max() - proj.min()
    period = span / 2.0
    offset = proj.min() + offset_frac * period
    return build_laminate(
        mesh, wells, conn, volume_fraction, period, offset=offset, ripple=ripple
    )
