import numpy as np
import pytest

from elastopoly import Ellipsoid, Material, Sphere, elastic_basis, make_quadrature


@pytest.fixture(scope="session")
def material():
    return Material(1.0, 1.0)


@pytest.fixture(scope="session")
def sphere_quad():
    return make_quadrature(Sphere(), 32, 64)


@pytest.fixture(scope="session")
def spheroid_quad():
    return make_quadrature(Ellipsoid(semi_axes=(1.0, 1.0, 1.5)), 32, 64)


@pytest.fixture(scope="session")
def triaxial_quad():
    return make_quadrature(Ellipsoid(semi_axes=(1.0, 1.3, 1.7)), 32, 64)


@pytest.fixture(scope="session")
def basis_k4(material):
    return elastic_basis(material, 4)


@pytest.fixture(scope="session")
def basis_k8(material):
    return elastic_basis(material, 8)


def cartesian_traces(traces, quad):
    """Rows of `assemble_traces` (per sample the scalar trace, then the vector
    trace in the sample's tangent frame) lifted to Cartesian scalar (N, E)
    and vector (N, 3, E) traces, vector[n, j] = sum_a rows[3n + 1 + a] e_a[j]."""
    rows = traces.reshape(quad.n_samples, 3, -1)
    return rows[:, 0], np.einsum("nae,naj->nje", rows[:, 1:], quad.tangents)
