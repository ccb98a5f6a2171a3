import pytest

from pinquad.fixtures import catalog


@pytest.fixture(scope="session")
def rp2():
    return catalog("rp2")


@pytest.fixture(scope="session")
def torus():
    return catalog("torus")


@pytest.fixture(scope="session")
def klein():
    return catalog("klein")


@pytest.fixture(scope="session")
def mobius():
    return catalog("mobius")


@pytest.fixture(scope="session")
def annulus():
    return catalog("annulus")


@pytest.fixture(scope="session")
def solid_torus():
    return catalog("solid_torus")


@pytest.fixture(scope="session")
def sphere1():
    return catalog("sphere1")


@pytest.fixture(scope="session")
def sphere2():
    return catalog("sphere2")


@pytest.fixture(scope="session")
def disk2():
    return catalog("disk2")


@pytest.fixture(scope="session")
def cp2():
    return catalog("cp2")


@pytest.fixture(scope="session")
def eleven_tori():
    """Disjoint union of 11 tori: dim H^1 = 22, past the enumeration budget."""
    from pinquad.complexes import disjoint_union, validate_manifold

    x = z = catalog("torus").complex
    for _ in range(10):
        z, _, _ = disjoint_union(z, x)
    return validate_manifold(z, 2)
