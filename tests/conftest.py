import pytest

from bruhatkl.coxeter import CoxeterSystem


def pytest_addoption(parser):
    parser.addoption(
        "--run-f4", action="store_true", default=False,
        help="run the long F4 sweeps (lengths <= 9, and the whole group)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-f4"):
        return
    skip = pytest.mark.skip(reason="needs --run-f4")
    for item in items:
        if "f4sweep" in item.keywords:
            item.add_marker(skip)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "f4sweep: long F4 verification sweeps, enable with --run-f4")


@pytest.fixture(scope="session")
def a2():
    return CoxeterSystem.A(2)


@pytest.fixture(scope="session")
def b2():
    return CoxeterSystem.B(2)


@pytest.fixture(scope="session")
def a3():
    return CoxeterSystem.A(3)


@pytest.fixture(scope="session")
def b3():
    return CoxeterSystem.B(3)


@pytest.fixture(scope="session")
def f4():
    return CoxeterSystem.F4()


@pytest.fixture(scope="session")
def triangle443():
    # infinite rank-3 system: m(s1,s2)=4, m(s1,s3)=m(s2,s3)=3
    return CoxeterSystem([[1, 4, 3], [4, 1, 3], [3, 3, 1]])


@pytest.fixture(scope="session")
def triangle444():
    # infinite rank-3 system with every bond order 4
    return CoxeterSystem([[1, 4, 4], [4, 1, 4], [4, 4, 1]])
