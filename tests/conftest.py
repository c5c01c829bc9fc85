import pytest

from bispade import ModeSpace, SchmidtModel


@pytest.fixture(scope="session")
def model015():
    return SchmidtModel.from_gamma(0.15)


@pytest.fixture(scope="session")
def model_gauss():
    return SchmidtModel.from_gamma(1.0)


@pytest.fixture(scope="session")
def space7():
    return ModeSpace.grid()


@pytest.fixture
def no_overlap_table(monkeypatch):
    # building an overlap table fails at once: an order past 2**63 - 1 that
    # got past its check would otherwise loop without end in the table layout
    from bispade import model, overlap

    def refuse(n, d):
        raise AssertionError(f"an overlap table of order {n} was built")

    monkeypatch.setattr(overlap, "_overlap_amplitudes", refuse)
    monkeypatch.setattr(model, "_overlap_amplitudes", refuse)
