import pytest

from idcos.pde2d import DirectionalDiffusionOperator


@pytest.fixture
def line_factors(monkeypatch):
    """The line factorisations made during the test, one (operator, alpha)
    entry each, counted by the growth of an operator's ``_solvers``."""
    built = []
    lookup = DirectionalDiffusionOperator._solver

    def counted(self, alpha):
        kept = len(self._solvers)
        solver = lookup(self, alpha)
        if len(self._solvers) > kept:
            built.append((self, alpha))
        return solver

    monkeypatch.setattr(DirectionalDiffusionOperator, "_solver", counted)
    return built
