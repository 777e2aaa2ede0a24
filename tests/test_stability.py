import warnings

import numpy as np
import pytest

from idcos.errors import PoleError, StepperError
from idcos.stability import amplification, amplification_field, stability_boundary_real_axis


class TestRealAxisBoundary:
    @pytest.mark.parametrize("corrections,crossing", [(1, -195.45), (2, -156.21)])
    def test_strang_crossing(self, corrections, crossing):
        tol = 1e-6
        x = stability_boundary_real_axis("strang", corrections, tol=tol)
        assert x == pytest.approx(crossing, abs=0.01)
        step = 2 * tol * abs(x)
        assert abs(amplification(x + step, "strang", corrections)) <= 1.0
        assert abs(amplification(x - step, "strang", corrections)) > 1.0

    @pytest.mark.parametrize("scheme", ["lie-trotter", "adi"])
    def test_a_stable_base_has_no_crossing(self, scheme):
        assert stability_boundary_real_axis(scheme, 0) is None


class TestPoles:
    # Lie-Trotter on M=3 sub-steps: the factor 1 - (1/3)(lambda/2) vanishes at lambda=6
    def test_amplification_raises_at_pole(self):
        with pytest.raises(StepperError) as err:
            amplification(6.0, "lie-trotter", 0)
        assert isinstance(err.value.__cause__, PoleError)

    def test_field_pole_cell_is_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            amp = amplification_field(np.array([6.0, -1.0]), "lie-trotter", 0)
        assert amp[0] == np.inf
        assert np.isfinite(amp[1])
