import pytest

from polycs.errors import ConvergenceFailure
from polycs.states import CSFamily, cs_from_xbar, family_deformation
from polycs.stats import GridSpec, norm_derivatives
from polycs.tables import norm_table


class TestNormTable:
    """The batched table against `norm_derivatives`, state by state."""

    @pytest.mark.parametrize("coeffs", [(1.0,), (1.0, 2.0), (0.5, -1.0, 2.0)],
                             ids=["linear", "higgs", "p3"])
    @pytest.mark.parametrize("family", list(CSFamily), ids=lambda f: f.value)
    def test_bits_match_norm_derivatives(self, family, coeffs):
        top = 0.9 if family is CSFamily.SU11_PCS and coeffs == (1.0,) else 6.0
        grid = GridSpec(0.0, top, 7, (0.5, 1.0, 2.5, 8.0))
        xbars, norms, terms = norm_table(family, coeffs, grid)
        assert norms.shape == terms.shape == (7, 4, 3)
        for point, value in enumerate(grid.values()):
            for col, label in enumerate(grid.labels):
                spec = cs_from_xbar(family, family_deformation(family, coeffs, label),
                                    float(value))
                assert xbars[point] == spec.xbar
                want = [v.hex() for v in norm_derivatives(spec)]
                assert [v.hex() for v in norms[point, col].tolist()] == want

    def test_unsettled_cell_is_named(self):
        # 1F0(1; ; z) = 1/(1-z) needs ~3e5 terms at z = 0.9999; z = 0.5 settles
        grid = GridSpec(0.5, 0.9999, 2, (0.5,))
        with pytest.raises(ConvergenceFailure, match=r"xbar=0\.9999, label=0\.5"):
            norm_table(CSFamily.SU11_PCS, (1.0,), grid)

    def test_non_finite_cell_is_named(self):
        # (1 + x)^400 at x = 1e4 leaves float range; x = 1 does not
        grid = GridSpec(1.0, 1e4, 2, (1.0, 200.0))
        with pytest.raises(ConvergenceFailure, match=r"not finite at xbar=10000, label=200"):
            norm_table(CSFamily.SU2_PCS, (1.0,), grid)
