"""The package boundary follows the layers: a scan loads no PDE module, and
only the stacked lines of a variable coefficient load scipy."""

import importlib
import os
import subprocess
import sys

import pytest

import idcos

SRC = os.path.dirname(os.path.dirname(os.path.abspath(idcos.__file__)))
PDE_MODULES = ("idcos.banded", "idcos.stencils", "idcos.pde2d", "idcos.problems")

# every name the package exported when it imported all its layers eagerly
EXPORTS = {
    "errors": ("LinearSolveError", "NewtonError", "PoleError", "SolverError",
               "StepperError", "UnsupportedSchemeError", "UsageError"),
    "idc": ("ErrorProblem", "IDCConfig", "IDCLevelResult", "correct_once", "idc_march",
            "idc_solve", "predict", "solve_macro_interval"),
    "ode": ("DiagonalLinearOperator", "MatrixLinearOperator", "SplitIVP", "ZeroOperator"),
    "polyint": ("UniformNodeSet", "lagrange_eval", "partial_integral"),
    "steppers": ("adi_step", "get_stepper", "lie_trotter_step", "strang_step"),
    "banded": ("BandedMatrix",),
    "stencils": ("StencilOperator", "build_stencil", "fd_weights"),
    "pde2d": ("CoefficientField", "DirectionalDiffusionOperator", "Grid2D",
              "PointwiseSourceOperator", "SemiDiscreteSystem", "adi_pde_step"),
    "problems": ("PDEProblem", "PROBLEM_BUILDERS", "example1", "example2", "example3",
                 "fhn", "schnakenberg"),
    "stability": ("StabilityScan", "amplification", "amplification_field", "scan_region",
                  "stability_boundary_real_axis"),
    "harness": ("ConvergenceReport", "RunConfig", "run_convergence", "run_simulation",
                "run_stability", "write_field_snapshot"),
}


def loaded_after(code, tmp_path):
    """Run code in a fresh interpreter; the modules it left loaded."""
    script = code + ("\nimport sys\n"
                     "print(' '.join(m for m in sys.modules if m.startswith(('scipy', 'idcos'))))")
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


class TestImportClosure:
    def test_scan_loads_no_pde_backend(self, tmp_path):
        loaded = loaded_after(
            "import contextlib, io\n"
            "from idcos.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['stability', '--scheme', 'strang', '--resolution', '21,21',\n"
            "                 '--out', 'scan'])\n"
            "assert code == 0, code", tmp_path)
        assert "idcos.stability" in loaded
        assert not {m for m in loaded if m.startswith("scipy")}
        assert not loaded & set(PDE_MODULES)

    def test_scan_config_loads_no_pde_backend(self, tmp_path):
        loaded = loaded_after("from idcos.harness import RunConfig\n"
                              "RunConfig(experiment='stability')", tmp_path)
        assert "idcos.harness" in loaded
        assert not {m for m in loaded if m.startswith("scipy")}
        assert not loaded & set(PDE_MODULES)

    def test_ladder_loads_pde_backend(self, tmp_path):
        loaded = loaded_after(
            "from idcos.harness import RunConfig, run_convergence\n"
            "run_convergence(RunConfig(problem='example2', scheme='strang', grid_n=8,\n"
            "                          nt_list=(4, 8), corrections=(0,), end_time=0.01,\n"
            "                          out_dir='ladder'))", tmp_path)
        assert set(PDE_MODULES) <= loaded
        assert {"scipy.sparse", "scipy.linalg"} <= loaded

    def test_stacked_lines_load_scipy_as_the_problem_is_built(self, tmp_path):
        # before any solve: the variable-coefficient operators import the
        # banded solver in their constructor
        loaded = loaded_after("from idcos.problems import example2\n"
                              "example2(N=8)", tmp_path)
        assert {"scipy.sparse", "scipy.linalg", "idcos.banded"} <= loaded

    @pytest.mark.parametrize("args", [
        "convergence --problem example1 --scheme adi --grid 8 --nt 4,8 --end-time 0.01",
        "simulate --problem fhn --scheme lie-trotter --grid 16 --dt 0.005 "
        "--snap-times 0.01 --end-time 0.01",
        "simulate --problem schnakenberg --scheme lie-trotter --grid 16 --dt 0.001 "
        "--snap-times 0.002 --end-time 0.002",
    ], ids=["example1", "fhn", "schnakenberg"])
    def test_constant_coefficient_run_loads_no_scipy(self, tmp_path, args):
        # one shared line per direction: a dense numpy inverse, no banded solver
        loaded = loaded_after(
            "import contextlib, io\n"
            "from idcos.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({args.split()!r} + ['--out', 'run'])\n"
            "assert code == 0, code", tmp_path)
        assert {"idcos.pde2d", "idcos.problems"} <= loaded
        assert not {m for m in loaded if m.startswith("scipy")}
        assert "idcos.banded" not in loaded


class TestPublicNames:
    @pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTS.items()
                                             for n in names])
    def test_name_is_its_module_attribute(self, module, name):
        defining = importlib.import_module(f"idcos.{module}")
        assert getattr(idcos, name) is getattr(defining, name)

    def test_submodule_import(self):
        from idcos import banded
        assert banded.BandedMatrix is idcos.BandedMatrix

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no attribute 'write_snapshot'"):
            idcos.write_snapshot
        assert not hasattr(idcos, "scipy")
