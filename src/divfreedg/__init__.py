"""Exactly divergence-free H(div)-conforming DG solver for incompressible
flow, with explicit second-order Runge-Kutta time stepping, a semi-implicit
Crank-Nicolson comparator, and the experiment harness around them."""

from .mesh import Mesh, build_structured
from .quadrature import SegmentRule, TriangleRule, segment_rule, triangle_rule
from .fe_space import RTSpace, ScalarDGSpace, CoefVec, rt_interpolate
from .forms import (FormParams, assemble_mass, assemble_div, apply_convection,
                    convection_matrix, assemble_sip, assemble_load,
                    jump_seminorm)
from .linsolve import (StreamFunctionProjection, SaddleSystem, CNSystem,
                       build_saddle, project_div_free, cn_solve, BlowUpSignal)
from .manufactured import (ExactProblem, taylor_green, l2_error,
                           h1_broken_error, div_norm, rate_table)
from .integrators import SchemeConfig, StepState, Discretization, rk2_step, cn_step, run
from .diagnostics import (RunReport, SweepResult, energy_residual, cfl_sweep,
                          convergence_study)

__version__ = "0.1.0"
