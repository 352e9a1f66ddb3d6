"""Weighted Sonine kernels: verification of weighted compatibility
conditions and solvers for the integral and nonlocal differential
equations they make tractable."""

from .errors import (ConfigError, DomainError, ExprError, ExprSyntaxError,
                     NumericalError, UnknownIdentifierError,
                     UnsupportedConfigurationError, ValidationError,
                     WsonineError)
from .expr import ExprAst, as_function, diff_expr, eval_expr, parse_expr
from .kernels import (KERNEL_PRESETS, WEIGHT_PRESETS, KernelPair,
                      VarExponent, Weight, kappa, kernel_preset, licm_check,
                      weight_preset)
from .quadrature import (JacobiRule, Mesh, default_grading, graded_panel_quad,
                         jacobi_rule, power_conv_apply, power_conv_rows,
                         power_conv_weights)
from .sonine import (G_reference, SonineData, associate_from_wsc2,
                     csc_residual, eval_G, eval_G2, eval_g, eval_g2,
                     g_reference, wsc1_report, wsc2_report)
from .subdiffusion import PdeConfig, PdeSolution, l1_weights, solve_subdiffusion
from .vie import (FirstKindProblem, Forcing, NonlocalOdeProblem,
                  SecondKindProblem, SolveReport, construct_csc_associate,
                  manufactured_forcing, residual_first_kind, solve_first_kind,
                  solve_nonlocal_ode, solve_second_kind)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
