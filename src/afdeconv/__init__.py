"""Adaptive wavelet deconvolution of functional data.

Recovers a bivariate signal from noisy convolved profiles observed on
irregular (possibly singular) sampling designs with long-memory errors,
using hard-thresholded band-limited wavelet coefficients; includes
simulation, Monte Carlo verification suites, and rate benchmarks.
"""

from .wavelets import (ResolutionOverflowError, WaveletSpec, band_limit,
                       base_table, build_basis, eval_on_points, level_range,
                       shift_count)
from .model import (DesignDensity, KernelSpec, NoiseSpec, ObservationGrid,
                    ParameterError, TestFunction, bump_ramp,
                    convolved_signal, fractional_kernel, identity_kernel,
                    load_csv, make_kernel, make_test_function, noise_factor,
                    normalize_density, power_kernel, quantile_design,
                    sample_errors, save_csv, simulate_observations,
                    simulate_replicates, tensor_sinusoid)
from .estimator import (EstimatorConfig, FieldPlan, KernelNotInvertibleError,
                        SingularDesignError, choose_levels, estimate_field,
                        reconstruct, save_field_csv, save_reconstruction_csv,
                        threshold, true_coefficients)
from .analysis import (BesovParams, RateReport, RegimeResult,
                       UnclassifiedRegimeError, fit_rate, mise,
                       rate_experiment, rate_report_csv, rate_report_text,
                       theoretical_exponent, verify_lemma1, verify_lemma2,
                       verify_lemma3)

__version__ = "1.0.0"
