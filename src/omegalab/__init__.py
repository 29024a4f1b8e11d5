"""Desk-scale experiments on prime-factor counting statistics.

The package sieves exact factor counts over large ranges, measures
level-set densities against the Gaussian they approach, compares
two-point correlations with their predicted product form, and probes
the Fourier/pretentious machinery that links the two: frequency
expansions over shrinking intervals, reduced mean-square sums over
prime windows, and distance-based mean-value bounds.
"""

from .errors import (CapacityError, ContractError, DegenerateWindowError,
                     EmptyDomainError, UnknownPresetError)
from .sieve import (BigOmega, CountMode, FactorCountBlock, SieveConfig,
                    SmallOmega, TruncatedOmega, enumerate_primes, factor_counts,
                    liouville, omega_oracle, read_block, truncation_cutoff,
                    write_block, write_block_csv)
from .stats import (DensityTable, GaussianModel, TypicalRange, density_table,
                    density_l1_gap, erdos_kac_ks, gaussian_density,
                    gaussian_model, normal_cdf, sathe_selberg_ratio_check,
                    turan_kubilius_check, typical_range, write_density_csv)
from .profiles import (CESARO, LOGARITHMIC, TwoPointProfile, adopt_block,
                       invalidate_cache, two_point_profile)
from .correlation import (BoundedFunction, CorrelationReport, constant_function,
                          fourier_mode_function, indicator_function,
                          k_point_explore, parity_function, prime_shift_identity,
                          random_bounded_function, theorem_a_report,
                          theorem_c_sum, two_point_lhs)
from .pretentious import (FrequencyFamily, MultFunSpec, dist_formula_residual,
                          distance_sq_to_twist, frequency_family, halasz_audit,
                          liouville_spec, log_t_grid, m0, mean_over_range,
                          mode_spec, prime_trig_sums)
from .reduction import (FourierTable, PrimeWindow, fourier_expand,
                        major_arc_measure, parseval_audit, prime_exponential_sum,
                        prime_window, reduced_sum_terms, taylor_truncation,
                        window_formula_bounds)
from .oracle import (PeriodicCombo, PeriodicTerm, brute_correlation,
                     indicator_combo, periodic_independence_check)

__version__ = "0.1.0"
