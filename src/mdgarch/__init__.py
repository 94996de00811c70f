"""mdgarch: simulate GARCH(1,1) processes near the IGARCH boundary and
verify their limit laws by Monte Carlo."""

from .innovations import (InnovationSpec, InvalidInnovationSpec, RngStream,
                          fourth_moment, innovation_cdf, sample_innovations,
                          validate_spec, xi_second_moment)
from .localization import (AssumptionReport, GarchParams, InfeasibleScheme,
                           LocalizationScheme, Regime, check_assumptions,
                           classify_regime, realize_params)
from .simulate import (CLASSICAL, LITERAL, DecompositionReport, GarchPath,
                       decompose_volatility, export_path_csv, path_from_eps,
                       simulate_path, volatility_multiplicative)
from .stats import (CancellationError, CheckpointGrid, StatValue, WrongRegime,
                    geometric_exp_sum, int_return_stat, int_volatility_stat,
                    lemma_discrepancy, log_geometric_exp_sum, ne_return_stat,
                    ne_volatility_stat, ns_return_stat, ns_volatility_stat,
                    tau_stats, weighted_exp_sum)
from .limits import (LimitSample, normal_cdf, normal_cdfs,
                     sample_std_normal_iid,
                     sample_time_weighted_wiener, sample_wiener_marginals,
                     time_weighted_wiener_cov, wiener_cov)
from .gof import (GofResult, kolmogorov_sf, ks_one_sample, ks_two_sample,
                  max_offdiag_abs_correlation, pairwise_correlation)
from .harness import (ConfigurationError, McConfig, McReport, run_experiment,
                      run_n_sweep, validate_config)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
