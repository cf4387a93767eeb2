"""Sparse random factor-graph inference models with prescribed degrees.

Null, teacher-student and partition-function-tilted samplers, exact
desk-scale oracles, the Bethe free-entropy functional with a
population-dynamics maximiser search, and the variational mutual-information
and condensation-threshold machinery, instantiated for parity-check codes
over a noisy channel, the regular block model / Potts antiferromagnet, and
the diluted mixed-interaction spin model.
"""

__version__ = "0.1.0"

from .bethe import (BetheEstimate, MIResult, ScanResult, SimplexPopulation,
                    SupBethe, annealed_free_entropy, bethe_estimate,
                    bethe_uniform_atom, mutual_information,
                    population_dynamics, size_biased, sup_bethe,
                    threshold_scan)
from .exact import (BoltzmannSummary, BPState, bethe_instance, boltzmann_sample,
                    bp_marginals, bp_run, expected_weight, information_term,
                    mi_monte_carlo, nishimori_check, partition_function, pin,
                    sample_nishimori, two_point)
from .graphmodel import (DegreeSequence, DegreeSpec, FactorGraph,
                         WeightFamily, pair_uniform, sample_degree_sequence,
                         sample_null, sample_planted, sample_pruned_sequence,
                         uniform_assignment)
from .models import ModelSpec, kspin, ldgm, ldgm_channel, lrc_threshold, sbm
from .assumptions import (CheckReport, certify_pos, check_all, check_bal,
                          check_deg, check_pos, check_sym)

__all__ = [name for name in dir() if not name.startswith("_")]
