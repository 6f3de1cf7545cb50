"""Exact-arithmetic Fourier expansions of degree-2 Siegel and Hermitian
Eisenstein series, their cusp forms, and Ramanujan-type congruences."""

from .arith import (
    KroneckerCharacter,
    bernoulli,
    divisor_power_sum,
    format_rational,
    fundamental_decomposition,
    g_value,
    generalized_bernoulli,
    kronecker_chi,
    mobius,
    p_valuation,
    parse_rational,
)
from .congruence import (
    CongruenceReport,
    WitnessReport,
    bruinier_search,
    condition_a_check,
    condition_b_primes,
    cusp_correction,
    irregular_pairs,
    nontriviality_witness,
    reduce_mod_p,
    solve_lambda,
    verify_congruence,
)
from .elliptic import (
    IsobaricPolynomial,
    decompose_into_e4_e6,
    delta_expansion,
    elliptic_eisenstein,
    ramanujan_tau,
)
from .expansion import (
    ELLIPTIC,
    TruncatedExpansion,
    exp_add,
    exp_multiply,
    exp_parse,
    exp_scale,
    exp_serialize,
    phi_operator,
)
from .hermitian import (
    CLASS_NUMBER_ONE_DISCRIMINANTS,
    ImagQuadField,
    hermitian_cusp_form,
    hermitian_e_coefficient,
    hermitian_expansion,
    hermitian_g_coefficient,
    hermitian_lattice,
    imag_quad_field,
)
from .siegel import (
    SIEGEL,
    igusa_x10,
    igusa_x12,
    siegel_e_coefficient,
    siegel_expansion,
    siegel_g_coefficient,
)

__version__ = "0.1.0"
