"""Friable-integer counting and the saddle-point apparatus, desk scale."""

__version__ = "0.1.0"

from .errors import (
    DisagreementError,
    DomainError,
    FriabilisError,
    NumericError,
    RangeError,
    ResourceError,
)
from .dickman import (
    RhoGrid,
    XiValue,
    build_rho_grid,
    default_grid,
    int_exp,
    log_rho_array,
    rho,
    rho_asymptotic,
    xi,
    xi_expansion,
    xi_integral,
    xi_prime,
)
from .psi_exact import (
    PsiResult,
    psi_buchstab,
    psi_enumerate,
    psi_sieve,
)
from .saddle import (
    SaddleState,
    alpha_approx,
    f_at_beta_identity,
    f_sigma,
    prime_power_sums,
    psi_saddle,
    solve_alpha,
    w_sigma,
    zeta_partial,
)
from .prime_tables import (
    PrimeTable,
    RemainderSample,
    big_pi,
    chebyshev_psi,
    li,
    remainder_sample,
    sieve_primes,
)
from .theorem import (
    OscillationRecord,
    RegimeRecord,
    classify_regime,
    largest_feasible_log_x,
    log_x_rho,
    oscillation_record,
    oscillation_scan,
    predicted_gap,
    q_integral,
    read_oscillation_csv,
    read_regime_csv,
    regime_record,
    regime_y,
    write_oscillation_csv,
    write_regime_csv,
    z_bruijn,
    z_cases,
)
