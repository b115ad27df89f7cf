"""Desk-scale harness for the three regimes of Psi(x,y)/(x rho(u)).

With y = (log x)^c the ratio Psi/(x rho(u)) behaves differently for
c in (1,2), c = 1, and c in (0,1).  This module evaluates both sides
numerically: the measured gap log Psi - log(x rho(u)) from exact counts
and Dickman's rho, the predicted main term per regime, the three-term
expansion of log(x rho(u)), and the oscillation quantity
S(alpha,y) - I((1-alpha) log y) with its prime-power integral
counterparts.  Everything here reports numbers; nothing asserts the
asymptotic statements themselves.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dickman import RHO_U_MAX, int_exp, rho
from .errors import DomainError, RangeError, ResourceError
from .prime_tables import PrimeTable, _exact_parts, exact_sum
from .psi_exact import _preflight, psi_enumerate
from .saddle import SaddleState, solve_alpha

# y > e^e makes log log log y positive (the oscillation normalizer), though
# just above e^e it still rounds to 0, so oscillation_record tests it too
_MIN_OSC_Y = math.exp(math.e)


@dataclass
class RegimeRecord:
    log_x: float
    c: float
    y: float              # (log x)^c
    u: float
    alpha: float
    log_psi_exact: float
    log_x_rho: float      # log x + log rho(u)
    measured_gap: float   # log_psi_exact - log_x_rho
    predicted_gap: float  # regime main term, no O-terms
    regime: str
    flag: str = ""        # "alpha_ge_half": c in (1,2) side condition unmet

    def __post_init__(self):
        # derived from regime and alpha, so records built or read agree
        self.flag = "alpha_ge_half" if self.regime == "c_in_1_2" and self.alpha >= 0.5 else ""


@dataclass
class OscillationRecord:
    y: float
    alpha: float
    s_sum: float          # S(alpha, y)
    i_term: float         # I((1 - alpha) log y)
    diff: float
    normalizer: float     # y^(1/2-alpha) log_3 y / log y
    normalized_diff: float


def classify_regime(c: float) -> str:
    if not 0.0 < c < 2.0:
        raise DomainError(f"regimes cover c in (0, 2), got {c}")
    if c < 1.0:
        return "c_lt_1"
    return "c_eq_1" if c == 1.0 else "c_in_1_2"


def predicted_gap(log_x: float, c: float, state: SaddleState) -> float:
    """Main term of log(Psi/(x rho(u))) in the regime that c selects.

    All O- and o-terms are dropped; callers compare against measured_gap
    and report the ratio rather than pretending the asymptotics are exact.
    For c in (1,2) the formula is only meaningful when alpha < 1/2; the
    record builder flags that case instead of raising.
    Needs finite log x > 1, so that log_2 x exists.
    """
    if not 1.0 < log_x < math.inf:
        raise DomainError(f"predicted_gap needs finite log_x > 1, got {log_x}")
    regime = classify_regime(c)
    if regime == "c_lt_1":
        return (1.0 / c - 1.0) * log_x
    if regime == "c_eq_1":
        return (math.log(4.0) - 1.0) * log_x / math.log(log_x)
    a = state.alpha
    den = (1.0 - 2.0 * a) * math.log(state.y)
    if den == 0.0:
        return math.inf
    return 0.5 * state.y ** (1.0 - 2.0 * a) / den


def log_x_rho(log_x: float, c: float) -> tuple:
    """(exact, expansion) for log(x rho(u)) when y = (log x)^c, c in (0,1].

    exact comes from dickman.rho; expansion keeps the three explicit terms

        (c-1)/c log x + (1+log c) log x/(c log_2 x) + (1-log c) log x/(c (log_2 x)^2)

    and drops the O(log x (log_3 x)^2/(log_2 x)^3) tail.
    """
    if not 0.0 < c <= 1.0:
        raise DomainError(f"log_x_rho covers c in (0, 1], got {c}")
    if log_x <= 1.0:
        raise DomainError(f"need log_x > 1 so log_2 x exists, got {log_x}")
    l2 = math.log(log_x)
    u = log_x / (c * l2)
    exact = log_x + rho(u)
    lc = math.log(c)
    expansion = ((c - 1.0) / c * log_x
                 + (1.0 + lc) * log_x / (c * l2)
                 + (1.0 - lc) * log_x / (c * l2 * l2))
    return exact, expansion


def regime_y(log_x: float, c: float) -> float:
    """y = (log x)^c, for log x > 1 so that u = log x / log y is finite."""
    if not log_x > 1.0:
        raise DomainError(f"need log_x > 1, got {log_x}")
    try:
        return log_x ** c
    except OverflowError:
        raise RangeError(f"(log x)^c overflows a double at log_x={log_x}, c={c}") from None


def regime_record(log_x: float, c: float, table: PrimeTable, *,
                  x_exact=None, max_count: float = 10**8) -> RegimeRecord:
    """Evaluate both sides of the regime comparison at one (x, c) point.

    measured_gap uses only the exact count and dickman.rho; predicted_gap
    uses only closed forms and the saddle state, so the two sides stay
    independent.  x_exact (an int) resolves guard-band points exactly when
    the caller knows x beyond its logarithm; psi_enumerate refuses a count
    over max_count.
    """
    regime = classify_regime(c)
    y = regime_y(log_x, c)
    if not y >= 2.0:  # (log x)^c rounds to 1 for tiny c, and log y would be 0
        raise DomainError(f"regime_record needs y = (log x)^c >= 2, got {y:.6g}")
    u = log_x / math.log(y)
    state = solve_alpha(log_x, table, y)
    count = psi_enumerate(log_x, table, y, x_exact=x_exact, max_count=max_count)
    lpsi = math.log(count.count)
    lxr = log_x + rho(u)
    return RegimeRecord(
        log_x=log_x, c=c, y=y, u=u, alpha=state.alpha,
        log_psi_exact=lpsi, log_x_rho=lxr, measured_gap=lpsi - lxr,
        predicted_gap=predicted_gap(log_x, c, state), regime=regime,
    )


def oscillation_record(y: float, c: float, table: PrimeTable) -> OscillationRecord:
    """S(alpha,y) - I((1-alpha) log y), normalized by y^(1/2-alpha) log_3 y/log y.

    alpha is the saddle point of the (x, y) pair with y = (log x)^c, i.e.
    log x = y^(1/c).
    """
    if not (_MIN_OSC_Y < y < math.inf and math.log(math.log(math.log(y))) > 0.0):
        raise DomainError(f"oscillation_record needs finite y > e^e for log_3 y > 0, got {y}")
    if not 1.0 < c < 2.0:
        raise DomainError(f"oscillation regime needs c in (1, 2), got {c}")
    alpha = solve_alpha(y ** (1.0 / c), table, y).alpha
    ly = math.log(y)
    terms = np.multiply(table.log_primes[:table.pi(y)], -alpha)
    s_sum = exact_sum(np.exp(terms, out=terms))
    i_term = int_exp((1.0 - alpha) * ly)
    diff = s_sum - i_term
    normalizer = y ** (0.5 - alpha) * math.log(math.log(ly)) / ly
    return OscillationRecord(y=y, alpha=alpha, s_sum=s_sum, i_term=i_term,
                             diff=diff, normalizer=normalizer,
                             normalized_diff=diff / normalizer)


def oscillation_scan(c: float, y_grid, table: PrimeTable) -> list:
    """OscillationRecords over y_grid in ascending y, one point after another."""
    return [oscillation_record(y, c, table) for y in sorted(float(y) for y in y_grid)]


def largest_feasible_log_x(c: float, table: PrimeTable, *,
                           max_count: float = 10**8) -> float:
    """Largest log x whose regime record at this c stays within budget.

    Feasible means: y = (log x)^c within the prime table, u within the range
    of dickman.rho, and a count that psi_enumerate admits under max_count
    (psi_exact._preflight decides).  All three tighten monotonically in
    log x, so doubling plus bisection, until mid rounds to lo or hi, finds
    the frontier.  Used by scans when the caller names only c.  When
    log x = 9 is already infeasible, the error names the first bound that
    fails there: a ResourceError for the prime table or the count (caps),
    a DomainError for y = 9^c below 2 or a max_count that is not positive.
    """
    classify_regime(c)

    def broken(lx: float):
        # the first bound that log x = lx breaks, as (error type, message), or None
        y = lx ** c
        if y < 2.0:
            return DomainError, f"y = {y:.3g} lies below 2"
        if y > table.limit:
            return ResourceError, f"y = {y:.3g} exceeds the prime table limit {table.limit}"
        u = lx / math.log(y)
        if u > RHO_U_MAX:
            return RangeError, f"u = {u:.3g} lies beyond rho's range {RHO_U_MAX:g}"
        try:
            _preflight(lx, table, y, max_count)
        except ResourceError as exc:
            return ResourceError, str(exc)
        return None

    lo = 9.0
    if (why := broken(lo)) is not None:
        error, message = why
        raise error(f"no feasible x at c={c}: at log x = {lo:g}, {message}")
    hi = lo * 2.0
    while broken(hi) is None:
        lo = hi
        hi *= 2.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if broken(mid) is None:
            lo = mid
        else:
            hi = mid
    return lo


def q_integral(y: float, alpha: float, table: PrimeTable) -> tuple:
    """(q_part, pi_part): prime-power and prime Stieltjes sums at exponent
    -alpha, each minus the smooth part int_2^y t^(-alpha)/log t dt.

    q_part = sum_{p^k <= y} (1/k) (p^k)^(-alpha) - smooth
    pi_part = sum_{p <= y} p^(-alpha) - smooth

    Their difference is exactly the k >= 2 tail, the numeric face of the
    pi-vs-Q comparison.  Which p^k are <= y comes from table.root_counts(y),
    exact at every prime power; a y past the table raises RangeError there.
    With b = 1 - alpha and t = e^v, the smooth part is
    Ei(b log y) - Ei(b log 2) = log(log y / log 2) + I(b log y) - I(b log 2),
    by Ei(s) = gamma + log s + I(s); the I terms vanish at alpha = 1.  The
    identity needs b >= 0, so alpha must lie in (0, 1].  Each part is one
    math.fsum over the exact parts of its prime (and tail) terms and the
    three smooth terms, rounded once, so a part that cancels to near 0
    keeps relative accuracy in those float terms; the prime terms are
    extracted once for both parts.
    """
    if not 2.0 <= y:
        raise DomainError(f"need y >= 2, got {y}")
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"need 0 < alpha <= 1, got {alpha}")
    lp = table.log_primes
    k_end, *roots = table.root_counts(y)
    terms = np.multiply(lp[:k_end], -alpha)
    primes = _exact_parts(np.exp(terms, out=terms))
    # (p^k)^(-alpha) / k for the primes p with p^k <= y, k >= 2
    tail = [part for k, c in enumerate(roots, start=2)
            for part in _exact_parts(np.exp(-alpha * k * lp[:c]) / k)]
    log_y, log_2, b = math.log(y), math.log(2.0), 1.0 - alpha
    smooth = [-math.log(log_y / log_2), -int_exp(b * log_y), int_exp(b * log_2)]
    return math.fsum(primes + tail + smooth), math.fsum(primes + smooth)


# --- CSV plumbing -------------------------------------------------------------------

REGIME_HEADER = "log_x,c,y,u,alpha,log_psi_exact,log_x_rho,measured_gap,predicted_gap,regime"
OSCILLATION_HEADER = "y,alpha,S,I,diff,normalizer,normalized_diff"


def write_regime_csv(records, fh) -> None:
    fh.write(REGIME_HEADER + "\n")
    for r in records:
        fh.write(f"{r.log_x:.17g},{r.c:.17g},{r.y:.17g},{r.u:.17g},{r.alpha:.17g},"
                 f"{r.log_psi_exact:.17g},{r.log_x_rho:.17g},{r.measured_gap:.17g},"
                 f"{r.predicted_gap:.17g},{r.regime}\n")


def _csv_rows(fh, header: str, n_float: int):
    # (first n_float fields as floats, the rest as text) per non-blank row;
    # a bad header, row width or number raises DomainError naming the line
    got = fh.readline().strip()
    if got != header:
        raise DomainError(f"unexpected header: {got!r}")
    width = header.count(",") + 1
    for n, line in enumerate(fh, start=2):
        parts = line.strip().split(",")
        if parts == [""]:
            continue
        if len(parts) != width:
            raise DomainError(f"line {n}: {len(parts)} fields, expected {width}")
        try:
            vals = [float(v) for v in parts[:n_float]]
        except ValueError:
            raise DomainError(f"line {n}: not a number in {line.strip()!r}") from None
        yield vals, parts[n_float:]


def read_regime_csv(fh) -> list:
    return [RegimeRecord(*vals, regime=regime)
            for vals, (regime,) in _csv_rows(fh, REGIME_HEADER, 9)]


def write_oscillation_csv(records, fh) -> None:
    fh.write(OSCILLATION_HEADER + "\n")
    for r in records:
        fh.write(f"{r.y:.17g},{r.alpha:.17g},{r.s_sum:.17g},{r.i_term:.17g},"
                 f"{r.diff:.17g},{r.normalizer:.17g},{r.normalized_diff:.17g}\n")


def read_oscillation_csv(fh) -> list:
    return [OscillationRecord(*vals) for vals, _ in _csv_rows(fh, OSCILLATION_HEADER, 7)]
