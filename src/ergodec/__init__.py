"""Exact and Monte Carlo ergodic decomposition for symmetric-group chains on
binary configuration spaces."""

from .averaging import (
    average_exact,
    conditional_expectation_check,
    default_schedule,
    fubini_check,
    invariance_check,
    tower_check,
)
from .cocycles import Cocycle, constant_one, make_rho_f, make_rn, verify_identity
from .counterexamples import (
    InvariantSetFullGroup,
    demonstrate_kolmogorov,
    measure_of_invariant_set,
)
from .decomposition import (
    DecomposeConfig,
    DecomposingMeasure,
    LimitStatistic,
    assemble,
    barycenter_residual,
    conditional_measures_exact,
    decompose,
    ergodicity_test,
    ks_statistic,
    pi_phi,
)
from .dictionary import CylinderMonomial, TestDictionary
from .errors import (
    CapacityError,
    DegreeOverflowError,
    DivergentIntegralError,
    NonConvergenceError,
    ZeroMassError,
)
from .groups import (
    Config,
    Permutation,
    act,
    compose,
    enumerate_level,
    haar_sample,
)
from .measures import (
    AtomicMeasure,
    BetaExchangeable,
    Cylinder,
    Mixture,
    OrbitSigmaFinite,
    ProductBernoulli,
    ac_check,
    expectation_monomial,
    rn_derivative,
)
from .rng import RandomStream, substream
from .sigma_finite import (
    GeometricWeight,
    MeasureClassDescriptor,
    ProjectiveClass,
    decompose_sigma_finite,
    inv_p_f,
    make_fibrewise_f,
    orbital_dichotomy,
    orbital_measure,
    p_f,
    pcl,
    reweight_decomposition,
)

__version__ = "0.1.0"
