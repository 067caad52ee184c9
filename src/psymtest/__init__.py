"""Query-access property testing for Boolean functions.

Representations with uniform query access, influence and symmetric-influence
measurement, randomized testers for juntas and partial symmetry, a one-query
core sampler, an isomorphism tester for functions in core form, and exact
brute-force oracles for desk-scale verification.
"""

from .boolfn import (
    BooleanFunction,
    CountingFunction,
    KLinear,
    PartiallySymmetricCore,
    Permutation,
    Permuted,
    SymmetricProfile,
    TruthTable,
    apply_permutation,
    counting_oracle,
    function_from_json,
    function_to_json,
    load_function,
    random_core_spec,
    random_function,
    read_count,
    save_function,
)
from .influence import (
    FourierTable,
    closest_j_symmetric,
    influence_exact,
    influence_mc,
    symmetric_distance,
    symmetric_influence_exact,
    symmetric_influence_fourier,
    symmetric_influence_mc,
    walsh_hadamard,
)
from .isomorphism import best_assignment, consistency_fraction, iso_test
from .oracle import (
    SetFamily,
    dist_exact,
    dist_to_iso_class,
    dist_to_k_junta,
    dist_to_t_symmetric,
    find_core,
    is_j_symmetric,
    is_t_intersecting,
    mu_p,
    tv_exact,
    tv_hypergeometric_binomial,
)
from .sampling import (
    CoreSample,
    SamplerHandle,
    SamplerRejected,
    build_sampler,
    draw_core_sample,
    marginal_tv_estimate,
    sample_dstar,
)
from .testers import (
    Partition,
    TesterConfig,
    TestVerdict,
    find_asymmetric_set,
    junta_test,
    partially_symmetric_test,
    random_partition,
)

__version__ = "0.1.0"
